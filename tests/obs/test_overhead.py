"""The disabled-instrumentation overhead contract.

``SubtypeEngine.holds`` pays exactly one flag check before dispatching to
``_holds_core`` (the seed decision procedure).  This micro-benchmark pins
that cost below 5% on the subtype hot loop.  Timing is interleaved and
best-of-N, and runs in a fresh interpreter with the garbage collector
off, so neither the rest of the suite's heap nor a collection pause lands
in one side of the ratio; set ``REPRO_SKIP_OVERHEAD_GUARD=1`` to skip on
loaded/shared machines.
"""

import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.core import SubtypeEngine
from repro.lang import parse_term as T
from repro.workloads import deep_nat, paper_universe

ROUNDS = 9
CALLS_PER_ROUND = 12

SRC = Path(__file__).resolve().parents[2] / "src"


def _best_time(callable_, calls=CALLS_PER_ROUND):
    start = time.perf_counter()
    for _ in range(calls):
        callable_()
    return time.perf_counter() - start


def measure_overhead():
    """Best instrumented and seed times of the hot loop, in seconds."""
    assert not obs.enabled()
    # memoize=False and automata=False so every call performs the full
    # ground AND-OR evaluation — realistic per-call work, nothing
    # amortised away (the automaton would answer from its pair table in
    # ~µs, leaving nothing to measure the flag check against).
    engine = SubtypeEngine(paper_universe(), memoize=False, automata=False)
    nat = T("nat")
    term = deep_nat(400)
    assert engine.holds(nat, term) is True  # warm-up + correctness

    def instrumented():
        engine.holds(nat, term)

    def seed():
        engine._holds_core(nat, term)

    gc.disable()
    best_instrumented = float("inf")
    best_seed = float("inf")
    for _ in range(ROUNDS):
        best_seed = min(best_seed, _best_time(seed))
        best_instrumented = min(best_instrumented, _best_time(instrumented))
    return {"instrumented": best_instrumented, "seed": best_seed}


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_OVERHEAD_GUARD") == "1",
    reason="REPRO_SKIP_OVERHEAD_GUARD=1",
)
def test_disabled_overhead_below_five_percent():
    done = subprocess.run(
        [sys.executable, __file__],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    best = json.loads(done.stdout)
    ratio = best["instrumented"] / best["seed"]
    assert ratio < 1.05, (
        f"disabled instrumentation overhead {ratio:.3f}x "
        f"(instrumented {best['instrumented'] * 1e6:.0f}µs "
        f"vs seed {best['seed'] * 1e6:.0f}µs)"
    )


def test_disabled_observe_allocates_no_histograms():
    """The histogram layer must ride the same single-flag fast path:
    while disabled, observe() must not create timer OR histogram state
    (an allocation per call would defeat the <5% contract)."""
    assert not obs.METRICS.enabled
    for _ in range(100):
        obs.METRICS.observe("hot.span", 1e-6)
    snapshot = obs.METRICS.snapshot()
    assert snapshot["timers"] == {}
    assert snapshot["histograms"] == {}
    assert obs.METRICS.histogram("hot.span") is None


if __name__ == "__main__":
    print(json.dumps(measure_overhead()))
