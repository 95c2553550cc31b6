#!/usr/bin/env python3
"""End-to-end benchmark of the type checker.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wholefile --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that gives the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human summary
goes to standard error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    Metronome, Tally, Tracer, beyond, median, percentile, run_child, scale_to_beats,
)

#: The percentile ``op_ms.tail`` reports on each workload, pinned so that
#: every run, and every later change, is compared at the same one (see
#: README.md).  A run goes on past ``--seconds`` until at least
#: :data:`TAIL_BEYOND` samples lie beyond it.
TAIL_PCT = {"wholefile": 95.0, "daemon_edit": 97.0, "cold_cli": 75.0}
TAIL_BEYOND = 10

#: Longest a loop slice may run on to reach its share of those samples;
#: a run that still falls short counts a failure.
SLICE_CAP_S = 18.0

#: Set-up samples per run, each in a fresh interpreter.
SETUP_SAMPLES = 3


def needed_ops(pct: float) -> int:
    """The fewest ops with :data:`TAIL_BEYOND` samples beyond ``pct``."""
    return math.ceil(TAIL_BEYOND * 100.0 / (100.0 - pct))


def _spec() -> Dict[str, List[dict]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def setup_seconds(workload: str, seed: int, scratch: Path, clock: Metronome) -> float:
    """Median wall time of a fresh interpreter that imports the program,
    builds the workload's inputs and warms it, then exits; each sample
    scaled by the beats around it."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        with clock.around() as pace:
            child = run_child(argv, dict(os.environ), str(ROOT), 170.0, str(scratch))
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr[-800:]}")
        samples.append(child.wall_s * pace.factor)
    return median(samples)


def measure(name: str, seed: int, seconds: float, tally: Tally) -> Dict[str, float]:
    """The untraced run: set-up samples, then the closed loop for
    ``seconds`` in equal slices, with two cold-and-warm pairs of batch
    passes after each slice, so both sample the whole run's window.

    Every time is scaled to the metronome's beats next to it (see
    :class:`harness.Metronome`).  A pinned workload (``wholefile``, whose
    ops run in this process) is set up and run on the metronome's home
    CPU, with one beat there after each op; the other workloads' ops,
    the set-up samples and the batch passes may use every CPU and are
    scaled by machine beats.  A slice ends on a whole round of the
    workload's inputs, so every slice does the same mix of work, and
    rates are the median over slices.  A slice also runs on until it
    holds its share of the ops the tail percentile needs."""
    from workloads import BATCH_PAIRS, SLICES, WORKLOADS, Env, batch_pair, batch_sample

    pct = TAIL_PCT[name]
    slice_ops = math.ceil(needed_ops(pct) / SLICES)
    env = Env(ROOT)
    workload = WORKLOADS[name](env, seed)
    clock = Metronome(str(HERE / "metronome.py"), str(ROOT))
    try:
        setup_s = setup_seconds(name, seed, env.tmp, clock)
        if workload.pinned:
            clock.pin()
        workload.setup()
        sample = batch_sample(workload.inputs())
        tracer = Tracer(False)
        times: List[float] = []
        raw_s = 0.0
        op_rates, clause_rates, pairs = [], [], []
        for slice_ in range(SLICES):
            elapsed: List[float] = []
            beats: List[float] = []
            clauses: List[int] = []
            started = time.perf_counter()
            while True:
                spent = time.perf_counter() - started
                if spent >= max(SLICE_CAP_S, 2 * seconds / SLICES) or (
                    spent >= seconds / SLICES and len(elapsed) >= slice_ops
                    and workload.at_round_end(len(elapsed))
                ):
                    break
                took, count = workload.op(len(times) + len(elapsed), tally, tracer)
                elapsed.append(took)
                clauses.append(count)
                beats.append(clock.beat() if workload.pinned else clock.machine_beat())
            scaled = scale_to_beats(elapsed, beats)
            times.extend(scaled)
            raw_s += sum(elapsed)
            op_rates.append(len(scaled) / sum(scaled))
            clause_time = sum(t for t, count in zip(scaled, clauses) if count)
            clause_rates.append(sum(clauses) / clause_time)
            for pair in range(BATCH_PAIRS):
                pairs.append(batch_pair(env, sample, tally, f"{slice_}-{pair}", clock))
        workload.close()
        rss = workload.peak_rss_mb()
    finally:
        workload.close()
        clock.close()
        env.close()
    tail_n = beyond(len(times), pct)
    print(
        f"{name}: {len(times)} ops; op_ms.tail is p{pct:g} with "
        f"{tail_n} samples beyond it; unscaled op time {raw_s / sum(times):.3f}x "
        f"the scaled, median beat {median(clock.beats) * 1000.0:.2f} ms",
        file=sys.stderr,
    )
    if tail_n < TAIL_BEYOND:
        tally.fail(f"op_ms.tail: only {tail_n} samples beyond p{pct:g}")
    return {
        "setup_s": setup_s,
        "op_ms.p50": median(times) * 1000.0,
        "op_ms.tail": percentile(times, pct) * 1000.0,
        "ops_per_s": median(op_rates),
        "clauses_per_s": median(clause_rates),
        "peak_rss_mb": rss,
        "batch_cold_s": median([cold for cold, _, _, _ in pairs]),
        "batch_warm_s": median([warm for _, warm, _, _ in pairs]),
    }


def trace(name: str, seed: int, seconds: float, tally: Tally) -> Tuple[Dict[str, float], Tracer]:
    """The traced run: spans around each call into a layer."""
    from workloads import (
        WORKLOADS, DaemonEdit, Env, LayerReplay, analysis_sample, batch_pair,
        batch_sample, cache_save_ms, import_times, service_probe, smallest_per_family,
    )

    env = Env(ROOT)
    workload = WORKLOADS[name](env, seed)
    tracer = Tracer(True)
    try:
        workload.setup()
        inputs = [p for p in workload.inputs() if p.expect.kind != "parse"]
        if isinstance(workload, DaemonEdit):
            # Runs on past ``seconds`` until every kind of answer (hot,
            # cache, miss, lint) has been seen, for at most 60 s.
            started, index = time.perf_counter(), 0
            while time.perf_counter() - started < max(seconds, 60.0) and (
                time.perf_counter() - started < seconds or len(workload.session.sources) < 4
            ):
                workload.op(index, tally, tracer)
                index += 1
            workload.close()
            session = workload.session
        else:
            session = service_probe(env, smallest_per_family(inputs), tally, tracer)
        replay = LayerReplay(tracer, tally)
        replay.replay(inputs)
        replay.analyse(analysis_sample(inputs))
        metrics = replay.core_stats()
        save_ms, entries = cache_save_ms(session.cache)
        _, _, cold, warm = batch_pair(env, batch_sample(workload.inputs()), tally, "t")
        path = env.write("startup", inputs[:1])[0]
        metrics.update(import_times(env, path))
    finally:
        workload.close()
        env.close()

    own = tracer.self_times()
    files, analysed = replay.files, replay.analysed

    def per_file(span: str) -> float:
        return own.get(span, 0.0) * 1000.0 / files

    def per_analysed(span: str) -> float:
        return own.get(span, 0.0) * 1000.0 / analysed

    parse_s = sum(tracer.durations("lang.parse_file")) - sum(tracer.durations("lang.tokenize"))
    checks = {k: len(v) for k, v in session.sources.items() if k != "lint"}
    metrics.update({
        "lang.lex_ms": per_file("lang.tokenize"),
        # parse_file tokenizes internally; its self time is estimated as
        # its duration minus that of a separate tokenize of the same text.
        "lang.parse_ms": parse_s * 1000.0 / files,
        "lang.tokens_per_s": replay.tokens / own["lang.tokenize"],
        "checker.check_source_ms": per_file("checker.check_source"),
        "core.restrictions_ms": per_file("core.restrictions"),
        "core.clause_check_ms": per_file("core.clause_check"),
        "core.query_check_ms": per_file("core.query_check"),
        "core.mode_check_ms": per_file("core.mode_check"),
        "core.clauses_checked": float(replay.clauses),
        "analysis.lint_ms": per_analysed("analysis.lint"),
        "analysis.infer_ms": per_analysed("analysis.infer"),
        "service.hot_hit_ratio": checks.get("hot", 0) / sum(checks.values()),
        "service.cache_hit_ratio": checks.get("cache", 0) / sum(checks.values()),
        "service.cache.save_ms": save_ms,
        "service.cache.entries": float(entries),
        "service.daemon_starts": float(session.daemon.starts),
        "service.batch.probe_ms": warm["phases"]["probe_s"] * 1000.0,
        "service.batch.check_ms": cold["phases"]["check_s"] * 1000.0,
        "service.batch.worker_utilisation": cold["worker_utilisation"],
        "obs.trace_overhead_ratio": replay.traced_s / replay.plain_s,
    })
    for family in replay.families:
        metrics[f"analysis.family.{family}_ms"] = per_analysed(f"analysis.family.{family}")
    for source, samples in session.sources.items():
        metrics[f"service.request.{source}_ms"] = median(samples) * 1000.0
    return metrics, tracer


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.setup_only:
        from workloads import WORKLOADS, Env

        env = Env(ROOT)
        workload = WORKLOADS[args.workload](env, args.seed)
        try:
            workload.setup()
        finally:
            workload.close()
            env.close()
        return 0

    tally = Tally()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, tracer = trace(args.workload, args.seed, args.seconds, tally)
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(str(out / f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        values = measure(args.workload, args.seed, args.seconds, tally)

    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None:
            print(f"perfbench: metric {metric['name']} was not measured", file=sys.stderr)
            return 3
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<34} {value:14.4f} {metric['unit']}", file=sys.stderr)
    for reason in tally.reasons:
        print(f"  FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
