"""The benchmark's clock for the machine's speed.

Run as a child of ``run.py``: for each line read on standard input it
runs one *beat*, a fixed pure-Python task (building and walking a tree
of tuples, counting into a dict, formatting strings, the kind of work
the checker does), and writes the beat's duration in seconds on a line
of its own.  It never imports the program under test, so a beat takes
longer only when the shared machine runs this interpreter slower.
"""

from __future__ import annotations

import gc
import sys
import time


def build(depth: int) -> tuple:
    if depth == 0:
        return ("leaf",)
    return ("node", build(depth - 1), build(depth - 1))


def walk(term: tuple, counts: dict) -> int:
    counts[term[0]] = counts.get(term[0], 0) + 1
    return 1 + sum(walk(child, counts) for child in term[1:])


def beat() -> int:
    counts: dict = {}
    size = 0
    for round_ in range(5):
        size += walk(build(10), counts)
        size += len(",".join(f"{key}:{value}" for key, value in sorted(counts.items())))
        size += round_
    return size


def main() -> int:
    # The beat allocates only short-lived tuples; collections would make
    # its duration depend on when the collector happens to run.
    gc.disable()
    for _ in sys.stdin:
        started = time.perf_counter()
        beat()
        sys.stdout.write(f"{time.perf_counter() - started!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
