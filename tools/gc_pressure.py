#!/usr/bin/env python3
"""Run one msinv command in-process several times and print its garbage collections.

The arguments after the tool's own ``--runs N`` (default 5) are those of
``msinv``; each run goes as it would from the command line, writing its
outputs where it would:

    python3 tools/gc_pressure.py --runs 20 estimate --packaged --out-dir /tmp/gc

After each run's own output, prints one line: the run number, then for each
of CPython's three garbage collector generations the collections it started
during the run and the seconds they took, from `gc.callbacks`.  A last line
gives the totals over all runs.  Later runs share the process's heap with
the earlier ones, as the requests of a long-lived process do, so a full
(generation 2) collection costs more as that heap grows.  Exits with the
last run's exit status.
"""

import argparse
import gc
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not

from msinv import cli  # noqa: E402

GENERATIONS = 3


class Collections:
    """Per generation: the collections seen while installed, and their seconds."""

    def __init__(self):
        self.counts = [0] * GENERATIONS
        self.seconds = [0.0] * GENERATIONS
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            gen = info["generation"]
            self.counts[gen] += 1
            self.seconds[gen] += time.perf_counter() - self._start
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)

    def add(self, other: "Collections"):
        for gen in range(GENERATIONS):
            self.counts[gen] += other.counts[gen]
            self.seconds[gen] += other.seconds[gen]

    def line(self, label: str) -> str:
        return f"{label}: " + ", ".join(
            f"gen{gen} {self.counts[gen]} in {self.seconds[gen]:.6f} s"
            for gen in range(GENERATIONS))


def measure(argv: list[str]) -> tuple[int, Collections]:
    """Run ``msinv argv`` once: (its exit status, the collections it started)."""
    with Collections() as seen:
        status = cli.main(argv)
    return status, seen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs of the command (default 5)")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the msinv arguments")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.runs < 1 or not args.command:
        parser.error("need --runs >= 1 and an msinv command")
    total = Collections()
    for run in range(1, args.runs + 1):
        status, seen = measure(args.command)
        print(seen.line(f"run {run}"))
        total.add(seen)
    print(total.line(f"total over {args.runs} runs"))
    return status


if __name__ == "__main__":
    sys.exit(main())
