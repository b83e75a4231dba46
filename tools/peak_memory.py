#!/usr/bin/env python3
"""Run one msinv command in-process and print its peak memory.

The arguments are those of ``msinv``; the command runs as it would from the
command line, writing its outputs where it would:

    python3 tools/peak_memory.py estimate --packaged --all-variants --mc-iters 200000

Prints two lines after the command's own output, both in MiB: the peak of
the memory tracemalloc traced while the command ran (Python objects and
numpy arrays allocated after msinv was imported), and the process's peak
resident set size (``ru_maxrss``), which also counts the interpreter, the
imported modules and tracemalloc's own bookkeeping.  Exits with the
command's exit status.
"""

import resource
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not

from msinv import cli  # noqa: E402

MIB = 2**20
# ru_maxrss is in kilobytes on Linux and in bytes on macOS
RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def measure(argv: list[str]) -> tuple[int, float, float]:
    """Run ``msinv argv``: (its exit status, traced peak MiB, peak RSS MiB)."""
    tracemalloc.start()
    try:
        status = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * RSS_UNIT
    return status, peak / MIB, rss / MIB


def main(argv: list[str] | None = None) -> int:
    status, traced, rss = measure(sys.argv[1:] if argv is None else argv)
    print(f"traced peak: {traced:.1f} MiB")
    print(f"ru_maxrss: {rss:.1f} MiB")
    return status


if __name__ == "__main__":
    sys.exit(main())
