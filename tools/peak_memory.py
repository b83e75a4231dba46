#!/usr/bin/env python3
"""Run one msinv command in-process and print its peak memory and page faults.

The arguments are those of ``msinv``; the command runs as it would from the
command line, writing its outputs where it would:

    python3 tools/peak_memory.py estimate --packaged --all-variants --mc-iters 200000

Prints four lines after the command's own output.  The first two are in MiB:
the peak of the memory tracemalloc traced while the command ran (Python
objects and numpy arrays allocated after msinv was imported), and the
process's peak resident set size (``ru_maxrss``), which also counts the
interpreter, the imported modules and tracemalloc's own bookkeeping.  The
last two are the minor page faults (``ru_minflt``) and the system CPU
seconds (``ru_stime``) the process took while the command ran: pages the
kernel had to map, and zero-fill, for the command.  Exits with the
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


def measure(argv: list[str]) -> tuple[int, float, float, int, float]:
    """Run ``msinv argv``: (its exit status, traced peak MiB, peak RSS MiB,
    minor page faults, system CPU seconds)."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    tracemalloc.start()
    try:
        status = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (status, peak / MIB, after.ru_maxrss * RSS_UNIT / MIB,
            after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime)


def main(argv: list[str] | None = None) -> int:
    status, traced, rss, faults, stime = measure(sys.argv[1:] if argv is None else argv)
    print(f"traced peak: {traced:.1f} MiB")
    print(f"ru_maxrss: {rss:.1f} MiB")
    print(f"minor faults: {faults}")
    print(f"system time: {stime:.3f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
