#!/usr/bin/env python3
"""Print a SHA-256 digest of every artifact a fixed set of msinv commands writes.

Runs each command of `COMMANDS` in-process, with MSINV_TIMESTAMP pinned, into
a directory of its own under a temporary one, and prints one
``sha256  name`` line per artifact, sorted by name within each command;
``name`` is ``<command label>/<file>``.  Before a file is hashed, the
checkout root and the temporary directory are replaced by fixed
placeholders in it, so that two checkouts that write the same artifacts
print the same lines.  Diff the output of two checkouts to see which
artifacts changed:

    python3 tools/artifact_digests.py > before.txt    # in one checkout
    python3 tools/artifact_digests.py > after.txt     # in the other
    diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not

from msinv import cli  # noqa: E402

TIMESTAMP = "2000-01-01T00:00:00"
COMMANDS = (
    ("estimate", ["estimate", "--packaged"]),
    # one Monte Carlo variant over three chunks, on one thread
    ("estimate-mc-chunks", ["estimate", "--packaged", "--measurement", "mc", "--mc-iters", "600",
                            "--trace"]),
    ("estimate-all", ["estimate", "--packaged", "--all-variants", "--mc-iters", "50",
                      "--trace"]),
    # the four Monte Carlo variants share one pass over three chunks, on two threads
    ("estimate-all-chunks", ["estimate", "--packaged", "--all-variants", "--mc-iters", "600",
                             "--threads", "2", "--trace"]),
    # each estimator kind's two layouts differ in their horizons (200 days and
    # each component's own) and in the printed split's per-layout terms
    ("estimate-all-printed-200", ["estimate", "--packaged", "--all-variants", "--mc-iters", "50",
                                  "--decomposition", "printed", "--stage2", "year:200"]),
    ("diagnose", ["diagnose", "--packaged"]),
    ("simulate", ["simulate", "--reps", "20", "--seed", "1"]),
    # a day design other than the default 2 of 365: 3 of 30 days
    ("simulate-3-of-30", ["simulate", "--config",
                          str(ROOT / "tests" / "data" / "sim_3_of_30_days.json")]),
)


def digests(workdir: Path) -> list[str]:
    """Run `COMMANDS` under ``workdir``; one ``sha256  name`` line per artifact."""
    lines = []
    placeholders = ((str(ROOT).encode(), b"<checkout>"), (str(workdir).encode(), b"<out>"))
    for label, argv in COMMANDS:
        out = workdir / label
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out-dir", str(out)])
        if code != 0:
            raise SystemExit(f"msinv {' '.join(argv)} exited {code}")
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            for text, placeholder in placeholders:
                data = data.replace(text, placeholder)
            lines.append(f"{hashlib.sha256(data).hexdigest()}  "
                         f"{label}/{path.relative_to(out).as_posix()}")
    return lines


def main() -> int:
    previous = os.environ.get(cli.TIMESTAMP_ENV)
    os.environ[cli.TIMESTAMP_ENV] = TIMESTAMP
    try:
        with tempfile.TemporaryDirectory() as tmp:
            lines = digests(Path(tmp).resolve())
    finally:
        if previous is None:
            del os.environ[cli.TIMESTAMP_ENV]
        else:
            os.environ[cli.TIMESTAMP_ENV] = previous
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
