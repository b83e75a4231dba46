#!/usr/bin/env python3
"""Print a SHA-256 digest of every artifact a fixed set of msinv commands writes.

Runs each command of `COMMANDS` in-process, with MSINV_TIMESTAMP pinned, into
a directory of its own under a temporary one, and prints one
``sha256  name`` line per artifact, sorted by name within each command;
``name`` is ``<command label>/<file>``.  Before a file is hashed, the
checkout root and the temporary directory are replaced by fixed
placeholders in it, so that two checkouts that write the same artifacts
print the same lines.  A command's argument may name ``{work}``, the
temporary directory, where `digests` first writes the inputs of
`quote_edge_survey`.  Diff the output of two checkouts to see which
artifacts changed:

    python3 tools/artifact_digests.py > before.txt    # in one checkout
    python3 tools/artifact_digests.py > after.txt     # in the other
    diff before.txt after.txt

After hashing, the tool checks the overwrite path: it appends stale bytes to
every artifact, runs each command again into the same directory, and exits 1,
naming on stderr every artifact whose bytes changed, if a rerun does not give
back exactly the first run's files.
"""

import codecs
import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not

from msinv import cli  # noqa: E402
from msinv.datasets import packaged_subset_paths  # noqa: E402

TIMESTAMP = "2000-01-01T00:00:00"
PASSES, REGISTRY, _ = packaged_subset_paths()
SURVEY_FILES = ("passes", "frame", "strata")
EDGE_SURVEY = [arg for key in SURVEY_FILES for arg in (
    f"--{key}", str(ROOT / "tests" / "data" / "edge_survey" / f"{key}.csv"))]
QUOTED_EDGE = "quoted-edge-survey"     # `quote_edge_survey`'s directory under the work one
QUOTED_EDGE_SURVEY = [arg for key in SURVEY_FILES for arg in (
    f"--{key}", f"{{work}}/{QUOTED_EDGE}/{key}.csv")]
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
    # one surveyed day: every unit pools its variance under every layout, so
    # the pooling peers are scheduled (the default design of 2 days schedules
    # none for its IPW layouts, where no unit pools)
    ("simulate-1-day", ["simulate", "--config", str(ROOT / "tests" / "data" / "sim_1_day.json")]),
    # a wind normal of mean -3 m/s: nearly every wind cell is redrawn, most of
    # them many times, and about one in ten is still at or below zero after
    # the 100th attempt and is clamped
    ("simulate-low-wind", ["simulate", "--config",
                           str(ROOT / "tests" / "data" / "sim_low_wind.json")]),
    # two strata with unequal profiles; one gives a detection probability per
    # pass, the other one probability for each of its passes
    *((f"plan-{estimator}", ["plan", "--scenario",
                             str(ROOT / "tests" / "data" / "plan_scenario.json"),
                             "--estimator", estimator]) for estimator in ("ipw", "hajek")),
    # a small survey of loading's edge cases: padded fields, a byte-order
    # mark, a shared site, a site with no wells and no detection, a single-day
    # component and registry rows out of id order
    ("edge-estimate-all", ["estimate", *EDGE_SURVEY, "--all-variants", "--mc-iters", "50"]),
    ("edge-diagnose", ["diagnose", *EDGE_SURVEY]),
    # the same survey with every field quoted and "\n" line ends, which the
    # loader reads with csv.reader rather than splitting each line at commas
    ("quoted-edge-estimate-all", ["estimate", *QUOTED_EDGE_SURVEY, "--all-variants",
                                  "--mc-iters", "50"]),
    # the packaged passes and registry with 4e9 facilities in one stratum,
    # where N(N-1) is past the int64 range
    ("estimate-big-stratum", ["estimate", "--passes", str(PASSES), "--frame", str(REGISTRY),
                              "--strata",
                              str(ROOT / "tests" / "data" / "big_stratum_strata.csv")]),
    # an infinite log-logistic shape: every rate is its point mass, and every
    # report echoes beta as the string "inf"
    ("estimate-beta-inf", ["estimate", "--packaged", "--all-variants", "--mc-iters", "50",
                           "--meas-beta", "inf"]),
)

# appended to every artifact before the rerun that must write it over
STALE = b"\nstale bytes of an earlier, longer artifact\n" * 64


def quote_edge_survey(directory: Path):
    """Write the edge-case survey's files into ``directory`` with every field
    quoted and LF line ends, each with the byte-order mark it has."""
    directory.mkdir()
    for key in SURVEY_FILES:
        data = (ROOT / "tests" / "data" / "edge_survey" / f"{key}.csv").read_bytes()
        encoding = "utf-8-sig" if data.startswith(codecs.BOM_UTF8) else "utf-8"
        rows = list(csv.reader(io.StringIO(data.decode(encoding), newline="")))
        with open(directory / f"{key}.csv", "w", newline="", encoding=encoding) as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)


def run(argv: list[str], out: Path):
    """Run ``msinv argv`` in-process, its outputs under ``out`` and ``{work}``
    its parent; exit if it fails."""
    argv = [arg.replace("{work}", str(out.parent)) for arg in argv]
    where = ["--out", str(out / "plan.csv")] if argv[0] == "plan" else ["--out-dir", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, *where])
    if code != 0:
        raise SystemExit(f"msinv {' '.join(argv)} exited {code}")


def artifacts(out: Path) -> dict[str, bytes]:
    """The bytes of every file under ``out``, by path relative to it, in name order."""
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(p for p in out.rglob("*") if p.is_file())}


def digests(workdir: Path, commands=COMMANDS) -> list[str]:
    """Run ``commands`` under ``workdir``; one ``sha256  name`` line per artifact."""
    lines = []
    placeholders = ((str(ROOT).encode(), b"<checkout>"), (str(workdir).encode(), b"<out>"))
    quote_edge_survey(workdir / QUOTED_EDGE)
    for label, argv in commands:
        run(argv, workdir / label)
        for name, data in artifacts(workdir / label).items():
            for text, placeholder in placeholders:
                data = data.replace(text, placeholder)
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {label}/{name}")
    return lines


def rewrite_changes(workdir: Path, commands=COMMANDS) -> list[str]:
    """Pad the artifacts `digests` wrote under ``workdir`` with `STALE` bytes
    and run ``commands`` again into the same directories: the names of the
    artifacts whose bytes, or whose presence, the rerun changed."""
    changed = []
    for label, argv in commands:
        out = workdir / label
        before = artifacts(out)
        for name in before:
            with open(out / name, "ab") as fh:
                fh.write(STALE)
        run(argv, out)
        after = artifacts(out)
        changed += [f"{label}/{name}" for name in sorted(before.keys() | after.keys())
                    if before.get(name) != after.get(name)]
    return changed


def main() -> int:
    previous = os.environ.get(cli.TIMESTAMP_ENV)
    os.environ[cli.TIMESTAMP_ENV] = TIMESTAMP
    try:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp).resolve()
            lines = digests(workdir)
            changed = rewrite_changes(workdir)
    finally:
        if previous is None:
            del os.environ[cli.TIMESTAMP_ENV]
        else:
            os.environ[cli.TIMESTAMP_ENV] = previous
    print("\n".join(lines))
    for name in changed:
        print(f"artifact_digests: {name} changed when written over", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
