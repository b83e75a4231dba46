"""The scripts under tools/ against the files they built."""

import gc
import hashlib
import importlib.util
import mmap
import re
from pathlib import Path

import numpy as np
import pytest

from msinv.datasets import packaged_sim_defaults_path, packaged_subset_paths

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_subset_rebuilds_the_packaged_files(tmp_path, capsys):
    make_subset = load_tool("make_subset")
    make_subset.main(tmp_path)
    assert capsys.readouterr().out == "170 components, 847 passes, 551 detections\n"
    for packaged in (*packaged_subset_paths(), packaged_sim_defaults_path()):
        assert (tmp_path / packaged.name).read_bytes() == packaged.read_bytes(), packaged.name


# sha256 of repr() of the generator's rows, recorded before its draws were
# made cheaper: build() at two seeds besides SEED, and component_passes with
# detections suppressed
BUILD_SHA256 = {
    1: "e0afde3e97ea6c726d41de21b078db92912c26e377bc99ebe4da31a72aaf8b06",
    2024: "ef66a76322fbc41fdebc74e987ee30a58f4cfbf2a8adb9af5371bbf47d8bd1a0",
}
SUPPRESSED_SHA256 = "42c2bb54b13cbd3a1dc22a93566ce228bab618e88998209d506a42b376529753"


def test_make_subset_draws_the_same_rows_at_other_seeds_and_when_suppressed():
    make_subset = load_tool("make_subset")
    for seed, digest in BUILD_SHA256.items():
        rows = make_subset.build(np.random.default_rng(seed))
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, seed
    rng = np.random.default_rng(7)
    rows = [make_subset.component_passes(rng, level, [3, 17, 40], True)
            for level in (5.0, 40.0, 400.0)]
    assert all(row[2] == 0 for passes in rows for row in passes)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == SUPPRESSED_SHA256


def data_files():
    return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in packaged_sim_defaults_path().parent.iterdir()}


def test_make_subset_check_passes_on_the_packaged_files_and_writes_nothing(capsys):
    make_subset = load_tool("make_subset")
    before = data_files()
    assert make_subset.cli(["--check"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("0 of 4 file(s) differ")
    assert data_files() == before


def test_make_subset_check_names_each_file_that_differs(tmp_path, capsys):
    make_subset = load_tool("make_subset")
    for packaged in (*packaged_subset_paths(), packaged_sim_defaults_path()):
        (tmp_path / packaged.name).write_bytes(packaged.read_bytes())
    passes = tmp_path / "subset_passes.csv"
    passes.write_bytes(passes.read_bytes()[:-1])
    (tmp_path / "sim_defaults.json").unlink()
    kept = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert make_subset.cli([str(tmp_path), "--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("DIFFERS")] == [
        "DIFFERS sim_defaults.json", "DIFFERS subset_passes.csv"]
    assert out[-1] == f"2 of 4 file(s) differ from a rebuild in {tmp_path}"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == kept


def test_artifact_digests_are_reproducible_and_name_each_artifact_once(tmp_path, monkeypatch,
                                                                       capsys):
    tool = load_tool("artifact_digests")
    monkeypatch.setenv(tool.cli.TIMESTAMP_ENV, tool.TIMESTAMP)
    lines = tool.digests(tmp_path)
    names = [line.split("  ", 1)[1] for line in lines]
    # every file written but the inputs the tool writes for itself
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file() and p.relative_to(tmp_path).parts[0] != tool.QUOTED_EDGE)
    assert sorted(names) == written
    assert len(set(names)) == len(names)
    assert {name.split("/")[0] for name in names} == {label for label, _ in tool.COMMANDS}
    # a second run, in another directory, through the command line entry
    assert tool.main() == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_peak_memory_prints_peaks_faults_and_system_time_and_passes_the_exit_status_on(
        tmp_path, capsys, monkeypatch):
    tool = load_tool("peak_memory")
    assert tool.main(["estimate", "--packaged", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").is_file()
    lines = capsys.readouterr().out.splitlines()[-4:]
    traced, rss = (float(re.fullmatch(rf"{name}: (\d+\.\d) MiB", line)[1]) for name, line
                   in zip(("traced peak", "ru_maxrss"), lines))
    assert 0 < traced < rss
    assert re.fullmatch(r"minor faults: \d+", lines[2])
    assert re.fullmatch(r"system time: \d+\.\d{3} s", lines[3])
    status = tool.main(["estimate", "--packaged", "--measurement", "mc", "--mc-iters", "1",
                        "--out-dir", str(tmp_path)])
    assert status == tool.cli.EXIT_CONFIG

    pages = 4096

    def touch_pages(argv):      # maps fresh pages and writes one byte to each
        with mmap.mmap(-1, pages * mmap.PAGESIZE) as block:
            if hasattr(mmap, "MADV_NOHUGEPAGE"):    # one fault per page, not per huge page
                block.madvise(mmap.MADV_NOHUGEPAGE)
            for k in range(pages):
                block[k * mmap.PAGESIZE] = 1
        return 0

    monkeypatch.setattr(tool.cli, "main", touch_pages)
    status, _, _, faults, stime = tool.measure([])
    assert status == 0 and faults >= pages and stime >= 0


def test_gc_pressure_prints_each_runs_collections_and_their_total(tmp_path, capsys,
                                                                 monkeypatch):
    tool = load_tool("gc_pressure")
    assert tool.main(["--runs", "3", "estimate", "--packaged", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").is_file()
    line = r"gen0 (\d+) in (\d+\.\d{6}) s, gen1 (\d+) in (\d+\.\d{6}) s, gen2 (\d+) in (\d+\.\d{6}) s"
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7      # each run's own output line, then its collections; the total
    runs = [re.fullmatch(rf"run {k}: {line}", text) for k, text in zip((1, 2, 3), lines[1::2])]
    total = re.fullmatch(rf"total over 3 runs: {line}", lines[6])
    assert all(runs) and total
    for k in range(6):
        assert float(total[k + 1]) == pytest.approx(sum(float(m[k + 1]) for m in runs), abs=4e-6)
    status = tool.main(["--runs", "1", "estimate", "--packaged", "--measurement", "mc",
                        "--mc-iters", "1", "--out-dir", str(tmp_path)])
    assert status == tool.cli.EXIT_CONFIG


    def collect(argv):      # one collection of generation 1, then one full collection
        gc.collect(1)
        gc.collect()
        return 0

    monkeypatch.setattr(tool.cli, "main", collect)
    status, seen = tool.measure([])
    assert status == 0 and seen.counts[1:] == [1, 1] and min(seen.seconds[1:]) > 0
