"""The scripts under tools/ against the files they built."""

import gc
import importlib.util
import mmap
import re
from pathlib import Path

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


def test_artifact_digests_are_reproducible_and_name_each_artifact_once(tmp_path, monkeypatch,
                                                                       capsys):
    tool = load_tool("artifact_digests")
    monkeypatch.setenv(tool.cli.TIMESTAMP_ENV, tool.TIMESTAMP)
    lines = tool.digests(tmp_path)
    names = [line.split("  ", 1)[1] for line in lines]
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                     if p.is_file())
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
