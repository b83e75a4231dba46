"""The scripts under tools/ against the files they built."""

import importlib.util
import re
from pathlib import Path

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


def test_peak_memory_prints_both_peaks_and_passes_the_exit_status_on(tmp_path, capsys):
    tool = load_tool("peak_memory")
    assert tool.main(["estimate", "--packaged", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").is_file()
    traced, rss = (float(re.fullmatch(rf"{name}: (\d+\.\d) MiB", line)[1]) for name, line
                   in zip(("traced peak", "ru_maxrss"), capsys.readouterr().out.splitlines()[-2:]))
    assert 0 < traced < rss
    status = tool.main(["estimate", "--packaged", "--measurement", "mc", "--mc-iters", "1",
                        "--out-dir", str(tmp_path)])
    assert status == tool.cli.EXIT_CONFIG
