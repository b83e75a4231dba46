"""The scripts under tools/ against the files they built."""

import importlib.util
from pathlib import Path

from msinv.datasets import packaged_sim_defaults_path, packaged_subset_paths

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_make_subset_rebuilds_the_packaged_files(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("make_subset", TOOLS / "make_subset.py")
    make_subset = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_subset)
    make_subset.main(tmp_path)
    assert capsys.readouterr().out == "170 components, 847 passes, 551 detections\n"
    for packaged in (*packaged_subset_paths(), packaged_sim_defaults_path()):
        assert (tmp_path / packaged.name).read_bytes() == packaged.read_bytes(), packaged.name
