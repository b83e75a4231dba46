"""Command-line surface tests: artifacts, reproducibility, exit codes."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import msinv
from msinv import batch, cli, measurement, planner, simlab
from msinv import frame as frame_module
from msinv.cli import main
from msinv.datasets import packaged_subset_paths

from conftest import read_csv_rows

PASSES_HEADER = "component_id,facility_id,site_id,stratum,day,pass,detected,rate_kg_h,wind_m_s,altitude_m"
FRAME_HEADER = "component_id,facility_id,site_id,stratum,is_well,wells_at_site"
STRATA_HEADER = "stratum,n_sampled,n_population"


SIM_CONFIG = {
    "strata": [{"name": "A", "n_sampled": 3, "n_population": 5,
                "lognormal_mu": 3.7, "lognormal_sigma": 0.3}],
    "horizon": 40, "days_sampled": 2, "replications": 5, "seed": 7,
}
PLAN_SCENARIO = {
    "horizon_days": 30, "days_sampled": 2,
    "strata": [{"name": "A", "n_sampled": 2, "n_population": 4, "pass_phis": [0.6, 0.8],
                "profiles": [{"ybar": 5.0, "day_sd": 1.0, "count": 2}]}],
}

# One table of bad values for both JSON documents; each entry sets one path
# (a top-level key, or a tuple of keys and indexes; () is the whole document).
# Keys the document does not know, such as simulate's "horizon" in a plan
# scenario, are errors too.  The first six rows keep the ids they had as
# simulate-only cases.
BAD_VALUES = [
    pytest.param("ci_level", "high", id="ci_level-high"),
    pytest.param("ci_level", None, id="ci_level-None"),
    pytest.param("horizon", 30.5, id="horizon-30.5_0"),
    pytest.param("horizon", "30.5", id="horizon-30.5_1"),
    pytest.param("replications", "many", id="replications-many"),
    pytest.param("days_sampled", [2], id="days_sampled-value5"),
    pytest.param("days_sampled", 2.5, id="fractional-count"),
    pytest.param(("strata", 0, "n_sampled"), "three", id="quoted-non-number"),
    pytest.param(("strata", 0, "n_population"), "nan", id="nan"),
    pytest.param(("strata", 0, "n_sampled"), True, id="true"),
    pytest.param(("strata", 0, "colour"), "red", id="unknown-key"),
    pytest.param(("strata", 0), ["A", 2, 4], id="list-for-object"),
    pytest.param((), [SIM_CONFIG], id="list-for-document"),
    pytest.param(("strata", 0, "name"), ["A"], id="list-for-string"),
    pytest.param("strata", 5, id="number-for-list"),
]


def edited(doc, edits):
    """A deep copy of ``doc`` with each path in ``edits`` set to its value."""
    doc = copy.deepcopy(doc)
    for path, value in edits.items():
        path = (path,) if isinstance(path, str) else path
        if not path:
            doc = value
            continue
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return doc


def assert_rejected(tmp_path, capsys, command, doc) -> str:
    """``command`` on the JSON ``doc`` (or on the text of one) exits 4 with a
    message and writes nothing.

    Returns the message.
    """
    cfg = tmp_path / "config.json"
    cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out = tmp_path / "out"
    if command == "simulate":
        argv = ("simulate", "--config", str(cfg), "--out-dir", str(out))
    else:
        argv = ("plan", "--scenario", str(cfg), "--out", str(out / "plan.csv"))
    capsys.readouterr()
    assert run(*argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("msinv: configuration error: ")
    assert not out.exists()
    return err


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("MSINV_TIMESTAMP", "2026-01-01T00:00:00")


def run(*argv):
    return main(list(argv))


class TestEstimate:
    def test_an_estimate_builds_no_component_records(self, tmp_path, monkeypatch):
        made = []
        record = frame_module.ComponentRef
        monkeypatch.setattr(frame_module, "ComponentRef",
                            lambda *fields: made.append(fields) or record(*fields))
        assert run("estimate", "--packaged", "--out-dir", str(tmp_path / "estimate")) == 0
        assert run("diagnose", "--packaged", "--out-dir", str(tmp_path / "diagnose")) == 0
        assert made == []
        # the frame still builds them when asked, one per registry row
        frame = frame_module.load_survey(*packaged_subset_paths())
        assert len(frame.components) == len(made) == len(frame.registry) > 0

    def test_packaged_bias_correct(self, tmp_path, capsys):
        code = run("estimate", "--packaged", "--estimator", "ipw",
                   "--stage2", "year:365", "--out-dir", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["var_total"] == pytest.approx(
            doc["var_stage1"] + doc["var_stage2"] + doc["var_stage3"]
            + doc["var_measurement"]
        )
        manifest, rows = read_csv_rows(tmp_path / "report_table.csv")
        assert manifest == doc["manifest"]
        assert rows[-1]["stratum"] == "Population"
        assert float(rows[-1]["total_kt_y"]) == round(doc["total"], 2)

    def test_observed_mode_zeroes_stage2_column(self, tmp_path):
        run("estimate", "--packaged", "--stage2", "observed", "--out-dir", str(tmp_path))
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["var_stage2"] == 0.0

    def test_reproducible_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("estimate", "--packaged", "--measurement", "mc",
                       "--mc-iters", "20", "--seed", "3",
                       "--out-dir", str(out)) == 0
        for name in ("report.json", "report_table.csv", "report_decomposition.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mc_emits_trace(self, tmp_path):
        assert run("estimate", "--packaged", "--measurement", "mc",
                   "--mc-iters", "8", "--seed", "1", "--trace",
                   "--out-dir", str(tmp_path)) == 0
        _, rows = read_csv_rows(tmp_path / "report_trace.csv")
        assert {r["stratum"] for r in rows} >= {"Population"}

    def test_all_variants_sweep(self, tmp_path):
        assert run("estimate", "--packaged", "--all-variants",
                   "--mc-iters", "10", "--seed", "2",
                   "--out-dir", str(tmp_path)) == 0
        reports = {}
        for est in ("ipw", "hajek"):
            for s2 in ("observed", "year"):
                for mm in ("biascorrect", "mc"):
                    path = tmp_path / f"report_{est}_{s2}_{mm}.json"
                    assert path.exists()
                    reports[(est, s2, mm)] = json.loads(path.read_text())
        # horizon choice must not move the point estimate, only the variance
        for est in ("ipw", "hajek"):
            for mm in ("biascorrect", "mc"):
                assert reports[(est, "observed", mm)]["total"] == pytest.approx(
                    reports[(est, "year", mm)]["total"], rel=1e-12
                )

    def test_model_overrides(self, tmp_path):
        ini = tmp_path / "model.ini"
        ini.write_text("[pod]\nkappa = 0.3\n\n[measurement]\nd = 0.9\n")
        assert run("estimate", "--packaged", "--model-config", str(ini),
                   "--pod-wind-offset", "2.5",
                   "--out-dir", str(tmp_path / "out")) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["config"]["pod_params"]["kappa"] == 0.3
        assert doc["config"]["pod_params"]["wind_offset"] == 2.5
        assert doc["config"]["measurement"]["d"] == 0.9


    def test_all_variants_compile_the_frame_once(self, tmp_path, monkeypatch):
        compiled = []
        compile_index = batch.compile_index
        monkeypatch.setattr(batch, "compile_index",
                            lambda index: compiled.append(index) or compile_index(index))
        assert run("estimate", "--packaged", "--all-variants", "--mc-iters", "4",
                   "--out-dir", str(tmp_path)) == 0
        assert len(compiled) == 1

    def test_a_byte_order_mark_is_read_past_and_hashed(self, tmp_path):
        passes, frame, strata = packaged_subset_paths()
        marked = tmp_path / "passes.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(passes).read_bytes())
        assert run("estimate", "--packaged", "--out-dir", str(tmp_path / "plain")) == 0
        assert run("estimate", "--passes", str(marked), "--frame", str(frame),
                   "--strata", str(strata), "--out-dir", str(tmp_path / "marked")) == 0
        plain, got = (json.loads((tmp_path / d / "report.json").read_text())
                      for d in ("plain", "marked"))
        assert got["manifest"]["inputs"]["passes"]["sha256"] == hashlib.sha256(
            marked.read_bytes()).hexdigest()
        for doc in (plain, got):
            del doc["manifest"]
        assert got == plain

    def test_all_variants_build_each_layout_once(self, tmp_path, monkeypatch):
        # four configurations, each run by bias correction and by the Monte Carlo
        built = []
        build_layout = batch.build_layout
        monkeypatch.setattr(batch, "build_layout",
                            lambda index, cfg: built.append(cfg) or build_layout(index, cfg))
        assert run("estimate", "--packaged", "--all-variants", "--mc-iters", "4",
                   "--out-dir", str(tmp_path)) == 0
        assert sorted((cfg.estimator, cfg.stage2) for cfg in built) == [
            ("hajek", "observed"), ("hajek", "year"), ("ipw", "observed"), ("ipw", "year")]

    def test_all_variants_hash_each_input_once(self, tmp_path, monkeypatch):
        hashed = []
        digest = cli._digest
        monkeypatch.setattr(cli, "_digest", lambda path: hashed.append(path) or digest(path))
        assert run("estimate", "--packaged", "--all-variants", "--mc-iters", "4",
                   "--out-dir", str(tmp_path)) == 0
        assert sorted(map(str, hashed)) == sorted(map(str, packaged_subset_paths()))
        manifests = [json.loads(path.read_text())["manifest"]
                     for path in sorted(tmp_path.glob("report_*.json"))]
        assert len(manifests) == 8
        assert all(m["inputs"] == manifests[0]["inputs"] for m in manifests)


class TestOneParserPerProcess:
    CALLS = [
        ["estimate", "--packaged", "--estimator", "hajek", "--stage2", "observed",
         "--measurement", "mc", "--mc-iters", "12", "--seed", "3", "--trace",
         "--decomposition", "printed", "--pod-kappa", "0.3"],
        ["diagnose", "--packaged", "--meas-d", "0.9"],
        ["estimate", "--packaged"],     # every flag at its default
    ]

    def test_calls_in_one_process_write_what_separate_runs_write(self, tmp_path):
        # the parser is built once per process: flags and defaults of one
        # call must not carry over into the next
        for k, argv in enumerate(self.CALLS):
            assert run(*argv, "--out-dir", str(tmp_path / "together" / str(k))) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(msinv.__file__).parents[1]))
        for k, argv in enumerate(self.CALLS):
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from msinv.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv, "--out-dir", str(tmp_path / "apart" / str(k))],
                env=env, check=True, capture_output=True, timeout=120)
        together = sorted(p.relative_to(tmp_path / "together")
                          for p in (tmp_path / "together").rglob("*") if p.is_file())
        apart = sorted(p.relative_to(tmp_path / "apart")
                       for p in (tmp_path / "apart").rglob("*") if p.is_file())
        assert together == apart and len(together) == 9
        for rel in together:
            assert ((tmp_path / "together" / rel).read_bytes()
                    == (tmp_path / "apart" / rel).read_bytes()), rel


class TestExitCodes:
    def test_schema_error_is_2(self, tmp_path):
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        p.write_text(PASSES_HEADER + "\nc1,f1,s1,A,1,1,1,,3.0,500\n")
        f.write_text(FRAME_HEADER + "\nc1,f1,s1,A,0,0\n")
        s.write_text(STRATA_HEADER + "\nA,1,2\n")
        assert run("estimate", "--passes", str(p), "--frame", str(f),
                   "--strata", str(s), "--out-dir", str(tmp_path)) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert run("estimate", "--passes", "nope.csv", "--frame", "nope.csv",
                   "--strata", "nope.csv", "--out-dir", str(tmp_path)) == 2

    @pytest.mark.parametrize("command", [
        ("estimate",),
        ("estimate", "--measurement", "mc", "--mc-iters", "4"),
        ("diagnose",),
    ], ids=["bias-correct", "mc", "diagnose"])
    @pytest.mark.parametrize("passes, frame, strata", [
        # a well detection at a site with no registered wells
        ("w1,w1,s1,Wells,1,1,1,50.0,3.0,150",
         "w1,w1,s1,Wells,1,0",
         "Wells,1,10"),
        # one site's well components in two strata
        ("w1,w1,s1,WellsA,1,1,1,50.0,3.0,150\nw2,w2,s1,WellsB,1,1,0,,,",
         "w1,w1,s1,WellsA,1,2\nw2,w2,s1,WellsB,1,2",
         "WellsA,2,10\nWellsB,2,10"),
    ], ids=["no-wells", "site-spans-strata"])
    def test_well_site_rule_is_2(self, tmp_path, command, passes, frame, strata):
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        p.write_text(PASSES_HEADER + "\n" + passes + "\n")
        f.write_text(FRAME_HEADER + "\n" + frame + "\n")
        s.write_text(STRATA_HEADER + "\n" + strata + "\n")
        assert run(*command, "--passes", str(p), "--frame", str(f), "--strata", str(s),
                   "--out-dir", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()

    def test_non_finite_rate_is_2(self, tmp_path):
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        p.write_text(PASSES_HEADER + "\nc1,f1,s1,A,1,1,1,nan,3.0,500\n")
        f.write_text(FRAME_HEADER + "\nc1,f1,s1,A,0,0\n")
        s.write_text(STRATA_HEADER + "\nA,1,2\n")
        assert run("estimate", "--passes", str(p), "--frame", str(f),
                   "--strata", str(s), "--out-dir", str(tmp_path)) == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("measurement", ["bias-correct", "mc"])
    def test_overflowing_rate_is_3(self, tmp_path, capsys, measurement):
        # finite, but its square overflows in the two-day variance
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        p.write_text(PASSES_HEADER + "\nc1,f1,s1,A,1,1,1,1e308,3.0,500"
                     "\nc1,f1,s1,A,2,1,1,50.0,3.0,500\n")
        f.write_text(FRAME_HEADER + "\nc1,f1,s1,A,0,0\n")
        s.write_text(STRATA_HEADER + "\nA,1,2\n")
        assert run("estimate", "--passes", str(p), "--frame", str(f), "--strata", str(s),
                   "--measurement", measurement, "--mc-iters", "4",
                   "--out-dir", str(tmp_path)) == 3
        assert not (tmp_path / "report.json").exists()
        if measurement == "mc":
            assert ("msinv: estimation error: Monte Carlo iteration 0: non-finite "
                    in capsys.readouterr().err)

    def test_a_report_whose_iteration_sums_overflow_is_3(self, tmp_path, capsys):
        # every iteration of the packaged survey, its rates scaled by 3e149,
        # is finite, but the report's sums over 2000 iterations are not
        passes, frame, strata = packaged_subset_paths()
        header, *rows = passes.read_text(encoding="utf-8").splitlines()
        at = header.split(",").index("rate_kg_h")
        scaled = tmp_path / "passes.csv"
        with open(scaled, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                cells = row.split(",")
                if cells[at]:
                    cells[at] = repr(float(cells[at]) * 3e149)
                fh.write(",".join(cells) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("estimate", "--passes", str(scaled), "--frame", str(frame),
                       "--strata", str(strata), "--stage2", "observed", "--measurement", "mc",
                       "--mc-iters", "2000", "--seed", "1", "--out-dir", str(out)) == 3
        assert not caught
        assert capsys.readouterr().err == (
            "msinv: estimation error: non-finite population ci_lower in the report "
            "(a measured rate too large to estimate with?)\n")
        assert not out.exists()

    def test_a_failing_bias_correct_variant_writes_nothing(self, tmp_path, capsys):
        # the overflowing survey of test_overflowing_rate_is_3: every variant
        # fails, and the bias-correct ones run before anything is written
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        p.write_text(PASSES_HEADER + "\nc1,f1,s1,A,1,1,1,1e308,3.0,500"
                     "\nc1,f1,s1,A,2,1,1,50.0,3.0,500\n")
        f.write_text(FRAME_HEADER + "\nc1,f1,s1,A,0,0\n")
        s.write_text(STRATA_HEADER + "\nA,1,2\n")
        inputs = ("--passes", str(p), "--frame", str(f), "--strata", str(s))
        capsys.readouterr()
        # the first variant, alone, names the failure the whole run names
        assert run("estimate", *inputs, "--stage2", "observed",
                   "--out-dir", str(tmp_path / "first")) == 3
        first = capsys.readouterr().err
        assert first.startswith("msinv: estimation error: non-finite ")
        assert run("estimate", *inputs, "--all-variants", "--mc-iters", "4",
                   "--out-dir", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == first
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", [(), ("--all-variants",)], ids=["mc", "all-variants"])
    def test_a_failing_monte_carlo_pass_writes_nothing(self, tmp_path, capsys, mode):
        # bias correction is finite on this survey, some Monte Carlo draws are
        # not; the first Monte Carlo pass runs before anything is written
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        p.write_text(PASSES_HEADER + "\nc1,f1,s1,A,1,1,1,2e151,3.0,500"
                     "\nc1,f1,s1,A,2,1,1,50.0,3.0,500\n")
        f.write_text(FRAME_HEADER + "\nc1,f1,s1,A,0,0\n")
        s.write_text(STRATA_HEADER + "\nA,1,2\n")
        capsys.readouterr()
        assert run("estimate", "--passes", str(p), "--frame", str(f), "--strata", str(s),
                   "--measurement", "mc", *mode, "--mc-iters", "50",
                   "--out-dir", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            "msinv: estimation error: Monte Carlo iteration 8: non-finite population "
            "v3stage (a measured rate too large to estimate with?)\n")
        assert not (tmp_path / "out").exists()

    def test_a_later_monte_carlo_pass_fails_after_the_reports_before_it(
            self, tmp_path, capsys, monkeypatch):
        # one variant per pass: the first (ipw/observed) is finite, the
        # second (ipw/year) runs once the reports before it are written
        monkeypatch.setattr(measurement, "MAX_MC_ITERATIONS", 50)
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        p.write_text(PASSES_HEADER + "\nc1,f1,s1,A,1,1,1,2e151,3.0,500"
                     "\nc1,f1,s1,A,2,1,1,50.0,3.0,500\n")
        f.write_text(FRAME_HEADER + "\nc1,f1,s1,A,0,0\n")
        s.write_text(STRATA_HEADER + "\nA,1,2\n")
        assert run("estimate", "--passes", str(p), "--frame", str(f), "--strata", str(s),
                   "--all-variants", "--mc-iters", "50", "--out-dir", str(tmp_path / "out")) == 3
        assert "Monte Carlo iteration 8: non-finite population v3stage" in capsys.readouterr().err
        assert sorted(path.name for path in (tmp_path / "out").glob("*.json")) == [
            "report_ipw_observed_biascorrect.json", "report_ipw_observed_mc.json",
            "report_ipw_year_biascorrect.json"]

    def test_horizon_below_surveyed_days_is_3(self, tmp_path):
        assert run("estimate", "--packaged", "--stage2", "year:2",
                   "--out-dir", str(tmp_path)) == 3

    def test_horizon_failure_of_any_variant_writes_nothing(self, tmp_path, capsys):
        # the observed variants come first and pass their check; every Monte
        # Carlo variant's horizon is checked before the first report is written
        capsys.readouterr()
        assert run("estimate", "--packaged", "--all-variants", "--stage2", "year:2",
                   "--out-dir", str(tmp_path / "out")) == 3
        assert ("component 'COSWB-F01-C1': d_p=3 exceeds the horizon D=2"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", [("--measurement", "mc"), ("--all-variants",)],
                             ids=["mc", "all-variants"])
    @pytest.mark.parametrize("iters", [measurement.MAX_MC_ITERATIONS + 1, 10**15])
    def test_too_many_mc_iterations_is_4(self, tmp_path, monkeypatch, capsys, mode, iters):
        def unreachable(*args):
            raise AssertionError("the survey was read")

        monkeypatch.setattr("msinv.cli.load_survey", unreachable)
        capsys.readouterr()
        assert run("estimate", "--packaged", *mode, "--mc-iters", str(iters),
                   "--out-dir", str(tmp_path / "out")) == 4
        assert "Monte Carlo iterations" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", [("--measurement", "mc"), ("--all-variants",)],
                             ids=["mc", "all-variants"])
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_is_4(self, tmp_path, monkeypatch, capsys, mode, seed):
        # the streams are keyed by 64 bits: a wider seed would alias another
        def unreachable(*args):
            raise AssertionError("the survey was read")

        monkeypatch.setattr("msinv.cli.load_survey", unreachable)
        capsys.readouterr()
        assert run("estimate", "--packaged", *mode, "--mc-iters", "10", "--seed", str(seed),
                   "--out-dir", str(tmp_path / "out")) == 4
        assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", [("--measurement", "mc"), ("--all-variants",)],
                             ids=["mc", "all-variants"])
    def test_invalid_threads_variable_is_4(self, tmp_path, monkeypatch, capsys, mode):
        # checked with the other MC settings, before any report is written
        monkeypatch.setenv(measurement.THREADS_ENV, "abc")
        capsys.readouterr()
        assert run("estimate", "--packaged", *mode, "--mc-iters", "10",
                   "--out-dir", str(tmp_path / "out")) == 4
        assert "MSINV_THREADS must be a whole number, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, env, message", [
        (("--threads", "0"), None, "argument --threads: must be at least 1, got 0"),
        (("--threads", "-5"), None, "argument --threads: must be at least 1, got -5"),
        ((), "-5", "MSINV_THREADS must be at least 1, got -5"),
    ], ids=["flag-zero", "flag-negative", "variable-negative"])
    def test_thread_count_below_one_is_4(self, tmp_path, monkeypatch, capsys, flags, env,
                                         message):
        def unreachable(*args):
            raise AssertionError("the survey was read")

        monkeypatch.setattr("msinv.cli.load_survey", unreachable)
        if env is None:
            monkeypatch.delenv(measurement.THREADS_ENV, raising=False)
        else:
            monkeypatch.setenv(measurement.THREADS_ENV, env)
        capsys.readouterr()
        assert run("estimate", "--packaged", "--measurement", "mc", "--mc-iters", "10", *flags,
                   "--out-dir", str(tmp_path / "out")) == 4
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_is_4(self, tmp_path):
        assert run("estimate", "--packaged", "--stage2", "sometimes",
                   "--out-dir", str(tmp_path)) == 4
        for typo in ("years", "yearly", "year365", "year:"):
            assert run("estimate", "--packaged", "--stage2", typo,
                       "--out-dir", str(tmp_path)) == 4
        assert run("estimate", "--out-dir", str(tmp_path)) == 4
        assert run("estimate", "--packaged", "--bogus-flag") == 4

    @pytest.mark.parametrize("command", ["estimate", "diagnose"])
    @pytest.mark.parametrize("flag, ini", [
        (("--pod-kappa", "inf"), "[pod]\nkappa = inf\n"),
        (("--meas-d", "nan"), "[measurement]\nd = nan\n"),
        (("--meas-alpha", "-inf"), "[measurement]\nalpha = -inf\n"),
        (("--meas-beta", "nan"), "[measurement]\nbeta = nan\n"),
    ], ids=["kappa-inf", "d-nan", "alpha-minus-inf", "beta-nan"])
    @pytest.mark.parametrize("via", ["flag", "model-config"])
    def test_non_finite_model_constant_is_4(self, tmp_path, command, flag, ini, via):
        if via == "flag":
            override = flag
        else:
            (tmp_path / "model.ini").write_text(ini)
            override = ("--model-config", str(tmp_path / "model.ini"))
        # survey files that do not exist: the constants fail first, with 4, not 2
        missing = [arg for name in ("passes", "frame", "strata")
                   for arg in (f"--{name}", str(tmp_path / "missing.csv"))]
        assert run(command, *missing, *override, "--out-dir", str(tmp_path / "out")) == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        ("--meas-beta", "inf"), ("--model-config", "[measurement]\nbeta = inf\n"),
    ], ids=["flag", "model-config"])
    def test_infinite_beta_is_allowed(self, tmp_path, override):
        flag, value = override
        if flag == "--model-config":
            (tmp_path / "model.ini").write_text(value)
            value = str(tmp_path / "model.ini")
        assert run("diagnose", "--packaged", flag, value,
                   "--out-dir", str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("command", ["estimate", "diagnose"])
    @pytest.mark.parametrize("ini", [
        "kappa = 0.3\n",
        "[pod]\nkappa = 0.3\nkappa = 0.4\n",
        "[pod]\nkappa\n",
        "[pod]\nkappa = 50%\n",
    ], ids=["no-section-header", "duplicate-key", "bare-key", "bad-interpolation"])
    def test_malformed_model_config_is_4(self, tmp_path, capsys, command, ini):
        model = tmp_path / "model.ini"
        model.write_text(ini)
        capsys.readouterr()
        assert run(command, "--packaged", "--model-config", str(model),
                   "--out-dir", str(tmp_path / "out")) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"msinv: configuration error: bad model config {str(model)!r}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--config", "{dir}", "--out-dir", "{tmp}/out"),
        ("plan", "--scenario", "{dir}", "--out", "{tmp}/out/plan.csv"),
        ("estimate", "--passes", "{dir}", "--frame", "{dir}", "--strata", "{dir}",
         "--out-dir", "{tmp}/out"),
        ("estimate", "--packaged", "--out-dir", "{file}"),
        ("estimate", "--packaged", "--out-dir", "{file}/sub"),
    ], ids=["simulate-config-dir", "plan-scenario-dir", "estimate-inputs-dir",
            "out-dir-is-a-file", "out-dir-under-a-file"])
    def test_path_that_cannot_be_opened_is_2(self, tmp_path, capsys, argv):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        names = {"dir": tmp_path / "dir", "file": tmp_path / "file", "tmp": tmp_path}
        capsys.readouterr()
        assert run(*(arg.format(**names) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("msinv: input error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["passes", "strata"])
    @pytest.mark.parametrize("fault", ["undecodable-byte", "oversized-field"])
    def test_csv_that_cannot_be_parsed_is_2(self, tmp_path, capsys, name, fault):
        argv = ["estimate", "--out-dir", str(tmp_path / "out")]
        for key, src in zip(("passes", "frame", "strata"), packaged_subset_paths()):
            (tmp_path / f"{key}.csv").write_bytes(Path(src).read_bytes())
            argv += [f"--{key}", str(tmp_path / f"{key}.csv")]
        with open(tmp_path / f"{name}.csv", "ab") as fh:
            fh.write(b"\xff\n" if fault == "undecodable-byte"
                     else b'"' + b"x" * 200_000 + b'"\n')
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"msinv: input error: {tmp_path / name}.csv: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("estimate",), ("estimate", "--measurement", "mc", "--mc-iters", "5"), ("diagnose",),
    ], ids=["estimate", "estimate-mc", "diagnose"])
    def test_a_survey_of_headers_alone_is_2(self, tmp_path, capsys, argv):
        inputs = []
        for key, header in (("passes", PASSES_HEADER), ("frame", FRAME_HEADER),
                            ("strata", STRATA_HEADER)):
            (tmp_path / f"{key}.csv").write_text(header + "\n")
            inputs += [f"--{key}", str(tmp_path / f"{key}.csv")]
        capsys.readouterr()
        assert run(*argv, *inputs, "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err == f"msinv: input error: {tmp_path / 'strata.csv'}: no strata rows\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["estimate", "diagnose"])
    def test_a_population_past_the_intp_range_is_2(self, tmp_path, capsys, command):
        passes, frame, strata = packaged_subset_paths()
        rows = Path(strata).read_text().splitlines()
        rows[1] = f"CO SWB,11,{2**63}"
        (tmp_path / "strata.csv").write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        assert run(command, "--passes", str(passes), "--frame", str(frame),
                   "--strata", str(tmp_path / "strata.csv"),
                   "--out-dir", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err == (f"msinv: input error: stratum 'CO SWB': n_population={2**63} "
                       f"is above {2**63 - 1}\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_model_config_section_is_4(self, tmp_path):
        (tmp_path / "model.ini").write_text("[measurment]\nd = 0.9\n")
        assert run("diagnose", "--packaged", "--model-config", str(tmp_path / "model.ini"),
                   "--out-dir", str(tmp_path / "out")) == 4

    # 1 - 2**-53 lies in (0, 1), but 0.5 + level / 2 rounds to 1
    @pytest.mark.parametrize("level", ["1.5", "0", "nan", "0.9999999999999999"])
    def test_invalid_ci_level_is_4(self, tmp_path, capsys, level):
        # survey files that do not exist: the level fails first, with 4, not 2
        missing = [arg for name in ("passes", "frame", "strata")
                   for arg in (f"--{name}", str(tmp_path / "missing.csv"))]
        capsys.readouterr()
        assert run("estimate", *missing, "--all-variants", "--ci-level", level,
                   "--out-dir", str(tmp_path / "out")) == 4
        assert "ci_level must lie in" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_deterministic_csv(self, tmp_path):
        cfg = {
            "strata": [{"name": "A", "n_sampled": 3, "n_population": 5,
                        "lognormal_mu": 3.7, "lognormal_sigma": 0.3}],
            "horizon": 8, "days_sampled": 2, "replications": 10, "seed": 7,
            "components_per_facility": [1, 4], "emit_prob": 0.5,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run("simulate", "--config", str(cfg_path),
                       "--out-dir", str(out)) == 0
        assert (out1 / "simstudy.csv").read_bytes() == (out2 / "simstudy.csv").read_bytes()

    def test_degenerate_config_zero_bias(self, tmp_path):
        cfg = {
            "strata": [{"name": "A", "n_sampled": 3, "n_population": 5,
                        "lognormal_mu": 3.7, "lognormal_sigma": 0.3}],
            "horizon": 8, "days_sampled": 2, "replications": 5, "seed": 7,
            "components_per_facility": [1, 4], "emit_prob": 0.0,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("simulate", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path)) == 0
        _, rows = read_csv_rows(tmp_path / "simstudy.csv")
        assert all(float(r["bias_pct"]) == 0.0 for r in rows)

    @pytest.mark.parametrize("level", [1.5, 1 - 2**-53])
    def test_invalid_ci_level_is_4(self, tmp_path, monkeypatch, capsys, level):
        def unreachable(*args):
            raise AssertionError("the population was generated")

        monkeypatch.setattr(simlab, "generate_population", unreachable)
        cfg = {
            "strata": [{"name": "A", "n_sampled": 3, "n_population": 5,
                        "lognormal_mu": 3.7, "lognormal_sigma": 0.3}],
            "horizon": 8, "days_sampled": 2, "replications": 5, "seed": 7,
            "ci_level": level,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("simulate", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")) == 4
        assert "ci_level must lie in" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, replications", [
        (("--reps", "0"), None), (("--reps", "1"), None), ((), 0),
    ], ids=["reps-0", "reps-1", "config-0"])
    def test_fewer_than_two_replications_is_4(self, tmp_path, args, replications):
        config = ()
        if replications is not None:
            cfg_path = tmp_path / "sim.json"
            cfg_path.write_text(json.dumps({
                "strata": [{"name": "A", "n_sampled": 3, "n_population": 5,
                            "lognormal_mu": 3.7, "lognormal_sigma": 0.3}],
                "replications": replications,
            }))
            config = ("--config", str(cfg_path))
        assert run("simulate", *config, *args, "--out-dir", str(tmp_path / "out")) == 4
        assert not (tmp_path / "out").exists()

    def test_a_repeated_key_is_4_and_named(self, tmp_path, capsys):
        # the last value (3 replications, a valid config) is not taken
        text = json.dumps(SIM_CONFIG)[:-1] + ', "replications": 3}'
        assert assert_rejected(tmp_path, capsys, "simulate", text) == (
            "msinv: configuration error: repeated key 'replications' in a JSON object\n")

    @pytest.mark.parametrize("key", ["wind_sd", "altitude_sd"])
    def test_negative_sd_is_4_and_named(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(dict(SIM_CONFIG, **{key: -0.5})))
        capsys.readouterr()
        assert run("simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")) == 4
        assert f"{key} must be >= 0, got -0.5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_quoted_numbers_load(self, tmp_path):
        cfg = {
            "strata": [{"name": "A", "n_sampled": "3", "n_population": 5,
                        "lognormal_mu": "3.7", "lognormal_sigma": 0.3}],
            "horizon": "8", "days_sampled": 2.0, "replications": "5", "seed": 7,
            "ci_level": "0.9",
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "simstudy_config.json").read_text())["config"]
        assert (doc["horizon"], doc["days_sampled"], doc["ci_level"]) == (8, 2, 0.9)
        assert doc["strata"][0]["n_sampled"] == 3

    @pytest.mark.parametrize("key, value", BAD_VALUES)
    def test_non_numeric_or_fractional_count_is_4(self, tmp_path, capsys, key, value):
        assert_rejected(tmp_path, capsys, "simulate", edited(SIM_CONFIG, {key: value}))

    def test_population_over_the_cell_limit_is_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simlab, "MAX_POPULATION_CELLS", 1000)
        assert run("simulate", "--reps", "2", "--out-dir", str(tmp_path / "out")) == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["reps", "config"])
    @pytest.mark.parametrize("replications", [simlab.MAX_REPLICATIONS + 1, 10**15])
    def test_too_many_replications_is_4(self, tmp_path, monkeypatch, capsys, via,
                                        replications):
        def unreachable(*args):
            raise AssertionError("the population was generated")

        monkeypatch.setattr(simlab, "generate_population", unreachable)
        if via == "reps":
            argv = ("--reps", str(replications))
        else:
            cfg_path = tmp_path / "sim.json"
            cfg_path.write_text(json.dumps(dict(SIM_CONFIG, replications=replications)))
            argv = ("--config", str(cfg_path))
        capsys.readouterr()
        assert run("simulate", *argv, "--out-dir", str(tmp_path / "out")) == 4
        assert "replications" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["seed", "config"])
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_is_4(self, tmp_path, monkeypatch, capsys, via, seed):
        def unreachable(*args):
            raise AssertionError("the population was generated")

        monkeypatch.setattr(simlab, "generate_population", unreachable)
        if via == "seed":
            argv = ("--seed", str(seed))
        else:
            cfg_path = tmp_path / "sim.json"
            cfg_path.write_text(json.dumps(dict(SIM_CONFIG, seed=seed)))
            argv = ("--config", str(cfg_path))
        capsys.readouterr()
        assert run("simulate", *argv, "--out-dir", str(tmp_path / "out")) == 4
        assert f"seed must lie in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_facilities_over_the_cell_limit_are_4(self, tmp_path, monkeypatch):
        # SIM_CONFIG has 5 facilities; each counts as a cell before any is drawn
        monkeypatch.setattr(simlab, "MAX_POPULATION_CELLS", 4)

        def unreachable(*args):
            raise AssertionError("the population was generated")

        monkeypatch.setattr(simlab, "generate_population", unreachable)
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(SIM_CONFIG))
        assert run("simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")) == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mu, code", [(800.0, 4), (400.0, 3)],
                             ids=["rates-overflow", "estimates-overflow"])
    def test_overflowing_population_writes_nothing(self, tmp_path, capsys, mu, code):
        # mu 800: the rates and true totals are inf/nan, rejected with the
        # population; mu 400: finite rates whose squares overflow in estimation
        cfg = {
            "strata": [{"name": "A", "n_sampled": 3, "n_population": 5,
                        "lognormal_mu": mu, "lognormal_sigma": 0.5}],
            "components_per_facility": [1, 3], "emit_prob": 0.5, "horizon": 10,
            "days_sampled": 2, "replications": 3, "seed": 1,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert run("simulate", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "out")) == code
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rows_cover_all_variants(self, tmp_path):
        cfg = {
            "strata": [{"name": "A", "n_sampled": 3, "n_population": 5,
                        "lognormal_mu": 3.7, "lognormal_sigma": 0.3}],
            "horizon": 8, "days_sampled": 2, "replications": 5, "seed": 7,
            "components_per_facility": [1, 4], "emit_prob": 0.5,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        run("simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path))
        _, rows = read_csv_rows(tmp_path / "simstudy.csv")
        variants = {r["variant"] for r in rows}
        assert variants == {"ipw_year", "ipw_observed", "hajek_year", "hajek_observed"}
        assert {r["stratum"] for r in rows} == {"A", "Population"}


class TestPlanAndDiagnose:
    def test_plan_census_scenario(self, tmp_path):
        scenario = {
            "horizon_days": 30, "days_sampled": 2,
            "strata": [
                {"name": "A", "n_sampled": 4, "n_population": 4,
                 "pass_phis": [0.8, 0.8],
                 "profiles": [{"ybar": 5.0, "day_sd": 1.0, "count": 4}]},
            ],
        }
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(scenario))
        out = tmp_path / "plan.csv"
        assert run("plan", "--scenario", str(spath), "--out", str(out)) == 0
        _, rows = read_csv_rows(out)
        assert all(float(r["var_stage1"]) == 0.0 for r in rows)

    @pytest.mark.parametrize("key, value", BAD_VALUES)
    def test_bad_scenario_value_is_4(self, tmp_path, capsys, key, value):
        assert_rejected(tmp_path, capsys, "plan", edited(PLAN_SCENARIO, {key: value}))

    def test_a_repeated_key_is_4_and_named(self, tmp_path, capsys):
        text = json.dumps(PLAN_SCENARIO)
        assert '"pass_phis": [0.6, 0.8]' in text
        text = text.replace('"pass_phis": [0.6, 0.8]', '"pass_phis": [0.6, 0.8], "pass_phis": 0.5')
        assert assert_rejected(tmp_path, capsys, "plan", text) == (
            "msinv: configuration error: repeated key 'pass_phis' in a JSON object\n")

    @pytest.mark.parametrize("edits", [
        {"horizon_days": 30.9},
        {("strata", 0, "profiles", 0): 5},
        {("strata", 0, "profiles", 0, "ybar"): "nan"},
        {("strata", 0, "profiles", 0, "ybar"): -1.0},
        {("strata", 0, "profiles", 0, "day_sd"): -1.0},
        {("strata", 0, "profiles", 0, "count"): -3},
        {("strata", 0, "pass_phis"): 0.8, ("strata", 0, "passes_per_day"): 0},
        {("strata", 0, "pass_phis"): []},
        {("strata", 0, "passes_per_day"): 2},
    ], ids=["fractional-horizon", "number-for-profile", "nan-ybar", "negative-ybar",
            "negative-day-sd", "negative-count", "zero-passes", "no-pass-phis",
            "passes-per-day-with-list"])
    def test_plan_range_rules_are_4(self, tmp_path, capsys, edits):
        assert_rejected(tmp_path, capsys, "plan", edited(PLAN_SCENARIO, edits))

    @pytest.mark.parametrize("edits, estimator", [
        ({("strata", 0, "profiles", 0, "ybar"): 1e200}, "ipw"),
        ({("strata", 0, "profiles", 0, "ybar"): 1e200}, "hajek"),
        ({("strata", 0, "pass_phis"): 1e-300, ("strata", 0, "profiles", 0, "ybar"): 1e5},
         "ipw"),
    ], ids=["ybar-1e200-ipw", "ybar-1e200-hajek", "pass-phi-1e-300-ipw"])
    def test_plan_overflow_is_3(self, tmp_path, capsys, edits, estimator):
        # valid inputs whose variances no float holds: exit 3, before any output
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(edited(PLAN_SCENARIO, edits)))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("plan", "--scenario", str(cfg), "--estimator", estimator,
                   "--out", str(out / "plan.csv")) == 3
        assert capsys.readouterr().err.startswith("msinv: estimation error: stratum 'A': ")
        assert not out.exists()

    @pytest.mark.parametrize("edits", [
        {("strata", 0, "pass_phis"): 0.8,
         ("strata", 0, "passes_per_day"): planner.MAX_PASSES_PER_DAY},
        {("strata", 0, "pass_phis"): [0.8] * planner.MAX_PASSES_PER_DAY},
    ], ids=["passes_per_day", "pass_phis-list"])
    def test_plan_accepts_the_passes_per_day_limit(self, tmp_path, edits):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(edited(PLAN_SCENARIO, edits)))
        assert run("plan", "--scenario", str(cfg), "--out", str(tmp_path / "plan.csv")) == 0

    @pytest.mark.parametrize("edits, key", [
        ({("strata", 0, "pass_phis"): 0.8,
          ("strata", 0, "passes_per_day"): planner.MAX_PASSES_PER_DAY + 1}, "passes_per_day"),
        ({("strata", 0, "pass_phis"): [0.8] * (planner.MAX_PASSES_PER_DAY + 1)}, "pass_phis"),
        ({("strata", 0, "pass_phis"): 0.5, ("strata", 0, "passes_per_day"): 10**15},
         "passes_per_day"),
    ], ids=["passes_per_day", "pass_phis-list", "passes_per_day-1e15"])
    def test_too_many_passes_per_day_is_4(self, tmp_path, capsys, edits, key):
        err = assert_rejected(tmp_path, capsys, "plan", edited(PLAN_SCENARIO, edits))
        assert f"strata[0].{key}: at most {planner.MAX_PASSES_PER_DAY} passes per day" in err

    def test_diagnose_packaged_locks(self, tmp_path):
        assert run("diagnose", "--packaged", "--out-dir", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "diagnostics.json").read_text())
        assert doc["gamma_quartiles"] == [1.0, 1.0, 1.0]
        assert doc["diagnostics"]["zero_detection_strata"] == ["Water and Waste"]
        assert doc["diagnostics"]["single_day_count"] == 25
        _, rows = read_csv_rows(tmp_path / "gamma.csv")
        assert len(rows) == doc["n_components"]


class TestWritePath:
    def test_no_artifact_is_truncated_to_zero_bytes(self, tmp_path, monkeypatch):
        # truncating an artifact to zero bytes and writing it again makes ext4
        # allocate its blocks at close; a rerun into one directory rewrites
        # every file, so no artifact may be opened with O_TRUNC or cut to zero
        flags, cuts = {}, []
        real_open, real_ftruncate = os.open, os.ftruncate

        def recording_open(path, flag, *args, **kwargs):
            flags[os.fspath(path)] = flag
            return real_open(path, flag, *args, **kwargs)

        def recording_ftruncate(fd, length):
            cuts.append(length)
            return real_ftruncate(fd, length)

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "ftruncate", recording_ftruncate)
        out = tmp_path / "out"
        for _ in range(2):  # the second run writes over the first run's files
            flags.clear()
            assert run("estimate", "--packaged", "--all-variants", "--mc-iters", "4", "--trace",
                       "--out-dir", str(out)) == 0
            written = sorted(str(p) for p in out.iterdir())
            assert len(written) == 8 * 3 + 4
            assert set(written) <= set(flags)
            assert [p for p in written if flags[p] & os.O_TRUNC] == []
        assert len(cuts) == len(written) and 0 not in cuts

    def test_plan_writes_to_stdout_through_a_pipe(self, tmp_path):
        # a pipe cannot be cut; the writer must not try
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(PLAN_SCENARIO))
        assert run("plan", "--scenario", str(scenario), "--out", str(tmp_path / "plan.csv")) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(msinv.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from msinv.cli import main; sys.exit(main(sys.argv[1:]))",
             "plan", "--scenario", str(scenario), "--out", "/dev/stdout"],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ((tmp_path / "plan.csv").read_bytes()
                               + b"predicted variance -> /dev/stdout\n")

    def test_plan_to_dev_stdout_redirected_to_a_file_writes_after_what_it_holds(self, tmp_path):
        # /dev/stdout opened anew would write from the file's first byte; the
        # CSV is UTF-8 whatever stdout's encoding
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(edited(PLAN_SCENARIO, {("strata", 0, "name"): "Délaware–Ω"})))
        assert run("plan", "--scenario", str(scenario), "--out", str(tmp_path / "plan.csv")) == 0
        assert "Délaware–Ω".encode() in (tmp_path / "plan.csv").read_bytes()
        env = dict(os.environ, PYTHONPATH=str(Path(msinv.__file__).parents[1]),
                   PYTHONIOENCODING="ascii")
        log = tmp_path / "log.txt"
        with open(log, "wb") as fh:
            fh.write(b"earlier output\n")
            fh.flush()
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from msinv.cli import main; sys.exit(main(sys.argv[1:]))",
                 "plan", "--scenario", str(scenario), "--out", "/dev/stdout"],
                env=env, stdout=fh, stderr=subprocess.PIPE, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert log.read_bytes() == (b"earlier output\n" + (tmp_path / "plan.csv").read_bytes()
                                    + b"predicted variance -> /dev/stdout\n")


class TestAllocatorPolicy:
    """`main` sets glibc's malloc thresholds once per process, through a fake libc here."""

    MC = ["estimate", "--packaged", "--measurement", "mc", "--mc-iters", "300", "--seed", "3",
          "--trace"]

    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return mallopt.result

        mallopt.result = 1      # glibc's return for a value it accepts
        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
        cli._keep_freed_heap.cache_clear()
        yield calls, libc
        cli._keep_freed_heap.cache_clear()

    def test_two_calls_set_each_threshold_once(self, tmp_path, mallopt_calls):
        calls, _ = mallopt_calls
        for out in ("a", "b"):
            assert run("diagnose", "--packaged", "--out-dir", str(tmp_path / out)) == 0
        assert calls == [(cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD),
                         (cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD)]
        assert (cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD) == (-3, 32 * 2**20)
        assert (cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD) == (-1, 64 * 2**20)

    @staticmethod
    def _no_confstr(name):
        raise ValueError("unrecognized configuration name")

    @pytest.mark.parametrize("case, expected_calls", [
        ("confstr-raises", []), ("no-libc-version", []), ("other-libc", []), ("no-mallopt", []),
        ("mallopt-returns-0", [-3])])
    def test_where_it_cannot_set_them_the_run_is_unchanged(self, tmp_path, monkeypatch,
                                                            mallopt_calls, case, expected_calls):
        calls, libc = mallopt_calls
        assert run(*self.MC, "--out-dir", str(tmp_path / "set")) == 0
        assert len(calls) == 2
        calls.clear()
        cli._keep_freed_heap.cache_clear()
        if case == "confstr-raises":
            monkeypatch.setattr(cli.os, "confstr", self._no_confstr)
        elif case == "no-libc-version":
            monkeypatch.setattr(cli.os, "confstr", lambda name: None)
        elif case == "other-libc":
            monkeypatch.setattr(cli.os, "confstr", lambda name: "uClibc-ng 1.0.45")
        elif case == "no-mallopt":
            monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
        else:
            libc.mallopt.result = 0
        assert run(*self.MC, "--out-dir", str(tmp_path / "unset")) == 0
        assert [param for param, _ in calls] == expected_calls
        names = sorted(p.name for p in (tmp_path / "set").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "unset").iterdir()) and len(names) == 4
        for name in names:
            assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes()


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


class TestArtifacts:
    def test_every_artifact_carries_its_runs_manifest(self, tmp_path):
        """Every file of a run, or of an estimate variant, carries that run's manifest."""
        sim, scenario = tmp_path / "sim.json", tmp_path / "scenario.json"
        sim.write_text(json.dumps(SIM_CONFIG))
        scenario.write_text(json.dumps(PLAN_SCENARIO))
        out = tmp_path / "out"
        runs = {
            "estimate": ["--packaged", "--all-variants", "--mc-iters", "4", "--trace",
                         "--out-dir", str(out / "estimate")],
            "simulate": ["--config", str(sim), "--out-dir", str(out / "simulate")],
            "plan": ["--scenario", str(scenario), "--out", str(out / "plan" / "plan.csv")],
            "diagnose": ["--packaged", "--out-dir", str(out / "diagnose")],
        }
        for command, argv in runs.items():
            assert run(command, *argv) == 0
            manifests = {}
            for path in sorted((out / command).iterdir()):
                if path.suffix == ".json":
                    doc = json.loads(path.read_text(), parse_constant=_refuse_constant)
                    manifests[path.name] = doc["manifest"]
                else:
                    first = path.read_text().splitlines()[0]
                    assert first.startswith("# manifest: "), path.name
                    manifests[path.name] = json.loads(first[len("# manifest: "):])
            assert all(m["command"] == command and m["timestamp"] == "2026-01-01T00:00:00"
                       for m in manifests.values())
            if command != "estimate":
                assert len({json.dumps(m, sort_keys=True) for m in manifests.values()}) == 1
                continue
            # a variant's report, tables and trace share its manifest
            assert len(manifests) == 8 * 3 + 4
            for name, manifest in manifests.items():
                stem = name.split(".")[0].removesuffix("_table").removesuffix(
                    "_decomposition").removesuffix("_trace")
                assert manifest == manifests[stem + ".json"], name
                flags = manifest["flags"]
                assert stem == (f"report_{flags['estimator']}_{flags['stage2']}_"
                                f"{flags['measurement'].replace('-', '')}")


class TestExtremeSettings:
    @pytest.mark.parametrize("argv, sim", [
        (("estimate", "--packaged", "--meas-beta", "inf"), None),
        (("estimate", "--packaged", "--meas-beta", "inf", "--measurement", "mc",
          "--mc-iters", "50"), None),
        (("estimate", "--packaged", "--meas-beta", "inf", "--all-variants",
          "--mc-iters", "50"), None),
        (("estimate", "--packaged", "--pod-wind-offset", "1e300"), None),
        (("diagnose", "--packaged", "--pod-wind-exp", "1e300"), None),
        (("simulate",), {"altitude_mean": 1e300}),
        (("simulate",), {"wind_mean": 1e300}),
    ], ids=["beta-inf", "beta-inf-mc", "beta-inf-all-variants", "pod-wind-offset",
            "diagnose-pod-wind-exp", "sim-altitude", "sim-wind"])
    def test_valid_extreme_settings_write_strict_json_without_warnings(self, tmp_path, argv,
                                                                      sim):
        argv = list(argv)
        if sim is not None:
            (tmp_path / "sim.json").write_text(json.dumps(dict(
                SIM_CONFIG, horizon=20, replications=4, **sim)))
            argv += ["--config", str(tmp_path / "sim.json")]
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--out-dir", str(out)) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        docs = [json.loads(path.read_text(), parse_constant=_refuse_constant)
                for path in sorted(out.glob("*.json"))]
        assert docs
        if "inf" in argv:
            # JSON has no infinity: beta is echoed as the flag spells it
            for doc in docs:
                assert doc["config"].get("mc", doc["config"])["measurement"]["beta"] == "inf"
