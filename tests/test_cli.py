"""Command-line surface tests: artifacts, reproducibility, exit codes."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msinv
from msinv import cli, measurement, simlab
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


def assert_rejected(tmp_path, capsys, command, doc):
    """``command`` on the JSON ``doc`` exits 4 with a message and writes nothing."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    if command == "simulate":
        argv = ("simulate", "--config", str(cfg), "--out-dir", str(out))
    else:
        argv = ("plan", "--scenario", str(cfg), "--out", str(out / "plan.csv"))
    capsys.readouterr()
    assert run(*argv) == 4
    assert capsys.readouterr().err.startswith("msinv: configuration error: ")
    assert not out.exists()


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("MSINV_TIMESTAMP", "2026-01-01T00:00:00")


def run(*argv):
    return main(list(argv))


class TestEstimate:
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
    def test_overflowing_rate_is_3(self, tmp_path, measurement):
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

    def test_horizon_below_surveyed_days_is_3(self, tmp_path):
        assert run("estimate", "--packaged", "--stage2", "year:2",
                   "--out-dir", str(tmp_path)) == 3

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

    def test_unknown_model_config_section_is_4(self, tmp_path):
        (tmp_path / "model.ini").write_text("[measurment]\nd = 0.9\n")
        assert run("diagnose", "--packaged", "--model-config", str(tmp_path / "model.ini"),
                   "--out-dir", str(tmp_path / "out")) == 4

    def test_invalid_ci_level_is_4(self, tmp_path):
        assert run("estimate", "--packaged", "--ci-level", "1.5",
                   "--out-dir", str(tmp_path)) == 4
        assert not (tmp_path / "report.json").exists()


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

    def test_invalid_ci_level_is_4(self, tmp_path):
        cfg = {
            "strata": [{"name": "A", "n_sampled": 3, "n_population": 5,
                        "lognormal_mu": 3.7, "lognormal_sigma": 0.3}],
            "horizon": 8, "days_sampled": 2, "replications": 5, "seed": 7,
            "ci_level": 1.5,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run("simulate", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "out")) == 4
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

    def test_diagnose_packaged_locks(self, tmp_path):
        assert run("diagnose", "--packaged", "--out-dir", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "diagnostics.json").read_text())
        assert doc["gamma_quartiles"] == [1.0, 1.0, 1.0]
        assert doc["diagnostics"]["zero_detection_strata"] == ["Water and Waste"]
        assert doc["diagnostics"]["single_day_count"] == 25
        _, rows = read_csv_rows(tmp_path / "gamma.csv")
        assert len(rows) == doc["n_components"]
