"""Command-line surface tests: artifacts, reproducibility, exit codes."""

import json

import pytest

from msinv.cli import main
from msinv.reporting import read_csv_rows

PASSES_HEADER = "component_id,facility_id,site_id,stratum,day,pass,detected,rate_kg_h,wind_m_s,altitude_m"
FRAME_HEADER = "component_id,facility_id,site_id,stratum,is_well,wells_at_site"
STRATA_HEADER = "stratum,n_sampled,n_population"


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

    def test_estimation_error_is_3(self, tmp_path):
        p = tmp_path / "p.csv"
        f = tmp_path / "f.csv"
        s = tmp_path / "s.csv"
        # a well detection at a site with no registered wells
        p.write_text(PASSES_HEADER + "\nw1,w1,s1,Wells,1,1,1,50.0,3.0,150\n")
        f.write_text(FRAME_HEADER + "\nw1,w1,s1,Wells,1,0\n")
        s.write_text(STRATA_HEADER + "\nWells,1,10\n")
        assert run("estimate", "--passes", str(p), "--frame", str(f),
                   "--strata", str(s), "--out-dir", str(tmp_path)) == 3

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

    def test_config_error_is_4(self, tmp_path):
        assert run("estimate", "--packaged", "--stage2", "sometimes",
                   "--out-dir", str(tmp_path)) == 4
        assert run("estimate", "--out-dir", str(tmp_path)) == 4
        assert run("estimate", "--packaged", "--bogus-flag") == 4


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

    def test_diagnose_packaged_locks(self, tmp_path):
        assert run("diagnose", "--packaged", "--out-dir", str(tmp_path)) == 0
        doc = json.loads((tmp_path / "diagnostics.json").read_text())
        assert doc["gamma_quartiles"] == [1.0, 1.0, 1.0]
        assert doc["diagnostics"]["zero_detection_strata"] == ["Water and Waste"]
        assert doc["diagnostics"]["single_day_count"] == 25
        _, rows = read_csv_rows(tmp_path / "gamma.csv")
        assert len(rows) == doc["n_components"]
