"""Measurement-error layer tests: bias correction, the MC wrapper, determinism."""

import math
import os

import numpy as np
import pytest

from msinv import measurement
from msinv.estimators import EstimationError, EstimatorConfig, detected_passes, total_inventory
from msinv.frame import ComponentRef, Pass, StratumDef, SurveyFrame
from msinv.measurement import (
    McConfig,
    bias_corrected_inventory,
    convergence_trace,
    estimate_inventory,
    iteration_uniforms,
    resolve_threads,
    run_mc,
    write_trace_csv,
)
from msinv.pod import MeasurementModel, bias_correct, sample_true_rate
from msinv.reporting import write_report_json


@pytest.fixture()
def small_frame() -> SurveyFrame:
    strata = {"A": StratumDef("A", 2, 3), "B": StratumDef("B", 1, 2)}
    comps = {
        "a1": ComponentRef("a1", "fa1", "s1", "A"),
        "a2": ComponentRef("a2", "fa2", "s2", "A"),
        "b1": ComponentRef("b1", "fb1", "s3", "B"),
    }
    passes = (
        Pass("a1", 1, 1, True, 60.0, 3.0, 150.0),
        Pass("a1", 1, 2, False),
        Pass("a1", 5, 1, True, 45.0, 4.0, 160.0),
        Pass("a2", 1, 1, True, 80.0, 2.5, 140.0),
        Pass("a2", 2, 1, True, 75.0, 5.0, 155.0),
        Pass("a2", 2, 2, True, 90.0, 5.0, 150.0),
        Pass("b1", 3, 1, True, 30.0, 3.5, 145.0),
        Pass("b1", 4, 1, False),
    )
    return SurveyFrame(strata=strata, components=comps, passes=passes)


DEGENERATE = MeasurementModel(d=1.0, alpha=1.0, beta=math.inf)


class TestBiasCorrectMode:
    def test_equals_manual_rate_scaling(self, small_frame):
        cfg = EstimatorConfig()
        report = bias_corrected_inventory(small_frame, cfg)
        det = detected_passes(small_frame)
        rates = bias_correct(np.array([p.measured_rate for p in det]))
        manual = total_inventory(small_frame, cfg, rates=rates)
        assert report.total == pytest.approx(manual.total, rel=1e-15)
        assert report.var_design == pytest.approx(manual.var_design, rel=1e-15)
        assert report.var_measurement == 0.0
        assert report.config["measurement_mode"] == "bias-correct"

    def test_variance_identity_by_construction(self, small_frame):
        report = bias_corrected_inventory(small_frame, EstimatorConfig())
        assert report.var_total == pytest.approx(
            report.var_stage1 + report.var_stage2 + report.var_stage3
            + report.var_measurement
        )


class TestMcLayer:
    def test_degenerate_model_recovers_bias_correct(self, small_frame):
        cfg = EstimatorConfig()
        mc = run_mc(small_frame, McConfig(estimator=cfg, iterations=50, seed=3,
                                          measurement=DEGENERATE))
        base = bias_corrected_inventory(small_frame, cfg, DEGENERATE)
        assert mc.report.total == pytest.approx(base.total, rel=1e-12)
        assert mc.report.var_measurement < 1e-10 * mc.report.total**2

    def test_two_iteration_independent_recomputation(self, small_frame):
        cfg = EstimatorConfig()
        mc = run_mc(small_frame, McConfig(estimator=cfg, iterations=2, seed=9))
        det = detected_passes(small_frame)
        measured = np.array([p.measured_rate for p in det])
        totals = []
        parts = []
        for u in iteration_uniforms(9, range(2), len(det)):
            rep = total_inventory(small_frame, cfg, rates=sample_true_rate(measured, u))
            totals.append(rep.total)
            parts.append((rep.var_stage1, rep.var_stage2, rep.var_stage3))
        tau = sum(totals) / 2
        vm = sum((t - tau) ** 2 for t in totals)  # divisor B - 1 == 1
        assert mc.report.total == pytest.approx(tau, rel=1e-12)
        assert mc.report.var_measurement == pytest.approx(vm, rel=1e-12)
        for i, key in enumerate(("var_stage1", "var_stage2", "var_stage3")):
            expected = (parts[0][i] + parts[1][i]) / 2
            assert getattr(mc.report, key) == pytest.approx(expected, rel=1e-12)

    def test_additivity_by_construction(self, small_frame):
        mc = run_mc(small_frame, McConfig(iterations=20, seed=5))
        r = mc.report
        assert r.var_total == pytest.approx(
            r.var_stage1 + r.var_stage2 + r.var_stage3 + r.var_measurement
        )
        for row in r.strata:
            assert row.var_total == pytest.approx(
                row.var_stage1 + row.var_stage2 + row.var_stage3 + row.var_measurement
            )

    def test_uniform_stream_per_iteration(self):
        for seed in (0, 9, -3, 2**70):
            rows = iteration_uniforms(seed, range(3, 6), 5)
            for row, b in zip(rows, range(3, 6)):
                key = (seed % 2**64) * 2**64 + b
                want = np.random.Generator(np.random.Philox(key=key)).random(5)
                assert np.array_equal(row, np.nextafter(want, 1.0))

    def test_minimum_iterations(self):
        with pytest.raises(ValueError):
            McConfig(iterations=1)

    def test_drawn_rates_converge_to_bias_factor(self, small_frame):
        det = detected_passes(small_frame)
        measured = np.array([p.measured_rate for p in det])
        u = iteration_uniforms(1, range(4000), len(det))
        ratios = (sample_true_rate(measured, u) / measured).ravel()
        se = ratios.std(ddof=1) / math.sqrt(len(ratios))
        assert abs(ratios.mean() - 0.918) < 3 * se


def report_bytes(report, tmp_path, name):
    path = tmp_path / name
    write_report_json(report, path)
    return path.read_bytes()


class TestDeterminism:
    def test_same_seed_same_bytes(self, small_frame, tmp_path):
        a = run_mc(small_frame, McConfig(iterations=40, seed=7)).report
        b = run_mc(small_frame, McConfig(iterations=40, seed=7)).report
        assert report_bytes(a, tmp_path, "a.json") == report_bytes(b, tmp_path, "b.json")

    def test_thread_count_invariance(self, small_frame, tmp_path):
        blobs = []
        for workers in (1, 4, 8):
            rep = run_mc(small_frame, McConfig(iterations=48, seed=7,
                                               threads=workers)).report
            blobs.append(report_bytes(rep, tmp_path, f"t{workers}.json"))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_different_seeds_differ(self, small_frame):
        a = run_mc(small_frame, McConfig(iterations=40, seed=7)).report
        b = run_mc(small_frame, McConfig(iterations=40, seed=8)).report
        assert a.total != b.total


class TestWorkerCount:
    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.delenv("MSINV_THREADS", raising=False)
        cpus = os.cpu_count() or 1
        assert resolve_threads(100000) == cpus
        assert resolve_threads(0) == 1
        assert resolve_threads(None) == 1
        monkeypatch.setenv("MSINV_THREADS", "100000")
        assert resolve_threads(None) == cpus

    def test_run_mc_capped_at_chunks(self, small_frame, monkeypatch):
        # a stand-in pool records the requested size and runs inline
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(measurement, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(measurement.os, "cpu_count", lambda: 64)
        run_mc(small_frame, McConfig(iterations=3, threads=64))
        assert sizes == []  # one chunk runs on the calling thread
        monkeypatch.setattr(measurement, "MC_CHUNK", 2)
        run_mc(small_frame, McConfig(iterations=5, threads=64))
        assert sizes == [3]


class TestLayoutChecks:
    @pytest.mark.parametrize("estimator,plan",
                             [("ipw", "original"), ("ipw", "modified"), ("hajek", "modified")])
    def test_horizon_checked_before_any_draw(self, small_frame, monkeypatch, estimator, plan):
        def unreachable(*args):
            raise AssertionError("uniforms drawn before the horizon check")

        monkeypatch.setattr(measurement, "iteration_uniforms", unreachable)
        cfg = EstimatorConfig(estimator=estimator, plan=plan, stage2="year", horizon=1)
        with pytest.raises(EstimationError, match="exceeds the horizon"):
            run_mc(small_frame, McConfig(estimator=cfg, iterations=4))

    @pytest.mark.parametrize("estimator", ["ipw", "hajek"])
    def test_mc_diagnostics_carry_bias_correct_keys(self, subset_frame, estimator):
        cfg = EstimatorConfig(estimator=estimator)
        bias = bias_corrected_inventory(subset_frame, cfg).diagnostics
        mc = run_mc(subset_frame, McConfig(estimator=cfg, iterations=4, seed=1)).report
        assert set(mc.diagnostics) == set(bias)
        for key in ("n_pooled_components", "n_pooled_without_peers", "n_zero_emitting_strata"):
            assert mc.diagnostics[key] == bias[key]
        assert bias["n_zero_emitting_strata"] == 1  # the subset's silent stratum


class TestTrace:
    def test_series_length_and_flatness(self, small_frame):
        mc = run_mc(small_frame, McConfig(iterations=30, seed=2,
                                          measurement=DEGENERATE, trace=True))
        trace = convergence_trace(mc)
        assert set(trace) == set(small_frame.strata) | {"Population"}
        for series in trace.values():
            assert len(series) == 30
        # point-mass measurement model: every iteration equal, series flat
        pop = trace["Population"]
        assert np.allclose(pop, pop[0])

    def test_two_seeds_agree_within_mc_error(self, small_frame):
        finals = []
        sds = []
        for seed in (11, 12):
            mc = run_mc(small_frame, McConfig(iterations=400, seed=seed, trace=True))
            series = mc.stratum_design_var["Population"]
            finals.append(series.mean())
            sds.append(series.std(ddof=1) / math.sqrt(len(series)))
        se = math.hypot(*sds)
        assert abs(finals[0] - finals[1]) < 3 * se

    def test_trace_requires_flag(self, small_frame):
        mc = run_mc(small_frame, McConfig(iterations=10, seed=1))
        with pytest.raises(ValueError):
            convergence_trace(mc)

    def test_trace_csv(self, small_frame, tmp_path):
        mc = run_mc(small_frame, McConfig(iterations=10, seed=1, trace=True))
        path = tmp_path / "trace.csv"
        write_trace_csv(mc, path, manifest={"run": 1})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "stratum,b,cum_var_design"
        assert len(lines) == 2 + 10 * (len(small_frame.strata) + 1)


class TestEstimateInventory:
    def test_dispatch(self, small_frame):
        cfg = EstimatorConfig()
        bias = estimate_inventory(small_frame, cfg, "bias-correct")
        assert bias.config["measurement_mode"] == "bias-correct"
        mc = estimate_inventory(small_frame, cfg, "mc", McConfig(iterations=10, seed=1))
        assert mc.config["measurement_mode"] == "mc"
        with pytest.raises(ValueError):
            estimate_inventory(small_frame, cfg, "bogus")
