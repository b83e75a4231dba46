"""Measurement-error layer tests: bias correction, the MC wrapper, determinism."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from msinv import batch, measurement
from msinv.estimators import EstimationError, EstimatorConfig, total_inventory
from msinv.datasets import load_packaged_subset
from msinv.frame import ComponentRef, StratumDef, SurveyFrame
from msinv.measurement import (
    McConfig,
    bias_corrected_inventory,
    convergence_trace,
    iteration_uniforms,
    resolve_threads,
    run_mc,
    run_mc_variants,
    write_trace_csv,
)
from msinv.pod import MeasurementModel, PodParams, bias_correct, sample_true_rate
from msinv.reporting import write_report_json

from conftest import random_frame, run_on_cpus
from frame_reference import Pass, frame_from_passes


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
    return frame_from_passes(strata=strata, components=comps, passes=passes)


DEGENERATE = MeasurementModel(d=1.0, alpha=1.0, beta=math.inf)


class TestBiasCorrectMode:
    def test_equals_manual_rate_scaling(self, small_frame):
        cfg = EstimatorConfig()
        report = bias_corrected_inventory(small_frame, cfg)
        rates = bias_correct(small_frame.measured_rates)
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


# the estimator configurations of the eight locked variants, the starred
# kind (IPW on the modified plan), the printed split and a 200-day horizon
PASS_CONFIGS = [EstimatorConfig(estimator=e, plan=p, stage2=s2, horizon=h, decomposition=dc)
                for e, p in (("ipw", "original"), ("ipw", "modified"), ("hajek", "modified"))
                for s2, h in (("observed", 365), ("year", 365), ("year", 200))
                for dc in ("corrected", "printed")]


def failure(call, *args):
    """The type and message of what ``call`` raises, or None."""
    try:
        call(*args)
    except (EstimationError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def first_failure_in_turn(call, frame, configs, *args):
    """What estimating ``configs`` one call each, in order, raises first."""
    return next(filter(None, (failure(call, frame, cfg, *args) for cfg in configs)), None)


class TestBiasCorrectionPass:
    """`bias_corrected_inventory` of several configurations: one design pass."""

    @pytest.mark.parametrize("source", ["subset", 0, 1, 2, 3])
    def test_a_pass_equals_a_call_per_configuration(self, source):
        def fresh():
            return load_packaged_subset() if source == "subset" else random_frame(source)

        # each configuration alone, on a frame of its own: no layout is shared
        alone = [bias_corrected_inventory(fresh(), cfg) for cfg in PASS_CONFIGS]
        together = bias_corrected_inventory(fresh(), PASS_CONFIGS)
        assert together == alone

    def test_no_configuration_gives_no_report(self, small_frame):
        assert bias_corrected_inventory(small_frame, []) == []

    def test_a_single_configuration_still_gives_one_report(self, small_frame):
        (listed,) = bias_corrected_inventory(small_frame, [EstimatorConfig()])
        assert bias_corrected_inventory(small_frame, EstimatorConfig()) == listed

    def test_rates_and_pods_are_computed_once(self, subset_frame, monkeypatch):
        from msinv import estimators

        calls = []
        pod, bias = estimators.pod, measurement.bias_correct
        monkeypatch.setattr(estimators, "pod", lambda *a: calls.append("pod") or pod(*a))
        monkeypatch.setattr(measurement, "bias_correct",
                            lambda *a: calls.append("bias") or bias(*a))
        evaluated = []
        evaluate = batch.evaluate
        monkeypatch.setattr(batch, "evaluate",
                            lambda layouts, *a: evaluated.append(len(layouts))
                            or evaluate(layouts, *a))
        assert len(bias_corrected_inventory(subset_frame, PASS_CONFIGS)) == len(PASS_CONFIGS)
        assert calls == ["bias", "pod"]
        assert evaluated == [len(PASS_CONFIGS)]

    def test_configurations_share_their_pod_parameters(self, small_frame):
        other = EstimatorConfig(pod_params=PodParams(kappa=2.0))
        with pytest.raises(ValueError, match="share their POD parameters"):
            bias_corrected_inventory(small_frame, [EstimatorConfig(), other])

    @pytest.mark.parametrize("horizons", [(365, 1), (1, 365), (2, 1)])
    def test_the_first_horizon_refused_is_raised(self, subset_frame, horizons):
        configs = [EstimatorConfig(stage2="observed"),
                   *(EstimatorConfig(estimator="hajek", stage2="year", horizon=h)
                     for h in horizons)]
        want = first_failure_in_turn(bias_corrected_inventory, subset_frame, configs)
        assert want is not None and "exceeds the horizon" in want[1]
        assert failure(bias_corrected_inventory, subset_frame, configs) == want

    def test_a_non_finite_estimate_before_a_refused_horizon_is_raised_first(self):
        # the 1e308 day's square overflows in the year variance; a horizon of
        # one day refuses the component's two surveyed days
        frame = frame_from_passes(
            strata={"A": StratumDef("A", 1, 2)},
            components={"c1": ComponentRef("c1", "f1", "s1", "A")},
            passes=(Pass("c1", 1, 1, True, 1e308, 3.0, 500.0),
                    Pass("c1", 2, 1, True, 50.0, 3.0, 500.0)))
        year, refused = EstimatorConfig(), EstimatorConfig(horizon=1)
        for configs in ([year, refused], [refused, year], [year, year, refused]):
            want = first_failure_in_turn(total_inventory, frame, configs)
            assert want is not None
            assert failure(total_inventory, frame, configs) == want
        assert "non-finite" in failure(total_inventory, frame, [year, refused])[1]

    @pytest.mark.parametrize("rate", [-1.0, math.nan])
    def test_refused_passes_raise_as_the_first_configuration_does(self, small_frame, rate):
        rates = small_frame.measured_rates.copy()
        rates[2] = rate
        ipw, hajek = EstimatorConfig(), EstimatorConfig(estimator="hajek")
        for configs in ([ipw, hajek], [hajek, ipw]):
            want = first_failure_in_turn(total_inventory, small_frame, configs, rates)
            assert want is not None
            assert failure(total_inventory, small_frame, configs, rates) == want

    def test_refused_pods_raise_as_the_first_configuration_does(self, small_frame):
        from msinv.estimators import estimate_survey

        rates = small_frame.measured_rates
        phis = np.full(len(rates), 0.5)
        phis[1] = 0.0
        ipw, hajek = EstimatorConfig(), EstimatorConfig(estimator="hajek")
        messages = set()
        for configs in ([ipw, hajek], [hajek, ipw]):
            want = first_failure_in_turn(estimate_survey, small_frame, configs, rates, phis)
            assert failure(estimate_survey, small_frame, configs, rates, phis) == want
            messages.add(want)
        assert len(messages) == 2  # IPW and Hajek refuse a POD of 0 differently


class TestMcLayer:
    def test_degenerate_model_recovers_bias_correct(self, small_frame):
        cfg = EstimatorConfig()
        mc = run_mc(small_frame, McConfig(estimator=cfg, iterations=50, seed=3,
                                          measurement=DEGENERATE))
        base = bias_corrected_inventory(small_frame, cfg, DEGENERATE)
        assert mc.report.total == pytest.approx(base.total, rel=1e-12)
        assert mc.report.var_measurement < 1e-10 * mc.report.total**2

    def test_infinite_beta_draws_alpha_times_the_bias_corrected_rates(self, subset_frame):
        # a point mass at d * alpha * measured, not at the bias-corrected d * measured
        model = MeasurementModel(beta=math.inf)
        cfg = EstimatorConfig()
        mc = run_mc(subset_frame, McConfig(estimator=cfg, iterations=50, seed=1,
                                           measurement=model)).report
        want = total_inventory(subset_frame, cfg,
                               rates=model.d * model.alpha * subset_frame.measured_rates)
        for key in ("total", "var_stage1", "var_stage2", "var_stage3"):
            assert getattr(mc, key) == pytest.approx(getattr(want, key), rel=1e-12), key
        assert mc.unclipped.keys() == want.unclipped.keys()
        for key, value in want.unclipped.items():
            assert mc.unclipped[key] == pytest.approx(value, rel=1e-12), key
        assert mc.var_measurement <= 1e-20 * mc.total**2

    def test_two_iteration_independent_recomputation(self, small_frame):
        cfg = EstimatorConfig()
        mc = run_mc(small_frame, McConfig(estimator=cfg, iterations=2, seed=9))
        measured = small_frame.measured_rates
        totals = []
        parts = []
        for u in iteration_uniforms(9, range(2), len(measured)):
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
        measured = small_frame.measured_rates
        u = iteration_uniforms(1, range(4000), len(measured))
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
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        assert resolve_threads(100000) == cpus
        assert resolve_threads(None) == 1
        monkeypatch.setenv("MSINV_THREADS", "100000")
        assert resolve_threads(None) == cpus

    def test_capped_at_the_cpus_the_process_may_run_on(self, monkeypatch):
        # a cpuset or taskset of one CPU on a machine of two
        monkeypatch.delenv("MSINV_THREADS", raising=False)
        monkeypatch.setattr(measurement.os, "cpu_count", lambda: 2)
        run_on_cpus(monkeypatch, 1)
        assert resolve_threads(2) == 1
        run_on_cpus(monkeypatch, 3)
        assert resolve_threads(2) == 2 and resolve_threads(5) == 3

    def test_capped_at_cpu_count_without_an_affinity_set(self, monkeypatch):
        monkeypatch.delattr(measurement.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(measurement.os, "cpu_count", lambda: 3)
        assert resolve_threads(2) == 2 and resolve_threads(5) == 3
        monkeypatch.setattr(measurement.os, "cpu_count", lambda: None)  # undeterminable
        assert resolve_threads(5) == 1

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_a_process_pinned_to_one_cpu_runs_one_thread(self):
        env = dict(os.environ, PYTHONPATH=str(Path(measurement.__file__).parents[1]),
                   MSINV_THREADS="2")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
             "from msinv.measurement import resolve_threads; "
             "print(resolve_threads(2), resolve_threads(None))"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.split() == ["1", "1"]

    @pytest.mark.parametrize("requested", [0, -5])
    def test_below_one_refused(self, monkeypatch, requested):
        monkeypatch.delenv("MSINV_THREADS", raising=False)
        with pytest.raises(ValueError, match=f"^threads must be at least 1, got {requested}$"):
            resolve_threads(requested)
        monkeypatch.setenv("MSINV_THREADS", str(requested))
        with pytest.raises(ValueError,
                           match=f"^MSINV_THREADS must be at least 1, got {requested}$"):
            resolve_threads(None)

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
        run_on_cpus(monkeypatch, 64)
        run_mc(small_frame, McConfig(iterations=3, threads=64))
        assert sizes == []  # one chunk runs on the calling thread
        monkeypatch.setattr(measurement, "MC_CHUNK", 2)
        run_mc(small_frame, McConfig(iterations=5, threads=64))
        assert sizes == [3]


# the four configurations of `msinv estimate --all-variants`
ALL_VARIANTS = [EstimatorConfig(estimator=e, stage2=s2)
                for e in ("ipw", "hajek") for s2 in ("observed", "year")]


def assert_same_result(got, want):
    assert got.config == want.config
    assert got.report == want.report
    assert np.array_equal(got.iteration_totals, want.iteration_totals)
    for values in ("iteration_parts", "stratum_design_var"):
        got_series, want_series = getattr(got, values), getattr(want, values)
        assert got_series.keys() == want_series.keys()
        for key, series in want_series.items():
            assert np.array_equal(got_series[key], series), (values, key)


class TestSharedPasses:
    """`run_mc_variants` draws each chunk once for all variants of a pass."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_shared_pass_equals_separate_runs(self, subset_frame, monkeypatch, threads):
        run_on_cpus(monkeypatch, 2)
        # 600 iterations: three chunks
        base = McConfig(iterations=600, seed=3, trace=True, threads=threads)
        alone = [run_mc(subset_frame, dataclasses.replace(base, estimator=cfg))
                 for cfg in ALL_VARIANTS]
        for limit in (measurement.MAX_MC_ITERATIONS, 1000):
            # at 1000, each variant has a pass of its own
            monkeypatch.setattr(measurement, "MAX_MC_ITERATIONS", limit)
            shared = list(run_mc_variants(subset_frame, base, ALL_VARIANTS))
            assert len(shared) == len(alone)
            for got, want in zip(shared, alone):
                assert_same_result(got, want)

    def test_threads_write_only_their_own_slices(self, subset_frame, monkeypatch):
        base = McConfig(iterations=24, seed=4, trace=True)
        alone = [run_mc(subset_frame, dataclasses.replace(base, estimator=cfg))
                 for cfg in ALL_VARIANTS]
        # eight workers on eight chunks, switching often
        monkeypatch.setattr(measurement, "MC_CHUNK", 3)
        run_on_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            shared = list(run_mc_variants(subset_frame, dataclasses.replace(base, threads=8),
                                          ALL_VARIANTS))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(shared, alone):
            assert got.config.threads == 8  # the configs differ only there
            assert_same_result(got, dataclasses.replace(want, config=got.config))

    @pytest.mark.parametrize("limit, passes", [(None, [4]), (1200, [2, 2]), (1000, [1] * 4),
                                               (600, [1] * 4)])
    def test_draws_and_daily_stages_per_chunk(self, subset_frame, monkeypatch, limit, passes):
        if limit is not None:
            monkeypatch.setattr(measurement, "MAX_MC_ITERATIONS", limit)
        calls = {"uniforms": 0, "daily": [], "pass": []}
        uniforms, daily, run_pass = (measurement.iteration_uniforms, batch._daily,
                                     measurement._run_pass)

        def counted_uniforms(*args):
            calls["uniforms"] += 1
            return uniforms(*args)

        def counted_daily(ix, kind, *arrays):
            calls["daily"].append(kind)
            return daily(ix, kind, *arrays)

        def counted_pass(frame, variants):
            calls["pass"].append([config.estimator for config, _ in variants])
            return run_pass(frame, variants)

        monkeypatch.setattr(measurement, "iteration_uniforms", counted_uniforms)
        monkeypatch.setattr(batch, "_daily", counted_daily)
        monkeypatch.setattr(measurement, "_run_pass", counted_pass)
        iterations, chunks = 600, 3
        list(run_mc_variants(subset_frame, McConfig(iterations=iterations, seed=1),
                             ALL_VARIANTS))
        # the pass rule: variants per pass x iterations <= MAX_MC_ITERATIONS
        assert [len(p) for p in calls["pass"]] == passes
        assert all(len(p) * iterations <= measurement.MAX_MC_ITERATIONS for p in calls["pass"])
        assert [cfg for p in calls["pass"] for cfg in p] == ALL_VARIANTS
        assert calls["uniforms"] == chunks * len(passes)
        # observed and year share a kind: one daily stage per chunk per kind
        kinds_per_pass = [len({"hajek" if cfg.estimator == "hajek" else "ipw" for cfg in p})
                          for p in calls["pass"]]
        assert len(calls["daily"]) == chunks * sum(kinds_per_pass)

    def test_a_pass_runs_when_asked_and_holds_no_result_it_handed_out(self, subset_frame,
                                                                     monkeypatch):
        monkeypatch.setattr(measurement, "MAX_MC_ITERATIONS", 1000)
        runs = []
        run_pass = measurement._run_pass

        def counted_pass(frame, variants):
            runs.append(len(variants))
            return run_pass(frame, variants)

        monkeypatch.setattr(measurement, "_run_pass", counted_pass)
        results = run_mc_variants(subset_frame, McConfig(iterations=600, seed=1, trace=True),
                                  ALL_VARIANTS[:2])
        assert runs == []
        first = next(results)
        assert runs == [1]
        gone = weakref.ref(first.iteration_totals)
        del first
        gc.collect()
        assert gone() is None
        next(results)
        assert runs == [1, 1]
        with pytest.raises(StopIteration):
            next(results)

    def test_every_horizon_is_checked_before_any_draw(self, small_frame, monkeypatch):
        def unreachable(*args):
            raise AssertionError("uniforms drawn before the horizon check")

        monkeypatch.setattr(measurement, "iteration_uniforms", unreachable)
        late = EstimatorConfig(stage2="year", horizon=1)
        with pytest.raises(EstimationError, match="exceeds the horizon"):
            run_mc_variants(small_frame, McConfig(iterations=4), [EstimatorConfig(), late])

    def test_variants_share_their_pod_parameters(self, small_frame):
        other = EstimatorConfig(pod_params=PodParams(kappa=2.0))
        with pytest.raises(ValueError, match="share their POD parameters"):
            run_mc_variants(small_frame, McConfig(iterations=4), [EstimatorConfig(), other])


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
