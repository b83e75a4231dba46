"""Acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance and
printing a PASS line when it holds (run with ``pytest -s`` to see them).
Criterion 8's expected values live in tests/data/acceptance_locks.json,
frozen from the first verified computation by tools/make_locks.py.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from msinv.datasets import load_packaged_subset
from msinv.estimators import EstimatorConfig, total_inventory
from msinv.frame import validate
from msinv.measurement import McConfig, bias_corrected_inventory, run_mc
from msinv.oracle import enumerate_outcomes, exact_stage_variances, true_total
from msinv.planner import gamma_table
from msinv.pod import MeasurementModel, measurement_mean_factor, sample_true_rate
from msinv.reporting import KG_H_PER_KT_Y, write_report_json
from msinv.simlab import SimConfig, SimStratumSpec, default_config, generate_population, run_study

from conftest import random_frame

LOCKS_PATH = Path(__file__).parent / "data" / "acceptance_locks.json"


def ok(criterion: int, name: str):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


def cfg_b(**kw):
    return EstimatorConfig(stage2="year", horizon=3, **kw)


def test_criterion_1_exact_estimand_and_unbiasedness(micro_a, micro_b):
    t0 = time.perf_counter()
    (dist_a,) = enumerate_outcomes(micro_a, EstimatorConfig(stage2="year", horizon=2))
    dists = enumerate_outcomes(
        micro_b, [cfg_b(plan="original"), cfg_b(plan="modified")]
    )
    elapsed = time.perf_counter() - t0

    support = dist_a.support_totals()
    assert set(support) == {4.0, 6.0}
    assert support[4.0] == pytest.approx(0.5, abs=1e-12)
    assert support[6.0] == pytest.approx(0.5, abs=1e-12)
    assert abs(dist_a.mean_total() - 5.0) <= 1e-12
    assert abs(dist_a.mean_total() - true_total(micro_a)) <= 1e-12

    t = true_total(micro_b)
    for dist in dists:
        assert abs(dist.mean_total() - t) / t <= 1e-8
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"
    ok(1, "exact estimand and unbiasedness")


def test_criterion_2_variance_estimator_unbiasedness(micro_b):
    (dist,) = enumerate_outcomes(micro_b, cfg_b())
    var_t = dist.var_total()
    assert abs(dist.expected_v3stage() - var_t) / var_t <= 1e-8

    v1, v2, v3 = exact_stage_variances(micro_b, cfg_b())
    for stage, exact in (("stage1", v1), ("stage2", v2), ("stage3", v3)):
        est = dist.expected_part(stage)
        assert abs(est - exact) / exact <= 1e-8

    (printed,) = enumerate_outcomes(micro_b, cfg_b(decomposition="printed"))
    printed_err = abs(printed.expected_part("stage3") - v3) / v3
    assert printed_err > 1e-3, "the literal display must fail stage-wise unbiasedness"
    ok(2, "variance estimator unbiasedness; printed display fails")


def test_criterion_3_decomposition_identities():
    n_identity = 0
    for seed in range(100):
        rep = total_inventory(random_frame(seed), EstimatorConfig())
        stratum_design = sum(
            r.unclipped["var_stage1"] + r.unclipped["var_stage2"]
            + r.unclipped["var_stage3"]
            for r in rep.strata
        )
        assert math.isclose(stratum_design, rep.var_design, rel_tol=1e-12, abs_tol=1e-12)
        if all(u >= 0 for u in rep.unclipped.values()):
            n_identity += 1
            total_parts = rep.var_stage1 + rep.var_stage2 + rep.var_stage3
            assert math.isclose(total_parts, rep.var_design, rel_tol=1e-12, abs_tol=1e-12)
    assert n_identity >= 50
    ok(3, f"decomposition identity ({n_identity}/100 frames unclipped) and additivity")


def test_criterion_4_design_equivalence():
    for seed in range(100):
        frame = random_frame(seed)
        a = total_inventory(frame, EstimatorConfig(estimator="ipw", plan="original"))
        b = total_inventory(frame, EstimatorConfig(estimator="ipw", plan="modified"))
        assert math.isclose(a.total, b.total, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(a.var_design, b.var_design, rel_tol=1e-12, abs_tol=1e-12)
    ok(4, "original and modified designs give identical IPW totals and variances")


def test_criterion_5_measurement_model():
    t0 = time.perf_counter()
    assert abs(measurement_mean_factor() - 0.918) < 1e-3
    rng = np.random.default_rng(77)
    draws = sample_true_rate(10.0, rng.random(1_000_000))
    assert 9.13 < float(draws.mean()) < 9.23
    assert abs(float(np.median(draws)) - 8.179) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"measurement model checks took {elapsed:.2f}s"
    ok(5, "measurement model mean and median")


def test_criterion_6_mc_layer(tmp_path):
    frame = load_packaged_subset()
    cfg = EstimatorConfig()

    blobs = []
    for workers in (1, 4, 8):
        result = run_mc(frame, McConfig(estimator=cfg, iterations=24, seed=5,
                                        threads=workers))
        r = result.report
        assert r.var_total == pytest.approx(
            r.var_stage1 + r.var_stage2 + r.var_stage3 + r.var_measurement
        )
        path = tmp_path / f"mc_{workers}.json"
        write_report_json(r, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    degenerate = MeasurementModel(d=1.0, alpha=1.0, beta=math.inf)
    quiet = run_mc(frame, McConfig(estimator=cfg, iterations=24, seed=5,
                                   measurement=degenerate)).report
    assert quiet.var_measurement < 1e-10 * quiet.total**2
    ok(6, "MC additivity, thread-count determinism, degenerate model")


def _paired_coverage_gap(result, scope, est):
    year = result.covered[f"{est}_year"][scope].astype(float)
    obs = result.covered[f"{est}_observed"][scope].astype(float)
    diff = year - obs
    se = diff.std(ddof=1) / math.sqrt(len(diff))
    return float(diff.mean()), float(se)


def test_criterion_7_simulation_study():
    t0 = time.perf_counter()
    cfg = default_config(replications=1000, seed=2026)
    result = run_study(cfg, generate_population(cfg))
    heavy = max(cfg.strata, key=lambda s: s.lognormal_sigma).name

    for variant in ("ipw_year", "hajek_year"):
        cov = result.metric("Population", variant, "coverage")
        assert 0.92 <= cov <= 0.97, f"population coverage {cov} for {variant}"

    heavy_cov = result.metric(heavy, "ipw_year", "coverage")
    assert heavy_cov < 0.93, f"heavy-tail stratum coverage {heavy_cov}"

    # ignoring day sampling must lose coverage beyond Monte Carlo noise where
    # day-to-day variation matters most, and never gain it anywhere
    for est in ("ipw", "hajek"):
        gap, se = _paired_coverage_gap(result, heavy, est)
        assert gap > 3 * se, f"{est}: observed-mode coverage gap {gap} vs 3SE {3*se}"
        pop_gap, pop_se = _paired_coverage_gap(result, "Population", est)
        assert pop_gap > -3 * pop_se

    # the ratio estimator's bias exceeds the design-unbiased estimator's on a
    # low-emitting, detection-scarce stratum
    low_spec = SimStratumSpec(name="LowMS", n_sampled=51, n_population=91,
                              lognormal_mu=math.log(48.0), lognormal_sigma=0.15)
    low_cfg = SimConfig(strata=(low_spec,), replications=1000, seed=2026,
                        altitude_mean=650.0, altitude_sd=30.0, wind_sd=1.0)
    low = run_study(low_cfg, generate_population(low_cfg))
    b_ipw = low.metric("LowMS", "ipw_year", "bias_pct")
    b_hajek = low.metric("LowMS", "hajek_year", "bias_pct")
    assert abs(b_hajek) >= abs(b_ipw), f"hajek {b_hajek} vs ipw {b_ipw}"
    assert abs(b_hajek) < 4.2 + 1e-9  # stays inside the magnitude seen at scale
    paired = low.totals["hajek_year"]["LowMS"] - low.totals["ipw_year"]["LowMS"]
    gap_pct = 100.0 * paired.mean() / low.true_totals["LowMS"]
    se_pct = 100.0 * paired.std(ddof=1) / math.sqrt(len(paired)) / low.true_totals["LowMS"]
    assert gap_pct > 3 * se_pct

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"simulation study took {elapsed:.0f}s"
    ok(7, f"simulation study (coverage, stage II, ratio bias) in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_packaged_subset_locks():
    """The full provincial numbers are out of reach at desk scale (the
    complete dataset is confidential), so the packaged subset's eight variant
    outputs are locked instead and the published qualitative orderings are
    required to hold on it."""
    locks = json.loads(LOCKS_PATH.read_text())
    frame = load_packaged_subset()
    results = {}
    for est in ("ipw", "hajek"):
        for stage2 in ("observed", "year"):
            cfg = EstimatorConfig(estimator=est, stage2=stage2)
            results[f"{est}_{stage2}_bias-correct"] = bias_corrected_inventory(frame, cfg)
            results[f"{est}_{stage2}_mc"] = run_mc(
                frame, McConfig(estimator=cfg, iterations=locks["mc_iterations"],
                                seed=locks["mc_seed"])
            ).report

    for key, expected in locks["variants"].items():
        got = results[key]
        for field in ("total", "ci_lower", "ci_upper", "var_stage1", "var_stage2",
                      "var_stage3", "var_measurement", "var_total", "var_design"):
            assert getattr(got, field) == pytest.approx(expected[field], rel=1e-9), (
                f"{key}.{field}"
            )
        assert got.diagnostics["phi_floor_hits"] == expected["phi_floor_hits"] == 0

    # qualitative orderings from the full-data analysis hold on the subset
    for stage2 in ("observed", "year"):
        for mm in ("bias-correct", "mc"):
            hajek = results[f"hajek_{stage2}_{mm}"].total
            ipw = results[f"ipw_{stage2}_{mm}"].total
            assert hajek >= ipw, f"hajek {hajek} < ipw {ipw} ({stage2}/{mm})"
        for est in ("ipw", "hajek"):
            with_mc = results[f"{est}_{stage2}_mc"].var_total
            without = results[f"{est}_{stage2}_bias-correct"].var_total
            assert with_mc > without, f"{est}/{stage2}: MC variance not larger"

    # the point estimate must not depend on the day horizon
    for est in ("ipw", "hajek"):
        for mm in ("bias-correct", "mc"):
            assert results[f"{est}_observed_{mm}"].total == pytest.approx(
                results[f"{est}_year_{mm}"].total, rel=1e-12
            )

    diag = validate(frame)
    gamma = gamma_table(frame)
    d_locks = locks["diagnostics"]
    assert len(frame.components) == d_locks["n_components"]
    assert len(diag.single_day_components) == d_locks["n_single_day"]
    assert list(diag.zero_detection_strata) == d_locks["zero_detection_strata"]
    assert [round(q, 2) for q in gamma.quartiles] == d_locks["gamma_quartiles"]
    ok(8, "eight variant outputs regression-locked; published orderings hold")


def test_criterion_9_unit_conversion():
    assert KG_H_PER_KT_Y == 0.00876
    # end to end: a 1 kg/h population total renders as 0.00876 kt/y
    from msinv.estimators import StratumEstimate, SurveyEstimate
    from msinv.reporting import build_report

    est = SurveyEstimate(
        total=1.0, v3stage=0.0, v1=0.0, v2=0.0, v3=0.0, u1=0.0, u2=0.0, u3=0.0,
        strata={"A": StratumEstimate("A", 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)},
    )
    report = build_report(est, EstimatorConfig())
    assert report.total == 0.00876
    ok(9, "1 kg/h sustained is exactly 0.00876 kt/y")
