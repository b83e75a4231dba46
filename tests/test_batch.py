"""The batched Monte Carlo kernel against the scalar reference estimator."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msinv import measurement
from msinv.batch import POPULATION_KEYS, STRATUM_KEYS, compile_layout, evaluate
from msinv.estimators import EstimatorConfig, estimate_survey, prepare_components
from msinv.frame import ComponentRef, Pass, StratumDef, SurveyFrame
from msinv.measurement import McConfig, iteration_uniforms, run_mc
from msinv.pod import PHI_FLOOR, pod, sample_true_rate

DESIGNS = [("ipw", "original"), ("ipw", "modified"), ("hajek", "modified")]
CONFIGS = [
    EstimatorConfig(estimator=e, plan=p, stage2=s2, horizon=30, decomposition=dc)
    for e, p in DESIGNS for s2 in ("observed", "year") for dc in ("corrected", "printed")
]


@st.composite
def survey_frames(draw):
    """Frames with well sites of 0-3 wells, single-day components, Q_pt up to 5
    and, sometimes, a stratum without a single detection."""
    strata: dict[str, StratumDef] = {}
    comps: dict[str, ComponentRef] = {}
    passes: list[Pass] = []
    wells: dict[str, int] = {}

    def component(cid, fac, site, stratum, is_well, detect):
        comps[cid] = ComponentRef(cid, fac, site, stratum, is_well)
        n_days = draw(st.integers(1, 3))
        for day in draw(st.lists(st.integers(0, 9), min_size=n_days, max_size=n_days,
                                 unique=True)):
            for q in range(draw(st.integers(1, 5))):
                if detect and draw(st.booleans()):
                    passes.append(Pass(cid, day, q, True,
                                       draw(st.floats(15.0, 120.0)),
                                       draw(st.floats(1.0, 8.0)),
                                       draw(st.floats(450.0, 750.0))))
                else:
                    passes.append(Pass(cid, day, q, False))

    silent = draw(st.integers(-1, 2))  # this stratum (if any) has no detection
    for h in range(draw(st.integers(1, 3))):
        name = f"S{h}"
        n_fac = draw(st.integers(1, 4))
        for fi in range(n_fac):
            fac = f"{name}-F{fi}"
            site = f"{name}-SITE{fi // 2}"
            wells[site] = 0
            for ci in range(draw(st.integers(1, 2))):
                component(f"{fac}-C{ci}", fac, site, name, False, h != silent)
        strata[name] = StratumDef(name, n_fac, n_fac + draw(st.integers(0, 5)))
    n_sites = draw(st.integers(0, 3))
    if n_sites:
        facs = set()
        for si in range(n_sites):
            site = f"WSITE{si}"
            wells[site] = draw(st.integers(0, 3))
            for ci in range(draw(st.integers(1, 2))):
                fac = f"{site}-F{ci}"
                facs.add(fac)
                # a site without registered wells cannot carry detections
                component(f"{site}-W{ci}", fac, site, "Wells", True, wells[site] > 0)
        n = max(sum(wells[f"WSITE{si}"] for si in range(n_sites)), len(facs))
        strata["Wells"] = StratumDef("Wells", n, n + draw(st.integers(0, 5)))
    return SurveyFrame(strata=strata, components=comps, passes=tuple(passes),
                       wells_per_site=wells)


def assert_close(got, want, what):
    # rel 1e-12; a clipped or cancelling part near zero gets an absolute floor
    # scaled by the largest value it was computed from
    floor = 1e-12 * max(1.0, *(abs(v) for v in want.values()))
    for key, w in want.items():
        assert abs(got[key] - w) <= max(1e-12 * abs(w), floor), (what, key, got[key], w)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frame=survey_frames(), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_scalar_reference(frame, seed):
    iterations = range(3)
    for cfg in CONFIGS:
        layout = compile_layout(frame, cfg)
        u = iteration_uniforms(seed, iterations, layout.n_passes)
        y = sample_true_rate(layout.measured, u)
        phi = np.maximum(pod(y, layout.altitudes, layout.winds), PHI_FLOOR)
        batch = evaluate(layout, y, phi)
        for b in iterations:
            est = estimate_survey(prepare_components(frame, y[b], phi[b], cfg),
                                  frame.strata, cfg)
            what = (cfg.estimator, cfg.plan, cfg.stage2, cfg.decomposition, b)
            assert_close({k: batch.population[k][b] for k in POPULATION_KEYS},
                         {k: getattr(est, k) for k in POPULATION_KEYS}, what)
            for s, name in enumerate(frame.strata):
                assert_close({k: batch.strata[k][b, s] for k in STRATUM_KEYS},
                             {k: getattr(est.strata[name], k) for k in STRATUM_KEYS},
                             what + (name,))


def test_structural_diagnostics_match_scalar(subset_frame):
    for cfg in CONFIGS:
        layout = compile_layout(subset_frame, cfg)
        n = layout.n_passes
        y = sample_true_rate(layout.measured, iteration_uniforms(1, range(1), n))[0]
        phi = np.maximum(pod(y, layout.altitudes, layout.winds), PHI_FLOOR)
        est = estimate_survey(prepare_components(subset_frame, y, phi, cfg),
                              subset_frame.strata, cfg)
        assert layout.diagnostics["n_pooled_components"] == est.n_pooled
        assert layout.diagnostics["n_pooled_without_peers"] == est.n_pooled_no_peers


@pytest.mark.parametrize("estimator,plan", DESIGNS)
def test_iterations_independent_of_chunking(subset_frame, monkeypatch, estimator, plan):
    mc = McConfig(estimator=EstimatorConfig(estimator=estimator, plan=plan),
                  iterations=24, seed=4, trace=True)
    whole = run_mc(subset_frame, mc)
    monkeypatch.setattr(measurement, "MC_CHUNK", 3)
    # eight workers on eight chunks, switching often: each chunk must write
    # only its own slice of the shared result arrays
    monkeypatch.setattr(measurement.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 8):
            chunked = run_mc(subset_frame, dataclasses.replace(mc, threads=threads))
            assert np.array_equal(chunked.iteration_totals, whole.iteration_totals)
            for key, series in whole.iteration_parts.items():
                assert np.array_equal(chunked.iteration_parts[key], series)
            for name, series in whole.stratum_design_var.items():
                assert np.array_equal(chunked.stratum_design_var[name], series)
            assert chunked.report == whole.report
    finally:
        sys.setswitchinterval(interval)
