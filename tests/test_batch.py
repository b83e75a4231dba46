"""The batched Monte Carlo kernel against the scalar reference estimator."""

import dataclasses
import functools
import math
import operator
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from msinv import batch, measurement, oracle, simlab
from msinv.batch import (
    POPULATION_KEYS, STRATUM_KEYS, NonFiniteEstimate, build_layout, compile_index, evaluate,
)
from msinv.datasets import load_packaged_subset
from msinv.estimators import EstimationError, EstimatorConfig
from msinv.frame import ComponentRef, StratumDef, UnitIndex
from msinv.measurement import McConfig, iteration_uniforms, run_mc
from msinv.pod import PHI_FLOOR, pod, sample_true_rate
from msinv.simlab import SimConfig, SimStratumSpec
from estimator_reference import estimate_survey, prepare_components
from frame_reference import Pass, frame_from_passes
from conftest import random_frame, run_on_cpus
from index_helpers import same_bits, side_by_side, unit_per_member

DESIGNS = [("ipw", "original"), ("ipw", "modified"), ("hajek", "modified")]
CONFIGS = [
    EstimatorConfig(estimator=e, plan=p, stage2=s2, horizon=30, decomposition=dc)
    for e, p in DESIGNS for s2 in ("observed", "year") for dc in ("corrected", "printed")
]


@st.composite
def survey_frames(draw, pooling=None):
    """Frames with well sites of 0-3 wells, single-day components, Q_pt up to 5
    and, sometimes, a stratum without a single detection.

    ``pooling`` shapes the frame for the pooling of single-day variances.
    "none" surveys every component on 2-3 days, each day with a detection
    where the component detects, so that no unit pools under any
    configuration; "all" surveys every component on day 0 alone, so that
    every emitting unit pools, and has no peers; "some" surveys stratum S0
    as "all" does, always with detections, and the rest as "none" does, so
    that S0's pooled units have no peers while other strata have peers.
    """
    strata: dict[str, StratumDef] = {}
    comps: dict[str, ComponentRef] = {}
    passes: list[Pass] = []
    wells: dict[str, int] = {}

    def component(cid, fac, site, stratum, is_well, detect):
        comps[cid] = ComponentRef(cid, fac, site, stratum, is_well)
        if pooling == "all" or (pooling == "some" and stratum == "S0"):
            days = [0]
        else:
            n_days = draw(st.integers(2, 3) if pooling else st.integers(1, 3))
            days = draw(st.lists(st.integers(0, 9), min_size=n_days, max_size=n_days,
                                 unique=True))
        for day in days:
            for q in range(draw(st.integers(1, 5))):
                if detect and ((pooling and q == 0) or draw(st.booleans())):
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
                component(f"{fac}-C{ci}", fac, site, name, False,
                          h != silent or (pooling == "some" and h == 0))
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
    return frame_from_passes(strata=strata, components=comps, passes=tuple(passes),
                       wells_per_site=wells)


def assert_close(got, want, what):
    # rel 1e-12; a clipped or cancelling part near zero gets an absolute floor
    # scaled by the largest value it was computed from
    floor = 1e-12 * max(1.0, *(abs(v) for v in want.values()))
    for key, w in want.items():
        assert abs(got[key] - w) <= max(1e-12 * abs(w), floor), (what, key, got[key], w)


# one pass (Q_pt = 1), drawn to phi 1.2e-7 in iteration 2: its starred variance
# is 0 up to rounding, which 1/phi^2 amplifies to about 1e8, so both paths
# must square the daily mean alike
ONE_PASS_SMALL_PHI = frame_from_passes(
    strata={"S": StratumDef("S", 1, 1)},
    components={"C": ComponentRef("C", "F", "SITE", "S", False)},
    passes=(Pass("C", 0, 0, True, 36.50741860782577, 5.565128376831455, 726.2181496419881),),
    wells_per_site={"SITE": 0},
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frame=survey_frames(), seed=st.integers(0, 2**32 - 1))
@example(frame=ONE_PASS_SMALL_PHI, seed=357)
def test_kernel_matches_scalar_reference(frame, seed):
    iterations = range(3)
    for cfg in CONFIGS:
        layout = frame.layout(cfg)
        u = iteration_uniforms(seed, iterations, layout.n_passes)
        y = sample_true_rate(frame.measured_rates, u)
        phi = np.maximum(pod(y, frame.altitudes, frame.wind_speeds), PHI_FLOOR)
        (batch,) = evaluate([layout], y, phi)
        for b in iterations:
            est = estimate_survey(prepare_components(frame, y[b], phi[b], cfg),
                                  frame.strata, cfg)
            what = (cfg.estimator, cfg.plan, cfg.stage2, cfg.decomposition, b)
            assert_close({k: batch.population[k][b, 0] for k in POPULATION_KEYS},
                         {k: getattr(est, k) for k in POPULATION_KEYS}, what)
            for s, name in enumerate(frame.strata):
                assert_close({k: batch.strata[k][b, s] for k in STRATUM_KEYS},
                             {k: getattr(est.strata[name], k) for k in STRATUM_KEYS},
                             what + (name,))


def test_a_day_of_one_pass_has_no_starred_stage3():
    # given its detection, a day of one pass is not random: IPW on the
    # modified plan gives it starred variance 0.0 on both paths, not the
    # rounding noise that 1/phi^2 made about 1e8 of at phi 1.2e-7
    frame = ONE_PASS_SMALL_PHI
    for cfg in CONFIGS:
        if (cfg.estimator, cfg.plan) != ("ipw", "modified"):
            continue
        layout = frame.layout(cfg)
        y = sample_true_rate(frame.measured_rates, iteration_uniforms(357, range(3),
                                                                      layout.n_passes))
        phi = np.maximum(pod(y, frame.altitudes, frame.wind_speeds), PHI_FLOOR)
        assert phi[2, 0] < 1e-6
        (est,) = evaluate([layout], y, phi)
        for b in range(3):
            scalar = estimate_survey(prepare_components(frame, y[b], phi[b], cfg),
                                     frame.strata, cfg)
            assert scalar.u3 == scalar.v3 == scalar.strata["S"].u3 == 0.0, (cfg, b)
            for key in ("u3", "v3"):
                assert est.population[key][b, 0] == est.strata[key][b, 0] == 0.0, (cfg, b)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frames=st.lists(survey_frames(), min_size=2, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_frames_as_groups_match_scalar_reference(frames, seed):
    # the flat arrays of several frames, one group each, in one layout: each
    # group's population and strata are that frame's scalar estimate
    index = compile_index(side_by_side([frame.index for frame in frames]))
    draws = []
    for frame in frames:
        layout = frame.layout(CONFIGS[0])
        y = sample_true_rate(frame.measured_rates,
                             iteration_uniforms(seed, range(2), layout.n_passes))
        draws.append((y, np.maximum(pod(y, frame.altitudes, frame.wind_speeds), PHI_FLOOR)))
    y_all = np.hstack([y for y, _ in draws])
    phi_all = np.hstack([phi for _, phi in draws])
    for cfg in CONFIGS:
        (batch,) = evaluate([build_layout(index, cfg)], y_all, phi_all)
        first = 0
        for g, (frame, (y, phi)) in enumerate(zip(frames, draws)):
            for b in range(2):
                est = estimate_survey(prepare_components(frame, y[b], phi[b], cfg),
                                      frame.strata, cfg)
                what = (cfg.estimator, cfg.plan, cfg.stage2, cfg.decomposition, g, b)
                assert_close({k: batch.population[k][b, g] for k in POPULATION_KEYS},
                             {k: getattr(est, k) for k in POPULATION_KEYS}, what)
                for s, name in enumerate(frame.strata):
                    assert_close({k: batch.strata[k][b, first + s] for k in STRATUM_KEYS},
                                 {k: getattr(est.strata[name], k) for k in STRATUM_KEYS},
                                 what + (name,))
            first += len(frame.strata)


def test_structural_diagnostics_match_scalar(subset_frame):
    for cfg in CONFIGS:
        layout = subset_frame.layout(cfg)
        n = layout.n_passes
        y = sample_true_rate(subset_frame.measured_rates, iteration_uniforms(1, range(1), n))[0]
        phi = np.maximum(pod(y, subset_frame.altitudes, subset_frame.wind_speeds), PHI_FLOOR)
        est = estimate_survey(prepare_components(subset_frame, y, phi, cfg),
                              subset_frame.strata, cfg)
        assert layout.diagnostics["n_pooled_components"] == est.n_pooled
        assert layout.diagnostics["n_pooled_without_peers"] == est.n_pooled_no_peers


@pytest.mark.parametrize("pooling", ["none", "all", "some"])
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_pooling_paths_match_scalar_reference_bit_for_bit(pooling, data, seed):
    # a layout schedules pooling peers exactly when a member pools; with no
    # peers, or none scheduled, the kernel still gives the reference's bits
    frame = data.draw(survey_frames(pooling))
    for cfg in CONFIGS:
        layout = frame.layout(cfg)
        diagnostics = layout.diagnostics
        n_pooled = diagnostics["n_pooled_components"]
        assert (layout.peers is None) == (n_pooled == 0)
        if pooling == "none":
            assert n_pooled == 0
        else:
            assert diagnostics["n_pooled_without_peers"] == n_pooled
            assert n_pooled > 0 or pooling == "all"
        y = sample_true_rate(frame.measured_rates,
                             iteration_uniforms(seed, range(3), layout.n_passes))
        phi = np.maximum(pod(y, frame.altitudes, frame.wind_speeds), PHI_FLOOR)
        (est,) = evaluate([layout], y, phi)
        for b in range(3):
            ref = estimate_survey(prepare_components(frame, y[b], phi[b], cfg),
                                  frame.strata, cfg)
            what = (cfg.estimator, cfg.plan, cfg.stage2, cfg.decomposition, b)
            for key in POPULATION_KEYS:
                assert same_bits(est.population[key][b, 0], np.float64(getattr(ref, key))), (
                    what, key)
            for s, name in enumerate(frame.strata):
                for key in STRATUM_KEYS:
                    assert same_bits(est.strata[key][b, s],
                                     np.float64(getattr(ref.strata[name], key))), (what, name, key)


def test_an_ipw_layout_reads_the_unit_days_in_place(subset_frame):
    # IPW on the original plan expands every unit-day, so its layout holds no
    # index of them: its full units' days and its pooled units' single days
    # are positions among all unit-days, and its estimates keep the scalar
    # reference's bits
    index = subset_frame.compiled_index
    for cfg in CONFIGS:
        layout = subset_frame.layout(cfg)
        in_place = (cfg.estimator, cfg.plan) == ("ipw", "original")
        assert (layout.days is None) == in_place
        if not in_place:
            continue
        assert np.array_equal(index.ud_unit[layout.full_days],
                              np.repeat(layout.full, index.d_p[layout.full]))
        assert np.array_equal(index.ud_unit[layout.first_day_of_pooled], layout.pooled)
        y = sample_true_rate(subset_frame.measured_rates,
                             iteration_uniforms(5, range(2), layout.n_passes))
        phi = np.maximum(pod(y, subset_frame.altitudes, subset_frame.wind_speeds), PHI_FLOOR)
        (est,) = evaluate([layout], y, phi)
        for b in range(2):
            ref = estimate_survey(prepare_components(subset_frame, y[b], phi[b], cfg),
                                  subset_frame.strata, cfg)
            for key in POPULATION_KEYS:
                assert same_bits(est.population[key][b, 0], np.float64(getattr(ref, key))), (
                    cfg, b, key)


@pytest.mark.parametrize("estimator,plan", DESIGNS)
def test_iterations_independent_of_chunking(subset_frame, monkeypatch, estimator, plan):
    mc = McConfig(estimator=EstimatorConfig(estimator=estimator, plan=plan),
                  iterations=24, seed=4, trace=True)
    whole = run_mc(subset_frame, mc)
    monkeypatch.setattr(measurement, "MC_CHUNK", 3)
    # eight workers on eight chunks, switching often: each chunk must write
    # only its own slice of the shared result arrays
    run_on_cpus(monkeypatch, 8)
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


def assert_iterations_alone_equal_their_chunk(layouts, y, phi):
    """Each iteration of a chunk evaluated alone (one np.bincount per ragged
    sum) equals its row of the chunk (the column view) bit for bit."""
    assert len(y) > 1
    chunk = evaluate(layouts, y, phi)
    for b in range(len(y)):
        alone = evaluate(layouts, y[b:b + 1], phi[b:b + 1], first_iteration=b)
        for layout, got, want in zip(layouts, alone, chunk):
            for values in ("population", "strata"):
                for key, arr in getattr(want, values).items():
                    assert same_bits(getattr(got, values)[key][0], arr[b]), (
                        layout.kind, layout.observed, layout.printed, b, values, key)


def frame_draws(frame, layout, seed, n):
    y = sample_true_rate(frame.measured_rates, iteration_uniforms(seed, range(n), layout.n_passes))
    return y, np.maximum(pod(y, frame.altitudes, frame.wind_speeds), PHI_FLOOR)


@pytest.mark.parametrize("source", ["subset", 0, 1, 2])
def test_iterations_alone_equal_their_chunk(subset_frame, source):
    frame = subset_frame if source == "subset" else random_frame(source)
    layouts = [frame.layout(cfg) for cfg in all_configs(365)]
    assert_iterations_alone_equal_their_chunk(layouts, *frame_draws(frame, layouts[0], 6, 5))


@pytest.mark.parametrize("pooling", [None, "some"])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_iterations_of_well_sites_and_pooled_units_alone_equal_their_chunk(pooling, data, seed):
    frame = data.draw(survey_frames(pooling))
    layouts = [frame.layout(cfg) for cfg in CONFIGS]
    assert_iterations_alone_equal_their_chunk(layouts, *frame_draws(frame, layouts[0], seed, 3))


def test_oracle_outcomes_alone_equal_their_chunk(micro_b):
    # one oracle block, and two more iterations of the same outcomes
    block = next(oracle._blocks(micro_b))
    index = compile_index(block.index)
    layouts = [build_layout(index, cfg) for cfg in all_configs(micro_b.horizon)]
    y = np.stack([block.rates, 1.5 * block.rates, 0.5 * block.rates])
    phi = np.stack([block.phis, block.phis**2, np.sqrt(block.phis)])
    assert_iterations_alone_equal_their_chunk(layouts, y, phi)


# ---------------------------------------------------------------------------
# Schedules: row sums and products, one iteration or a chunk
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e308, -1e308, 5e-324, math.inf, -math.inf, math.nan)


NO_ROWS = dict(n_items=1, rows=[], longest_first=False, b=1, pool=[0.5], seed=0)
EMPTY_ROWS = dict(NO_ROWS, rows=[[], [], []])


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n_items=st.integers(1, 30), rows=st.lists(st.lists(st.integers(0, 29), max_size=60),
                                                 max_size=6),
       longest_first=st.booleans(),
       lead=st.sampled_from([(), (2,), (3, 2)]), b=st.sampled_from([1, 3, 256]),
       pool=st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
# one iteration with no rows, or no items in any row: the sums are still
# float, though np.bincount of no weights is of integers
@example(lead=(), **NO_ROWS)
@example(lead=(3, 2), **NO_ROWS)
@example(lead=(), **EMPTY_ROWS)
@example(lead=(3, 2), **EMPTY_ROWS)
def test_prefix_sums_and_products_are_left_to_right(n_items, rows, longest_first, lead, b, pool,
                                                    seed):
    rows = [[j % n_items for j in row] for row in rows]
    if longest_first:
        rows.sort(key=len, reverse=True)
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(pool), size=lead + (n_items, b))
    first = rng.choice(np.array(pool), size=lead + (len(rows), b))
    # the (row, item) pairs arrive interleaved across rows, each row's in order
    keys = rng.permutation(np.repeat(np.arange(len(rows)), [len(row) for row in rows]))
    values = np.empty(len(keys), dtype=np.intp)
    for r, row in enumerate(rows):
        values[keys == r] = row
    schedule = batch._schedule(keys, values, len(rows))
    with np.errstate(all="ignore"):
        sums = batch._seq_sum(x, schedule)
        prods = batch._seq_prod(first, x, schedule)
        assert sums.shape == prods.shape == lead + (len(rows), b)
        assert sums.dtype == prods.dtype == np.float64
        for r, row in enumerate(rows):
            # Python's sum and a left-to-right product, elementwise over the
            # leading and iteration axes; an empty row sums to 0.0
            want_sum = sum((x[..., j, :] for j in row), np.zeros(lead + (b,)))
            want_prod = functools.reduce(operator.mul, (x[..., j, :] for j in row),
                                         first[..., r, :])
            assert same_bits(sums[..., r, :], want_sum), (r, row)
            assert same_bits(prods[..., r, :], want_prod), (r, row)


def assert_same_arrays(got, want, what):
    assert (got is None) == (want is None), what
    if want is not None:
        assert got.dtype == want.dtype and np.array_equal(got, want), what


@settings(max_examples=80, deadline=None)
@given(keys=st.lists(st.integers(0, 6), max_size=40), extra=st.integers(0, 3))
@example(keys=[], extra=0)
@example(keys=[], extra=2)
@example(keys=[4, 0, 4, 2, 0, 4], extra=3)
def test_a_schedule_of_positions_equals_the_identity_gather(keys, extra):
    # values None schedule the keys' positions: unsorted keys, empty rows and
    # rows past the largest key lay out as with np.arange as the values, both
    # row by row and in the column view
    keys = np.array(keys, dtype=np.intp)
    n_rows = int(keys.max(initial=-1)) + 1 + extra
    got = batch._schedule(keys, None, n_rows)
    want = batch._schedule(keys, np.arange(len(keys)), n_rows)
    assert got.n_rows == want.n_rows == n_rows
    for name in ("items", "row"):
        assert_same_arrays(getattr(got, name), getattr(want, name), name)
    assert got.by_column.columns == want.by_column.columns
    for name in ("items", "order", "rank"):
        assert_same_arrays(getattr(got.by_column, name), getattr(want.by_column, name), name)


def test_peers_are_scheduled_exactly_where_a_member_pools(subset_frame, micro_b):
    # the packaged subset pools under every configuration; micro_b's blocks
    # (2 of 3 days) pool under Hajek only, where a unit has one detection day
    for cfg in CONFIGS:
        layout = subset_frame.layout(cfg)
        assert layout.diagnostics["n_pooled_components"] > 0
        assert layout.peers is not None and layout.peers.n_rows == len(subset_frame.strata)
    scheduled = set()
    for block in oracle._blocks(micro_b):
        index = compile_index(block.index)
        for cfg in all_configs(micro_b.horizon):
            layout = build_layout(index, cfg)
            pools = layout.diagnostics["n_pooled_components"] > 0
            assert (layout.peers is not None) == pools
            scheduled.add((cfg.estimator, pools))
    assert scheduled == {("ipw", False), ("hajek", True)}


# ---------------------------------------------------------------------------
# One compiled index shared by every configuration
# ---------------------------------------------------------------------------


def all_configs(horizon: int):
    return [EstimatorConfig(estimator=e, plan=p, stage2=s2, horizon=horizon, decomposition=dc)
            for e, p in DESIGNS for s2 in ("observed", "year")
            for dc in ("corrected", "printed")]


def outcome(layout_of, cfg, y, phi):
    """Every array `evaluate` returns, or the `EstimationError` message."""
    try:
        (est,) = evaluate([layout_of(cfg)], y, phi)
    except EstimationError as exc:
        return str(exc)
    return {(where, key): arr for where, values in (("population", est.population),
                                                   ("strata", est.strata))
            for key, arr in values.items()}


def assert_shared_index_equals_fresh_builds(index: UnitIndex, configs, y, phi):
    """Evaluating each configuration over one `compile_index` of ``index``, in
    order and then in reverse, equals fresh builds bit for bit."""
    fresh = [outcome(lambda c: build_layout(compile_index(index), c), cfg, y, phi)
             for cfg in configs]
    shared = compile_index(index)
    order = [*range(len(configs)), *reversed(range(len(configs)))]
    for cfg, want in ((configs[i], fresh[i]) for i in order):
        got = outcome(lambda c: build_layout(shared, c), cfg, y, phi)
        if isinstance(want, str):
            assert got == want
            continue
        assert got.keys() == want.keys()
        for key, arr in want.items():
            assert same_bits(got[key], arr), (cfg, key)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(frame=survey_frames(), seed=st.integers(0, 2**32 - 1))
def test_frames_share_one_compiled_index(frame, seed):
    layout = frame.layout(CONFIGS[0])
    y = sample_true_rate(frame.measured_rates,
                         iteration_uniforms(seed, range(3), layout.n_passes))
    phi = np.maximum(pod(y, frame.altitudes, frame.wind_speeds), PHI_FLOOR)
    # horizon 2 rejects the units surveyed on three days
    assert_shared_index_equals_fresh_builds(frame.index, all_configs(2) + CONFIGS, y, phi)


def test_oracle_blocks_share_one_compiled_index(micro_b, monkeypatch):
    monkeypatch.setattr(oracle, "OUTCOME_BLOCK", 1300)
    blocks = list(oracle._blocks(micro_b))
    assert len(blocks) > 1
    for block in blocks:
        assert_shared_index_equals_fresh_builds(block.index, all_configs(micro_b.horizon),
                                                block.rates[None], block.phis[None])


def test_simlab_blocks_share_one_compiled_index():
    strata = tuple(SimStratumSpec(name=name, n_sampled=2, n_population=4, lognormal_mu=3.5,
                                  lognormal_sigma=0.6) for name in ("A", "B"))
    cfg = SimConfig(strata=strata, components_per_facility=(1, 3), emit_prob=0.6, horizon=6,
                    days_sampled=2, replications=8, seed=11)
    index, y, phi = simlab._sample_block(simlab.generate_population(cfg), cfg, range(8))
    configs = [simlab._variant_config(v, cfg) for v in simlab.VARIANTS]
    assert_shared_index_equals_fresh_builds(index, configs, y[None], phi[None])


# ---------------------------------------------------------------------------
# Several layouts of one compiled index in one call
# ---------------------------------------------------------------------------


def test_layouts_evaluated_together_equal_separate_calls(subset_frame, monkeypatch):
    layouts = [subset_frame.layout(cfg) for cfg in all_configs(365)]
    y = sample_true_rate(subset_frame.measured_rates,
                         iteration_uniforms(2, range(3), layouts[0].n_passes))
    phi = np.maximum(pod(y, subset_frame.altitudes, subset_frame.wind_speeds), PHI_FLOOR)
    kinds = []
    daily = batch._daily

    def counted(ix, kind, *arrays):
        kinds.append(kind)
        return daily(ix, kind, *arrays)

    monkeypatch.setattr(batch, "_daily", counted)
    together = evaluate(layouts, y, phi, first_iteration=7)
    # the daily stage runs once per distinct kind, whatever the order
    assert sorted(kinds) == ["hajek", "ipw", "starred"]
    assert len(together) == len(layouts) == 12
    for layout, got in zip(reversed(layouts), reversed(together)):
        (want,) = evaluate([layout], y, phi)
        for values in ("population", "strata"):
            for key, arr in getattr(want, values).items():
                assert same_bits(getattr(got, values)[key], arr), (layout.kind, values, key)


@pytest.mark.parametrize("estimator,plan", DESIGNS)
@pytest.mark.parametrize("source", ["subset", 0, 1])
def test_one_kinds_layouts_evaluated_together_equal_separate_calls(subset_frame, monkeypatch,
                                                                   estimator, plan, source):
    frame = subset_frame if source == "subset" else random_frame(source)
    # mixed horizons and flags, one configuration repeated
    configs = [EstimatorConfig(estimator=estimator, plan=plan, stage2=s2, horizon=h,
                               decomposition=dc)
               for s2, h, dc in (("year", 365, "printed"), ("observed", 365, "corrected"),
                                 ("year", 200, "corrected"), ("observed", 365, "printed"),
                                 ("year", 365, "corrected"), ("year", 200, "corrected"))]
    layouts = [build_layout(frame.compiled_index, cfg) for cfg in configs]
    assert len({layout.kind for layout in layouts}) == 1
    y = sample_true_rate(frame.measured_rates,
                         iteration_uniforms(5, range(4), layouts[0].n_passes))
    phi = np.maximum(pod(y, frame.altitudes, frame.wind_speeds), PHI_FLOOR)
    alone = [evaluate([layout], y, phi)[0] for layout in layouts]
    shared = []
    unit_estimates = batch._unit_estimates

    def counted(group, *arrays):
        shared.append(len(group))
        return unit_estimates(group, *arrays)

    monkeypatch.setattr(batch, "_unit_estimates", counted)
    together = evaluate(layouts, y, phi)
    # the shared stage runs once, for all six layouts
    assert shared == [len(layouts)]
    for cfg, got, want in zip(configs, together, alone):
        for values in ("population", "strata"):
            for key, arr in getattr(want, values).items():
                assert same_bits(getattr(got, values)[key], arr), (cfg, values, key)


def test_a_frame_keeps_one_layout_per_configuration(subset_frame):
    frame = load_packaged_subset()
    cfg = EstimatorConfig(estimator="hajek", stage2="year", horizon=200)
    layout = frame.layout(cfg)
    assert layout.index is frame.compiled_index
    # equal configurations, and ones that differ only in what a layout does not read
    for same in (EstimatorConfig(estimator="hajek", stage2="year", horizon=200),
                 dataclasses.replace(cfg, ci_level=0.9),
                 dataclasses.replace(cfg, pod_params=dataclasses.replace(cfg.pod_params,
                                                                         kappa=2.0))):
        assert frame.layout(same) is layout
    for other in (dataclasses.replace(cfg, horizon=365), dataclasses.replace(cfg, stage2="observed"),
                  dataclasses.replace(cfg, decomposition="printed"),
                  dataclasses.replace(cfg, estimator="ipw")):
        assert frame.layout(other) is not layout
        assert frame.layout(other) is frame.layout(other)
    # no layout is shared between frames, even of the same survey
    assert subset_frame.layout(cfg) is not layout
    assert subset_frame.layout(cfg).index is subset_frame.compiled_index
    # a refused horizon is not kept: it raises each time
    for _ in range(2):
        with pytest.raises(EstimationError, match="exceeds the horizon"):
            frame.layout(dataclasses.replace(cfg, horizon=1))


def test_estimates_and_monte_carlo_runs_take_the_frames_layouts(subset_frame, monkeypatch):
    from msinv.estimators import estimate_survey as kernel_estimate_survey

    frame = load_packaged_subset()
    built = []
    build = batch.build_layout
    monkeypatch.setattr(batch, "build_layout",
                        lambda index, cfg: built.append(cfg) or build(index, cfg))
    configs = all_configs(365)
    phis = np.maximum(pod(frame.measured_rates, frame.altitudes, frame.wind_speeds), PHI_FLOOR)
    for (_, layout), cfg in zip(kernel_estimate_survey(frame, configs, frame.measured_rates, phis),
                                configs):
        assert layout is frame.layout(cfg)
    assert built == configs
    results = list(measurement.run_mc_variants(frame, McConfig(iterations=4), configs))
    assert len(results) == len(configs)
    assert built == configs  # nothing built again


def test_no_layout_gives_no_estimate(subset_frame):
    y = np.ones((1, len(subset_frame.measured_rates)))
    assert evaluate([], y, y) == []


def test_layouts_of_two_indexes_are_refused(subset_frame):
    first = subset_frame.layout(CONFIGS[0])
    other = build_layout(compile_index(subset_frame.index), CONFIGS[0])
    y = np.ones((1, first.n_passes))
    with pytest.raises(ValueError, match="one compiled index"):
        evaluate([first, other], y, y)


def test_the_first_failing_layout_is_named():
    # at this scale the year horizon's variance overflows and the observed
    # one's does not
    spec = SimStratumSpec(name="A", n_sampled=3, n_population=5, lognormal_mu=353.0,
                          lognormal_sigma=0.3)
    cfg = SimConfig(strata=(spec,), components_per_facility=(1, 4), emit_prob=0.5, horizon=8,
                    days_sampled=2, replications=2, seed=5)
    index, y, phi = simlab._sample_block(simlab.generate_population(cfg), cfg, range(2))
    compiled = compile_index(index)
    observed, year = (build_layout(compiled, simlab._variant_config(v, cfg))
                      for v in ("ipw_observed", "ipw_year"))
    (alone,) = evaluate([observed], y[None], phi[None])
    assert np.isfinite(alone.population["total"]).all()
    with pytest.raises(NonFiniteEstimate) as year_alone:
        evaluate([year], y[None], phi[None], first_iteration=3)
    assert year_alone.value.layout == 0
    for layouts, position in (([observed, year], 1), ([year, observed, year], 0)):
        with pytest.raises(NonFiniteEstimate) as failed:
            evaluate(layouts, y[None], phi[None], first_iteration=3)
        assert failed.value.layout == position
        assert str(failed.value) == str(year_alone.value)
    assert str(year_alone.value).startswith("Monte Carlo iteration 3: non-finite ")


def test_the_first_non_finite_part_is_named_in_the_scalar_order():
    # iteration 1 (the second row) is the first with a non-finite part; in it
    # the population, then stratum by stratum, each in POPULATION_KEYS order
    est = batch.BatchEstimate(population={k: np.zeros((3, 1)) for k in POPULATION_KEYS},
                              strata={k: np.zeros((3, 3)) for k in POPULATION_KEYS})
    est.strata["total"][2, 0] = est.population["total"][2, 0] = math.nan
    est.strata["total"][1, 2] = math.nan
    est.strata["u1"][1, 1] = math.nan
    est.strata["v2"][1, 1] = math.inf

    def named():
        with pytest.raises(NonFiniteEstimate) as failed:
            batch._check_finite(est, 4, 1)
        return str(failed.value), failed.value.layout, failed.value.stratum, failed.value.key

    assert named() == ("Monte Carlo iteration 5: non-finite stratum v2 (a measured rate too "
                       "large to estimate with?)", 1, 1, "v2")
    est.population["u3"][1, 0] = -math.inf
    est.population["v1"][1, 0] = math.nan
    assert named()[1:] == (1, None, "v1")


# ---------------------------------------------------------------------------
# Units shared by stage I members
# ---------------------------------------------------------------------------


def ints(values):
    return np.array(values, dtype=np.intp)


# C0 is surveyed on two days; C1, pooled, on one; SITE, a well site of two
# wells, on two days with two components each; C3, a zero emitter, on one.
# Group 0 holds strata 0 and 1, group 1 strata 2 and 3.  C1 is a member of
# strata 0, 1 and 3, SITE (once per well) of strata 1 and 2, and C0 of
# strata 0 and 3; stratum 3 has a pooled unit and a zero emitter.
SHARED = UnitIndex(
    pass_cd=ints([0, 1, 2, 2, 3, 5, 5]),
    cd_q=ints([2, 1, 3, 1, 2, 2, 1, 2]),
    cd_ud=ints([0, 1, 2, 3, 3, 4, 4, 5]),
    ud_unit=ints([0, 0, 1, 2, 2, 3]),
    unit_wells=ints([0, 0, 2, 0]),
    labels=np.array(["C0", "C1", "SITE/well1", "C3"], dtype=object),
    member_unit=ints([0, 1, 2, 2, 1, 2, 2, 1, 3, 0]),
    member_stratum=ints([0, 0, 1, 1, 1, 2, 2, 3, 3, 3]),
    member_fac=ints(range(10)),
    n_sampled=ints([2, 3, 2, 3]),
    n_population=ints([3, 5, 2, 4]),
    stratum_group=ints([0, 0, 1, 1]),
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_units_equal_their_copies(seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(15.0, 120.0, (3, len(SHARED.pass_cd)))
    phi = rng.uniform(0.05, 1.0, y.shape)
    copy, y_copy, phi_copy = unit_per_member(SHARED, y, phi)
    assert len(copy.unit_wells) == len(SHARED.member_unit) == 10
    shared, copied = compile_index(SHARED), compile_index(copy)
    for cfg in CONFIGS:
        got_layout, want_layout = build_layout(shared, cfg), build_layout(copied, cfg)
        assert got_layout.diagnostics == want_layout.diagnostics
        assert got_layout.diagnostics["n_pooled_components"] == 3
        (got,) = evaluate([got_layout], y, phi)
        (want,) = evaluate([want_layout], y_copy, phi_copy)
        for values in ("population", "strata"):
            for key, arr in getattr(want, values).items():
                assert same_bits(getattr(got, values)[key], arr), (cfg, values, key)
