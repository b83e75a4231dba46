"""Enumeration oracle tests: exact unbiasedness and the variance split.

The enumeration itself is the independent oracle for the estimator stack;
here it is additionally cross-checked against a direct Monte Carlo draw of
the sampling process, estimated on the production kernel, so the two
computations of every expectation share the estimator but not the way the
samples and their probabilities are found.
"""

import dataclasses
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from msinv.batch import POPULATION_KEYS, build_layout, compile_index, evaluate
from msinv.estimators import EstimationError, EstimatorConfig
from msinv.frame import StratumDef, UnitIndex
from msinv import oracle
from msinv.oracle import (
    MAX_OUTCOMES,
    MicroComponent,
    MicroPass,
    MicroPopulation,
    enumerate_outcomes,
    exact_stage_variances,
    true_total,
)
from estimator_reference import ComponentObs, daily_estimate, estimate_survey
from oracle_reference import (
    pattern_probs,
    reference_block,
    reference_block_chunks,
    reference_chunks,
)
from conftest import support_totals
from index_helpers import same_bits, side_by_side, unit_per_member

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's micro-population generator


def cfg_b(**kw):
    return EstimatorConfig(stage2="year", horizon=3, **kw)


# micro_b's exact stage split under cfg_b(), as the per-cell regrouping of
# every outcome's total gave it
MICRO_B_STAGE_VARIANCES = tuple(map(float.fromhex, (
    "0x1.6071c71c71c60p+3", "0x1.caaaaaaaaab00p+1", "0x1.35eaaaaaaaaacp+4")))


def outcome_probabilities(pop: MicroPopulation):
    """Probability of every full sample outcome under both design routes.

    The original route multiplies per-pass Bernoulli detection probabilities;
    the modified route factors through the day-level any-detection
    probabilities and the conditional within-day design.  The two columns
    agree identically, which is the design-equivalence property made testable.
    Returns (original, modified) arrays over the enumerated outcomes.
    """
    original: list[np.ndarray] = []
    modified: list[np.ndarray] = []
    for chunk in reference_chunks(pop):
        p_mod = np.full(len(chunk.prob), chunk.design_prob)
        for (ci, t), pattern in zip(chunk.pairs, chunk.patterns.T):
            day = pop.components[ci].days[t]
            phid = 1.0 - math.prod(1.0 - p.phi for p in day)
            # a detected day enters the starred sample, and its detections
            # follow the conditional (non-Poisson) within-day design
            p_mod *= np.where(pattern > 0, phid * (pattern_probs(day)[pattern] / phid),
                              1.0 - phid)
        original.append(chunk.prob)
        modified.append(p_mod)
    return np.concatenate(original), np.concatenate(modified)


def scalar_outcomes(pop: MicroPopulation, configs):
    """Every outcome's estimates by the scalar reference, in enumeration order.

    Each outcome's sampled components become `ComponentObs` of their daily
    estimates, which `estimate_survey` takes.  Returns, per configuration,
    `POPULATION_KEYS` to arrays over the outcomes.
    """
    d = pop.days_sampled
    dailies = {}

    def daily(ci, t, mask, kind):
        key = (ci, t, mask, kind)
        if key not in dailies:
            day = pop.components[ci].days[t]
            hit = [p for i, p in enumerate(day) if mask >> i & 1]
            dailies[key] = daily_estimate([p.rate for p in hit], [p.phi for p in hit],
                                          len(day), kind, day_id=t)
        return dailies[key]

    out = [{k: [] for k in POPULATION_KEYS} for _ in configs]
    for chunk in reference_chunks(pop):
        for row in chunk.patterns.tolist():
            obs = {}
            for kind in {cfg.estimator for cfg in configs}:
                obs[kind] = []
                for k, ci in enumerate(chunk.components):
                    c = pop.components[ci]
                    pairs = zip(chunk.pairs[k * d:(k + 1) * d], row[k * d:(k + 1) * d])
                    obs[kind].append(ComponentObs(
                        c.component_id, c.facility_id, pop.facilities[c.facility_id],
                        tuple(daily(ci, t, mask, kind) for (_, t), mask in pairs)))
            for cfg, rec in zip(configs, out):
                est = estimate_survey(obs[cfg.estimator], pop.strata, cfg)
                for key in POPULATION_KEYS:
                    rec[key].append(getattr(est, key))
    return [{key: np.array(values) for key, values in rec.items()} for rec in out]


def all_configs(pop: MicroPopulation):
    return [EstimatorConfig(estimator=e, plan=p, stage2=s2, horizon=pop.horizon,
                            decomposition=dc)
            for e, p in (("ipw", "original"), ("ipw", "modified"), ("hajek", "modified"))
            for s2 in ("year", "observed") for dc in ("corrected", "printed")]


def assert_matches_scalar_reference(pop: MicroPopulation):
    configs = all_configs(pop)
    for cfg, dist, want in zip(configs, enumerate_outcomes(pop, configs),
                               scalar_outcomes(pop, configs)):
        got = {"total": dist.totals, "v3stage": dist.v3stage}
        for key, stage in (("1", "stage1"), ("2", "stage2"), ("3", "stage3")):
            got["v" + key] = dist.clipped[stage]
            got["u" + key] = dist.unclipped[stage]
        # rel 1e-12; a clipped or cancelling part near zero gets an absolute
        # floor scaled by the largest value of its outcome
        floor = 1e-12 * np.maximum(1.0, np.max([np.abs(v) for v in want.values()], axis=0))
        for key in POPULATION_KEYS:
            assert got[key].shape == want[key].shape
            bad = np.abs(got[key] - want[key]) > np.maximum(1e-12 * np.abs(want[key]), floor)
            assert not bad.any(), (cfg, key, np.flatnonzero(bad)[:5])


@pytest.fixture(scope="module")
def dist_b(micro_b):
    (d,) = enumerate_outcomes(micro_b, cfg_b())
    return d


class TestTrueTotal:
    def test_single_component_average(self, micro_a):
        assert true_total(micro_a) == pytest.approx(5.0)

    def test_additivity(self):
        pop = MicroPopulation(
            strata={"S": StratumDef("S", 1, 1)},
            facilities={"F1": "S"},
            components=(
                MicroComponent("c1", "F1", ((MicroPass(4.0, 1.0),), (MicroPass(6.0, 1.0),))),
                MicroComponent("c2", "F1", ((MicroPass(5.0, 1.0),), (MicroPass(5.0, 1.0),))),
            ),
            days_sampled=1,
        )
        assert true_total(pop) == pytest.approx(10.0)

    def test_all_zero(self):
        pop = MicroPopulation(
            strata={"S": StratumDef("S", 1, 1)},
            facilities={"F1": "S"},
            components=(
                MicroComponent("c1", "F1", ((MicroPass(0.0, 0.5),), (MicroPass(0.0, 0.5),))),
            ),
            days_sampled=1,
        )
        assert true_total(pop) == 0.0

    def test_a_day_without_passes_is_refused(self):
        # its mean rate is 0/0; the population still enumerates
        pop = pop_with_an_empty_draw()
        with pytest.raises(ValueError, match=r"^component 'c2', day 2: no passes"):
            true_total(pop)
        assert enumerate_outcomes(pop, cfg_b())


class TestMicroA:
    def test_support_and_mean(self, micro_a):
        (dist,) = enumerate_outcomes(micro_a, EstimatorConfig(stage2="year", horizon=2))
        support = support_totals(dist)
        assert support == {4.0: pytest.approx(0.5), 6.0: pytest.approx(0.5)}
        assert dist.mean_total() == pytest.approx(5.0, abs=1e-12)

    def test_no_configuration_walks_no_outcome(self, micro_a, monkeypatch):
        def unreachable(*args):
            raise AssertionError("outcomes walked for no configuration")

        monkeypatch.setattr(oracle, "_blocks", unreachable)
        assert enumerate_outcomes(micro_a, []) == []


class TestCensusMicro:
    def test_degenerate_distribution(self):
        pop = MicroPopulation(
            strata={"S": StratumDef("S", 1, 1)},
            facilities={"F1": "S"},
            components=(
                MicroComponent("c1", "F1", ((MicroPass(4.0, 1.0),), (MicroPass(6.0, 1.0),))),
            ),
            days_sampled=2,
        )
        (dist,) = enumerate_outcomes(pop, EstimatorConfig(stage2="year", horizon=2))
        assert support_totals(dist) == {5.0: pytest.approx(1.0)}
        assert dist.var_total() == pytest.approx(0.0, abs=1e-15)
        assert dist.expected_v3stage() == pytest.approx(0.0, abs=1e-15)


class TestMicroB:
    def test_probabilities_sum_to_one(self, dist_b):
        assert math.fsum(dist_b.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_ipw_unbiased_under_both_plans(self, micro_b, dist_b):
        t = true_total(micro_b)
        assert abs(dist_b.mean_total() - t) / t <= 1e-8
        (mod,) = enumerate_outcomes(micro_b, cfg_b(plan="modified"))
        assert abs(mod.mean_total() - t) / t <= 1e-8

    def test_variance_estimator_unbiased(self, dist_b):
        var_t = dist_b.var_total()
        assert abs(dist_b.expected_v3stage() - var_t) / var_t <= 1e-8

    def test_stagewise_unbiasedness_corrected(self, dist_b):
        v1, v2, v3 = exact_stage_variances(dist_b)
        for stage, exact in (("stage1", v1), ("stage2", v2), ("stage3", v3)):
            est = dist_b.expected_part(stage)
            assert abs(est - exact) / exact <= 1e-8

    def test_printed_decomposition_fails_stagewise(self, micro_b, dist_b):
        (printed,) = enumerate_outcomes(micro_b, cfg_b(decomposition="printed"))
        _, _, v3 = exact_stage_variances(dist_b)
        rel_err = abs(printed.expected_part("stage3") - v3) / v3
        assert rel_err > 1e-3  # off by a factor of the horizon
        assert printed.expected_part("stage3") == pytest.approx(
            3 * dist_b.expected_part("stage3"), rel=1e-12
        )

    def test_stage_variances_are_pinned_in_both_forms(self, micro_b, dist_b):
        assert exact_stage_variances(dist_b) == MICRO_B_STAGE_VARIANCES
        assert exact_stage_variances(micro_b, cfg_b()) == MICRO_B_STAGE_VARIANCES

    def test_a_population_without_its_configuration_is_refused(self, micro_b):
        with pytest.raises(TypeError, match="needs the EstimatorConfig"):
            exact_stage_variances(micro_b)

    def test_stage_parts_sum_to_variance(self, dist_b):
        v1, v2, v3 = exact_stage_variances(dist_b)
        assert v1 + v2 + v3 == pytest.approx(dist_b.var_total(), rel=1e-10)

    def test_design_equivalence_outcome_probabilities(self, micro_b):
        orig, mod = outcome_probabilities(micro_b)
        assert float(np.max(np.abs(orig - mod))) <= 1e-12

    def test_hajek_is_measurably_biased_not_asserted_unbiased(self, micro_b):
        # the oracle measures the ratio estimator's bias; it is small but real
        (dist,) = enumerate_outcomes(micro_b, cfg_b(estimator="hajek"))
        t = true_total(micro_b)
        rel_bias = (dist.mean_total() - t) / t
        assert 0 < abs(rel_bias) < 0.05

    def test_monte_carlo_cross_check(self, micro_b, dist_b):
        """A sampling simulation of the three-stage draw reproduces E[That] and Var[That].

        Each draw samples micro_b's facilities, each sampled component's days
        and each pass's detection, as the design does, and is estimated on
        the production kernel: blocks of draws laid out as `UnitIndex`
        arrays, a group per draw, as the simulation lab lays out its
        replications, through one `batch.evaluate` call each.  So the
        enumeration's outcomes and probabilities are checked against sampling
        on the production kernel; the kernel-to-scalar diff is
        `test_kernel_matches_scalar_reference`'s.
        """
        rng = np.random.default_rng(20211103)
        n_draws, block = 60_000, 10_000
        (stratum,) = micro_b.strata.values()
        facs = sorted(micro_b.facilities)
        comps = micro_b.components    # in facility order: one component per facility
        n_comp, n_fac, horizon = len(comps), len(facs), micro_b.horizon
        d_p, n_sampled = micro_b.days_sampled, stratum.n_sampled
        comp_fac = np.array([facs.index(c.facility_id) for c in comps])
        assert np.all(np.diff(comp_fac) > 0)
        q = np.array([[len(day) for day in c.days] for c in comps])
        width = int(q.max())
        rate, phi = (np.array([[[getattr(p, attr) for p in day] + [0.0] * (width - len(day))
                                for day in c.days] for c in comps])
                     for attr in ("rate", "phi"))
        totals = []
        for _ in range(n_draws // block):
            # stage I: n_sampled facilities; stage II: d_p days of each
            # sampled component; stage III: each pass detects with its phi
            chosen = np.argsort(rng.random((block, n_fac)), axis=1)[:, :n_sampled]
            sampled = np.zeros((block, n_fac), dtype=bool)
            np.put_along_axis(sampled, chosen, True, axis=1)
            draw, c = np.nonzero(sampled[:, comp_fac])     # units, draw by draw
            days = np.argsort(rng.random((len(c), horizon)), axis=1)[:, :d_p]
            hit = ((rng.random((len(c), d_p, width)) < phi[c[:, None], days])
                   & (np.arange(width) < q[c[:, None], days][..., None]))
            unit, k, j = np.nonzero(hit)
            n_units = len(c)
            index = UnitIndex(
                pass_cd=unit * d_p + k, cd_q=q[c[:, None], days].reshape(-1),
                cd_ud=np.arange(n_units * d_p), ud_unit=np.repeat(np.arange(n_units), d_p),
                unit_wells=np.zeros(n_units, dtype=np.intp),
                labels=np.array([comps[i].component_id for i in c], dtype=object),
                member_unit=np.arange(n_units), member_stratum=draw,
                member_fac=draw * n_fac + comp_fac[c],
                n_sampled=np.full(block, n_sampled), n_population=np.full(block, n_fac),
                stratum_group=np.arange(block))
            y, ph = rate[c[unit], days[unit, k], j], phi[c[unit], days[unit, k], j]
            (est,) = evaluate([build_layout(compile_index(index), cfg_b())], y[None], ph[None])
            totals.append(est.population["total"][0])
        totals = np.concatenate(totals)
        assert len(totals) == n_draws
        se = totals.std(ddof=1) / math.sqrt(n_draws)
        assert abs(totals.mean() - dist_b.mean_total()) < 4 * se
        assert abs(totals.var(ddof=1) - dist_b.var_total()) / dist_b.var_total() < 0.05


@st.composite
def micro_populations(draw):
    """One stratum of one or two single-component facilities, up to 3 days."""
    n_fac = draw(st.integers(1, 2))
    horizon = draw(st.integers(1, 3))
    passes = st.builds(MicroPass, st.floats(0.0, 50.0), st.floats(0.05, 1.0))
    days = st.lists(st.lists(passes, min_size=1, max_size=2).map(tuple),
                    min_size=horizon, max_size=horizon).map(tuple)
    facilities = {f"F{i}": "S" for i in range(n_fac)}
    return MicroPopulation(
        strata={"S": StratumDef("S", draw(st.integers(1, n_fac)), n_fac)},
        facilities=facilities,
        components=tuple(MicroComponent(f"c{i}", fac, draw(days))
                         for i, fac in enumerate(facilities)),
        days_sampled=draw(st.integers(1, min(horizon, 2))),
    )


class TestDesignEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(pop=micro_populations())
    def test_original_equals_modified_on_generated_populations(self, pop):
        orig, mod = outcome_probabilities(pop)
        assert math.fsum(orig) == pytest.approx(1.0, abs=1e-12)
        assert float(np.max(np.abs(orig - mod))) <= 1e-12


class TestKernelMatchesScalarReference:
    """`enumerate_outcomes` runs the batched kernel; every outcome's values
    must equal the scalar estimator's on that outcome."""

    def test_micro_a(self, micro_a):
        assert_matches_scalar_reference(micro_a)

    def test_micro_b(self, micro_b):
        assert_matches_scalar_reference(micro_b)

    def test_two_strata_with_interleaved_facilities(self):
        # components list their facilities out of order, and one facility
        # has two components
        day = (MicroPass(3.0, 0.7),)
        pop = MicroPopulation(
            strata={"S2": StratumDef("S2", 1, 1), "S1": StratumDef("S1", 1, 2)},
            facilities={"F1": "S1", "F2": "S1", "F3": "S2"},
            components=(
                MicroComponent("c1", "F2", (day, (MicroPass(5.0, 0.4), MicroPass(1.0, 0.9)))),
                MicroComponent("c2", "F1", ((MicroPass(2.0, 0.5),), day)),
                MicroComponent("c3", "F2", ((MicroPass(7.0, 0.3),), (MicroPass(4.0, 0.6),))),
                MicroComponent("c4", "F3", (day, (MicroPass(9.0, 0.2),))),
            ),
            days_sampled=1,
        )
        assert_matches_scalar_reference(pop)

    def test_results_do_not_depend_on_the_block_size(self, micro_b, monkeypatch):
        # micro_b's stage II cells hold 256 outcomes each; blocks of 100
        # split every cell across blocks
        configs = all_configs(micro_b)[::4]  # each design, on the year horizon
        whole = enumerate_outcomes(micro_b, configs)
        exact = [exact_stage_variances(micro_b, cfg) for cfg in configs]
        monkeypatch.setattr(oracle, "OUTCOME_BLOCK", 100)
        for a, b in zip(whole, enumerate_outcomes(micro_b, configs)):
            for x, y in ((a.probabilities, b.probabilities), (a.totals, b.totals),
                         (a.v3stage, b.v3stage), *zip(a.clipped.values(), b.clipped.values()),
                         *zip(a.unclipped.values(), b.unclipped.values())):
                assert np.array_equal(x, y)
        assert [exact_stage_variances(micro_b, cfg) for cfg in configs] == exact
        assert [exact_stage_variances(dist) for dist in whole] == exact

    @settings(max_examples=25, deadline=None)
    @given(pop=micro_populations())
    def test_generated_populations(self, pop):
        assert_matches_scalar_reference(pop)


@st.composite
def block_populations(draw, wide_days=False):
    """1-2 strata of 1-2 facilities with 0-2 components each and 0-2 passes a
    day, enumerated in blocks of 1-600 outcomes.  With ``wide_days``, 1-2
    component-days have 3-5 passes instead: a pattern digit up to 32 wide."""
    strata, facilities, components = {}, {}, []
    passes = st.builds(MicroPass, st.sampled_from([0.0, 2.5, 7.0]),
                       st.sampled_from([0.3, 0.8, 1.0]))
    horizon = draw(st.integers(1, 3))
    days = st.lists(st.lists(passes, max_size=2).map(tuple),
                    min_size=horizon, max_size=horizon).map(tuple)
    for h in range(draw(st.integers(1, 2))):
        n_fac = draw(st.integers(1, 2))
        strata[f"S{h}"] = StratumDef(f"S{h}", draw(st.integers(1, n_fac)), n_fac)
        for f in range(n_fac):
            facilities[f"S{h}F{f}"] = f"S{h}"
            components += [MicroComponent(f"S{h}F{f}c{i}", f"S{h}F{f}", draw(days))
                           for i in range(draw(st.integers(0, 2)))]
    # components listed out of facility order
    components = draw(st.permutations(components))
    assume(components)
    if wide_days:
        for _ in range(draw(st.integers(1, 2))):
            i = draw(st.integers(0, len(components) - 1))
            t = draw(st.integers(0, horizon - 1))
            days = list(components[i].days)
            days[t] = tuple(draw(st.lists(passes, min_size=3, max_size=5)))
            components[i] = dataclasses.replace(components[i], days=tuple(days))
    pop = MicroPopulation(strata=strata, facilities=facilities, components=tuple(components),
                          days_sampled=draw(st.integers(1, min(horizon, 2))))
    assume(oracle._enumeration_size(pop) <= 3000)
    return pop, draw(st.integers(1, 600))


def assert_walk_and_blocks_match_the_reference(pop):
    """Every block of `oracle._blocks` equals the reference on the reference
    walk's outcomes cut at the same place: per outcome its stage I draw,
    cell, probabilities and pairs.  Its units are the distinct realisations
    of its members, in order of first appearance; with a unit copied per
    member (`unit_per_member`) each `UnitIndex` array and its dtype, and
    the rates and PODs bit for bit, equal the reference's.  `evaluate`
    gives the blocks' outcomes and the reference blocks' bit for bit
    (each side laid out as one index)."""
    tables = oracle._tables(pop)
    for ci, c in enumerate(pop.components):
        for t, day in enumerate(c.days):
            start = tables.pattern_start[ci, t]
            got = tables.pattern_prob[start:start + 2 ** len(day)]
            assert np.array_equal(got.view(np.uint64), pattern_probs(day).view(np.uint64))
    blocks = list(oracle._blocks(pop))
    chunk_lists = list(reference_block_chunks(pop, oracle.OUTCOME_BLOCK))
    assert len(blocks) == len(chunk_lists)
    references = []
    for block, chunks in zip(blocks, chunk_lists):
        n = [len(ch.prob) for ch in chunks]
        want = {
            "stage1": np.repeat([ch.stage1 for ch in chunks], n),
            "stage2": np.repeat([ch.stage2 for ch in chunks], n),
            "prob": np.concatenate([ch.prob for ch in chunks]),
            "detection_prob": np.concatenate([ch.detection_prob for ch in chunks]),
            "n_pairs": np.repeat([len(ch.pairs) for ch in chunks], n),
            "cd_ci": np.concatenate([np.tile([ci for ci, _ in ch.pairs], len(ch.prob))
                                     for ch in chunks]).astype(np.intp),
            "cd_pattern": np.concatenate([
                (tables.pattern_start[tuple(np.array(ch.pairs, dtype=np.intp).reshape(-1, 2).T)]
                 + ch.patterns).ravel() for ch in chunks]),
        }
        for name, values in want.items():
            got = getattr(block.outcomes, name)
            assert got.dtype == values.dtype, name
            assert np.array_equal(got.view(np.uint64), values.view(np.uint64)), name
        # a unit per distinct row of a member's pattern rows, first seen first
        rows = block.outcomes.cd_pattern.reshape(-1, pop.days_sampled)
        _, first = np.unique(block.index.member_unit, return_index=True)
        assert len(first) == len(block.index.unit_wells) and np.all(np.diff(first) > 0)
        assert np.array_equal(first, np.sort(np.unique(rows, axis=0, return_index=True)[1]))
        assert np.array_equal(rows, rows[first][block.index.member_unit])
        index, rates, phis = reference_block(pop, chunks)
        copy, copy_rates, copy_phis = unit_per_member(block.index, block.rates, block.phis)
        for field in dataclasses.fields(UnitIndex):
            got, want = getattr(copy, field.name), getattr(index, field.name)
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got, want), field.name
        for got, want in ((copy_rates, rates), (copy_phis, phis)):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        references.append((index, rates, phis))
    # every block and every reference block side by side, a group per outcome
    laid_out = [
        (compile_index(side_by_side([ix for ix, _, _ in parts])),
         np.concatenate([r for _, r, _ in parts])[None],
         np.concatenate([p for _, _, p in parts])[None])
        for parts in ([(b.index, b.rates, b.phis) for b in blocks], references)]
    for cfg in all_configs(pop):
        ((got,), (want,)) = (evaluate([build_layout(ix, cfg)], y, phi)
                             for ix, y, phi in laid_out)
        for key in POPULATION_KEYS:
            for values in ("population", "strata"):
                g, w = getattr(got, values)[key], getattr(want, values)[key]
                assert g.dtype == w.dtype and same_bits(g, w), (cfg, values, key)


def shape_populations():
    """Two populations of each shape the oracle-plan benchmark draws."""
    rng = np.random.default_rng([1])
    return [gen.micro_population(rng, shape) for shape in gen.MICRO_SHAPES for _ in range(2)]


def pop_with_an_empty_draw():
    """Stage I draws one of three facilities, and F3 has no component; c1
    has a day without passes."""
    return MicroPopulation(
        strata={"S": StratumDef("S", 1, 3)},
        facilities={"F1": "S", "F2": "S", "F3": "S"},
        components=(
            MicroComponent("c2", "F2", ((MicroPass(5.0, 0.4), MicroPass(1.0, 0.9)),
                                        (MicroPass(2.0, 0.5),), ())),
            MicroComponent("c1", "F1", ((), (MicroPass(3.0, 0.7),), (MicroPass(7.0, 1.0),))),
        ),
        days_sampled=2,
    )


class TestWalkMatchesTheCellLoop:
    """`oracle._walk` counts each stage I draw's outcomes in one mixed-radix
    pass; the per-cell loop it replaced (`oracle_reference.reference_chunks`)
    is the reference, bit for bit, with blocks cut inside draws and cells."""

    @pytest.mark.parametrize("size", [1, 100, 300, 4096])
    def test_micro_a_and_an_empty_draw(self, micro_a, monkeypatch, size):
        monkeypatch.setattr(oracle, "OUTCOME_BLOCK", size)
        assert_walk_and_blocks_match_the_reference(micro_a)
        assert_walk_and_blocks_match_the_reference(pop_with_an_empty_draw())

    @pytest.mark.parametrize("size", [100, 300, 4096])
    def test_micro_b_and_the_benchmark_shapes(self, micro_b, monkeypatch, size):
        monkeypatch.setattr(oracle, "OUTCOME_BLOCK", size)
        for pop in [micro_b, *shape_populations()]:
            assert_walk_and_blocks_match_the_reference(pop)

    def test_an_empty_draw_has_one_outcome_without_units(self):
        pop = pop_with_an_empty_draw()
        (block,) = oracle._blocks(pop)
        empty = block.outcomes.stage1 == 2  # the draw of F3
        assert np.count_nonzero(empty) == 1
        assert block.outcomes.n_pairs[empty] == 0
        (dist,) = enumerate_outcomes(pop, cfg_b())
        assert dist.probabilities[empty] == 1.0 / 3
        assert dist.detection_prob[empty] == 1.0
        assert dist.totals[empty] == 0.0


class TestBlockBuilder:
    """`oracle._block` lays out a block with whole-array numpy; the chunk
    loop it replaced (`oracle_reference.reference_block`) is the reference."""

    @pytest.mark.parametrize("size", [100, 256, 4096])
    def test_micro_b(self, micro_b, monkeypatch, size):
        monkeypatch.setattr(oracle, "OUTCOME_BLOCK", size)
        assert_walk_and_blocks_match_the_reference(micro_b)

    def test_a_block_boundary_inside_a_cell(self, micro_b, monkeypatch):
        # micro_b's cells hold 256 outcomes: a block of 300 takes one whole
        # cell and the first 44 outcomes of the next
        monkeypatch.setattr(oracle, "OUTCOME_BLOCK", 300)
        blocks = list(oracle._blocks(micro_b))
        assert [len(b.outcomes.prob) for b in blocks[:-1]] == [300] * (len(blocks) - 1)
        assert blocks[0].outcomes.stage2[-1] == blocks[1].outcomes.stage2[0] == 1
        assert_walk_and_blocks_match_the_reference(micro_b)

    def test_two_strata_with_interleaved_facilities(self):
        day = (MicroPass(3.0, 0.7),)
        pop = MicroPopulation(
            strata={"S2": StratumDef("S2", 1, 1), "S1": StratumDef("S1", 1, 2)},
            facilities={"F1": "S1", "F2": "S1", "F3": "S2"},
            components=(
                MicroComponent("c1", "F2", (day, (MicroPass(5.0, 0.4), MicroPass(1.0, 0.9)))),
                MicroComponent("c2", "F1", ((MicroPass(2.0, 0.5),), day)),
                MicroComponent("c4", "F3", (day, ())),
            ),
            days_sampled=1,
        )
        assert_walk_and_blocks_match_the_reference(pop)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(case=block_populations())
    def test_generated_populations(self, case):
        pop, size = case
        with mock.patch.object(oracle, "OUTCOME_BLOCK", size):
            assert_walk_and_blocks_match_the_reference(pop)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(case=block_populations(wide_days=True))
    def test_generated_populations_with_days_of_3_to_5_passes(self, case):
        # a cell's pattern digits are decoded by shift and mask: digits of
        # 8-32 patterns beside narrow ones
        pop, size = case
        with mock.patch.object(oracle, "OUTCOME_BLOCK", size):
            assert_walk_and_blocks_match_the_reference(pop)


class TestGuards:
    @pytest.mark.parametrize("block, outcomes", [(oracle.OUTCOME_BLOCK, "0-7"), (1, "1-1")])
    @pytest.mark.parametrize("entry", [
        lambda pop, cfg: enumerate_outcomes(pop, [cfg, cfg_b()]),
        lambda pop, cfg: exact_stage_variances(pop, cfg),
    ], ids=["enumerate_outcomes", "exact_stage_variances"])
    def test_a_non_finite_estimate_names_its_configuration_and_outcomes(
            self, monkeypatch, entry, block, outcomes):
        # no Monte Carlo runs here, and the rates are true ones
        monkeypatch.setattr(oracle, "OUTCOME_BLOCK", block)
        pop = MicroPopulation(
            strata={"S": StratumDef("S", 1, 2)},
            facilities={"F1": "S", "F2": "S"},
            components=(
                MicroComponent("c1", "F1", ((MicroPass(1e300, 0.5),), (MicroPass(2.0, 0.5),))),
                MicroComponent("c2", "F2", ((MicroPass(3.0, 0.5),), (MicroPass(4.0, 0.5),))),
            ),
            days_sampled=1,
        )
        cfg = EstimatorConfig(estimator="hajek", stage2="year", horizon=2)
        with pytest.raises(EstimationError) as failed:
            entry(pop, cfg)
        assert type(failed.value) is EstimationError
        assert str(failed.value) == (
            f"configuration 0 (hajek, modified plan, year:2), outcomes {outcomes}: an "
            "estimate is not finite (a rate too large to estimate with?)")

    def test_size_limit(self, micro_b, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_OUTCOMES", 10)
        with pytest.raises(ValueError, match=r"outcomes \(limit 10\)"):
            enumerate_outcomes(micro_b, cfg_b())

    @pytest.mark.parametrize("entry", [
        lambda pop: enumerate_outcomes(pop, cfg_b()),
        lambda pop: exact_stage_variances(pop, cfg_b()),
        outcome_probabilities,
    ], ids=["enumerate_outcomes", "exact_stage_variances", "outcome_probabilities"])
    def test_every_entry_point_bounded(self, entry):
        # 2 day choices x 2^21 detection patterns exceed the default limit
        day = tuple(MicroPass(1.0, 0.5) for _ in range(21))
        pop = MicroPopulation(
            strata={"S": StratumDef("S", 1, 1)},
            facilities={"F1": "S"},
            components=(MicroComponent("c1", "F1", (day, day)),),
            days_sampled=1,
        )
        assert 2 * 2**21 > MAX_OUTCOMES
        with pytest.raises(ValueError, match="outcomes"):
            entry(pop)

    def test_population_consistency_checks(self):
        with pytest.raises(ValueError):
            MicroPopulation(
                strata={"S": StratumDef("S", 1, 2)},
                facilities={"F1": "S"},  # claims N=2 but defines one facility
                components=(MicroComponent("c1", "F1", ((MicroPass(1.0, 0.5),),)),),
                days_sampled=1,
            )
