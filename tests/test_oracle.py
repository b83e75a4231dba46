"""Enumeration oracle tests: exact unbiasedness and the variance split.

The enumeration itself is the independent oracle for the estimator stack;
here it is additionally cross-checked against a direct Monte Carlo draw of
the sampling process, so the two computations of every expectation are
independent of each other and of the implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msinv.estimators import EstimatorConfig
from msinv.frame import StratumDef
from msinv.oracle import (
    MAX_OUTCOMES,
    MicroComponent,
    MicroPass,
    MicroPopulation,
    enumerate_outcomes,
    exact_stage_variances,
    micro_from_json,
    outcome_probabilities,
    true_total,
)


def cfg_b(**kw):
    return EstimatorConfig(stage2="year", horizon=3, **kw)


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


class TestMicroA:
    def test_support_and_mean(self, micro_a):
        (dist,) = enumerate_outcomes(micro_a, EstimatorConfig(stage2="year", horizon=2))
        support = dist.support_totals()
        assert support == {4.0: pytest.approx(0.5), 6.0: pytest.approx(0.5)}
        assert dist.mean_total() == pytest.approx(5.0, abs=1e-12)


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
        assert dist.support_totals() == {5.0: pytest.approx(1.0)}
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

    def test_stagewise_unbiasedness_corrected(self, micro_b, dist_b):
        v1, v2, v3 = exact_stage_variances(micro_b, cfg_b())
        for stage, exact in (("stage1", v1), ("stage2", v2), ("stage3", v3)):
            est = dist_b.expected_part(stage)
            assert abs(est - exact) / exact <= 1e-8

    def test_printed_decomposition_fails_stagewise(self, micro_b, dist_b):
        (printed,) = enumerate_outcomes(micro_b, cfg_b(decomposition="printed"))
        _, _, v3 = exact_stage_variances(micro_b, cfg_b())
        rel_err = abs(printed.expected_part("stage3") - v3) / v3
        assert rel_err > 1e-3  # off by a factor of the horizon
        assert printed.expected_part("stage3") == pytest.approx(
            3 * dist_b.expected_part("stage3"), rel=1e-12
        )

    def test_stage_parts_sum_to_variance(self, micro_b, dist_b):
        v1, v2, v3 = exact_stage_variances(micro_b, cfg_b())
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
        """Independent simulation of the three-stage draw reproduces E[That]."""
        rng = np.random.default_rng(20211103)
        from msinv.estimators import ComponentObs, DayObs, estimate_survey

        n_draws = 60_000
        totals = np.empty(n_draws)
        comps = micro_b.components
        facs = sorted(micro_b.facilities)
        for it in range(n_draws):
            sampled_facs = set(rng.choice(facs, size=2, replace=False))
            obs = []
            for c in comps:
                if c.facility_id not in sampled_facs:
                    continue
                days = rng.choice(3, size=2, replace=False)
                day_obs = []
                for t_ in days:
                    rates, phis = [], []
                    for p in c.days[t_]:
                        if rng.random() < p.phi:
                            rates.append(p.rate)
                            phis.append(p.phi)
                    day_obs.append(DayObs(int(t_), len(c.days[t_]),
                                          tuple(rates), tuple(phis)))
                obs.append(ComponentObs(c.component_id, c.facility_id, "S",
                                        days=tuple(day_obs)))
            totals[it] = estimate_survey(obs, micro_b.strata, cfg_b()).total
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


class TestGuards:
    def test_size_limit(self, micro_b):
        with pytest.raises(ValueError, match="outcomes"):
            enumerate_outcomes(micro_b, cfg_b(), max_outcomes=10)

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


class TestJsonFixtureFormat:
    def test_round_trip(self, micro_b, tmp_path):
        doc = {
            "strata": {"S": {"n_sampled": 2, "n_population": 3}},
            "facilities": {"F1": "S", "F2": "S", "F3": "S"},
            "days_sampled": 2,
            "components": [
                {
                    "component_id": c.component_id,
                    "facility_id": c.facility_id,
                    "days": [
                        [{"rate": p.rate, "phi": p.phi} for p in day] for day in c.days
                    ],
                }
                for c in micro_b.components
            ],
        }
        import json

        path = tmp_path / "micro.json"
        path.write_text(json.dumps(doc))
        loaded = micro_from_json(path)
        assert loaded == micro_b
        assert micro_from_json(doc) == micro_b
