"""Estimation core tests.

Where the implementation uses a closed form, the expected value here is
computed by an independent route: the textbook two-stage SRS expression for
the IPW component variance, a literal term-by-term evaluation of the Hajek
display, or the generic double-sum estimator.
"""

import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from msinv.estimators import (
    EstimationError,
    EstimatorConfig,
    estimate_survey as kernel_estimate_survey,
    prepare_components,
    total_inventory,
    wald_ci,
)
from msinv.datasets import packaged_subset_paths
from msinv.frame import ComponentRef, FrameError, StratumDef, load_survey
from msinv.measurement import iteration_uniforms
from msinv.pod import PHI_FLOOR, bias_correct, pod, sample_true_rate
from msinv.reporting import KG_H_PER_KT_Y

import estimator_reference
from conftest import random_frame
from estimator_reference import (
    ComponentEstimate, ComponentObs, DailyEstimate, _estimate_component, component_srs_hajek,
    daily_estimate, estimate_survey, hajek_daily, hajek_daily_var, impute_component_variance,
    ipw_daily, ipw_daily_var, phi_any_detection, starred_daily, stratum_total, wells_allocate,
)
from frame_reference import Pass, frame_from_passes
from test_batch import DESIGNS, survey_frames


class TestDailyIpw:
    def test_single_detection(self):
        d = ipw_daily([(2.0, 0.5)], 2)
        assert d.mean_rate == pytest.approx(2.0)
        assert d.var == pytest.approx(2.0)

    def test_empty_sum_is_zero(self):
        assert ipw_daily([], 3).mean_rate == 0.0

    def test_full_detection_is_plain_average(self):
        d = ipw_daily([(1.0, 1.0), (3.0, 1.0)], 2)
        assert d.mean_rate == pytest.approx(2.0)
        assert d.var == 0.0

    def test_var_single_low_pod(self):
        assert ipw_daily_var([(1.0, 0.25)], 1) == pytest.approx(12.0)

    def test_too_many_detections(self):
        with pytest.raises(EstimationError):
            ipw_daily([(1.0, 0.5), (1.0, 0.5)], 1)

    def test_nonpositive_phi(self):
        with pytest.raises(EstimationError):
            ipw_daily([(1.0, 0.0)], 1)


def hajek_var_display(detections, q_total, phi_hat):
    """Literal evaluation of the published Hajek daily variance display."""
    num = sum(y / p for y, p in detections)
    den = sum(1.0 / p for _, p in detections)
    yhat = num / den
    t1 = sum((1 - p) * ((y - yhat) / p) ** 2 for y, p in detections)
    t2 = (phi_hat - 1) * sum((y - yhat) / p for y, p in detections) ** 2
    return phi_hat / q_total**2 * (t1 + t2)


class TestDailyHajek:
    def test_equal_weights_cancel(self):
        d = hajek_daily([(1.0, 0.7), (3.0, 0.7)], 2, 0.91)
        assert d.mean_rate == pytest.approx(2.0)

    def test_single_detection_is_itself(self):
        d = hajek_daily([(5.0, 0.3)], 2, 0.51)
        assert d.mean_rate == pytest.approx(5.0)
        assert d.var == 0.0

    def test_two_detections(self):
        d = hajek_daily([(2.0, 0.5), (4.0, 0.25)], 2, 0.9)
        assert d.mean_rate == pytest.approx(10.0 / 3.0)

    def test_empty_is_undefined(self):
        with pytest.raises(EstimationError):
            hajek_daily([], 2, 0.5)

    def test_var_full_detection_is_zero(self):
        assert hajek_daily_var([(2.0, 1.0), (4.0, 1.0)], 2, 1.0) == 0.0

    def test_var_hand_value(self):
        got = hajek_daily_var([(2.0, 0.5), (4.0, 0.5)], 2, 0.75)
        assert got == pytest.approx(0.75)
        assert got == pytest.approx(hajek_var_display([(2.0, 0.5), (4.0, 0.5)], 2, 0.75))

    def test_var_matches_display_on_random_days(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            dets = [(float(rng.uniform(1, 50)), float(rng.uniform(0.2, 1.0)))
                    for _ in range(k)]
            q = k + int(rng.integers(0, 3))
            misses = q - k
            mu = sum(p for _, p in dets) / k
            phi_hat = 1 - (1 - mu) ** misses * math.prod(1 - p for _, p in dets)
            expected = max(0.0, hajek_var_display(dets, q, phi_hat))
            assert hajek_daily_var(dets, q, phi_hat) == pytest.approx(expected, rel=1e-12)


class TestDailyEstimate:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.01, 1.0)), max_size=4),
        st.integers(0, 3),
        st.sampled_from(["ipw", "hajek"]),
    )
    def test_equals_the_daily_estimators(self, detections, misses, estimator):
        rates = [y for y, _ in detections]
        phis = [p for _, p in detections]
        q = max(1, len(detections) + misses)
        got = daily_estimate(rates, phis, q, estimator, day_id=7)
        if not detections:
            assert got == DailyEstimate(0.0, 0.0, day_id=7, n_passes=q)
            return
        phi_hat = phi_any_detection(phis, q - len(phis))
        if estimator == "hajek":
            want = hajek_daily(detections, q, phi_hat, day_id=7)
        else:
            want = ipw_daily(detections, q, day_id=7)
            want.phi_hat = phi_hat
        assert got == want
        assert got.phi_hat is not None
        assert (got.mean_rate.hex(), got.var.hex()) == (want.mean_rate.hex(), want.var.hex())

    @pytest.mark.parametrize("estimator", ["ipw", "hajek"])
    def test_day_without_detection_is_zero(self, estimator):
        got = daily_estimate((), (), 3, estimator, day_id=2)
        assert (got.mean_rate, got.var) == (0.0, 0.0)
        assert got.phi_hat is None
        assert got.n_detected == 0


def daily_var_generic(detections, q_total: int, pi_marginal, pi_joint) -> float:
    """Horvitz-Thompson variance estimate of a daily mean under arbitrary
    within-day inclusion probabilities.

    ``pi_marginal[i]`` is the inclusion probability of detection i and
    ``pi_joint[i][j]`` the pairwise probability (diagonal equal to the
    marginal).  Reduces to `ipw_daily_var` under Poisson probabilities.
    """
    k = len(detections)
    if len(pi_marginal) != k or len(pi_joint) != k or any(len(r) != k for r in pi_joint):
        raise EstimationError("joint-probability table incomplete")
    for i in range(k):
        if not math.isclose(pi_joint[i][i], pi_marginal[i], rel_tol=1e-9):
            raise EstimationError("joint-probability diagonal must equal the marginals")
        for j in range(i):
            if not math.isclose(pi_joint[i][j], pi_joint[j][i], rel_tol=1e-9):
                raise EstimationError("joint-probability table must be symmetric")
    total = 0.0
    for i, (yi, _) in enumerate(detections):
        zi = yi / pi_marginal[i]
        for j, (yj, _) in enumerate(detections):
            zj = yj / pi_marginal[j]
            pij = pi_joint[i][j]
            total += (pij - pi_marginal[i] * pi_marginal[j]) / pij * zi * zj
    return total / (q_total * q_total)


def component_srs_ipw(daily, d_p: int, horizon: int) -> ComponentEstimate:
    """Aggregate IPW daily estimates over an SRS of d_p out of D days.

    The textbook form of the original plan.  ``daily`` must cover every
    surveyed day, zero-detection days included as (0, 0).  Uses the
    closed-form SRS variance

        (1/D^2)[ sum_t (D-d)D/(d(d-1)) Yhat_t^2
                 + D(d-D)/(d^2(d-1)) (sum_t Yhat_t)^2
                 + sum_t (D/d) Vhat_t ].
    """
    if d_p < 2:
        raise EstimationError("single-day components route through variance imputation")
    if len(daily) != d_p:
        raise EstimationError(f"expected {d_p} daily estimates, got {len(daily)}")
    if d_p > horizon:
        raise EstimationError(f"d_p={d_p} exceeds the horizon D={horizon}")
    s1 = sum(d.mean_rate for d in daily)
    s2 = sum(d.mean_rate**2 for d in daily)
    sv = sum(d.var for d in daily)
    a = (horizon - d_p) * horizon / (d_p * (d_p - 1))
    b = horizon * (d_p - horizon) / (d_p * d_p * (d_p - 1))
    var = (a * s2 + b * s1 * s1 + (horizon / d_p) * sv) / (horizon * horizon)
    return ComponentEstimate(
        component_id="",
        mean_rate=s1 / d_p,
        var=max(0.0, var),
        var_stage3_part=sv / (d_p * d_p),
        horizon=horizon,
        n_usable_days=d_p,
    )


def original_plan_component(daily, d_p: int, horizon: int):
    """The production path for `component_srs_ipw`: (estimate, needs_pooling)."""
    assert len(daily) == d_p
    comp = ComponentObs("c", "f", "S", tuple(daily))
    return _estimate_component(comp, EstimatorConfig(horizon=horizon))


def production_srs_ipw(daily, d_p: int, horizon: int) -> ComponentEstimate:
    est, needs_pool = original_plan_component(daily, d_p, horizon)
    assert not needs_pool
    return est


def component_generic(daily, pi2_marginal, pi2_joint, horizon: int) -> ComponentEstimate:
    """Aggregate daily estimates under arbitrary day inclusion probabilities.

    The general two-stage variance estimator

        (1/D^2)[ sum_t sum_u (pi_tu - pi_t pi_u)/pi_tu (Yhat_t/pi_t)(Yhat_u/pi_u)
                 + sum_t Vhat_t / pi_t ]

    with ``pi2_joint`` a full symmetric table whose diagonal equals the
    marginals.  Matches the SRS closed forms when fed SRS probabilities, and
    the starred closed form when fed `starred_day_joint` probabilities.
    """
    m = len(daily)
    if len(pi2_marginal) != m or len(pi2_joint) != m or any(len(r) != m for r in pi2_joint):
        raise EstimationError("joint-probability table incomplete")
    for i in range(m):
        if not math.isclose(pi2_joint[i][i], pi2_marginal[i], rel_tol=1e-9):
            raise EstimationError("joint-probability diagonal must equal the marginals")
        for j in range(i):
            if not math.isclose(pi2_joint[i][j], pi2_joint[j][i], rel_tol=1e-9):
                raise EstimationError("joint-probability table must be symmetric")
    zs = [d.mean_rate / p for d, p in zip(daily, pi2_marginal)]
    dsum = 0.0
    for i in range(m):
        for j in range(m):
            pij = pi2_joint[i][j]
            dsum += (pij - pi2_marginal[i] * pi2_marginal[j]) / pij * zs[i] * zs[j]
    bsum = sum(d.var / p for d, p in zip(daily, pi2_marginal))
    stage3 = sum(d.var / (p * p) for d, p in zip(daily, pi2_marginal)) / (horizon * horizon)
    return ComponentEstimate(
        component_id="",
        mean_rate=sum(zs) / horizon,
        var=(dsum + bsum) / (horizon * horizon),
        var_stage3_part=stage3,
        horizon=horizon,
        n_usable_days=m,
    )


def starred_day_joint(phis, d_p: int, horizon: int):
    """Joint day inclusion probabilities of the starred day design, as a full table."""
    m = len(phis)
    base = d_p * (d_p - 1) / (horizon * (horizon - 1)) if horizon > 1 else 0.0
    joint = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j:
                joint[i][j] = phis[i] * d_p / horizon
            else:
                joint[i][j] = phis[i] * phis[j] * base
    return joint


class TestGenericDailyVariance:
    def test_poisson_reduces_to_closed_form(self):
        dets = [(2.0, 0.5), (4.0, 0.8), (1.0, 0.9)]
        marg = [p for _, p in dets]
        joint = [[marg[i] * marg[j] if i != j else marg[i] for j in range(3)]
                 for i in range(3)]
        assert daily_var_generic(dets, 4, marg, joint) == pytest.approx(
            ipw_daily_var(dets, 4), rel=1e-12
        )

    def test_starred_shortcut_matches_generic(self):
        dets = [(2.0, 0.5), (4.0, 0.8)]
        phi_hat = 1 - (1 - 0.65) * (1 - 0.5) * (1 - 0.8)  # one miss imputed at the mean
        base = ipw_daily(dets, 3)
        marg = [p / phi_hat for _, p in dets]
        joint = [
            [marg[0], 0.5 * 0.8 / phi_hat],
            [0.5 * 0.8 / phi_hat, marg[1]],
        ]
        assert starred_daily(base, phi_hat).var == pytest.approx(
            daily_var_generic(dets, 3, marg, joint), rel=1e-12
        )

    def test_rejects_asymmetric_table(self):
        dets = [(2.0, 0.5), (4.0, 0.8)]
        with pytest.raises(EstimationError, match="symmetric"):
            daily_var_generic(dets, 2, [0.5, 0.8], [[0.5, 0.4], [0.3, 0.8]])


def srs_ipw_textbook(daily_means, daily_vars, d_p, horizon):
    """Independent two-stage SRS oracle: (1-f) s^2/d + sum(V)/(D d)."""
    s2 = np.var(daily_means, ddof=1)
    return (1 - d_p / horizon) * s2 / d_p + sum(daily_vars) / (horizon * d_p)


# the textbook checks run on the reference and on the production path
SRS_IPW_PATHS = pytest.mark.parametrize("component_srs_ipw",
                                        [component_srs_ipw, production_srs_ipw],
                                        ids=["reference", "production"])


@SRS_IPW_PATHS
class TestComponentSrsIpw:
    def test_census_of_days(self, component_srs_ipw):
        daily = [DailyEstimate(4.0, 0.0, n_detected=1), DailyEstimate(6.0, 0.0, n_detected=1)]
        est = component_srs_ipw(daily, 2, 2)
        assert est.mean_rate == pytest.approx(5.0)
        assert est.var == 0.0

    def test_matches_textbook_form(self, component_srs_ipw):
        daily = [DailyEstimate(4.0, 0.0, n_detected=1), DailyEstimate(6.0, 0.0, n_detected=1)]
        est = component_srs_ipw(daily, 2, 365)
        assert est.mean_rate == pytest.approx(5.0)
        assert est.var == pytest.approx(srs_ipw_textbook([4, 6], [0, 0], 2, 365), rel=1e-12)

    def test_zero_padded_day(self, component_srs_ipw):
        daily = [DailyEstimate(0.0, 0.0), DailyEstimate(8.0, 0.0, n_detected=1)]
        est = component_srs_ipw(daily, 2, 365)
        assert est.mean_rate == pytest.approx(4.0)
        assert est.var == pytest.approx(srs_ipw_textbook([0, 8], [0, 0], 2, 365), rel=1e-12)

    def test_random_days_match_textbook(self, component_srs_ipw):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d_p = int(rng.integers(2, 6))
            horizon = int(rng.integers(d_p, 400))
            means = rng.uniform(0, 30, d_p)
            vs = rng.uniform(0, 5, d_p)
            daily = [DailyEstimate(float(m), float(v), n_detected=1)
                     for m, v in zip(means, vs)]
            est = component_srs_ipw(daily, d_p, horizon)
            assert est.var == pytest.approx(
                srs_ipw_textbook(means, vs, d_p, horizon), rel=1e-10
            )

    def test_single_day_routes_to_imputation(self, component_srs_ipw):
        day = DailyEstimate(4.0, 0.5, n_detected=1)
        if component_srs_ipw is production_srs_ipw:
            est, needs_pool = original_plan_component([day], 1, 365)
            assert needs_pool and math.isnan(est.var)
            assert (est.mean_rate, est.var_stage3_part, est.n_usable_days) == (4.0, 0.5, 1)
        else:
            with pytest.raises(EstimationError):
                component_srs_ipw([day], 1, 365)


def hajek_component_display(daily_means, daily_vars, phi_hats, d_p, horizon):
    """Literal evaluation of the published Hajek component variance display."""
    ratios = [m / p for m, p in zip(daily_means, phi_hats)]
    t1 = sum(
        horizon * (horizon - 1 - p * (d_p - 1)) / (d_p * (d_p - 1)) * r * r
        for r, p in zip(ratios, phi_hats)
    )
    t2 = horizon * (d_p - horizon) / (d_p**2 * (d_p - 1)) * sum(ratios) ** 2
    t3 = sum(horizon / (d_p * p) * v for v, p in zip(daily_vars, phi_hats))
    return (t1 + t2 + t3) / horizon**2


class TestComponentSrsHajek:
    def test_full_phi_reduces_to_ipw(self):
        daily = [DailyEstimate(4.0, 0.3, n_detected=2), DailyEstimate(6.0, 0.1, n_detected=1)]
        hajek = component_srs_hajek(daily, 2, 365, [1.0, 1.0])
        ipw = component_srs_ipw(daily, 2, 365)
        assert hajek.mean_rate == pytest.approx(ipw.mean_rate)
        assert hajek.var == pytest.approx(ipw.var, rel=1e-12)

    def test_two_detection_days_display_value(self):
        daily = [DailyEstimate(2.0, 0.0, n_detected=1), DailyEstimate(4.0, 0.0, n_detected=1)]
        est = component_srs_hajek(daily, 2, 365, [0.75, 0.9])
        expected = hajek_component_display([2.0, 4.0], [0.0, 0.0], [0.75, 0.9], 2, 365)
        assert est.var == pytest.approx(expected, rel=1e-12)
        assert est.mean_rate == pytest.approx((2.0 / 0.75 + 4.0 / 0.9) / 2)

    def test_census_days_with_full_phi(self):
        daily = [DailyEstimate(4.0, 0.3, n_detected=1), DailyEstimate(6.0, 0.5, n_detected=1)]
        est = component_srs_hajek(daily, 2, 2, [1.0, 1.0])
        assert est.var == pytest.approx((0.3 + 0.5) / 4, rel=1e-12)

    def test_single_detection_day_routes_to_imputation(self):
        with pytest.raises(EstimationError):
            component_srs_hajek([DailyEstimate(4.0, 0.0, n_detected=1)], 2, 365, [0.8])


class TestComponentGeneric:
    def test_equals_srs_closed_form(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d_p = int(rng.integers(2, 5))
            horizon = int(rng.integers(d_p, 50))
            daily = [
                DailyEstimate(float(rng.uniform(0, 20)), float(rng.uniform(0, 3)), n_detected=1)
                for _ in range(d_p)
            ]
            f = d_p / horizon
            j = d_p * (d_p - 1) / (horizon * (horizon - 1)) if horizon > 1 else f
            joint = [[f if i == k else j for k in range(d_p)] for i in range(d_p)]
            generic = component_generic(daily, [f] * d_p, joint, horizon)
            closed = component_srs_ipw(daily, d_p, horizon)
            assert generic.mean_rate == pytest.approx(closed.mean_rate, rel=1e-12)
            assert generic.var == pytest.approx(closed.var, rel=1e-12, abs=1e-12)

    def test_census_days(self):
        daily = [DailyEstimate(4.0, 0.3), DailyEstimate(6.0, 0.5)]
        est = component_generic(daily, [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], 2)
        assert est.var == pytest.approx((0.3 + 0.5) / 4)

    def test_incomplete_table_rejected(self):
        with pytest.raises(EstimationError):
            component_generic([DailyEstimate(4.0, 0.0)], [0.5], [], 2)


@st.composite
def starred_days(draw):
    """(means, vars, phis, d_p, horizon): m of d_p surveyed days with a detection."""
    d_p = draw(st.integers(2, 6))
    extra_days = draw(st.integers(0, 400))
    m = draw(st.integers(1, d_p))
    draws = [draw(st.lists(values, min_size=m, max_size=m))
             for values in (st.floats(0.0, 1e3), st.floats(0.0, 1e2), st.floats(0.05, 1.0))]
    return (*draws, d_p, d_p + extra_days)


class TestStarredDayJoint:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), d_p=st.integers(2, 6), extra_days=st.integers(0, 400))
    def test_starred_probability_bounds(self, data, d_p, extra_days):
        horizon = d_p + extra_days
        phis = data.draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=d_p))
        joint = starred_day_joint(phis, d_p, horizon)
        marg = [ph * d_p / horizon for ph in phis]
        for t, row in enumerate(joint):
            assert row[t] == pytest.approx(marg[t], rel=1e-15)
            for u, pi_tu in enumerate(row):
                assert pi_tu == joint[u][t]
                assert 0 < pi_tu <= min(marg[t], marg[u]) * (1 + 1e-12)
        daily = [DailyEstimate(1.0 + t, 0.1, n_detected=1) for t in range(len(phis))]
        assert math.isfinite(component_generic(daily, marg, joint, horizon).var)

    @staticmethod
    def assert_closed_form_is_generic(means, vars_, phis, d_p, horizon):
        """IPW on the modified plan against the double sum over the starred table.

        The first ``len(phis)`` of ``d_p`` surveyed days have a detection.
        """
        m = len(phis)
        dailies = [DailyEstimate(y, v, phi_hat=ph, n_detected=1, day_id=t)
                   for t, (y, v, ph) in enumerate(zip(means, vars_, phis))]
        dailies += [DailyEstimate(0.0, 0.0, day_id=t) for t in range(m, d_p)]
        cfg = EstimatorConfig(plan="modified", horizon=horizon)
        got, needs_pool = _estimate_component(ComponentObs("c", "f", "S", tuple(dailies)), cfg)
        assert not needs_pool
        assert got.n_usable_days == d_p
        starred = [starred_daily(d, ph) for d, ph in zip(dailies, phis)]
        marg = [ph * d_p / horizon for ph in phis]
        want = component_generic(starred, marg, starred_day_joint(phis, d_p, horizon), horizon)
        # both variance parts are sums of terms of either sign; compare them
        # on the scale of those terms
        scale = (sum((d.mean_rate / p) ** 2 for d, p in zip(starred, marg))
                 + sum(abs(d.var) / p for d, p in zip(starred, marg))) / horizon**2
        scale3 = sum(abs(d.var) / (p * p) for d, p in zip(starred, marg)) / horizon**2
        assert got.mean_rate == pytest.approx(want.mean_rate, rel=1e-12)
        # the floor: a subnormal part has no relative digits, and its scale
        # times 1e-12 underflows to 0.0
        assert got.var == pytest.approx(want.var, rel=1e-12,
                                        abs=1e-12 * scale + sys.float_info.min)
        assert got.var_stage3_part == pytest.approx(want.var_stage3_part, rel=1e-12,
                                                    abs=1e-12 * scale3 + sys.float_info.min)

    @settings(max_examples=200, deadline=None)
    @given(case=starred_days())
    # var_stage3_part is a subnormal, rounded to 0.0 by one path, 5e-324 by the other
    @example(case=([0.0], [5e-324], [0.6875], 2, 3))
    def test_closed_form_equals_generic(self, case):
        self.assert_closed_form_is_generic(*case)

    @pytest.mark.parametrize("d_p,horizon", [(2, 2), (3, 365)])
    def test_one_detection_day_of_several(self, d_p, horizon):
        # full under IPW on the modified plan, pooled under Hajek
        self.assert_closed_form_is_generic([7.5], [1.25], [0.4], d_p, horizon)


class TestImputation:
    def _estimate(self, var, usable=3, **kw):
        return ComponentEstimateFactory(var=var, n_usable_days=usable, **kw)

    def test_peer_average(self):
        target = DailyEstimateTarget()
        peers = [
            _ce("p1", var=2.0, usable=3),
            _ce("p2", var=4.0, usable=2),
            target,
        ]
        done = impute_component_variance(target, peers)
        assert done.var == pytest.approx(3.0)
        assert done.pooled_variance

    def test_no_peers_imputes_zero(self):
        target = DailyEstimateTarget()
        done = impute_component_variance(target, [target])
        assert done.var == 0.0

    def test_zero_emitters_are_not_peers(self):
        target = DailyEstimateTarget()
        zero = _ce("z", var=5.0, usable=3)
        zero.zero_emitter = True
        done = impute_component_variance(target, [zero, target])
        assert done.var == 0.0


def _ce(cid, var, usable):
    from estimator_reference import ComponentEstimate

    return ComponentEstimate(cid, 1.0, var, 0.0, 365, n_usable_days=usable)


def DailyEstimateTarget():
    from estimator_reference import ComponentEstimate

    return ComponentEstimate("t", 5.0, math.nan, 0.1, 365, n_usable_days=1)


def ComponentEstimateFactory(var, n_usable_days, **kw):
    from estimator_reference import ComponentEstimate

    return ComponentEstimate("x", 1.0, var, 0.0, 365, n_usable_days=n_usable_days, **kw)


class TestWellsAllocation:
    def test_single_detected_well(self):
        dailies = [DailyEstimate(8.0, 0.0, n_detected=1, day_id=3)]
        shares = wells_allocate(dailies, 4)
        assert shares[3] == (pytest.approx(2.0), 0.0)

    def test_no_detections_all_zero(self):
        dailies = [DailyEstimate(0.0, 0.0, day_id=3)]
        assert wells_allocate(dailies, 4)[3] == (0.0, 0.0)

    def test_two_wells_share(self):
        dailies = [
            DailyEstimate(3.0, 1.0, n_detected=1, day_id=1),
            DailyEstimate(5.0, 1.0, n_detected=1, day_id=1),
        ]
        shares = wells_allocate(dailies, 2)
        mean, var = shares[1]
        assert mean == pytest.approx(4.0)
        assert var == pytest.approx(0.5)

    def test_detections_without_registered_wells(self):
        with pytest.raises(EstimationError):
            wells_allocate([DailyEstimate(3.0, 0.0, n_detected=1, day_id=1)], 0)


class TestStratumTotal:
    def test_census_single_component(self):
        from estimator_reference import ComponentEstimate

        stratum = StratumDef("A", 1, 1)
        comp = ComponentEstimate("c", 5.0, 0.2, 0.1, 365, facility_id="f", stratum="A")
        se = stratum_total(stratum, [comp])
        assert se.total == pytest.approx(5.0)
        assert se.u1 == pytest.approx(0.0, abs=1e-15)

    def test_zero_emitting_stratum(self):
        from estimator_reference import ComponentEstimate

        stratum = StratumDef("A", 2, 4)
        comps = [
            ComponentEstimate(f"c{i}", 0.0, 0.0, 0.0, 365, facility_id=f"f{i}",
                              stratum="A", zero_emitter=True)
            for i in range(2)
        ]
        se = stratum_total(stratum, comps)
        assert se.total == 0.0
        assert se.v3stage == 0.0
        assert (se.v1, se.v2, se.v3) == (0.0, 0.0, 0.0)

    def test_double_sum_oracle_two_components_same_facility(self):
        # two components clustered in one facility, pi = 1/2: evaluate the
        # published double sum literally and compare
        from estimator_reference import ComponentEstimate

        stratum = StratumDef("A", 1, 2)
        comps = [
            ComponentEstimate("c1", 3.0, 0.5, 0.2, 365, facility_id="f", stratum="A"),
            ComponentEstimate("c2", 7.0, 1.0, 0.3, 365, facility_id="f", stratum="A"),
        ]
        f = 0.5
        means = [3.0, 7.0]
        a1 = 0.0
        for yp in means:
            for yl in means:
                # same facility: joint probability equals the marginal
                a1 += (f - f * f) / f * (yp / f) * (yl / f)
        expected = a1 + (0.5 + 1.0) / f
        se = stratum_total(stratum, comps)
        assert se.v3stage == pytest.approx(expected, rel=1e-12)


class TestWaldCi:
    def test_textbook_values(self):
        lo, hi = wald_ci(10.0, 4.0, 0.95)
        assert lo == pytest.approx(6.08, abs=0.01)
        assert hi == pytest.approx(13.92, abs=0.01)

    def test_zero_variance(self):
        assert wald_ci(10.0, 0.0, 0.95) == (10.0, 10.0)

    def test_symmetry(self):
        lo, hi = wald_ci(50.0, 9.0, 0.9)
        assert hi - 50.0 == pytest.approx(50.0 - lo)

    def test_domain(self):
        with pytest.raises(EstimationError):
            wald_ci(1.0, -1.0, 0.95)
        with pytest.raises(EstimationError):
            wald_ci(1.0, 1.0, 1.5)

    def test_arrays_equal_the_scalar_calls(self):
        estimates = np.array([[10.0, -3.5, 0.0], [1e6, 7.25, 2.0]])
        variances = np.array([[4.0, 0.0, 1e-300], [3e11, 0.5, 9.0]])
        lo, hi = wald_ci(estimates, variances, 0.9)
        assert lo.shape == hi.shape == estimates.shape
        for idx in np.ndindex(estimates.shape):
            assert (lo[idx], hi[idx]) == wald_ci(float(estimates[idx]), float(variances[idx]), 0.9)
        with pytest.raises(EstimationError):
            wald_ci(estimates, -variances, 0.9)


# ---------------------------------------------------------------------------
# Whole-pipeline invariants on randomized frames
# ---------------------------------------------------------------------------


class TestDesignEquivalence:
    def test_modified_plan_identical_for_ipw(self):
        for seed in range(100):
            frame = random_frame(seed)
            a = total_inventory(frame, EstimatorConfig(estimator="ipw", plan="original"))
            b = total_inventory(frame, EstimatorConfig(estimator="ipw", plan="modified"))
            assert math.isclose(a.total, b.total, rel_tol=1e-12, abs_tol=1e-15)
            assert math.isclose(a.var_design, b.var_design, rel_tol=1e-12, abs_tol=1e-12)


class TestDecomposition:
    def test_identity_and_additivity(self):
        n_unclipped = 0
        for seed in range(100):
            frame = random_frame(seed)
            rep = total_inventory(frame, EstimatorConfig())
            # additivity of the design variance across strata, always
            stratum_design = sum(
                r.unclipped["var_stage1"] + r.unclipped["var_stage2"]
                + r.unclipped["var_stage3"]
                for r in rep.strata
            )
            assert math.isclose(stratum_design, rep.var_design,
                                rel_tol=1e-12, abs_tol=1e-12)
            # the clipped split resums to the design variance when no
            # clipping was active
            unclipped = rep.unclipped
            clipped = (rep.var_stage1, rep.var_stage2, rep.var_stage3)
            if all(u >= 0 for u in unclipped.values()):
                n_unclipped += 1
                assert math.isclose(sum(clipped), rep.var_design,
                                    rel_tol=1e-12, abs_tol=1e-12)
        assert n_unclipped >= 50  # the check must actually bite

    def test_observed_mode_kills_stage2(self):
        for seed in range(20):
            rep = total_inventory(random_frame(seed),
                                  EstimatorConfig(estimator="ipw", stage2="observed"))
            assert rep.var_stage2 == 0.0
            assert rep.unclipped["var_stage2"] == pytest.approx(0.0, abs=1e-12)

    def test_point_estimate_free_of_horizon(self):
        frame = random_frame(7)
        t365 = total_inventory(frame, EstimatorConfig(stage2="year", horizon=365)).total
        tobs = total_inventory(frame, EstimatorConfig(stage2="observed")).total
        t100 = total_inventory(frame, EstimatorConfig(stage2="year", horizon=100)).total
        assert t365 == pytest.approx(tobs, rel=1e-12)
        assert t365 == pytest.approx(t100, rel=1e-12)


def observed_component(cid, fid, days, estimator="ipw"):
    """A ComponentObs in stratum A from raw (day, Q_pt, rates, phis) days."""
    dailies = tuple(daily_estimate(rates, phis, q, estimator, day_id=day)
                    for day, q, rates, phis in days)
    return ComponentObs(cid, fid, "A", dailies)


class TestPipelineBehaviors:
    def _one_component_frame(self, rate=1.0, phi_target=None):
        # one census component detected on both of two days, faked wind and
        # altitude such that POD is essentially 1 for a large rate
        passes = tuple(
            Pass("c1", day, 1, True, rate, 3.0, 150.0) for day in (1, 2)
        )
        return frame_from_passes(
            strata={"A": StratumDef("A", 1, 1)},
            components={"c1": ComponentRef("c1", "f1", "s1", "A")},
            passes=passes,
        )

    def test_unit_conversion(self):
        # 1 kg/h sustained converts to exactly 0.00876 kt/y; POD at this rate
        # is not 1, so compare against the kg/h total reported by the pipeline
        assert KG_H_PER_KT_Y == pytest.approx(8760.0 / 1e6)
        frame = self._one_component_frame(rate=100.0)
        rep = total_inventory(frame, EstimatorConfig(stage2="observed"))
        phi = rep.total  # kt/y
        kgh = rep.total / KG_H_PER_KT_Y
        assert rep.total == pytest.approx(kgh * 0.00876, rel=1e-12)

    def test_full_census_recovers_truth(self):
        # phi == 1 everywhere, d == D, n == N: the point estimate is the
        # population value and every variance part is zero
        obs = [
            observed_component("c1", "f1", (
                (1, 1, (4.0,), (1.0,)),
                (2, 1, (6.0,), (1.0,)),
            )),
        ]
        est = estimate_survey(obs, {"A": StratumDef("A", 1, 1)},
                              EstimatorConfig(stage2="observed"))
        assert est.total == pytest.approx(5.0)
        assert est.v3stage == pytest.approx(0.0, abs=1e-15)
        assert (est.v1, est.v2, est.v3) == (0.0, 0.0, 0.0)

    def test_zero_emitter_contributes_nothing(self):
        obs = [
            observed_component("c1", "f1", (
                (1, 2, (), ()), (2, 1, (), ()),
            )),
            observed_component("c2", "f2", (
                (1, 1, (8.0,), (0.8,)), (2, 1, (6.0,), (0.8,)),
            )),
        ]
        strata = {"A": StratumDef("A", 2, 3)}
        cfg = EstimatorConfig()
        with_zero = estimate_survey(obs, strata, cfg)
        without = estimate_survey(obs[1:], strata, cfg)
        assert with_zero.total == pytest.approx(without.total)
        assert with_zero.v3stage == pytest.approx(without.v3stage)

    def test_hajek_equals_sample_mean_when_phis_equal(self):
        obs = [
            observed_component("c1", "f1", (
                (1, 3, (2.0, 4.0), (0.6, 0.6)),
                (2, 2, (6.0,), (0.6,)),
            ), estimator="hajek"),
        ]
        est = estimate_survey(obs, {"A": StratumDef("A", 1, 1)},
                              EstimatorConfig(estimator="hajek", stage2="observed"))
        # daily Hajek means are the plain averages 3 and 6; the component
        # mean rescales each day by its phi_hat
        ph1 = 1 - (1 - 0.6) ** 3
        ph2 = 1 - (1 - 0.6) ** 2
        assert est.total == pytest.approx((3.0 / ph1 + 6.0 / ph2) / 2)

    def test_pooled_component_gets_stratum_average_variance(self):
        obs = [
            observed_component("single", "f1", (
                (1, 1, (10.0,), (0.5,)),
            )),
            observed_component("c2", "f2", (
                (1, 1, (8.0,), (0.8,)), (2, 1, (6.0,), (0.8,)),
            )),
            observed_component("c3", "f3", (
                (1, 1, (3.0,), (0.9,)), (2, 1, (4.0,), (0.9,)),
            )),
        ]
        est = estimate_survey(obs, {"A": StratumDef("A", 3, 5)}, EstimatorConfig(),
                              keep_components=True)
        assert est.n_pooled == 1
        by_id = {c.component_id: c for c in est.components}
        peers = [by_id["c2"].var, by_id["c3"].var]
        assert by_id["single"].pooled_variance
        assert by_id["single"].var == pytest.approx(sum(peers) / 2)
        assert by_id["single"].mean_rate == pytest.approx(10.0 / 0.5 / 1)

    @pytest.mark.parametrize("estimator, plan", [
        ("ipw", "original"), ("ipw", "modified"), ("hajek", "modified"),
    ])
    def test_days_beyond_horizon_rejected(self, estimator, plan):
        # three surveyed days, detections on one: only the horizon check sees it
        obs = [observed_component("c1", "f1", (
            (1, 1, (5.0,), (0.8,)), (2, 1, (), ()), (3, 1, (), ()),
        ), estimator=estimator)]
        cfg = EstimatorConfig(estimator=estimator, plan=plan, horizon=2)
        with pytest.raises(EstimationError, match="exceeds the horizon"):
            estimate_survey(obs, {"A": StratumDef("A", 1, 2)}, cfg)

    def test_pooling_without_peers_is_zero_and_counted(self):
        obs = [
            observed_component("single", "f1", ((1, 1, (10.0,), (0.5,)),)),
        ]
        est = estimate_survey(obs, {"A": StratumDef("A", 1, 2)}, EstimatorConfig())
        assert est.n_pooled == 1
        assert est.n_pooled_no_peers == 1


class TestWellsInPipeline:
    def _frame(self):
        strata = {"Wells": StratumDef("Wells", 4, 40)}
        comps = {
            "w1": ComponentRef("w1", "w1", "site1", "Wells", is_well=True),
            "w2": ComponentRef("w2", "w2", "site1", "Wells", is_well=True),
        }
        passes = (
            Pass("w1", 1, 1, True, 80.0, 3.0, 150.0),
            Pass("w1", 2, 1, True, 60.0, 3.0, 150.0),
            Pass("w2", 1, 1, True, 40.0, 3.0, 150.0),
            Pass("w2", 2, 1, False),
        )
        return frame_from_passes(strata=strata, components=comps, passes=passes,
                           wells_per_site={"site1": 4})

    def test_each_well_gets_equal_share(self):
        frame = self._frame()
        cfg = EstimatorConfig(stage2="observed")
        rep = total_inventory(frame, cfg)
        # PODs are ~1 at 150 m for these rates, so daily shares are the
        # summed rates over 4 wells; every well carries the same estimate
        assert rep.diagnostics["phi_floor_hits"] == 0
        # expansion: 4 well PSUs, each mean ~ (80+40)/4/2 + (60+0)/4/2 days avg
        kgh = rep.total / KG_H_PER_KT_Y
        assert kgh == pytest.approx((80 + 40 + 60) / 2 / (4 / 40), rel=1e-3)
        rates = frame.measured_rates
        phis = pod(rates, frame.altitudes, frame.wind_speeds)
        est = estimate_survey(estimator_reference.prepare_components(frame, rates, phis, cfg),
                              frame.strata, cfg, keep_components=True)
        wells = [c for c in est.components if c.component_id.startswith("site1/well")]
        assert len(wells) == 4
        assert {(c.mean_rate, c.var) for c in wells} == {(wells[0].mean_rate, wells[0].var)}

    def test_zero_well_count_with_detections_fails(self):
        with pytest.raises(FrameError, match="wells_at_site=0"):
            frame_from_passes(
                strata={"Wells": StratumDef("Wells", 1, 40)},
                components={"w1": ComponentRef("w1", "w1", "site1", "Wells", is_well=True)},
                passes=(Pass("w1", 1, 1, True, 80.0, 3.0, 150.0),),
                wells_per_site={"site1": 0},
            )


# ---------------------------------------------------------------------------
# prepare_components (the kernel's daily stage) against the per-day reference loop
# ---------------------------------------------------------------------------


def reference_days(frame, comps):
    """The per-day loop's means, variances and phi_hat, flattened one unit at a time.

    A well site's days are its first well's, and the other wells must repeat
    them; phi_hat is NaN on a day without a detection, as in the kernel.
    """
    comps = iter(comps)
    days = []
    for unit in estimator_reference.units(frame):
        first = next(comps)
        for _ in unit.members[1:]:
            assert next(comps).dailies == first.dailies
        days += first.dailies
    assert next(comps, None) is None
    return ([d.mean_rate for d in days], [d.var for d in days],
            [math.nan if d.phi_hat is None else d.phi_hat for d in days])


def hex_bits(columns):
    """Each float of each column as hex (NaN as ``nan``)."""
    return [[float(x).hex() for x in column] for column in columns]


# a well site of two components (one detection each on day 5, a day without a
# detection on day 6), a day of one pass, and PODs at the floor and at 1
EDGES_FRAME = frame_from_passes(
    strata={"A": StratumDef("A", 1, 3), "Wells": StratumDef("Wells", 2, 9)},
    components={
        "c1": ComponentRef("c1", "f1", "s1", "A"),
        "w1": ComponentRef("w1", "w1", "site1", "Wells", is_well=True),
        "w2": ComponentRef("w2", "w2", "site1", "Wells", is_well=True),
    },
    passes=(
        Pass("c1", 1, 1, True, 20.0, 3.0, 150.0),
        Pass("c1", 2, 1, True, 10.0, 3.0, 150.0),
        Pass("c1", 2, 2, True, 30.0, 3.0, 150.0),
        Pass("c1", 2, 3, False),
        Pass("w1", 5, 1, True, 40.0, 3.0, 150.0),
        Pass("w1", 5, 2, False),
        Pass("w2", 5, 1, True, 50.0, 3.0, 150.0),
        Pass("w2", 6, 1, False),
    ),
    wells_per_site={"site1": 2},
)

PODS = st.one_of(st.sampled_from([PHI_FLOOR, 1.0]), st.floats(PHI_FLOOR, 1.0))


@st.composite
def frames_with_draws(draw):
    """A frame, and rates and PODs for its detected passes."""
    frame = draw(st.one_of(st.just(EDGES_FRAME), survey_frames()))
    n = len(frame.measured_rates)
    rates = draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n))
    phis = draw(st.lists(PODS, min_size=n, max_size=n))
    return frame, np.array(rates), np.array(phis)


@settings(max_examples=150, deadline=None)
@given(draws=frames_with_draws(), estimator=st.sampled_from(["ipw", "hajek"]))
# day 2 of c1 squares a Hajek residual that libm's pow rounds differently
@example(draws=(EDGES_FRAME, np.array([5.0, 37.58, 53.73, 1e3, 0.0]),
                np.array([PHI_FLOOR, 0.612, 0.977, 1.0, PHI_FLOOR])), estimator="hajek")
@example(draws=(EDGES_FRAME, np.array([5.0, 0.0, 7.5, 1e3, 2.0]),
                np.array([1.0, 1.0, PHI_FLOOR, 0.25, 1.0])), estimator="ipw")
def test_prepare_components_equals_the_reference_loop(draws, estimator):
    frame, rates, phis = draws
    cfg = EstimatorConfig(estimator=estimator)
    got = prepare_components(frame, rates, phis, cfg)
    want = reference_days(frame, estimator_reference.prepare_components(frame, rates, phis, cfg))
    assert all(isinstance(a, np.ndarray) and a.dtype == float for a in got)
    assert hex_bits(got) == hex_bits(want)


FAULTS = ["negative rate", "POD 0", "POD above 1", "NaN POD",
          "rates short", "rates long", "PODs short", "PODs long",
          "negative rate and NaN POD"]


def outcome(fn, *args):
    """The type and message of what ``fn(*args)`` raises."""
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001  any exception must match
        return type(exc), str(exc)
    raise AssertionError("no exception")


@settings(max_examples=150, deadline=None)
@given(draws=frames_with_draws(), estimator=st.sampled_from(["ipw", "hajek"]),
       fault=st.sampled_from(FAULTS), data=st.data())
def test_prepare_components_refuses_as_the_reference_loop(draws, estimator, fault, data):
    frame, rates, phis = draws
    n = len(rates)
    assume(n > 0)
    at = data.draw(st.integers(0, n - 1), label="pass")
    rates, phis = rates.copy(), phis.copy()
    if fault == "negative rate and NaN POD":
        # which error wins depends on the estimator and on the order of the passes
        rates[at] = -1.0
        phis[data.draw(st.integers(0, n - 1), label="NaN pass")] = math.nan
    elif fault == "negative rate":
        rates[at] = -data.draw(st.floats(1e-300, 1e3), label="minus")
    elif fault == "POD 0":
        phis[at] = 0.0
    elif fault == "POD above 1":
        phis[at] = data.draw(st.floats(1.0, 10.0, exclude_min=True), label="pod")
    elif fault == "NaN POD":
        phis[at] = math.nan
    else:
        which = "rates" if fault.startswith("rates") else "phis"
        values = {"rates": rates, "phis": phis}[which]
        values = values[:-1] if fault.endswith("short") else np.append(values, 1.0)
        rates, phis = (values, phis) if which == "rates" else (rates, values)
    cfg = EstimatorConfig(estimator=estimator)
    want = outcome(estimator_reference.prepare_components, frame, rates, phis, cfg)
    assert outcome(prepare_components, frame, rates, phis, cfg) == want
    # the kernel pass makes the same checks before it builds its layout
    assert outcome(kernel_estimate_survey, frame, cfg, rates, phis) == want


@pytest.mark.parametrize("estimator", ["ipw", "hajek"])
@pytest.mark.parametrize("stage2", ["observed", "year"])
def test_overflowing_estimate_is_refused_without_warnings(estimator, stage2):
    # finite rates whose squares overflow in the two-day variance: the daily
    # stage runs under np.errstate, and the non-finite parts are refused
    frame = frame_from_passes(
        strata={"A": StratumDef("A", 1, 2)},
        components={"c1": ComponentRef("c1", "f1", "s1", "A")},
        passes=(Pass("c1", 1, 1, True, 1e308, 3.0, 500.0),
                Pass("c1", 2, 1, True, 50.0, 3.0, 500.0)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="non-finite"):
            total_inventory(frame, EstimatorConfig(estimator=estimator, stage2=stage2))


# ---------------------------------------------------------------------------
# total_inventory (one kernel pass) against the reference's scalar pass
# ---------------------------------------------------------------------------

PASS_CONFIGS = [EstimatorConfig(estimator=e, plan=p, stage2=s2, decomposition=dc)
                for e, p in DESIGNS for s2 in ("observed", "year")
                for dc in ("corrected", "printed")]


def parity_frames(subset_frame):
    """Random frames, two frames with well sites, and the packaged subset."""
    return ([random_frame(seed) for seed in range(6)]
            + [EDGES_FRAME, TestWellsInPipeline()._frame(), subset_frame])


def report_fields(report) -> dict:
    """A report's fields by (stratum name or None, field), unclipped parts flattened.

    Strata are keyed by name: rows sort by total, which two paths that agree
    to rounding may order differently on a tie.
    """
    doc = dataclasses.asdict(report)
    out = {}
    for where, fields in [(None, doc)] + [(row["name"], row) for row in doc.pop("strata")]:
        for key, value in fields.items():
            if key == "unclipped":
                out.update({(where, key, k): v for k, v in value.items()})
            else:
                out[(where, key)] = value
    return out


def assert_same_report(got, want, what):
    got, want = report_fields(got), report_fields(want)
    assert got.keys() == want.keys(), what
    for key, value in want.items():
        if isinstance(value, float):
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), (what, key)
        else:  # configuration echo, diagnostics, names
            assert got[key] == value, (what, key)


def test_kernel_pass_equals_the_reference_pass(subset_frame):
    for f, frame in enumerate(parity_frames(subset_frame)):
        n = len(frame.measured_rates)
        draw = sample_true_rate(frame.measured_rates, iteration_uniforms(f, range(1), n))[0]
        for cfg in PASS_CONFIGS:
            for label, rates in (("measured", None),
                                 ("bias-corrected", bias_correct(frame.measured_rates)),
                                 ("drawn", draw)):
                assert_same_report(total_inventory(frame, cfg, rates=rates),
                                   estimator_reference.total_inventory(frame, cfg, rates=rates),
                                   (f, cfg, label))


def test_a_stratum_of_four_billion_facilities_equals_the_reference_pass():
    # N(N-1) is past the int64 range here; the stage I pair weight must not wrap
    passes, registry, _ = packaged_subset_paths()
    frame = load_survey(passes, registry,
                        Path(__file__).parent / "data" / "big_stratum_strata.csv")
    assert frame.strata["CO SWB"].n_population == 4_000_000_000
    for cfg in PASS_CONFIGS:
        assert_same_report(total_inventory(frame, cfg),
                           estimator_reference.total_inventory(frame, cfg), cfg)


FAULTY_RATES = {"negative rate": -1.0, "NaN rate": math.nan, "infinite rate": math.inf,
                "rate near the float maximum": 1e308}


@pytest.mark.parametrize("fault", [*FAULTY_RATES, "days above the horizon"])
def test_kernel_pass_refuses_as_the_reference_pass(subset_frame, fault):
    for frame in parity_frames(subset_frame):
        n = len(frame.measured_rates)
        for cfg in PASS_CONFIGS:
            if fault == "days above the horizon":
                cases = [(dataclasses.replace(cfg, stage2="year", horizon=1), None)]
            else:
                cases = []
                for at in sorted({0, n // 2, n - 1}):
                    rates = frame.measured_rates.copy()
                    rates[at] = FAULTY_RATES[fault]
                    cases.append((cfg, rates))
            for case_cfg, rates in cases:
                assert (outcome(total_inventory, frame, case_cfg, rates)
                        == outcome(estimator_reference.total_inventory, frame, case_cfg,
                                   rates)), (case_cfg, fault)


def test_a_component_variance_of_inf_minus_inf_is_refused():
    # the component's day sums overflow to inf and -inf, so its variance is
    # NaN: the reference's max(0.0, nan) reads that as 0.0 and reports, while
    # the kernel refuses, as the Monte Carlo does
    frame = random_frame(0)
    rates = frame.measured_rates * 10.0**150.2
    cfg = EstimatorConfig(stage2="year")
    with pytest.raises(EstimationError, match="non-finite population v3stage"):
        total_inventory(frame, cfg, rates=rates)
    assert estimator_reference.total_inventory(frame, cfg, rates=rates).var_total >= 0.0


@pytest.mark.parametrize("length", [3, "one short", "one long"])
def test_rates_of_another_length_are_refused_before_the_pod(subset_frame, length):
    n = len(subset_frame.measured_rates)
    rates = np.ones({"one short": n - 1, "one long": n + 1}.get(length, length))
    with pytest.raises(EstimationError,
                       match="^rates/phis must align with the frame's detected passes$"):
        total_inventory(subset_frame, EstimatorConfig(), rates=rates)


def test_no_configuration_gives_no_report(subset_frame):
    assert total_inventory(subset_frame, []) == []
