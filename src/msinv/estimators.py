"""Estimation core: daily means, component aggregation, stratum and population totals.

The total emission rate is estimated by expanding each sampled unit by its
inclusion probability at all three stages.  Daily means are inverse-probability
weighted over detected passes (or Hajek ratios of those weights); days are
expanded by the simple-random-sample day probabilities with closed-form
variance expressions; components are expanded by the stratified-cluster
stage I probabilities.  The total three-stage variance is split into per-stage
contributions, clipped at zero in a fixed order, with the unclipped values
retained for diagnostics.

All arithmetic here is in kg/h; unit conversion happens at report assembly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm

from . import reporting
from .frame import StratumDef, SurveyFrame
from .pod import PHI_FLOOR, PodParams, DEFAULT_POD, phi_any_detection, pod

__all__ = [
    "EstimationError",
    "EstimatorConfig",
    "DailyEstimate",
    "ComponentEstimate",
    "DayObs",
    "ComponentObs",
    "StratumEstimate",
    "SurveyEstimate",
    "ipw_daily",
    "ipw_daily_var",
    "hajek_daily",
    "hajek_daily_var",
    "daily_var_generic",
    "starred_daily",
    "component_srs_ipw",
    "component_srs_hajek",
    "component_generic",
    "impute_component_variance",
    "wells_allocate",
    "stratum_total",
    "estimate_survey",
    "total_inventory",
    "wald_ci",
    "detected_passes",
]


class EstimationError(ValueError):
    """An estimator was called outside its domain."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Selects one analysis variant.

    ``stage2`` is ``"year"`` (a fixed horizon of ``horizon`` days, day sampling
    contributes variance) or ``"observed"`` (the horizon is each component's
    own surveyed days, a census at stage II).  ``plan`` switches the IPW
    estimator between the original day design and the detection-conditioned
    (starred) one; the two give identical totals and variances, which is
    exactly what the starred construction promises.  The Hajek estimator only
    exists on the starred design.  ``decomposition`` selects the stage III
    split: ``"corrected"`` (1/D^2, stage-wise unbiased) or ``"printed"``
    (the literal 1/D display).
    """

    estimator: str = "ipw"
    stage2: str = "year"
    horizon: int = 365
    plan: str = "original"
    decomposition: str = "corrected"
    ci_level: float = 0.95
    pod_params: PodParams = DEFAULT_POD

    def __post_init__(self):
        if self.estimator not in {"ipw", "hajek"}:
            raise EstimationError(f"estimator must be 'ipw' or 'hajek', got {self.estimator!r}")
        if self.stage2 not in {"year", "observed"}:
            raise EstimationError(f"stage2 must be 'year' or 'observed', got {self.stage2!r}")
        if self.plan not in {"original", "modified"}:
            raise EstimationError(f"plan must be 'original' or 'modified', got {self.plan!r}")
        if self.estimator == "hajek" and self.plan == "original":
            # the ratio estimator is undefined on empty stage III samples
            object.__setattr__(self, "plan", "modified")
        if self.decomposition not in {"corrected", "printed"}:
            raise EstimationError(
                f"decomposition must be 'corrected' or 'printed', got {self.decomposition!r}"
            )
        if not 0 < self.ci_level < 1:
            raise EstimationError("ci_level must lie in (0, 1)")
        if self.horizon < 1:
            raise EstimationError("horizon must be >= 1 day")

    def as_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "stage2": self.stage2,
            "horizon": self.horizon,
            "plan": self.plan,
            "decomposition": self.decomposition,
            "ci_level": self.ci_level,
            "pod_params": {
                "kappa": self.pod_params.kappa,
                "rate_exp": self.pod_params.rate_exp,
                "altitude_exp": self.pod_params.altitude_exp,
                "wind_offset": self.pod_params.wind_offset,
                "wind_exp": self.pod_params.wind_exp,
                "outer_exp": self.pod_params.outer_exp,
            },
        }


# ---------------------------------------------------------------------------
# Daily (stage III) estimators
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class DailyEstimate:
    """Estimated mean emission rate of one component on one day."""

    mean_rate: float
    var: float
    phi_hat: float | None = None
    n_detected: int = 0
    component_id: str = ""
    day_id: int = 0


def _check_detections(detections, q_total: int):
    if q_total < max(1, len(detections)):
        raise EstimationError(
            f"q_total={q_total} is smaller than the number of detections ({len(detections)})"
        )
    for y, phi in detections:
        if phi <= 0:
            raise EstimationError("detection probabilities must be > 0")
        if y < 0:
            raise EstimationError("rates must be >= 0")


def ipw_daily(detections, q_total: int, component_id: str = "", day_id: int = 0) -> DailyEstimate:
    """Inverse-probability-weighted daily mean: (sum Y/phi) / Q_pt.

    ``detections`` is a sequence of (rate, phi) pairs for the detected passes;
    an empty sequence gives mean 0 (a day with no detections contributes the
    empty IPW sum, not a missing value).
    """
    _check_detections(detections, q_total)
    mean = sum(y / phi for y, phi in detections) / q_total
    return DailyEstimate(
        mean_rate=mean,
        var=ipw_daily_var(detections, q_total),
        n_detected=len(detections),
        component_id=component_id,
        day_id=day_id,
    )


def ipw_daily_var(detections, q_total: int) -> float:
    """Poisson-sampling variance estimate (1/Q^2) sum (1-phi)/phi^2 * Y^2."""
    _check_detections(detections, q_total)
    return sum((1.0 - phi) / (phi * phi) * y * y for y, phi in detections) / (q_total * q_total)


def hajek_daily(
    detections, q_total: int, phi_hat: float, component_id: str = "", day_id: int = 0
) -> DailyEstimate:
    """Hajek (ratio) daily mean: (sum Y/phi) / (sum 1/phi).

    Undefined on empty detections; callers must restrict to days with at least
    one detection (the starred stage II sample).
    """
    if not detections:
        raise EstimationError("Hajek daily estimate is undefined with no detections (0/0)")
    _check_detections(detections, q_total)
    num = sum(y / phi for y, phi in detections)
    den = sum(1.0 / phi for y, phi in detections)
    return DailyEstimate(
        mean_rate=num / den,
        var=hajek_daily_var(detections, q_total, phi_hat),
        phi_hat=phi_hat,
        n_detected=len(detections),
        component_id=component_id,
        day_id=day_id,
    )


def hajek_daily_var(detections, q_total: int, phi_hat: float) -> float:
    """Approximate variance of the Hajek daily mean, clipped at zero.

    (phi_hat/Q^2) [ sum (1-phi)((Y-Yhat)/phi)^2
                    + (phi_hat - 1)(sum (Y-Yhat)/phi)^2 ]
    The second term is nonpositive and can dominate for small phi_hat, hence
    the clip.
    """
    if not detections:
        raise EstimationError("Hajek daily variance is undefined with no detections")
    _check_detections(detections, q_total)
    num = sum(y / phi for y, phi in detections)
    den = sum(1.0 / phi for y, phi in detections)
    yhat = num / den
    resid_sq = sum((1.0 - phi) * ((y - yhat) / phi) ** 2 for y, phi in detections)
    resid_sum = sum((y - yhat) / phi for y, phi in detections)
    raw = phi_hat / (q_total * q_total) * (resid_sq + (phi_hat - 1.0) * resid_sum**2)
    return max(0.0, raw)


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


def starred_daily(daily: DailyEstimate, phi_hat: float) -> DailyEstimate:
    """Reweight an IPW daily estimate to the detection-conditioned design.

    The starred-design IPW estimate of the same daily mean is phi_hat times
    the original, and its variance estimate collapses to

        phi_hat * var + phi_hat * (phi_hat - 1) * mean^2,

    which is the generic HT variance under the starred within-day
    probabilities (verified against `daily_var_generic` in the tests).  The
    value may be negative; it is an intermediate HT quantity and clipping it
    would break the exact equivalence with the original design.
    """
    return replace(
        daily,
        mean_rate=phi_hat * daily.mean_rate,
        var=phi_hat * daily.var + phi_hat * (phi_hat - 1.0) * daily.mean_rate**2,
        phi_hat=phi_hat,
    )


# ---------------------------------------------------------------------------
# Component (stage II) aggregation
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ComponentEstimate:
    """Estimated mean rate of one component over the inventory horizon.

    ``var`` covers stages II and III; ``var_stage3_part`` is the detection
    share of it, (1/D^2) sum_t Vhat_pt / pi_t^2, kept separate for the stage
    decomposition.  ``horizon`` is the D this component was assessed against
    (its own day count in "observed" mode).
    """

    component_id: str
    mean_rate: float
    var: float
    var_stage3_part: float
    horizon: int
    facility_id: str = ""
    stratum: str = ""
    pooled_variance: bool = False
    zero_emitter: bool = False
    wells_allocated: bool = False
    n_usable_days: int = 0


def component_srs_ipw(daily, d_p: int, horizon: int) -> ComponentEstimate:
    """Aggregate IPW daily estimates over an SRS of d_p out of D days.

    ``daily`` must cover every surveyed day, zero-detection days included as
    (0, 0).  Uses the closed-form SRS variance

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
    first = daily[0]
    return ComponentEstimate(
        component_id=first.component_id,
        mean_rate=s1 / d_p,
        var=max(0.0, var),
        var_stage3_part=sv / (d_p * d_p),
        horizon=horizon,
        n_usable_days=d_p,
    )


def component_srs_hajek(daily_star, d_p: int, horizon: int, phi_hats) -> ComponentEstimate:
    """Aggregate Hajek daily estimates over the starred day sample.

    ``daily_star`` holds only the days with detections; ``d_p`` is still the
    number of surveyed days.  The closed form mirrors the IPW one with the
    starred day probabilities phi_hat * d/D:

        (1/D^2)[ sum_t D{D-1-phi_t(d-1)}/(d(d-1)) (Yhat_t/phi_t)^2
                 + D(d-D)/(d^2(d-1)) (sum_t Yhat_t/phi_t)^2
                 + sum_t D/(d phi_t) Vhat_t ].
    """
    m = len(daily_star)
    if m < 2:
        raise EstimationError("fewer than two detection days: route through imputation")
    if len(phi_hats) != m:
        raise EstimationError("phi_hats must align with daily_star")
    if d_p < m or d_p > horizon:
        raise EstimationError("inconsistent day counts")
    for ph in phi_hats:
        if not 0 < ph <= 1:
            raise EstimationError("phi_hat values must lie in (0, 1]")
    ratios = [d.mean_rate / ph for d, ph in zip(daily_star, phi_hats)]
    s1 = sum(ratios)
    term1 = sum(
        horizon * (horizon - 1 - ph * (d_p - 1)) / (d_p * (d_p - 1)) * r * r
        for r, ph in zip(ratios, phi_hats)
    )
    term2 = horizon * (d_p - horizon) / (d_p * d_p * (d_p - 1)) * s1 * s1
    term3 = sum(horizon / (d_p * ph) * d.var for d, ph in zip(daily_star, phi_hats))
    var = (term1 + term2 + term3) / (horizon * horizon)
    stage3 = sum(d.var / (ph * ph) for d, ph in zip(daily_star, phi_hats)) / (d_p * d_p)
    return ComponentEstimate(
        component_id=daily_star[0].component_id,
        mean_rate=s1 / d_p,
        var=max(0.0, var),
        var_stage3_part=stage3,
        horizon=horizon,
        n_usable_days=m,
    )


def component_generic(daily, pi2_marginal, pi2_joint, horizon: int) -> ComponentEstimate:
    """Aggregate daily estimates under arbitrary day inclusion probabilities.

    The general two-stage variance estimator

        (1/D^2)[ sum_t sum_u (pi_tu - pi_t pi_u)/pi_tu (Yhat_t/pi_t)(Yhat_u/pi_u)
                 + sum_t Vhat_t / pi_t ]

    with ``pi2_joint`` a full symmetric table whose diagonal equals the
    marginals.  Matches the SRS closed forms when fed SRS probabilities; used
    directly for the starred (modified) design and by the enumeration oracle.
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
        component_id=daily[0].component_id if daily else "",
        mean_rate=sum(zs) / horizon,
        var=(dsum + bsum) / (horizon * horizon),
        var_stage3_part=stage3,
        horizon=horizon,
        n_usable_days=m,
    )


def impute_component_variance(target: ComponentEstimate, stratum_peers) -> ComponentEstimate:
    """Complete a single-usable-day component by pooling peer variances.

    The mean comes from the component's own single day (already on
    ``target``); the variance is the average over same-stratum components
    whose variance was actually estimated from two or more usable days.  With
    no such peers the variance is imputed as zero; callers surface that as a
    diagnostic.
    """
    peers = [
        p.var
        for p in stratum_peers
        if not p.zero_emitter and not p.pooled_variance and p.n_usable_days >= 2
    ]
    var = sum(peers) / len(peers) if peers else 0.0
    return replace(target, var=var, pooled_variance=True)


def wells_allocate(site_dailies, wells_at_site: int) -> dict[int, tuple[float, float]]:
    """Spread the site's detected well emissions equally over its wells.

    ``site_dailies`` are daily estimates of the well components at one site.
    For each survey day the per-well share is (sum of means)/wells and
    (sum of variances)/wells^2; every well at the site receives the same
    share.  Returns day_id -> (mean share, variance share).
    """
    if wells_at_site < 1:
        if any(d.n_detected > 0 for d in site_dailies):
            raise EstimationError("well detections at a site with no registered wells")
        return {}
    by_day: dict[int, list[DailyEstimate]] = {}
    for d in site_dailies:
        by_day.setdefault(d.day_id, []).append(d)
    out = {}
    for day, ds in sorted(by_day.items()):
        out[day] = (
            sum(d.mean_rate for d in ds) / wells_at_site,
            sum(d.var for d in ds) / (wells_at_site * wells_at_site),
        )
    return out


# ---------------------------------------------------------------------------
# Stratum and population assembly
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class StratumEstimate:
    """One stratum's total and variance split, in kg/h units."""

    name: str
    total: float
    v3stage: float
    v1: float
    v2: float
    v3: float
    u1: float
    u2: float
    u3: float
    n_components: int = 0
    n_pooled: int = 0
    n_zero: int = 0


@dataclass(slots=True)
class SurveyEstimate:
    """Population total and variance split (kg/h), plus per-stratum detail."""

    total: float
    v3stage: float
    v1: float
    v2: float
    v3: float
    u1: float
    u2: float
    u3: float
    strata: dict[str, StratumEstimate]
    n_pooled: int = 0
    n_pooled_no_peers: int = 0
    phi_floor_hits: int = 0
    components: list[ComponentEstimate] | None = None


def stratum_total(
    stratum: StratumDef, components, decomposition: str = "corrected"
) -> StratumEstimate:
    """Expand component estimates to a stratum total with variance split.

    The stage I double sum collapses by facility: pairs within a facility are
    sampled together (weight 1-f), cross-facility pairs in the stratum carry
    the SRS-pair weight 1 - f^2/g with g = n(n-1)/(N(N-1)), and cross-stratum
    terms vanish by independence.
    """
    n, big_n = stratum.n_sampled, stratum.n_population
    f = n / big_n
    fac_sums: dict[str, float] = {}
    total = 0.0
    v23 = 0.0
    s23 = 0.0
    s3 = 0.0
    n_pooled = n_zero = 0
    for c in components:
        if c.stratum and c.stratum != stratum.name:
            raise EstimationError(f"component {c.component_id!r} is not in stratum {stratum.name!r}")
        expanded = c.mean_rate / f
        total += expanded
        fac_sums[c.facility_id] = fac_sums.get(c.facility_id, 0.0) + expanded
        v23 += c.var / f
        s23 += c.var / (f * f)
        part = c.var_stage3_part
        if decomposition == "printed":
            part = part * c.horizon
        s3 += part / (f * f)
        n_pooled += c.pooled_variance
        n_zero += c.zero_emitter
    sumsq = sum(v * v for v in fac_sums.values())
    a1 = (1.0 - f) * sumsq
    if n >= 2:
        g = n * (n - 1) / (big_n * (big_n - 1))
        a1 += (1.0 - f * f / g) * (total * total - sumsq)
    v3stage = a1 + v23
    u3, u2, u1 = s3, s23 - s3, v3stage - s23
    v3 = max(0.0, s3)
    v2 = max(0.0, s23 - v3)
    v1 = max(0.0, v3stage - v2 - v3)
    return StratumEstimate(
        name=stratum.name,
        total=total,
        v3stage=v3stage,
        v1=v1, v2=v2, v3=v3,
        u1=u1, u2=u2, u3=u3,
        n_components=len(components),
        n_pooled=n_pooled,
        n_zero=n_zero,
    )


# ---------------------------------------------------------------------------
# Survey-level pipeline
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class DayObs:
    """Raw observations of one component-day: pass count and detections."""

    day_id: int
    q_total: int
    rates: tuple[float, ...]
    phis: tuple[float, ...]


@dataclass(slots=True)
class ComponentObs:
    """One component's observations, ready for estimation.

    Either ``days`` (raw pass data) or ``dailies`` (precomputed daily
    estimates, as produced by the wells allocation) is set.
    """

    component_id: str
    facility_id: str
    stratum: str
    days: tuple[DayObs, ...] = ()
    dailies: tuple[DailyEstimate, ...] = ()
    wells_allocated: bool = False

    def n_days(self) -> int:
        return len(self.days) if self.days else len(self.dailies)


def _resolve_horizon(d_p: int, config: EstimatorConfig) -> int:
    return d_p if config.stage2 == "observed" else config.horizon


def _dailies_ipw(comp: ComponentObs) -> list[DailyEstimate]:
    if comp.dailies:
        return list(comp.dailies)
    return [
        ipw_daily(
            list(zip(day.rates, day.phis)), day.q_total,
            component_id=comp.component_id, day_id=day.day_id,
        )
        for day in comp.days
    ]


def _phi_hat_of(day: DayObs) -> float:
    return phi_any_detection(day.phis, day.q_total - len(day.phis))


def _estimate_component(comp: ComponentObs, config: EstimatorConfig):
    """Return (estimate, needs_pooling).  Pooled estimates lack ``var``."""
    d_p = comp.n_days()
    horizon = _resolve_horizon(d_p, config)
    if d_p > horizon:
        raise EstimationError(
            f"component {comp.component_id!r}: d_p={d_p} exceeds the horizon D={horizon}"
        )
    meta = dict(facility_id=comp.facility_id, stratum=comp.stratum,
                wells_allocated=comp.wells_allocated)

    if config.estimator == "ipw" and config.plan == "original":
        dailies = _dailies_ipw(comp)
        if all(d.n_detected == 0 for d in dailies):
            est = ComponentEstimate(comp.component_id, 0.0, 0.0, 0.0, horizon,
                                    zero_emitter=True, **meta)
            return est, False
        if d_p == 1:
            d0 = dailies[0]
            est = ComponentEstimate(
                comp.component_id, d0.mean_rate, math.nan, d0.var, horizon,
                n_usable_days=1, **meta,
            )
            return est, True
        est = component_srs_ipw(dailies, d_p, horizon)
        return _with_meta(est, comp.component_id, meta), False

    if config.estimator == "ipw":  # modified (starred) plan
        dailies = _dailies_ipw(comp)
        star = [(d, _phi_hat_for(comp, d)) for d in dailies if d.n_detected > 0]
        if not star:
            est = ComponentEstimate(comp.component_id, 0.0, 0.0, 0.0, horizon,
                                    zero_emitter=True, **meta)
            return est, False
        starred = [starred_daily(d, ph) for d, ph in star]
        phis = [ph for _, ph in star]
        if d_p == 1:
            d0 = starred[0]
            mean = d0.mean_rate / phis[0]
            stage3 = d0.var / (phis[0] * phis[0])
            est = ComponentEstimate(comp.component_id, mean, math.nan, stage3, horizon,
                                    n_usable_days=1, **meta)
            return est, True
        marg = [ph * d_p / horizon for ph in phis]
        joint = _starred_day_joint(phis, d_p, horizon)
        est = component_generic(starred, marg, joint, horizon)
        # usable days for pooling purposes counts surveyed days, matching the
        # original plan: the generic variance is estimable whenever d_p >= 2
        est.n_usable_days = d_p
        return _with_meta(est, comp.component_id, meta), False

    # Hajek on the starred design
    if comp.dailies:
        star_d = [d for d in comp.dailies if d.n_detected > 0]
        phis = [d.phi_hat for d in star_d]
    else:
        star_raw = [day for day in comp.days if day.phis]
        phis = [_phi_hat_of(day) for day in star_raw]
        star_d = [
            hajek_daily(list(zip(day.rates, day.phis)), day.q_total, ph,
                        component_id=comp.component_id, day_id=day.day_id)
            for day, ph in zip(star_raw, phis)
        ]
    if not star_d:
        est = ComponentEstimate(comp.component_id, 0.0, 0.0, 0.0, horizon,
                                zero_emitter=True, **meta)
        return est, False
    if len(star_d) == 1:
        d0 = star_d[0]
        mean = d0.mean_rate / (phis[0] * d_p)
        stage3 = d0.var / (phis[0] * phis[0] * d_p * d_p)
        est = ComponentEstimate(comp.component_id, mean, math.nan, stage3, horizon,
                                n_usable_days=1, **meta)
        return est, True
    est = component_srs_hajek(star_d, d_p, horizon, phis)
    return _with_meta(est, comp.component_id, meta), False


def _with_meta(est: ComponentEstimate, component_id: str, meta: dict) -> ComponentEstimate:
    est.component_id = component_id
    est.facility_id = meta["facility_id"]
    est.stratum = meta["stratum"]
    est.wells_allocated = meta["wells_allocated"]
    return est


def _phi_hat_for(comp: ComponentObs, daily: DailyEstimate) -> float:
    if daily.phi_hat is not None:
        return daily.phi_hat
    for day in comp.days:
        if day.day_id == daily.day_id:
            return _phi_hat_of(day)
    raise EstimationError(f"no raw day {daily.day_id} on component {comp.component_id!r}")


def _starred_day_joint(phis, d_p: int, horizon: int):
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


def estimate_survey(components, strata, config: EstimatorConfig,
                    keep_components: bool = False, phi_floor_hits: int = 0) -> SurveyEstimate:
    """Run the full three-stage estimation over prepared components.

    Components with a single usable day get their variance imputed from
    same-stratum peers after the first pass.  Stage parts are clipped at zero
    per stratum and, from the raw population sums, at the population level;
    the unclipped values ride along for diagnostics and the oracle tests.
    """
    by_stratum: dict[str, list[ComponentEstimate]] = {name: [] for name in strata}
    pending: list[tuple[int, str]] = []
    for comp in components:
        if comp.stratum not in strata:
            raise EstimationError(f"component {comp.component_id!r}: unknown stratum {comp.stratum!r}")
        est, needs_pool = _estimate_component(comp, config)
        bucket = by_stratum[comp.stratum]
        bucket.append(est)
        if needs_pool:
            pending.append((len(bucket) - 1, comp.stratum))
    n_no_peers = 0
    for idx, name in pending:
        bucket = by_stratum[name]
        done = impute_component_variance(bucket[idx], bucket)
        if config.stage2 == "observed":
            # a census of days has no stage II, so the whole imputed variance
            # is detection uncertainty; keeps the observed-mode stage II part
            # identically zero
            done = replace(done, var_stage3_part=done.var)
        if done.var == 0.0:
            peers = [p for p in bucket
                     if not p.zero_emitter and not p.pooled_variance and p.n_usable_days >= 2]
            if not peers:
                n_no_peers += 1
        bucket[idx] = done

    stratum_ests: dict[str, StratumEstimate] = {}
    total = v3stage = s3_pop = s23_pop = 0.0
    u1 = u2 = u3 = 0.0
    for name, stratum in strata.items():
        se = stratum_total(stratum, by_stratum[name], config.decomposition)
        stratum_ests[name] = se
        total += se.total
        v3stage += se.v3stage
        u1 += se.u1
        u2 += se.u2
        u3 += se.u3
        s3_pop += se.u3
        s23_pop += se.u2 + se.u3
    v3 = max(0.0, s3_pop)
    v2 = max(0.0, s23_pop - v3)
    v1 = max(0.0, v3stage - v2 - v3)
    all_components = None
    if keep_components:
        all_components = [e for name in strata for e in by_stratum[name]]
    return SurveyEstimate(
        total=total,
        v3stage=v3stage,
        v1=v1, v2=v2, v3=v3,
        u1=u1, u2=u2, u3=u3,
        strata=stratum_ests,
        n_pooled=len(pending),
        n_pooled_no_peers=n_no_peers,
        phi_floor_hits=phi_floor_hits,
        components=all_components,
    )


# ---------------------------------------------------------------------------
# Frame-level entry point
# ---------------------------------------------------------------------------


def detected_passes(frame: SurveyFrame):
    """The frame's detected passes in canonical (component, day, pass) order.

    This order defines the alignment of every externally supplied rate vector
    (bias-corrected or Monte Carlo draws).
    """
    return sorted(
        (p for p in frame.passes if p.detected),
        key=lambda p: (p.component_id, p.day_id, p.pass_index),
    )


def prepare_components(frame: SurveyFrame, rates, phis, config: EstimatorConfig):
    """Group resolved pass values into ComponentObs, applying wells allocation.

    ``rates``/``phis`` align with `detected_passes(frame)`.  Well components
    are pooled by site: each site's detected well emissions are spread evenly
    over its registered wells, and each well becomes its own stage I unit in
    the wells stratum.
    """
    det = detected_passes(frame)
    if len(rates) != len(det) or len(phis) != len(det):
        raise EstimationError("rates/phis must align with the frame's detected passes")
    by_comp_day: dict[str, dict[int, tuple[list[float], list[float]]]] = {}
    for p, y, phi in zip(det, rates, phis):
        day_map = by_comp_day.setdefault(p.component_id, {})
        rs, ps = day_map.setdefault(p.day_id, ([], []))
        rs.append(float(y))
        ps.append(float(phi))
    q = frame.passes_per_day
    surveyed_days: dict[str, list[int]] = {}
    for cid, day in q:
        surveyed_days.setdefault(cid, []).append(day)

    regular: list[ComponentObs] = []
    wells_by_site: dict[str, list[ComponentObs]] = {}
    for cid in sorted(frame.components):
        comp = frame.components[cid]
        day_map = by_comp_day.get(cid, {})
        days = []
        for day in sorted(surveyed_days[cid]):
            rs, ps = day_map.get(day, ((), ()))
            days.append(DayObs(day_id=day, q_total=q[(cid, day)],
                               rates=tuple(rs), phis=tuple(ps)))
        obs = ComponentObs(component_id=cid, facility_id=comp.facility_id,
                           stratum=comp.stratum, days=tuple(days))
        if comp.is_well:
            wells_by_site.setdefault(comp.site_id, []).append(obs)
        else:
            regular.append(obs)

    for site in sorted(wells_by_site):
        group = wells_by_site[site]
        strata_here = {c.stratum for c in group}
        if len(strata_here) != 1:
            raise EstimationError(f"well components at site {site!r} span multiple strata")
        regular.extend(_allocate_site_wells(site, group, frame.wells_per_site.get(site, 0),
                                            strata_here.pop(), config))
    return regular


def _allocate_site_wells(site: str, group, wells_at_site: int, stratum: str,
                         config: EstimatorConfig):
    """Build one ComponentObs per registered well at the site."""
    any_detection = any(day.phis for c in group for day in c.days)
    if wells_at_site < 1:
        if any_detection:
            raise EstimationError(f"well detections at site {site!r} but wells_at_site=0")
        return []
    all_days = sorted({day.day_id for c in group for day in c.days})

    if config.estimator == "hajek":
        shares = {}
        for day in all_days:
            dailies, pooled_phis, misses = [], [], 0
            for c in group:
                for dobs in c.days:
                    if dobs.day_id != day:
                        continue
                    misses += dobs.q_total - len(dobs.phis)
                    pooled_phis.extend(dobs.phis)
                    if dobs.phis:
                        ph = _phi_hat_of(dobs)
                        dailies.append(hajek_daily(list(zip(dobs.rates, dobs.phis)),
                                                   dobs.q_total, ph, day_id=day))
            if dailies:
                pooled_phi = phi_any_detection(pooled_phis, misses)
                mean = sum(d.mean_rate for d in dailies) / wells_at_site
                var = sum(d.var for d in dailies) / (wells_at_site * wells_at_site)
                shares[day] = DailyEstimate(mean, var, phi_hat=pooled_phi,
                                            n_detected=len(pooled_phis), day_id=day)
            else:
                shares[day] = DailyEstimate(0.0, 0.0, day_id=day)
    else:
        per_comp = []
        pooled_any: dict[int, tuple[list[float], int]] = {}
        for c in group:
            for dobs in c.days:
                per_comp.append(ipw_daily(list(zip(dobs.rates, dobs.phis)),
                                          dobs.q_total, day_id=dobs.day_id))
                phis, misses = pooled_any.setdefault(dobs.day_id, ([], 0))
                phis.extend(dobs.phis)
                pooled_any[dobs.day_id] = (phis, misses + dobs.q_total - len(dobs.phis))
        alloc = wells_allocate(per_comp, wells_at_site)
        shares = {}
        for day in all_days:
            mean, var = alloc.get(day, (0.0, 0.0))
            phis, misses = pooled_any[day]
            phi_hat = phi_any_detection(phis, misses) if phis else None
            shares[day] = DailyEstimate(mean, var, phi_hat=phi_hat,
                                        n_detected=len(phis), day_id=day)

    out = []
    for i in range(wells_at_site):
        wid = f"{site}/well{i + 1}"
        dailies = tuple(
            replace(shares[day], component_id=wid) for day in all_days
        )
        out.append(ComponentObs(component_id=wid, facility_id=wid, stratum=stratum,
                                dailies=dailies, wells_allocated=True))
    return out


def total_inventory(frame: SurveyFrame, config: EstimatorConfig, rates=None,
                    keep_components: bool = False):
    """One design pass over a survey frame: point estimate, variance split, CI.

    ``rates`` optionally overrides the measured rates (aligned with
    `detected_passes`); detection probabilities are always recomputed from the
    rates actually used.  Returns an `InventoryReport` in kt/y.
    """
    det = detected_passes(frame)
    if rates is None:
        rates = np.array([p.measured_rate for p in det])
    else:
        rates = np.asarray(rates, dtype=float)
    winds = np.array([p.wind_speed for p in det])
    alts = np.array([p.altitude for p in det])
    raw_phi = pod(rates, alts, winds, config.pod_params) if len(det) else np.zeros(0)
    raw_phi = np.atleast_1d(raw_phi)
    floor_hits = int(np.count_nonzero(raw_phi < PHI_FLOOR))
    phis = np.maximum(raw_phi, PHI_FLOOR)
    try:
        comps = prepare_components(frame, rates, phis, config)
        est = estimate_survey(comps, frame.strata, config,
                              keep_components=keep_components, phi_floor_hits=floor_hits)
    except OverflowError:
        raise EstimationError(
            "estimate overflows (a measured rate too large to estimate with?)"
        ) from None
    _require_finite(est)
    return reporting.build_report(est, config)


def _require_finite(est: SurveyEstimate):
    """Refuse an estimate whose total or any variance part is NaN or infinite."""
    named = [("population", est)] + [(f"stratum {n!r}", se) for n, se in est.strata.items()]
    for where, values in named:
        for key in ("total", "v3stage", "v1", "v2", "v3", "u1", "u2", "u3"):
            if not math.isfinite(getattr(values, key)):
                raise EstimationError(
                    f"non-finite {where} {key} (a measured rate too large to estimate with?)"
                )


def wald_ci(estimate: float, variance: float, level: float = 0.95) -> tuple[float, float]:
    """Symmetric normal-theory interval: estimate +/- z * sqrt(variance)."""
    if variance < 0:
        raise EstimationError("variance must be >= 0")
    if not 0 < level < 1:
        raise EstimationError("level must lie in (0, 1)")
    z = float(norm.ppf(0.5 + level / 2.0))
    half = z * math.sqrt(variance)
    return estimate - half, estimate + half
