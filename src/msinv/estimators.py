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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import reporting
from .frame import StratumDef, SurveyFrame
from .pod import PHI_FLOOR, PodParams, DEFAULT_POD, phi_any_detection, pod
from .reporting import EstimationError, wald_ci

__all__ = [
    "EstimationError",
    "EstimatorConfig",
    "DailyEstimate",
    "ComponentEstimate",
    "ComponentObs",
    "StratumEstimate",
    "SurveyEstimate",
    "ipw_daily",
    "ipw_daily_var",
    "hajek_daily",
    "hajek_daily_var",
    "daily_estimate",
    "starred_daily",
    "component_srs_hajek",
    "impute_component_variance",
    "wells_allocate",
    "stratum_total",
    "estimate_survey",
    "total_inventory",
    "wald_ci",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Selects one analysis variant.

    ``stage2`` is ``"year"`` (a fixed horizon of ``horizon`` days, day sampling
    contributes variance) or ``"observed"`` (the horizon is each component's
    own surveyed days, a census at stage II).  ``plan`` switches the IPW
    estimator between the original day design and the detection-conditioned
    (starred) one; the two give identical totals and variances, which is
    exactly what the starred construction promises.  The Hajek estimator only
    exists on the starred design.  Every (estimator, plan) pair expands its
    days by one closed form (`_starred_srs`); the original plan is the
    starred one with phi_hat = 1 on every surveyed day.
    ``decomposition`` selects the stage III split: ``"corrected"`` (1/D^2,
    stage-wise unbiased) or ``"printed"`` (the literal 1/D display).
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
        return asdict(self)


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


def ipw_daily(detections, q_total: int, day_id: int = 0) -> DailyEstimate:
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
        day_id=day_id,
    )


def ipw_daily_var(detections, q_total: int) -> float:
    """Poisson-sampling variance estimate (1/Q^2) sum (1-phi)/phi^2 * Y^2."""
    _check_detections(detections, q_total)
    return sum((1.0 - phi) / (phi * phi) * y * y for y, phi in detections) / (q_total * q_total)


def hajek_daily(detections, q_total: int, phi_hat: float, day_id: int = 0) -> DailyEstimate:
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


def daily_estimate(rates, phis, q_total: int, estimator: str, day_id: int = 0) -> DailyEstimate:
    """The daily estimate of one component-day from its detected passes.

    ``rates`` and ``phis`` are the detected passes' rates and detection
    probabilities; ``q_total`` counts every pass of the day.  Returns
    `ipw_daily` or `hajek_daily` by ``estimator``, with ``phi_hat`` (the
    any-detection probability) set whenever something was detected.  A day
    with no detection is the zero estimate for either estimator: the Hajek
    ratio is undefined there, and the starred design leaves the day out.
    """
    detections = list(zip(rates, phis))
    if estimator == "hajek" and detections:
        phi_hat = phi_any_detection(phis, q_total - len(detections))
        return hajek_daily(detections, q_total, phi_hat, day_id=day_id)
    est = ipw_daily(detections, q_total, day_id=day_id)
    if detections:
        est.phi_hat = phi_any_detection(phis, q_total - len(detections))
    return est


def starred_daily(daily: DailyEstimate, phi_hat: float) -> DailyEstimate:
    """Reweight an IPW daily estimate to the detection-conditioned design.

    The starred-design IPW estimate of the same daily mean is phi_hat times
    the original, and its variance estimate collapses to

        phi_hat * var + phi_hat * (phi_hat - 1) * mean^2,

    which is the generic HT variance under the starred within-day
    probabilities (verified against `daily_var_generic` in the tests).  The
    value may be negative; it is an intermediate HT quantity and clipping it
    would break the exact equivalence with the original design.  For a day
    of one pass it is 0 up to rounding, which 1/phi_hat^2 amplifies
    downstream, so the square is a product, as in the batched kernel
    (``**`` can differ from it in the last bit).
    """
    mean = daily.mean_rate
    return replace(
        daily,
        mean_rate=phi_hat * mean,
        var=phi_hat * daily.var + phi_hat * (phi_hat - 1.0) * (mean * mean),
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
    n_usable_days: int = 0


def component_srs_hajek(daily_star, d_p: int, horizon: int, phi_hats) -> ComponentEstimate:
    """Aggregate Hajek daily estimates over the starred day sample.

    ``daily_star`` holds only the days with detections; ``d_p`` is still the
    number of surveyed days.  The variance is the closed form of
    `_starred_srs`, clipped at zero.
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
    return _starred_srs(daily_star, d_p, horizon, phi_hats)


def _starred_srs(daily_star, d_p: int, horizon: int, phi_hats) -> ComponentEstimate:
    """Expand the detection days of d_p surveyed days under the starred day design.

    There day t is in the sample with probability pi_t = phi_t d/D, and days
    t != u together with pi_tu = phi_t phi_u d(d-1)/(D(D-1)).  The ratio
    pi_t pi_u / pi_tu = d(D-1)/(D(d-1)) is then the same for every pair, so
    the Horvitz-Thompson double sum collapses to sums over the m detection
    days:

        (1/D^2)[ sum_t D{D-1-phi_t(d-1)}/(d(d-1)) (Yhat_t/phi_t)^2
                 + D(d-D)/(d^2(d-1)) (sum_t Yhat_t/phi_t)^2
                 + sum_t D/(d phi_t) Vhat_t ],

    clipped at zero.  It holds for any m >= 1 once d >= 2.  For the Hajek
    estimator Yhat_t, Vhat_t are the Hajek daily estimates; for IPW on the
    modified plan they are the `starred_daily` ones.  The original plan, a
    simple random sample of d out of D days, is this design with phi_t = 1
    on every surveyed day, zero-detection days included: the form is then
    the textbook (1 - d/D) s^2/d + sum_t Vhat_t/(D d), which is never
    negative, and IPW on the modified plan gives it too, up to rounding.
    """
    # each sum runs left to right from 0, as Python's `sum` and the kernel do
    s1 = term1 = term3 = stage3 = 0.0
    for d, ph in zip(daily_star, phi_hats):
        r = d.mean_rate / ph
        s1 += r
        term1 += horizon * (horizon - 1 - ph * (d_p - 1)) / (d_p * (d_p - 1)) * r * r
        term3 += horizon / (d_p * ph) * d.var
        stage3 += d.var / (ph * ph)
    term2 = horizon * (d_p - horizon) / (d_p * d_p * (d_p - 1)) * s1 * s1
    var = (term1 + term2 + term3) / (horizon * horizon)
    return ComponentEstimate(
        component_id="",
        mean_rate=s1 / d_p,
        var=max(0.0, var),
        var_stage3_part=stage3 / (d_p * d_p),
        horizon=horizon,
        n_usable_days=len(daily_star),
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
class ComponentObs:
    """One component's observations, ready for estimation.

    ``dailies`` holds one daily estimate per surveyed day, in day order, as
    built by `daily_estimate` for the configured estimator (or, for wells,
    the site's shares of them).
    """

    component_id: str
    facility_id: str
    stratum: str
    dailies: tuple[DailyEstimate, ...]


def _estimate_component(comp: ComponentObs, config: EstimatorConfig):
    """Return (estimate, needs_pooling).  Pooled estimates lack ``var``.

    The estimate carries no component, facility or stratum label yet.
    """
    dailies = comp.dailies
    d_p = len(dailies)
    horizon = d_p if config.stage2 == "observed" else config.horizon
    if d_p > horizon:
        raise EstimationError(
            f"component {comp.component_id!r}: d_p={d_p} exceeds the horizon D={horizon}"
        )
    star = [d for d in dailies if d.n_detected > 0]
    if not star:
        return ComponentEstimate("", 0.0, 0.0, 0.0, horizon, zero_emitter=True), False

    if config.estimator == "ipw" and config.plan == "original":
        # the original plan is the starred one with phi_hat = 1 on every
        # surveyed day, zero-detection days included (see `_starred_srs`)
        star, phis = dailies, [1.0] * d_p
    else:
        phis = [d.phi_hat for d in star]
        if config.estimator == "ipw":  # modified (starred) plan
            star = [starred_daily(d, ph) for d, ph in zip(star, phis)]
    # a pooled unit: one surveyed day, or for Hajek one detection day
    if (len(star) if config.estimator == "hajek" else d_p) == 1:
        d0 = star[0]
        mean = d0.mean_rate / (phis[0] * d_p)
        stage3 = d0.var / (phis[0] * phis[0] * d_p * d_p)
        return ComponentEstimate("", mean, math.nan, stage3, horizon, n_usable_days=1), True
    if config.estimator == "hajek":
        return component_srs_hajek(star, d_p, horizon, phis), False
    # usable days for pooling purposes counts surveyed days: an IPW variance
    # is estimable whenever d_p >= 2
    return replace(_starred_srs(star, d_p, horizon, phis), n_usable_days=d_p), False


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
        est.component_id, est.facility_id, est.stratum = (
            comp.component_id, comp.facility_id, comp.stratum)
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


def prepare_components(frame: SurveyFrame, rates, phis, config: EstimatorConfig):
    """Build the ComponentObs of every unit in ``frame.units``.

    ``rates``/``phis`` align with ``frame.measured_rates``.  A well site's
    daily estimates are spread evenly over its registered wells by
    `wells_allocate`, each share's phi_hat pooling every pass of the site
    that day, and each well becomes its own stage I unit in the wells stratum.
    """
    if len(rates) != len(frame.measured_rates) or len(phis) != len(frame.measured_rates):
        raise EstimationError("rates/phis must align with the frame's detected passes")
    rates = np.asarray(rates, dtype=float).tolist()
    phis = np.asarray(phis, dtype=float).tolist()
    out: list[ComponentObs] = []
    for unit in frame.units:
        dailies = [daily_estimate([rates[i] for i in positions], [phis[i] for i in positions],
                                  q_pt, config.estimator, day_id=day.day_id)
                   for day in unit.days for positions, q_pt in day.parts]
        if not unit.wells:
            out.append(ComponentObs(unit.unit_id, unit.members[0], unit.stratum, tuple(dailies)))
            continue
        allocated = wells_allocate(dailies, unit.wells)
        shares = []
        for day in unit.days:
            mean, var = allocated[day.day_id]
            pooled = [phis[i] for positions, _ in day.parts for i in positions]
            misses = sum(q_pt - len(positions) for positions, q_pt in day.parts)
            phi_hat = phi_any_detection(pooled, misses) if pooled else None
            shares.append(DailyEstimate(mean, var, phi_hat=phi_hat,
                                        n_detected=len(pooled), day_id=day.day_id))
        out.extend(ComponentObs(wid, wid, unit.stratum, tuple(shares)) for wid in unit.members)
    return out


def total_inventory(frame: SurveyFrame, config: EstimatorConfig, rates=None):
    """One design pass over a survey frame: point estimate, variance split, CI.

    ``rates`` optionally overrides the measured rates (aligned with
    ``frame.measured_rates``); detection probabilities are always recomputed
    from the rates actually used.  Returns an `InventoryReport` in kt/y.
    """
    rates = frame.measured_rates if rates is None else np.asarray(rates, dtype=float)
    raw_phi = (pod(rates, frame.altitudes, frame.wind_speeds, config.pod_params)
               if len(rates) else np.zeros(0))
    raw_phi = np.atleast_1d(raw_phi)
    floor_hits = int(np.count_nonzero(raw_phi < PHI_FLOOR))
    phis = np.maximum(raw_phi, PHI_FLOOR)
    try:
        comps = prepare_components(frame, rates, phis, config)
        est = estimate_survey(comps, frame.strata, config, phi_floor_hits=floor_hits)
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
