"""Survey planning: true variance prediction and the repeat-visit diagnostic.

Planning a future survey means asking how the variance splits across the
three stages for a hypothetical design (stratum sample sizes, day counts,
pass counts and detection levels) and representative emission profiles.  The
true-variance formulas are evaluated exactly here, either on a fully
specified micro population (used to cross-check against the enumeration
oracle) or on compact per-stratum scenario profiles in closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .frame import SurveyFrame
from .oracle import MicroPopulation
from .pod import DEFAULT_MEASUREMENT, DEFAULT_POD, MeasurementModel, PodParams, bias_correct, pod

__all__ = [
    "StageVariances",
    "PlanProfile",
    "PlanStratum",
    "PlanScenario",
    "scenario_from_json",
    "predict_variance",
    "predict_variance_exact",
    "gamma_p",
    "gamma_table",
]


@dataclass(frozen=True)
class StageVariances:
    """True variance contributions of the three sampling stages."""

    stage1: float
    stage2: float
    stage3: float

    @property
    def total(self) -> float:
        return self.stage1 + self.stage2 + self.stage3


# ---------------------------------------------------------------------------
# Exact evaluation on a fully specified population
# ---------------------------------------------------------------------------


def _true_daily_ipw_var(passes) -> float:
    q = len(passes)
    return sum((1.0 - p.phi) / p.phi * p.rate**2 for p in passes) / (q * q)


def _true_daily_hajek_var(passes) -> float:
    # Taylor-linearised variance of the within-day ratio estimator
    q = len(passes)
    ybar = sum(p.rate for p in passes) / q
    phi_dot = 1.0 - math.prod(1.0 - p.phi for p in passes)
    a = sum(phi_dot * (1.0 - p.phi) / p.phi * (p.rate - ybar) ** 2 for p in passes)
    b = (phi_dot - 1.0) * sum(p.rate - ybar for p in passes) ** 2
    return (a + b) / (q * q)


def _day_moment_sum(ybars, marginals, joints) -> float:
    """sum_t sum_u (pi_tu - pi_t pi_u) (y_t/pi_t)(y_u/pi_u)."""
    total = 0.0
    m = len(ybars)
    for t in range(m):
        zt = ybars[t] / marginals[t]
        for u in range(m):
            total += (joints[t][u] - marginals[t] * marginals[u]) * zt * ybars[u] / marginals[u]
    return total


def predict_variance_exact(pop: MicroPopulation, estimator: str = "ipw") -> StageVariances:
    """Evaluate the true three-stage variance formulas on a micro population.

    For IPW this is exact and matches the enumeration oracle to numerical
    precision.  For the Hajek estimator the within-day variance is the Taylor
    linearisation, so agreement with enumeration is approximate by design.
    """
    if estimator not in {"ipw", "hajek"}:
        raise ValueError("estimator must be 'ipw' or 'hajek'")
    big_d = pop.horizon
    d = pop.days_sampled
    f2 = d / big_d
    j2 = d * (d - 1) / (big_d * (big_d - 1)) if big_d > 1 else f2

    facs = pop.stratum_facilities()
    v_two = v_three = 0.0
    fac_sums: dict[str, float] = {}
    for comp in pop.components:
        ybars = [sum(p.rate for p in day) / len(day) for day in comp.days]
        fac_sums[comp.facility_id] = fac_sums.get(comp.facility_id, 0.0) + sum(ybars) / big_d
        stratum = pop.strata[pop.facilities[comp.facility_id]]
        pi1 = stratum.n_sampled / stratum.n_population
        if estimator == "ipw":
            marginals = [f2] * big_d
            joints = [[f2 if t == u else j2 for u in range(big_d)] for t in range(big_d)]
            daily_vars = [_true_daily_ipw_var(day) for day in comp.days]
        else:
            phi_dots = [1.0 - math.prod(1.0 - p.phi for p in day) for day in comp.days]
            marginals = [pd * f2 for pd in phi_dots]
            joints = [
                [
                    marginals[t] if t == u else phi_dots[t] * phi_dots[u] * j2
                    for u in range(big_d)
                ]
                for t in range(big_d)
            ]
            daily_vars = [_true_daily_hajek_var(day) for day in comp.days]
        v2_p = _day_moment_sum(ybars, marginals, joints) / (big_d * big_d)
        v3_p = sum(v / m for v, m in zip(daily_vars, marginals)) / (big_d * big_d)
        v_two += v2_p / pi1
        v_three += v3_p / pi1

    v_one = 0.0
    for name, stratum in pop.strata.items():
        n, big_n = stratum.n_sampled, stratum.n_population
        f = n / big_n
        fac_vals = [fac_sums.get(fac, 0.0) for fac in facs[name]]
        total = sum(fac_vals)
        sumsq = sum(v * v for v in fac_vals)
        v_one += (1.0 - f) / f * sumsq
        if big_n > 1:
            g = n * (n - 1) / (big_n * (big_n - 1))
            v_one += (g - f * f) / (f * f) * (total * total - sumsq)
    return StageVariances(stage1=v_one, stage2=v_two, stage3=v_three)


# ---------------------------------------------------------------------------
# Closed-form evaluation on scenario profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanProfile:
    """A representative component: mean daily rate, day-to-day SD, multiplicity."""

    ybar: float
    day_sd: float = 0.0
    count: int = 1


@dataclass(frozen=True)
class PlanStratum:
    """Hypothetical design and emission profile for one stratum.

    ``pass_phis`` holds one detection probability per pass of a survey day.
    Profile counts may sum to less than ``n_population``; the remainder are
    zero-emitting facilities.  Passes within a day share the day's rate, so
    the scenario layer has no within-day dispersion (supply a micro
    population to `predict_variance_exact` when that matters).
    """

    name: str
    n_sampled: int
    n_population: int
    profiles: tuple[PlanProfile, ...]
    pass_phis: tuple[float, ...]

    def __post_init__(self):
        if not 1 <= self.n_sampled <= self.n_population:
            raise ValueError(f"stratum {self.name!r}: need 1 <= n <= N")
        if sum(p.count for p in self.profiles) > self.n_population:
            raise ValueError(f"stratum {self.name!r}: profile counts exceed n_population")
        for phi in self.pass_phis:
            if not 0 < phi <= 1:
                raise ValueError("pass detection probabilities must lie in (0, 1]")


@dataclass(frozen=True)
class PlanScenario:
    strata: tuple[PlanStratum, ...]
    horizon: int = 365
    days_sampled: int = 2

    def __post_init__(self):
        if not 1 <= self.days_sampled <= self.horizon:
            raise ValueError("need 1 <= days_sampled <= horizon")


def scenario_from_json(source) -> PlanScenario:
    """Load a scenario from its JSON form (path, file object or dict)."""
    if hasattr(source, "read"):
        doc = json.load(source)
    elif isinstance(source, dict):
        doc = source
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    strata = []
    for s in doc["strata"]:
        phis = s["pass_phis"]
        if isinstance(phis, (int, float)):
            phis = [phis] * int(s.get("passes_per_day", 1))
        strata.append(
            PlanStratum(
                name=s["name"],
                n_sampled=int(s["n_sampled"]),
                n_population=int(s["n_population"]),
                profiles=tuple(
                    PlanProfile(ybar=float(p["ybar"]),
                                day_sd=float(p.get("day_sd", 0.0)),
                                count=int(p.get("count", 1)))
                    for p in s["profiles"]
                ),
                pass_phis=tuple(float(p) for p in phis),
            )
        )
    return PlanScenario(
        strata=tuple(strata),
        horizon=int(doc.get("horizon_days", 365)),
        days_sampled=int(doc.get("days_sampled", 2)),
    )


def _day_moment_closed(m2: float, s1: float, marginal: float, joint_offdiag: float) -> float:
    """Closed form of `_day_moment_sum` for exchangeable day designs.

    Uses only the day second moment M2 = sum y_t^2 and first moment
    S1 = sum y_t, valid because marginals and off-diagonal joints are
    constant across days.
    """
    return (1.0 - marginal) / marginal * m2 + (
        (joint_offdiag - marginal * marginal) / (marginal * marginal)
    ) * (s1 * s1 - m2)


def predict_variance(scenario: PlanScenario, estimator: str = "ipw"):
    """Closed-form stage variances for a scenario, per stratum and overall.

    Returns (overall StageVariances, {stratum name: StageVariances}).
    """
    if estimator not in {"ipw", "hajek"}:
        raise ValueError("estimator must be 'ipw' or 'hajek'")
    big_d, d = scenario.horizon, scenario.days_sampled
    f2 = d / big_d
    j2 = d * (d - 1) / (big_d * (big_d - 1)) if big_d > 1 else f2
    per_stratum: dict[str, StageVariances] = {}
    for s in scenario.strata:
        q = len(s.pass_phis)
        f = s.n_sampled / s.n_population
        k3 = sum((1.0 - phi) / phi for phi in s.pass_phis) / (q * q)
        phi_dot = 1.0 - math.prod(1.0 - phi for phi in s.pass_phis)
        v2 = v3 = 0.0
        fac_vals: list[float] = []
        for prof in s.profiles:
            m2 = (big_d - 1) * prof.day_sd**2 + big_d * prof.ybar**2
            s1 = big_d * prof.ybar
            if estimator == "ipw":
                v2_p = _day_moment_closed(m2, s1, f2, j2) / (big_d * big_d)
                v3_p = k3 * m2 / (big_d * d)
            else:
                gm = phi_dot * f2
                v2_p = _day_moment_closed(m2, s1, gm, phi_dot * phi_dot * j2) / (
                    big_d * big_d
                )
                # passes share the day rate, so the linearised within-day
                # variance of the ratio estimator vanishes
                v3_p = 0.0
            v2 += prof.count * v2_p / f
            v3 += prof.count * v3_p / f
            fac_vals.extend([prof.ybar] * prof.count)
        fac_vals.extend([0.0] * (s.n_population - len(fac_vals)))
        arr = np.asarray(fac_vals)
        s_b2 = float(arr.var(ddof=1)) if len(arr) > 1 else 0.0
        v1 = s.n_population**2 * (1.0 / s.n_sampled - 1.0 / s.n_population) * s_b2
        per_stratum[s.name] = StageVariances(stage1=v1, stage2=v2, stage3=v3)
    overall = StageVariances(
        stage1=sum(v.stage1 for v in per_stratum.values()),
        stage2=sum(v.stage2 for v in per_stratum.values()),
        stage3=sum(v.stage3 for v in per_stratum.values()),
    )
    return overall, per_stratum


# ---------------------------------------------------------------------------
# Repeat-visit diagnostic
# ---------------------------------------------------------------------------


def gamma_p(site_pass_phis) -> float:
    """Probability of at least one detection across the given passes."""
    out = 1.0
    for phi in site_pass_phis:
        if not 0 <= phi <= 1:
            raise ValueError("detection probabilities must lie in [0, 1]")
        out *= 1.0 - phi
    return 1.0 - out


@dataclass(frozen=True)
class GammaTable:
    """Per-component any-detection probabilities on the initial survey day."""

    gammas: dict[str, float]
    quartiles: tuple[float, float, float] = field(default=(0.0, 0.0, 0.0))

    def as_rows(self):
        return [
            {"component_id": cid, "gamma": g} for cid, g in sorted(self.gammas.items())
        ]


def gamma_table(
    frame: SurveyFrame,
    pod_params: PodParams = DEFAULT_POD,
    measurement: MeasurementModel = DEFAULT_MEASUREMENT,
) -> GammaTable:
    """Estimate each component's initial-day any-detection probability.

    A second visit to a component happened only if its site produced a
    detection on the first day.  The estimate is conservative: the facility
    stands in for the site, only detected passes contribute, and their PODs
    come from bias-corrected measured rates.
    """
    first_day: dict[str, int] = {}
    for p in frame.passes:
        cur = first_day.get(p.component_id)
        if cur is None or p.day_id < cur:
            first_day[p.component_id] = p.day_id
    fac_day_phis: dict[tuple[str, int], list[float]] = {}
    for p in frame.passes:
        if not p.detected:
            continue
        fac = frame.components[p.component_id].facility_id
        phi = pod(
            bias_correct(p.measured_rate, measurement), p.altitude, p.wind_speed, pod_params
        )
        fac_day_phis.setdefault((fac, p.day_id), []).append(float(phi))
    gammas = {}
    for cid, day in first_day.items():
        fac = frame.components[cid].facility_id
        gammas[cid] = gamma_p(fac_day_phis.get((fac, day), ()))
    values = np.array(sorted(gammas.values()))
    q1, q2, q3 = (
        (float(np.quantile(values, 0.25)), float(np.quantile(values, 0.5)),
         float(np.quantile(values, 0.75)))
        if len(values)
        else (0.0, 0.0, 0.0)
    )
    return GammaTable(gammas=gammas, quartiles=(q1, q2, q3))
