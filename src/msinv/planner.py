"""Survey planning: true variance prediction and the repeat-visit diagnostic.

Planning a future survey means asking how the variance splits across the
three stages for a hypothetical design (stratum sample sizes, day counts,
pass counts and detection levels) and representative emission profiles.  The
true-variance formulas are evaluated exactly here, either on a fully
specified micro population (used to cross-check against the enumeration
oracle) or on compact per-stratum scenario profiles in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .frame import SurveyFrame, count, json_list, json_object, number, read_json, text
from .oracle import MicroPopulation
from .pod import DEFAULT_MEASUREMENT, DEFAULT_POD, MeasurementModel, PodParams, bias_correct, pod
from .reporting import EstimationError

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


def _stage2(d: int, big_d: int, s2: float, detection: float) -> float:
    """A component's true stage II variance: d of D days under the starred day design.

    Day t is drawn with pi_t = phi_t d/D, and days t != u together with
    pi_tu = phi_t phi_u d(d-1)/(D(D-1)), phi_t being the day's any-detection
    probability; IPW draws a plain SRS of days, which is this design with
    phi_t = 1 on every day.  The Horvitz-Thompson variance
    (1/D^2) sum_t sum_u (pi_tu - pi_t pi_u)(ybar_t/pi_t)(ybar_u/pi_u) is then

        (1/d - 1/D) S^2 + sum_t (1/phi_t - 1) ybar_t^2 / (d D),

    the textbook SRS term in ``s2``, the sample variance S^2 of the D daily
    means, plus a detection term, ``detection`` being the sum over t.  Both
    terms are sums of nonnegative parts, so nothing cancels.
    """
    return (1.0 / d - 1.0 / big_d) * s2 + detection / (d * big_d)


def predict_variance_exact(pop: MicroPopulation, estimator: str = "ipw") -> StageVariances:
    """Evaluate the true three-stage variance formulas on a micro population.

    For IPW this is exact and matches the enumeration oracle to numerical
    precision.  For the Hajek estimator the within-day variance is the Taylor
    linearisation, so agreement with enumeration is approximate by design.
    Raises ValueError on a day without passes, whose mean rate is undefined.
    """
    if estimator not in {"ipw", "hajek"}:
        raise ValueError("estimator must be 'ipw' or 'hajek'")
    pop.require_passes()
    big_d = pop.horizon
    d = pop.days_sampled

    facs = pop.stratum_facilities()
    v_two = v_three = 0.0
    fac_sums: dict[str, float] = {}
    for comp in pop.components:
        ybars = [sum(p.rate for p in day) / len(day) for day in comp.days]
        mean = sum(ybars) / big_d
        fac_sums[comp.facility_id] = fac_sums.get(comp.facility_id, 0.0) + mean
        stratum = pop.strata[pop.facilities[comp.facility_id]]
        pi1 = stratum.n_sampled / stratum.n_population
        if estimator == "ipw":
            phi_dots = [1.0] * big_d
            daily_vars = [_true_daily_ipw_var(day) for day in comp.days]
        else:
            phi_dots = [1.0 - math.prod(1.0 - p.phi for p in day) for day in comp.days]
            daily_vars = [_true_daily_hajek_var(day) for day in comp.days]
        s2 = sum((y - mean) ** 2 for y in ybars) / (big_d - 1) if big_d > 1 else 0.0
        v2_p = _stage2(d, big_d, s2,
                       sum((1.0 - ph) / ph * y * y for y, ph in zip(ybars, phi_dots)))
        v3_p = sum(v / ph for v, ph in zip(daily_vars, phi_dots)) / (d * big_d)
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

    def __post_init__(self):
        if not 0 <= self.ybar < math.inf:
            raise ValueError(f"profile ybar must be a finite number >= 0, got {self.ybar!r}")
        if not 0 <= self.day_sd < math.inf:
            raise ValueError(f"profile day_sd must be a finite number >= 0, got {self.day_sd!r}")
        if self.count < 0:
            raise ValueError(f"profile count must be >= 0, got {self.count!r}")


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
        if not self.pass_phis:
            raise ValueError(f"stratum {self.name!r}: need at least one pass per day")
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


_STRATUM_KEYS = ("name", "n_sampled", "n_population", "profiles", "pass_phis")

# Most passes per survey day a scenario stratum may hold.  A real survey flies
# a handful; the bound keeps a typo such as 10**15 from building a list that
# no machine holds.  At this limit `msinv plan` peaks near 37 MiB RSS, against
# 35 MiB for one pass (2-vCPU Linux machine).
MAX_PASSES_PER_DAY = 100_000


def _passes_per_day(n: int, key: str) -> int:
    if n > MAX_PASSES_PER_DAY:
        raise ValueError(f"{key}: at most {MAX_PASSES_PER_DAY} passes per day, got {n}")
    return n


def scenario_from_json(path) -> PlanScenario:
    """Load a scenario from the JSON document at ``path``.

    ``pass_phis`` is a list with one detection probability per pass, or one
    number that ``passes_per_day`` (default 1) repeats; either way at most
    `MAX_PASSES_PER_DAY` passes.  See the README section "Configuration files".
    """
    doc = json_object(read_json(path), "scenario", required=("strata",),
                      optional=("horizon_days", "days_sampled"))
    strata = []
    for i, s in enumerate(json_list(doc["strata"], "strata")):
        where = f"strata[{i}]"
        s = json_object(s, where, required=_STRATUM_KEYS, optional=("passes_per_day",))
        if isinstance(s["pass_phis"], list):
            if "passes_per_day" in s:
                raise ValueError(f"{where}: passes_per_day needs a single pass_phis number")
            _passes_per_day(len(s["pass_phis"]), f"{where}.pass_phis")
            phis = [number(p, f"{where}.pass_phis") for p in s["pass_phis"]]
        else:
            key = f"{where}.passes_per_day"
            phis = [number(s["pass_phis"], f"{where}.pass_phis")] * _passes_per_day(
                count(s.get("passes_per_day", 1), key), key)
        profiles = []
        for j, p in enumerate(json_list(s["profiles"], f"{where}.profiles")):
            at = f"{where}.profiles[{j}]"
            p = json_object(p, at, required=("ybar",), optional=("day_sd", "count"))
            # an absent key takes the dataclass default
            profiles.append(PlanProfile(
                ybar=number(p["ybar"], f"{at}.ybar"),
                **{k: read(p[k], f"{at}.{k}") for k, read in (("day_sd", number), ("count", count))
                   if k in p}))
        strata.append(PlanStratum(
            name=text(s["name"], f"{where}.name"),
            n_sampled=count(s["n_sampled"], f"{where}.n_sampled"),
            n_population=count(s["n_population"], f"{where}.n_population"),
            profiles=tuple(profiles),
            pass_phis=tuple(phis),
        ))
    return PlanScenario(strata=tuple(strata), **{
        name: count(doc[key], key)
        for name, key in (("horizon", "horizon_days"), ("days_sampled", "days_sampled"))
        if key in doc})


def predict_variance(scenario: PlanScenario, estimator: str = "ipw"):
    """Closed-form stage variances for a scenario, per stratum and overall.

    Returns (overall StageVariances, {stratum name: StageVariances}).  Raises
    `EstimationError` when a stage part is too large to represent.
    """
    if estimator not in {"ipw", "hajek"}:
        raise ValueError("estimator must be 'ipw' or 'hajek'")
    big_d, d = scenario.horizon, scenario.days_sampled
    per_stratum: dict[str, StageVariances] = {}
    for s in scenario.strata:
        try:
            sv = _stratum_variances(s, big_d, d, estimator)
        except OverflowError:  # float ** raises where * gives inf
            sv = StageVariances(math.inf, 0.0, 0.0)
        _require_finite(sv, f"stratum {s.name!r}")
        per_stratum[s.name] = sv
    overall = StageVariances(
        stage1=sum(v.stage1 for v in per_stratum.values()),
        stage2=sum(v.stage2 for v in per_stratum.values()),
        stage3=sum(v.stage3 for v in per_stratum.values()),
    )
    _require_finite(overall, "scenario total")
    return overall, per_stratum


def _stratum_variances(s: PlanStratum, big_d: int, d: int, estimator: str) -> StageVariances:
    q = len(s.pass_phis)
    f = s.n_sampled / s.n_population
    k3 = sum((1.0 - phi) / phi for phi in s.pass_phis) / (q * q)
    phi_dot = 1.0 if estimator == "ipw" else 1.0 - math.prod(1.0 - phi for phi in s.pass_phis)
    v2 = v3 = 0.0
    for prof in s.profiles:
        # the D daily means have mean ybar and sample variance day_sd^2
        m2 = (big_d - 1) * prof.day_sd**2 + big_d * prof.ybar**2
        v2_p = _stage2(d, big_d, prof.day_sd**2, (1.0 - phi_dot) / phi_dot * m2)
        # passes share the day rate, so the linearised within-day variance
        # of the ratio estimator vanishes
        v3_p = k3 * m2 / (big_d * d) if estimator == "ipw" else 0.0
        v2 += prof.count * v2_p / f
        v3 += prof.count * v3_p / f
    # S_b^2 of the N facility values: each profile's ybar count times, zero
    # for the remaining facilities
    big_n = s.n_population
    mean = sum(p.count * p.ybar for p in s.profiles) / big_n
    zeros = big_n - sum(p.count for p in s.profiles)
    ss = sum(p.count * (p.ybar - mean) ** 2 for p in s.profiles) + zeros * mean * mean
    s_b2 = ss / (big_n - 1) if big_n > 1 else 0.0
    v1 = big_n**2 * (1.0 / s.n_sampled - 1.0 / big_n) * s_b2
    return StageVariances(stage1=v1, stage2=v2, stage3=v3)


def _require_finite(sv: StageVariances, where: str):
    # the sum is finite only if every stage part is
    if not math.isfinite(sv.total):
        raise EstimationError(f"{where}: a predicted stage variance is too large to "
                              "represent (an extreme ybar, day_sd or pass_phis?)")


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
    quartiles: tuple[float, float, float]


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
    for cid, day in frame.passes_per_day:      # each component's days in order
        first_day.setdefault(cid, day)
    c = frame.passes
    # the detected passes in log order, which sets the order of each product;
    # their PODs in one array call, as the estimate computes them
    detected = itertools.compress(zip(c.component_id, c.day_id), c.detected.tolist())
    phis = pod(bias_correct(c.measured_rate, measurement), c.altitude, c.wind_speed, pod_params)
    fac_of = dict(zip(frame.registry.component_id, frame.registry.facility_id))
    fac_day_phis: dict[tuple[str, int], list[float]] = {}
    for (cid, day), phi in zip(detected, phis.tolist()):
        fac_day_phis.setdefault((fac_of[cid], day), []).append(phi)
    gammas = {}
    for cid, day in first_day.items():
        gammas[cid] = gamma_p(fac_day_phis.get((fac_of[cid], day), ()))
    values = np.array(sorted(gammas.values()))
    q1, q2, q3 = (
        (float(np.quantile(values, 0.25)), float(np.quantile(values, 0.5)),
         float(np.quantile(values, 0.75)))
        if len(values)
        else (0.0, 0.0, 0.0)
    )
    return GammaTable(gammas=gammas, quartiles=(q1, q2, q3))
