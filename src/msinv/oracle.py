"""Exact enumeration of every sampling outcome on tiny populations.

For a fully specified micro population (every facility, component, day, pass
and detection probability known), each possible realisation of the three-stage
sample has a computable probability.  Running the production estimation
pipeline on every realisation yields the exact sampling distribution of the
estimators, against which unbiasedness and the variance decomposition are
checked to near machine precision.  Per-pass detection probabilities are
supplied directly rather than through the POD curve so the design math is
tested in isolation from the instrument physics.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import (
    ComponentObs,
    DailyEstimate,
    EstimatorConfig,
    estimate_survey,
    hajek_daily,
    ipw_daily,
)
from .frame import StratumDef
from .pod import phi_any_detection

__all__ = [
    "MicroPass",
    "MicroComponent",
    "MicroPopulation",
    "micro_from_json",
    "true_total",
    "enumerate_outcomes",
    "OutcomeDistribution",
    "exact_stage_variances",
    "outcome_probabilities",
]

MAX_OUTCOMES = 1_000_000


@dataclass(frozen=True)
class MicroPass:
    rate: float
    phi: float

    def __post_init__(self):
        if not 0 < self.phi <= 1:
            raise ValueError("phi must lie in (0, 1]")
        if self.rate < 0:
            raise ValueError("rate must be >= 0")


@dataclass(frozen=True)
class MicroComponent:
    component_id: str
    facility_id: str
    days: tuple[tuple[MicroPass, ...], ...]


@dataclass(frozen=True)
class MicroPopulation:
    """A complete population small enough to enumerate.

    ``strata`` carries the stage I draw sizes (n_sampled out of
    n_population facilities per stratum), ``facilities`` maps facility to
    stratum, and every component lists its per-pass true rates and detection
    probabilities for all ``horizon`` days.  ``days_sampled`` is the common
    stage II sample size d_p.
    """

    strata: dict[str, StratumDef]
    facilities: dict[str, str]
    components: tuple[MicroComponent, ...]
    days_sampled: int

    def __post_init__(self):
        horizons = {len(c.days) for c in self.components}
        if len(horizons) != 1:
            raise ValueError("all components must cover the same number of days")
        if not 1 <= self.days_sampled <= self.horizon:
            raise ValueError("days_sampled must lie in 1..horizon")
        for fac, stratum in self.facilities.items():
            if stratum not in self.strata:
                raise ValueError(f"facility {fac!r} references unknown stratum {stratum!r}")
        for c in self.components:
            if c.facility_id not in self.facilities:
                raise ValueError(f"component {c.component_id!r} references unknown facility")
        by_stratum: dict[str, set[str]] = {}
        for fac, stratum in self.facilities.items():
            by_stratum.setdefault(stratum, set()).add(fac)
        for name, d in self.strata.items():
            if d.n_population != len(by_stratum.get(name, ())):
                raise ValueError(
                    f"stratum {name!r}: n_population={d.n_population} but "
                    f"{len(by_stratum.get(name, ()))} facilities are defined"
                )

    @property
    def horizon(self) -> int:
        return len(self.components[0].days)

    def stratum_facilities(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {name: [] for name in self.strata}
        for fac in sorted(self.facilities):
            out[self.facilities[fac]].append(fac)
        return out


def micro_from_json(source) -> MicroPopulation:
    """Build a micro population from its JSON fixture form (path or dict)."""
    if hasattr(source, "read"):
        doc = json.load(source)
    elif isinstance(source, dict):
        doc = source
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    strata = {
        name: StratumDef(name=name, n_sampled=s["n_sampled"], n_population=s["n_population"])
        for name, s in doc["strata"].items()
    }
    comps = tuple(
        MicroComponent(
            component_id=c["component_id"],
            facility_id=c["facility_id"],
            days=tuple(
                tuple(MicroPass(rate=p["rate"], phi=p["phi"]) for p in day)
                for day in c["days"]
            ),
        )
        for c in doc["components"]
    )
    return MicroPopulation(
        strata=strata,
        facilities=dict(doc["facilities"]),
        components=comps,
        days_sampled=int(doc["days_sampled"]),
    )


def true_total(pop: MicroPopulation) -> float:
    """The estimand: sum over components of the day-and-pass-averaged rate."""
    total = 0.0
    for c in pop.components:
        total += math.fsum(
            math.fsum(p.rate for p in day) / len(day) for day in c.days
        ) / pop.horizon
    return total


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


class _DayPattern(NamedTuple):
    """One detection outcome of a component-day.

    ``dailies`` maps estimator kind to the daily estimate for the pattern;
    the estimates are pure functions of the pattern, so computing them once
    keeps the per-outcome work down to assembly.
    """

    prob: float
    detected: bool
    dailies: dict[str, DailyEstimate]


def _day_patterns(comp: MicroComponent, day_idx: int) -> list[_DayPattern]:
    """All detection outcomes of one component-day with their probabilities."""
    passes = comp.days[day_idx]
    q = len(passes)
    out = []
    for mask in range(2**q):
        prob = 1.0
        rates, phis = [], []
        for i, p in enumerate(passes):
            if mask >> i & 1:
                prob *= p.phi
                rates.append(p.rate)
                phis.append(p.phi)
            else:
                prob *= 1.0 - p.phi
        dets = list(zip(rates, phis))
        ipw_est = ipw_daily(dets, q, component_id=comp.component_id, day_id=day_idx)
        if phis:
            phi_hat = phi_any_detection(phis, q - len(phis))
            ipw_est.phi_hat = phi_hat
            hajek_est = hajek_daily(dets, q, phi_hat,
                                    component_id=comp.component_id, day_id=day_idx)
        else:
            hajek_est = ipw_est
        out.append(_DayPattern(prob, bool(phis), {"ipw": ipw_est, "hajek": hajek_est}))
    return out


def _enumeration_size(pop: MicroPopulation) -> int:
    size = 1
    by_stratum = pop.stratum_facilities()
    for name, d in pop.strata.items():
        size *= math.comb(len(by_stratum[name]), d.n_sampled)
    per_comp = math.comb(pop.horizon, pop.days_sampled)
    worst_passes = 0
    for c in pop.components:
        size *= per_comp
        worst_passes += sum(
            len(day) for day in sorted(c.days, key=len, reverse=True)[: pop.days_sampled]
        )
    return size * 2**worst_passes


class _Outcome(NamedTuple):
    """One realisation of the three-stage sample.

    ``stage1`` and ``stage2`` index the stage I draw and the (stage I, stage
    II) cell the outcome belongs to.  ``design_prob`` is the probability of
    that cell, ``prob`` the full outcome probability.  ``patterns`` lists one
    detection pattern per sampled component-day, in component then day order,
    and ``obs`` the assembled observations per requested estimator kind.
    """

    stage1: int
    stage2: int
    design_prob: float
    prob: float
    components: list[MicroComponent]
    days: tuple[tuple[int, ...], ...]
    patterns: tuple[_DayPattern, ...]
    obs: dict[str, list[ComponentObs]]


def _observations(pop: MicroPopulation, components, days, patterns, kind: str):
    """The sampled components' ComponentObs built from one kind's daily estimates."""
    per_day = iter(patterns)
    return [
        ComponentObs(
            component_id=c.component_id,
            facility_id=c.facility_id,
            stratum=pop.facilities[c.facility_id],
            dailies=tuple(next(per_day).dailies[kind] for _ in sel),
        )
        for c, sel in zip(components, days)
    ]


def _outcomes(pop: MicroPopulation, kinds, max_outcomes: int = MAX_OUTCOMES):
    """Yield every stage I x II x III outcome exactly once.

    Outcomes come grouped by stage I draw, then by day selection.  ``kinds``
    names the estimator kinds whose observations each outcome carries.
    """
    size = _enumeration_size(pop)
    if size > max_outcomes:
        raise ValueError(f"enumeration would visit ~{size} outcomes (limit {max_outcomes})")

    by_stratum = pop.stratum_facilities()
    stage1_lists = []
    stage1_prob = 1.0
    for name in sorted(pop.strata):
        combos = list(itertools.combinations(by_stratum[name], pop.strata[name].n_sampled))
        stage1_lists.append(combos)
        stage1_prob /= len(combos)
    day_subsets = list(itertools.combinations(range(pop.horizon), pop.days_sampled))
    stage2_prob_one = 1.0 / len(day_subsets)
    patterns = {
        (c.component_id, t): _day_patterns(c, t)
        for c in pop.components
        for t in range(pop.horizon)
    }

    cell2 = 0
    for cell1, s1 in enumerate(itertools.product(*stage1_lists)):
        sampled_facs = set(itertools.chain.from_iterable(s1))
        sampled = [c for c in pop.components if c.facility_id in sampled_facs]
        design_prob = stage1_prob * stage2_prob_one ** len(sampled)
        for day_sel in itertools.product(day_subsets, repeat=len(sampled)):
            pairs = [(c, t) for c, days in zip(sampled, day_sel) for t in days]
            for det_sel in itertools.product(
                *(patterns[(c.component_id, t)] for c, t in pairs)
            ):
                p = design_prob
                for pattern in det_sel:
                    p *= pattern.prob
                obs = {kind: _observations(pop, sampled, day_sel, det_sel, kind)
                       for kind in kinds}
                yield _Outcome(cell1, cell2, design_prob, p, sampled, day_sel, det_sel, obs)
            cell2 += 1


@dataclass
class OutcomeDistribution:
    """Sampling distribution of one estimator configuration."""

    config: EstimatorConfig
    probabilities: np.ndarray
    totals: np.ndarray
    v3stage: np.ndarray
    clipped: dict[str, np.ndarray]
    unclipped: dict[str, np.ndarray]

    def _expect(self, values: np.ndarray) -> float:
        return math.fsum(p * v for p, v in zip(self.probabilities, values))

    def mean_total(self) -> float:
        return self._expect(self.totals)

    def var_total(self) -> float:
        m = self.mean_total()
        return self._expect((self.totals - m) ** 2)

    def expected_v3stage(self) -> float:
        return self._expect(self.v3stage)

    def expected_part(self, stage: str, clipped: bool = False) -> float:
        table = self.clipped if clipped else self.unclipped
        return self._expect(table[stage])

    def support_totals(self) -> dict[float, float]:
        """Total -> probability, merging numerically identical outcomes.

        Outcomes with probability zero (impossible detection patterns under
        phi = 1) are dropped.
        """
        out: dict[float, float] = {}
        for p, t in zip(self.probabilities, self.totals):
            if p == 0.0:
                continue
            key = round(float(t), 12)
            out[key] = out.get(key, 0.0) + float(p)
        return out


def enumerate_outcomes(
    pop: MicroPopulation,
    configs,
    max_outcomes: int = MAX_OUTCOMES,
) -> list[OutcomeDistribution]:
    """Run the estimation pipeline on every sampling outcome.

    ``configs`` is one EstimatorConfig or a sequence of them; all are
    evaluated in a single sweep of the outcome space.  Outcome probabilities
    are checked to sum to one.
    """
    if isinstance(configs, EstimatorConfig):
        configs = [configs]
    probs: list[float] = []
    per_config: list[dict[str, list[float]]] = [
        {k: [] for k in ("total", "v3stage", "v1", "v2", "v3", "u1", "u2", "u3")}
        for _ in configs
    ]
    kinds = sorted({cfg.estimator for cfg in configs})
    for outcome in _outcomes(pop, kinds, max_outcomes):
        probs.append(outcome.prob)
        for cfg, rec in zip(configs, per_config):
            est = estimate_survey(outcome.obs[cfg.estimator], pop.strata, cfg)
            rec["total"].append(est.total)
            rec["v3stage"].append(est.v3stage)
            rec["v1"].append(est.v1)
            rec["v2"].append(est.v2)
            rec["v3"].append(est.v3)
            rec["u1"].append(est.u1)
            rec["u2"].append(est.u2)
            rec["u3"].append(est.u3)

    total_p = math.fsum(probs)
    if abs(total_p - 1.0) > 1e-12:
        raise AssertionError(f"outcome probabilities sum to {total_p!r}, not 1")
    prob_arr = np.array(probs)
    out = []
    for cfg, rec in zip(configs, per_config):
        out.append(
            OutcomeDistribution(
                config=cfg,
                probabilities=prob_arr,
                totals=np.array(rec["total"]),
                v3stage=np.array(rec["v3stage"]),
                clipped={
                    "stage1": np.array(rec["v1"]),
                    "stage2": np.array(rec["v2"]),
                    "stage3": np.array(rec["v3"]),
                },
                unclipped={
                    "stage1": np.array(rec["u1"]),
                    "stage2": np.array(rec["u2"]),
                    "stage3": np.array(rec["u3"]),
                },
            )
        )
    return out


def exact_stage_variances(pop: MicroPopulation, config: EstimatorConfig):
    """Law-of-total-variance split of the estimator's exact variance.

    Returns (V_I, V_II, V_III):
        V_I   = Var over stage I draws of E[That | stage I]
        V_II  = E over stage I of Var over day draws of E[That | stages I, II]
        V_III = E over stages I, II of Var of That over detection outcomes.
    For inverse-probability weighting these equal the closed-form true
    variances evaluated by the survey planner.
    """
    m2_vals: list[float] = []       # E[That | s1] per stage I outcome
    var2_vals: list[float] = []     # Var_II(E_III[That]) per stage I outcome
    mean_v3_vals: list[float] = []  # E_II[Var_III(That)] per stage I outcome
    outcomes = _outcomes(pop, [config.estimator])
    for _, cell1 in itertools.groupby(outcomes, key=lambda o: o.stage1):
        m3_list: list[float] = []
        v3_list: list[float] = []
        for _, cell2 in itertools.groupby(cell1, key=lambda o: o.stage2):
            tot_p: list[float] = []
            tot_v: list[float] = []
            for outcome in cell2:
                # probability of the detections given stages I and II
                p = 1.0
                for pattern in outcome.patterns:
                    p *= pattern.prob
                est = estimate_survey(outcome.obs[config.estimator], pop.strata, config)
                tot_p.append(p)
                tot_v.append(est.total)
            m3 = math.fsum(p * t for p, t in zip(tot_p, tot_v))
            m3sq = math.fsum(p * t * t for p, t in zip(tot_p, tot_v))
            m3_list.append(m3)
            v3_list.append(m3sq - m3 * m3)
        n2 = len(m3_list)
        e2 = math.fsum(m3_list) / n2
        e2sq = math.fsum(m * m for m in m3_list) / n2
        m2_vals.append(e2)
        var2_vals.append(e2sq - e2 * e2)
        mean_v3_vals.append(math.fsum(v3_list) / n2)

    n_s1 = len(m2_vals)
    e1 = math.fsum(m2_vals) / n_s1
    e1sq = math.fsum(m * m for m in m2_vals) / n_s1
    v_one = e1sq - e1 * e1
    v_two = math.fsum(var2_vals) / n_s1
    v_three = math.fsum(mean_v3_vals) / n_s1
    return v_one, v_two, v_three


def outcome_probabilities(pop: MicroPopulation):
    """Probability of every full sample outcome under both design routes.

    The original route multiplies per-pass Bernoulli detection probabilities;
    the modified route factors through the day-level any-detection
    probabilities and the conditional within-day design.  The two columns
    agree identically, which is the design-equivalence property made testable.
    Returns (original, modified) arrays over the enumerated outcomes.
    """
    phi_dot = {
        (c.component_id, t): 1.0 - math.prod(1.0 - p.phi for p in c.days[t])
        for c in pop.components
        for t in range(pop.horizon)
    }
    original: list[float] = []
    modified: list[float] = []
    for outcome in _outcomes(pop, []):
        p_mod = outcome.design_prob
        pairs = [(c, t) for c, days in zip(outcome.components, outcome.days) for t in days]
        for (c, t), pattern in zip(pairs, outcome.patterns):
            phid = phi_dot[(c.component_id, t)]
            if pattern.detected:
                # day enters the starred sample; detections follow the
                # conditional (non-Poisson) within-day design
                p_mod *= phid * (pattern.prob / phid)
            else:
                p_mod *= 1.0 - phid
        original.append(outcome.prob)
        modified.append(p_mod)
    return np.array(original), np.array(modified)
