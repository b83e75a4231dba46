"""Exact enumeration of every sampling outcome on tiny populations.

For a fully specified micro population (every facility, component, day, pass
and detection probability known), each possible realisation of the three-stage
sample has a computable probability.  Running the production estimator (the
batched kernel of `batch`, on blocks of outcomes) on every realisation yields
the exact sampling distribution of the estimators, against which unbiasedness
and the variance decomposition are checked to near machine precision.  Per-pass detection probabilities are
supplied directly rather than through the POD curve so the design math is
tested in isolation from the instrument physics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .batch import POPULATION_KEYS, build_layout, compile_index, evaluate
from .estimators import EstimatorConfig
# not used here: perfbench/tracer.py patches this name on this module
from .estimators import estimate_survey  # noqa: F401
from .frame import StratumDef, UnitIndex

__all__ = [
    "MicroPass",
    "MicroComponent",
    "MicroPopulation",
    "true_total",
    "enumerate_outcomes",
    "OutcomeDistribution",
    "exact_stage_variances",
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

# Outcomes are estimated in blocks of at most this many: a block is one
# layout, with a stratum per (outcome, stratum), and one B=1 `evaluate` per
# configuration, so memory grows with the block, not with the outcome count.
OUTCOME_BLOCK = 4096


def _pattern_probs(day: tuple[MicroPass, ...]) -> np.ndarray:
    """Probability of each detection pattern of a component-day.

    Pattern k detects pass i when bit i of k is set.
    """
    patterns = np.arange(2 ** len(day))
    probs = np.ones(len(patterns))
    for i, p in enumerate(day):
        probs *= np.where(patterns >> i & 1, p.phi, 1.0 - p.phi)
    return probs


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


class _Chunk(NamedTuple):
    """Consecutive outcomes of one (stage I, stage II) cell.

    ``stage1`` and ``stage2`` index the stage I draw and the cell, and
    ``design_prob`` is the cell's probability.  ``components`` are the
    sampled components (positions in ``pop.components``); ``pairs`` are
    their sampled (component, day) pairs, component by component.
    ``patterns`` has one row per outcome: the detection pattern of each
    pair.  ``prob`` is each outcome's probability, ``detection_prob`` its
    probability given the cell.
    """

    stage1: int
    stage2: int
    design_prob: float
    components: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    patterns: np.ndarray
    prob: np.ndarray
    detection_prob: np.ndarray


def _chunks(pop: MicroPopulation, max_outcomes: int = MAX_OUTCOMES,
            size: int = OUTCOME_BLOCK):
    """Yield every stage I x II x III outcome exactly once, at most ``size`` at a time.

    Outcomes come grouped by stage I draw, then by day selection; within a
    cell the detection patterns count up with the last pair's fastest.
    """
    n_outcomes = _enumeration_size(pop)
    if n_outcomes > max_outcomes:
        raise ValueError(f"enumeration would visit ~{n_outcomes} outcomes (limit {max_outcomes})")

    by_stratum = pop.stratum_facilities()
    stage1_lists = []
    stage1_prob = 1.0
    for name in sorted(pop.strata):
        combos = list(itertools.combinations(by_stratum[name], pop.strata[name].n_sampled))
        stage1_lists.append(combos)
        stage1_prob /= len(combos)
    day_subsets = list(itertools.combinations(range(pop.horizon), pop.days_sampled))
    stage2_prob_one = 1.0 / len(day_subsets)
    probs = {(ci, t): _pattern_probs(c.days[t])
             for ci, c in enumerate(pop.components) for t in range(pop.horizon)}

    cell2 = 0
    for cell1, s1 in enumerate(itertools.product(*stage1_lists)):
        sampled_facs = set(itertools.chain.from_iterable(s1))
        sampled = tuple(ci for ci, c in enumerate(pop.components)
                        if c.facility_id in sampled_facs)
        design_prob = stage1_prob * stage2_prob_one ** len(sampled)
        for day_sel in itertools.product(day_subsets, repeat=len(sampled)):
            pairs = tuple((ci, t) for ci, days in zip(sampled, day_sel) for t in days)
            radix = np.array([len(probs[pair]) for pair in pairs], dtype=np.int64)
            strides = np.array([math.prod(radix[j + 1:]) for j in range(len(pairs))],
                               dtype=np.int64)
            n_cell = math.prod(radix)
            for start in range(0, n_cell, size):
                rows = np.arange(start, min(start + size, n_cell), dtype=np.int64)
                patterns = rows[:, None] // strides % radix
                prob = np.full(len(rows), design_prob)
                detection_prob = np.ones(len(rows))
                for pair, column in zip(pairs, patterns.T):
                    pattern_prob = probs[pair][column]
                    prob *= pattern_prob
                    detection_prob *= pattern_prob
                yield _Chunk(cell1, cell2, design_prob, sampled, pairs, patterns, prob,
                             detection_prob)
            cell2 += 1


class _Block(NamedTuple):
    """The outcomes of ``chunks`` as one set of units: a unit per (outcome,
    sampled component), a stratum per (outcome, stratum) and a group per
    outcome.  ``rates`` and ``phis`` belong to the detected passes of ``index``.
    """

    index: UnitIndex
    rates: np.ndarray
    phis: np.ndarray
    chunks: list[_Chunk]


def _blocks(pop: MicroPopulation, max_outcomes: int = MAX_OUTCOMES):
    """Yield the outcomes of `_chunks` in `_Block`s of at most `OUTCOME_BLOCK`."""
    pending: list[_Chunk] = []
    n = 0
    for chunk in _chunks(pop, max_outcomes, OUTCOME_BLOCK):
        if n + len(chunk.prob) > OUTCOME_BLOCK:
            yield _block(pop, pending)
            pending, n = [], 0
        pending.append(chunk)
        n += len(chunk.prob)
    if pending:
        yield _block(pop, pending)


def _block(pop: MicroPopulation, chunks: list[_Chunk]) -> _Block:
    names = list(pop.strata)
    n_strata, n_facs, d = len(names), len(pop.facilities), pop.days_sampled
    # a sampled facility brings all its components, so numbering facilities
    # by their first component keeps every outcome's first-member order
    fac_code: dict[str, int] = {}
    comp_fac = np.array([fac_code.setdefault(c.facility_id, len(fac_code))
                         for c in pop.components], dtype=np.intp)
    comp_stratum = np.array([names.index(pop.facilities[c.facility_id])
                             for c in pop.components], dtype=np.intp)
    comp_ids = np.array([c.component_id for c in pop.components], dtype=object)
    # per (component, day): its pass count, and its passes' rates and PODs
    q_table = np.array([[len(day) for day in c.days] for c in pop.components], dtype=np.intp)
    width = int(q_table.max(initial=0))
    rate_table = np.zeros(q_table.shape + (width,))
    phi_table = np.ones(q_table.shape + (width,))
    for ci, c in enumerate(pop.components):
        for t, day in enumerate(c.days):
            rate_table[ci, t, :len(day)] = [p.rate for p in day]
            phi_table[ci, t, :len(day)] = [p.phi for p in day]

    # a component-day per (outcome, sampled pair): chunk by chunk, outcome
    # by outcome, pair by pair
    n_out = np.array([len(ch.prob) for ch in chunks])
    n_pairs = np.array([len(ch.pairs) for ch in chunks])
    pair_ci, pair_t = np.array([pair for ch in chunks for pair in ch.pairs],
                               dtype=np.intp).reshape(-1, 2).T
    patterns = np.concatenate([ch.patterns.ravel() for ch in chunks])
    n_cd = len(patterns)
    cd_chunk = np.repeat(np.arange(len(chunks)), n_out * n_pairs)
    local = np.arange(n_cd) - (np.cumsum(n_out * n_pairs) - n_out * n_pairs)[cd_chunk]
    per_outcome = n_pairs[cd_chunk]
    pair = (np.cumsum(n_pairs) - n_pairs)[cd_chunk] + local % per_outcome
    cd_ci, cd_t = pair_ci[pair], pair_t[pair]
    cd_outcome = (np.cumsum(n_out) - n_out)[cd_chunk] + local // per_outcome
    # detected passes, by component-day, then pass
    pass_cd, i = np.nonzero(patterns[:, None] >> np.arange(width) & 1)
    # a unit per (outcome, sampled component): its d component-days follow
    unit_ci, unit_outcome = cd_ci[::d], cd_outcome[::d]
    total_out = int(n_out.sum())
    index = UnitIndex(
        pass_cd=pass_cd, cd_q=q_table[cd_ci, cd_t], cd_ud=np.arange(n_cd),
        ud_unit=np.arange(n_cd) // d,
        unit_stratum=comp_stratum[unit_ci] + n_strata * unit_outcome,
        unit_wells=np.zeros(len(unit_ci), dtype=np.intp), labels=comp_ids[unit_ci],
        member_unit=np.arange(len(unit_ci)),
        member_fac=comp_fac[unit_ci] + n_facs * unit_outcome,
        n_sampled=np.tile([pop.strata[n].n_sampled for n in names], total_out),
        n_population=np.tile([pop.strata[n].n_population for n in names], total_out),
        stratum_group=np.repeat(np.arange(total_out), n_strata),
    )
    cd_pass = (cd_ci[pass_cd], cd_t[pass_cd], i)
    return _Block(index, rate_table[cd_pass], phi_table[cd_pass], chunks)


def _estimates(block: _Block, configs):
    """Every outcome's estimate per configuration: `POPULATION_KEYS` to arrays over
    the block's outcomes.  The configurations share one compiled index."""
    index = compile_index(block.index)
    for config in configs:
        est = evaluate(build_layout(index, config), block.rates[None], block.phis[None])
        yield {key: values[0] for key, values in est.population.items()}


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
    probs: list[np.ndarray] = []
    per_config: list[dict[str, list[np.ndarray]]] = [
        {k: [] for k in POPULATION_KEYS} for _ in configs
    ]
    for block in _blocks(pop, max_outcomes):
        probs.extend(chunk.prob for chunk in block.chunks)
        for est, rec in zip(_estimates(block, configs), per_config):
            for key, values in est.items():
                rec[key].append(values)

    prob_arr = np.concatenate(probs)
    total_p = math.fsum(prob_arr)
    if abs(total_p - 1.0) > 1e-12:
        raise AssertionError(f"outcome probabilities sum to {total_p!r}, not 1")
    out = []
    for cfg, values in zip(configs, per_config):
        rec = {key: np.concatenate(arrays) for key, arrays in values.items()}
        out.append(
            OutcomeDistribution(
                config=cfg,
                probabilities=prob_arr,
                totals=rec["total"],
                v3stage=rec["v3stage"],
                clipped={
                    "stage1": rec["v1"],
                    "stage2": rec["v2"],
                    "stage3": rec["v3"],
                },
                unclipped={
                    "stage1": rec["u1"],
                    "stage2": rec["u2"],
                    "stage3": rec["u3"],
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
    # p * That and p * That^2 of every outcome, p its probability given
    # stages I and II, gathered per (stage I, stage II) cell
    cells: dict[tuple[int, int], tuple[list, list]] = {}
    for block in _blocks(pop):
        (est,) = _estimates(block, [config])
        totals = est["total"]
        start = 0
        for chunk in block.chunks:
            t = totals[start:start + len(chunk.prob)]
            start += len(t)
            pt, ptt = cells.setdefault((chunk.stage1, chunk.stage2), ([], []))
            pt.append(chunk.detection_prob * t)
            ptt.append(chunk.detection_prob * t * t)

    m2_vals: list[float] = []       # E[That | s1] per stage I outcome
    var2_vals: list[float] = []     # Var_II(E_III[That]) per stage I outcome
    mean_v3_vals: list[float] = []  # E_II[Var_III(That)] per stage I outcome
    for _, cell1 in itertools.groupby(cells.items(), key=lambda item: item[0][0]):
        m3_list: list[float] = []
        v3_list: list[float] = []
        for _, (pt, ptt) in cell1:
            m3 = math.fsum(np.concatenate(pt))
            m3_list.append(m3)
            v3_list.append(math.fsum(np.concatenate(ptt)) - m3 * m3)
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
