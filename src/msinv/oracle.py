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

from .batch import POPULATION_KEYS, NonFiniteEstimate, build_layout, compile_index, evaluate
from .estimators import EstimationError, EstimatorConfig
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
        for name, facs in self.stratum_facilities().items():
            if self.strata[name].n_population != len(facs):
                raise ValueError(f"stratum {name!r}: n_population={self.strata[name].n_population}"
                                 f" but {len(facs)} facilities are defined")

    @property
    def horizon(self) -> int:
        return len(self.components[0].days)

    def require_passes(self) -> None:
        """Refuse a day without passes: its mean rate, in the estimand, is 0/0."""
        for c in self.components:
            for t, day in enumerate(c.days):
                if not day:
                    raise ValueError(f"component {c.component_id!r}, day {t}: no passes, so "
                                     "the day's mean rate is undefined")

    def stratum_facilities(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {name: [] for name in self.strata}
        for fac in sorted(self.facilities):
            out[self.facilities[fac]].append(fac)
        return out


def true_total(pop: MicroPopulation) -> float:
    """The estimand: sum over components of the day-and-pass-averaged rate."""
    pop.require_passes()
    total = 0.0
    for c in pop.components:
        total += math.fsum(
            math.fsum(p.rate for p in day) / len(day) for day in c.days
        ) / pop.horizon
    return total


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

# Outcomes are estimated in blocks of this many (the last may hold fewer): a
# block is one layout, with a stratum per (outcome, stratum), a member per
# (outcome, sampled component) and a unit per distinct realisation of a
# sampled component, and one B=1 `evaluate` per configuration, so memory
# grows with the block, not with the outcome count.  A block boundary may
# fall inside a stage I draw or a cell.
OUTCOME_BLOCK = 4096


def _enumeration_size(pop: MicroPopulation) -> int:
    by_stratum = pop.stratum_facilities()
    size = math.prod(math.comb(len(by_stratum[name]), d.n_sampled)
                     for name, d in pop.strata.items())
    size *= math.comb(pop.horizon, pop.days_sampled) ** len(pop.components)
    worst_passes = sum(sum(sorted(map(len, c.days), reverse=True)[:pop.days_sampled])
                       for c in pop.components)
    return size * 2**worst_passes


class _Tables(NamedTuple):
    """A population's fixed tables, built once per enumeration.

    Per component: its facility number (by first component, which keeps
    every outcome's first-member order), stratum and id.  Per (component,
    day): its pass count ``q`` and its first pattern row.  Row k of a
    component-day is pattern k, which detects pass i when bit i of k is set:
    its probability, pass count and ``hits`` detected passes, whose rates
    and PODs start at ``hit_start``.
    """

    comp_fac: np.ndarray
    comp_stratum: np.ndarray
    comp_ids: np.ndarray
    q: np.ndarray
    pattern_start: np.ndarray
    pattern_prob: np.ndarray
    pattern_q: np.ndarray
    hits: np.ndarray
    hit_start: np.ndarray
    hit_rate: np.ndarray
    hit_phi: np.ndarray


def _tables(pop: MicroPopulation) -> _Tables:
    names = list(pop.strata)
    fac_code: dict[str, int] = {}
    q = np.array([[len(day) for day in c.days] for c in pop.components], dtype=np.intp)
    width = int(q.max(initial=0))
    # rates and PODs per (component-day, pass); a pad POD of 0 makes a pad
    # pass's (never set) bit multiply a pattern's probability by exactly 1
    rate, phi = np.zeros((q.size, width)), np.zeros((q.size, width))
    for cd, day in enumerate(day for c in pop.components for day in c.days):
        rate[cd, :len(day)] = [p.rate for p in day]
        phi[cd, :len(day)] = [p.phi for p in day]
    n_patterns = 1 << q.ravel()
    start = np.cumsum(n_patterns) - n_patterns
    row_cd = np.repeat(np.arange(q.size), n_patterns)
    k = np.arange(len(row_cd)) - start[row_cd]
    bits = np.empty((len(k), width), dtype=bool)
    prob = np.ones(len(k))
    for i in range(width):
        bits[:, i] = k >> i & 1
        prob *= np.where(bits[:, i], phi[row_cd, i], 1.0 - phi[row_cd, i])
    hits = np.count_nonzero(bits, axis=1)
    hit_row, hit_pass = np.nonzero(bits)
    return _Tables(
        comp_fac=np.array([fac_code.setdefault(c.facility_id, len(fac_code))
                           for c in pop.components], dtype=np.intp),
        comp_stratum=np.array([names.index(pop.facilities[c.facility_id])
                               for c in pop.components], dtype=np.intp),
        comp_ids=np.array([c.component_id for c in pop.components], dtype=object),
        q=q, pattern_start=start.reshape(q.shape), pattern_prob=prob,
        pattern_q=q.ravel()[row_cd], hits=hits, hit_start=np.cumsum(hits) - hits,
        hit_rate=rate[row_cd[hit_row], hit_pass], hit_phi=phi[row_cd[hit_row], hit_pass],
    )


class _Outcomes(NamedTuple):
    """Consecutive outcomes, as arrays.

    Per outcome: its stage I draw and its stage II cell (numbered across the
    whole enumeration), its probability ``prob``, its probability given the
    cell ``detection_prob``, and its number of sampled (component, day)
    pairs.  Per pair, outcome by outcome: its component and its pattern row
    (see `_Tables`).
    """

    stage1: np.ndarray
    stage2: np.ndarray
    prob: np.ndarray
    detection_prob: np.ndarray
    n_pairs: np.ndarray
    cd_ci: np.ndarray
    cd_pattern: np.ndarray


def _walk(pop: MicroPopulation, tables: _Tables, size: int):
    """Yield every stage I x II x III outcome exactly once, in `_Outcomes`
    runs, each with its block: the outcomes' position in the enumeration
    divided by ``size``.

    Outcomes come grouped by stage I draw, then by day selection (the last
    sampled component's days fastest); within a cell the detection patterns
    count up with the last pair's fastest.  A stage I draw is one
    mixed-radix count over its cells and their patterns.
    """
    by_stratum = pop.stratum_facilities()
    stage1_lists = [list(itertools.combinations(by_stratum[name], pop.strata[name].n_sampled))
                    for name in sorted(pop.strata)]
    stage1_prob = 1.0
    for combos in stage1_lists:
        stage1_prob /= len(combos)
    subsets = np.array(list(itertools.combinations(range(pop.horizon), pop.days_sampled)),
                       dtype=np.intp)
    n_subsets, d = len(subsets), pop.days_sampled
    first_cell = first_outcome = 0
    for draw, s1 in enumerate(itertools.product(*stage1_lists)):
        sampled_facs = set(itertools.chain.from_iterable(s1))
        sampled = np.array([ci for ci, c in enumerate(pop.components)
                            if c.facility_id in sampled_facs], dtype=np.intp)
        k = len(sampled)
        design_prob = stage1_prob * (1.0 / n_subsets) ** k
        # a cell per day selection, digit j the days of sampled component j;
        # per cell and pair: its pattern digit's mask (a pair of q passes
        # has 2^q patterns) and shift (the pass count of the pairs after
        # it), and its first row
        n_cells = n_subsets ** k
        digits = np.arange(n_cells)[:, None] // n_subsets ** np.arange(k - 1, -1, -1) % n_subsets
        pair_c = np.repeat(sampled, d)
        pair_t = subsets[digits].reshape(n_cells, k * d)
        q = tables.q[pair_c, pair_t]
        mask = (1 << q) - 1
        shift = np.zeros_like(q)
        shift[:, :-1] = np.cumsum(q[:, :0:-1], axis=1)[:, ::-1]
        pattern_start = tables.pattern_start[pair_c, pair_t]
        n_cell = 1 << q.sum(axis=1)
        cell_start = np.cumsum(n_cell) - n_cell
        n_draw = int(n_cell.sum())
        start = 0
        while start < n_draw:
            stop = min(n_draw, start + size - (first_outcome + start) % size)
            rows = np.arange(start, stop)
            cell = np.searchsorted(cell_start, rows, side="right") - 1
            patterns = (rows - cell_start[cell])[:, None] >> shift[cell] & mask[cell]
            pattern_rows = pattern_start[cell] + patterns
            prob = np.full(len(rows), design_prob)
            detection_prob = np.ones(len(rows))
            for column in tables.pattern_prob[pattern_rows].T:
                prob *= column
                detection_prob *= column
            yield (first_outcome + start) // size, _Outcomes(
                np.full(len(rows), draw), first_cell + cell, prob, detection_prob,
                np.full(len(rows), k * d), np.tile(pair_c, len(rows)), pattern_rows.ravel())
            start = stop
        first_cell += n_cells
        first_outcome += n_draw


class _Block(NamedTuple):
    """``outcomes`` as one `UnitIndex`: a member per (outcome, sampled component),
    a unit per distinct realisation of a sampled component, a stratum per
    (outcome, stratum) and a group per outcome.  ``rates`` and ``phis``
    belong to the detected passes of ``index``."""

    index: UnitIndex
    rates: np.ndarray
    phis: np.ndarray
    outcomes: _Outcomes


def _blocks(pop: MicroPopulation):
    """Yield the outcomes of `_walk` in `_Block`s of `OUTCOME_BLOCK`, the last
    one possibly shorter."""
    n_outcomes = _enumeration_size(pop)
    if n_outcomes > MAX_OUTCOMES:
        raise ValueError(f"enumeration would visit ~{n_outcomes} outcomes (limit {MAX_OUTCOMES})")
    tables = _tables(pop)
    for _, runs in itertools.groupby(_walk(pop, tables, OUTCOME_BLOCK), key=lambda r: r[0]):
        yield _block(pop, tables, [run for _, run in runs])


def _block(pop: MicroPopulation, tables: _Tables, runs: list[_Outcomes]) -> _Block:
    out = _Outcomes(*(np.concatenate(field) for field in zip(*runs)))
    n_strata, n_facs, d = len(pop.strata), len(pop.facilities), pop.days_sampled
    n_out = len(out.prob)
    # a member per (outcome, sampled component), with a row of its d pattern rows
    member_ci = out.cd_ci[::d]
    member_outcome = np.repeat(np.arange(n_out), out.n_pairs // d)
    rows = out.cd_pattern.reshape(-1, d)
    # a pattern row names its component and day, so equal rows are one unit
    # realisation: key them column by column, re-coded densely before a
    # column could overflow the key
    n_rows = len(tables.pattern_prob)
    key = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        if key.max(initial=0) >= np.iinfo(np.int64).max // n_rows:
            key = np.unique(key, return_inverse=True)[1]
        key = key * n_rows + column
    # a unit per distinct key, in order of first appearance
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    unit_member, member_unit = np.sort(first), np.argsort(np.argsort(first))[inverse]
    unit_ci, unit_pattern = member_ci[unit_member], rows[unit_member].ravel()
    # the units' detected passes, by component-day, then pass
    n_cd = len(unit_pattern)
    hits = tables.hits[unit_pattern]
    pass_cd = np.repeat(np.arange(n_cd), hits)
    hit = np.arange(len(pass_cd)) + np.repeat(
        tables.hit_start[unit_pattern] - (np.cumsum(hits) - hits), hits)
    index = UnitIndex(
        pass_cd=pass_cd, cd_q=tables.pattern_q[unit_pattern], cd_ud=np.arange(n_cd),
        ud_unit=np.arange(n_cd) // d, member_unit=member_unit,
        unit_wells=np.zeros(len(unit_ci), dtype=np.intp), labels=tables.comp_ids[unit_ci],
        member_stratum=tables.comp_stratum[member_ci] + n_strata * member_outcome,
        member_fac=tables.comp_fac[member_ci] + n_facs * member_outcome,
        n_sampled=np.tile([s.n_sampled for s in pop.strata.values()], n_out),
        n_population=np.tile([s.n_population for s in pop.strata.values()], n_out),
        stratum_group=np.repeat(np.arange(n_out), n_strata),
    )
    return _Block(index, tables.hit_rate[hit], tables.hit_phi[hit], out)


def _estimates(block: _Block, configs):
    """Every outcome's estimate per configuration: `POPULATION_KEYS` to arrays over
    the block's outcomes.  The configurations share one compiled index and
    one `evaluate` call."""
    index = compile_index(block.index)
    ests = evaluate([build_layout(index, config) for config in configs],
                    block.rates[None], block.phis[None])
    return [{key: values[0] for key, values in est.population.items()} for est in ests]


@dataclass
class OutcomeDistribution:
    """Sampling distribution of one estimator configuration.

    Every array runs over the enumerated outcomes, grouped by stage I draw
    (``stage1``), then by stage II cell (``stage2``, numbered across draws).
    ``detection_prob`` is each outcome's probability given its cell.
    """

    config: EstimatorConfig
    probabilities: np.ndarray
    stage1: np.ndarray
    stage2: np.ndarray
    detection_prob: np.ndarray
    totals: np.ndarray
    v3stage: np.ndarray
    clipped: dict[str, np.ndarray]
    unclipped: dict[str, np.ndarray]

    def _expect(self, values: np.ndarray) -> float:
        return math.fsum((self.probabilities * values).tolist())

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


def enumerate_outcomes(pop: MicroPopulation, configs) -> list[OutcomeDistribution]:
    """Run the estimation pipeline on every sampling outcome.

    ``configs`` is one EstimatorConfig or a sequence of them; all are
    evaluated in a single sweep of the outcome space.  Outcome probabilities
    are checked to sum to one.
    """
    if isinstance(configs, EstimatorConfig):
        configs = [configs]
    return _enumerate(pop, configs)


def _enumerate(pop: MicroPopulation, configs):
    # exact_stage_variances enumerates through this, so that a traced
    # enumerate_outcomes span covers its callers' enumerations only
    if not configs:
        return []
    outcomes: list[_Outcomes] = []
    per_config = [{k: [] for k in POPULATION_KEYS} for _ in configs]
    for block in _blocks(pop):
        try:
            ests = _estimates(block, configs)
        except NonFiniteEstimate as exc:
            cfg = configs[exc.layout]
            design = "observed" if cfg.stage2 == "observed" else f"year:{cfg.horizon}"
            start = sum(len(o.prob) for o in outcomes)
            raise EstimationError(
                f"configuration {exc.layout} ({cfg.estimator}, {cfg.plan} plan, {design}), "
                f"outcomes {start}-{start + len(block.outcomes.prob) - 1}: an estimate is "
                "not finite (a rate too large to estimate with?)") from None
        outcomes.append(block.outcomes)
        for est, rec in zip(ests, per_config):
            for key, values in est.items():
                rec[key].append(values)

    stage1, stage2, prob, detection_prob = (np.concatenate(field)
                                            for field in list(zip(*outcomes))[:4])
    total_p = math.fsum(prob.tolist())
    if abs(total_p - 1.0) > 1e-12:
        raise AssertionError(f"outcome probabilities sum to {total_p!r}, not 1")
    out = []
    for cfg, values in zip(configs, per_config):
        rec = {key: np.concatenate(arrays) for key, arrays in values.items()}
        out.append(OutcomeDistribution(
            config=cfg, probabilities=prob, stage1=stage1, stage2=stage2,
            detection_prob=detection_prob, totals=rec["total"], v3stage=rec["v3stage"],
            clipped={"stage1": rec["v1"], "stage2": rec["v2"], "stage3": rec["v3"]},
            unclipped={"stage1": rec["u1"], "stage2": rec["u2"], "stage3": rec["u3"]},
        ))
    return out


def exact_stage_variances(dist, config: EstimatorConfig | None = None):
    """Law-of-total-variance split of the estimator's exact variance.

    ``dist`` is an `OutcomeDistribution`, or a `MicroPopulation` to
    enumerate under ``config``, which it then requires (`TypeError` if
    None).  Returns (V_I, V_II, V_III):
        V_I   = Var over stage I draws of E[That | stage I]
        V_II  = E over stage I of Var over day draws of E[That | stages I, II]
        V_III = E over stages I, II of Var of That over detection outcomes.
    For inverse-probability weighting these equal the closed-form true
    variances evaluated by the survey planner.  A population is enumerated
    again here, so a caller that already holds the configuration's
    `OutcomeDistribution` (from `enumerate_outcomes`) should pass that.
    """
    if isinstance(dist, MicroPopulation):
        if config is None:
            raise TypeError("exact_stage_variances of a MicroPopulation needs the "
                            "EstimatorConfig to enumerate it under (config is None)")
        (dist,) = _enumerate(dist, [config])

    def runs(ids):  # the bounds of each run of equal ids
        edges = [0, *(np.flatnonzero(np.diff(ids)) + 1).tolist(), len(ids)]
        return list(zip(edges, edges[1:]))

    def mean_var(values):  # equally likely values: mean and variance
        mean = math.fsum(values) / len(values)
        return mean, math.fsum(v * v for v in values) / len(values) - mean * mean

    # p * That and p * That^2 of every outcome, p its probability given
    # stages I and II, summed per (stage I, stage II) cell
    pt = dist.detection_prob * dist.totals
    pt_list, ptt_list = pt.tolist(), (pt * dist.totals).tolist()
    cells = runs(dist.stage2)
    m3 = [math.fsum(pt_list[a:b]) for a, b in cells]
    v3 = [math.fsum(ptt_list[a:b]) - m * m for (a, b), m in zip(cells, m3)]
    # per stage I draw: E[That | s1], Var_II(E_III[That]) and E_II[Var_III(That)]
    m2, var2, mean_v3 = [], [], []
    for a, b in runs(dist.stage1[[a for a, _ in cells]]):
        mean, var = mean_var(m3[a:b])
        m2.append(mean)
        var2.append(var)
        mean_v3.append(math.fsum(v3[a:b]) / (b - a))
    return mean_var(m2)[1], math.fsum(var2) / len(var2), math.fsum(mean_v3) / len(mean_v3)
