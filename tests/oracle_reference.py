"""The oracle's per-cell walk and chunk-by-chunk block builder, kept as references.

`oracle._walk` gives every outcome of a stage I draw in one mixed-radix
count, from pattern tables built once per population, and `oracle._block`
lays a block of outcomes out as one `UnitIndex` with whole-array numpy,
one unit per distinct realisation of a sampled component.
`reference_chunks` is the walk they replaced: one Python iteration per
(stage I, stage II) cell, each cell's patterns counted from its own radix
and its probabilities multiplied pair by pair.  `reference_block` builds a
block chunk by chunk, each chunk from its own padded table of the sampled
(component, day) pairs, with a unit of its own per (outcome, sampled
component).  Both must give equal arrays of equal dtypes, once
`index_helpers.unit_per_member` gives the block a unit per member.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from msinv.frame import UnitIndex
from msinv.oracle import MAX_OUTCOMES, _enumeration_size


def pattern_probs(day) -> np.ndarray:
    """Probability of each detection pattern of a component-day.

    Pattern k detects pass i when bit i of k is set.
    """
    patterns = np.arange(2 ** len(day))
    probs = np.ones(len(patterns))
    for i, p in enumerate(day):
        probs *= np.where(patterns >> i & 1, p.phi, 1.0 - p.phi)
    return probs


class Chunk(NamedTuple):
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


def reference_chunks(pop, max_outcomes: int = MAX_OUTCOMES, size: int = 4096):
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
    probs = {(ci, t): pattern_probs(c.days[t])
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
                yield Chunk(cell1, cell2, design_prob, sampled, pairs, patterns, prob,
                            detection_prob)
            cell2 += 1


def reference_block_chunks(pop, size: int):
    """The chunks of each block of ``size`` outcomes (the last may hold
    fewer): `reference_chunks` cut wherever the outcome count reaches a
    multiple of ``size``."""
    block, n = [], 0
    for chunk in reference_chunks(pop, size=size):
        start = 0
        while start < len(chunk.prob):
            stop = min(len(chunk.prob), start + size - n)
            block.append(chunk._replace(patterns=chunk.patterns[start:stop],
                                        prob=chunk.prob[start:stop],
                                        detection_prob=chunk.detection_prob[start:stop]))
            n += stop - start
            start = stop
            if n == size:
                yield block
                block, n = [], 0
    if block:
        yield block


def reference_block(pop, chunks):
    """``(index, rates, phis)`` of the outcomes of ``chunks``, built chunk by chunk."""
    names = list(pop.strata)
    n_strata, n_facs, d = len(names), len(pop.facilities), pop.days_sampled
    fac_code: dict[str, int] = {}
    comp_fac = np.array([fac_code.setdefault(c.facility_id, len(fac_code))
                         for c in pop.components], dtype=np.intp)
    comp_stratum = np.array([names.index(pop.facilities[c.facility_id])
                             for c in pop.components], dtype=np.intp)
    comp_ids = np.array([c.component_id for c in pop.components], dtype=object)
    parts: dict[str, list[np.ndarray]] = {
        k: [] for k in ("pass_cd", "rates", "phis", "cd_q", "ud_unit", "member_stratum",
                        "labels", "member_fac")}
    n_out = n_units = n_cd = 0
    for ch in chunks:
        k, n_pairs = len(ch.prob), len(ch.pairs)
        days = [pop.components[ci].days[t] for ci, t in ch.pairs]
        q = np.array([len(day) for day in days], dtype=np.intp)
        width = int(q.max(initial=0))
        rates, phis = np.zeros((n_pairs, width)), np.ones((n_pairs, width))
        for j, day in enumerate(days):
            rates[j, :len(day)] = [p.rate for p in day]
            phis[j, :len(day)] = [p.phi for p in day]
        # detected passes, by outcome, then pair, then pass
        o, j, i = np.nonzero(ch.patterns[:, :, None] >> np.arange(width) & 1)
        comps = np.array(ch.components, dtype=np.intp)
        outcome = n_out + np.repeat(np.arange(k), len(comps))
        parts["pass_cd"].append(n_cd + o * n_pairs + j)
        parts["rates"].append(rates[j, i])
        parts["phis"].append(phis[j, i])
        parts["cd_q"].append(np.tile(q, k))
        parts["ud_unit"].append(n_units + np.arange(k * n_pairs) // d)
        parts["member_stratum"].append(np.tile(comp_stratum[comps], k) + n_strata * outcome)
        parts["labels"].append(np.tile(comp_ids[comps], k))
        parts["member_fac"].append(np.tile(comp_fac[comps], k) + n_facs * outcome)
        n_out += k
        n_units += k * len(comps)
        n_cd += k * n_pairs
    flat = {key: np.concatenate(arrays) for key, arrays in parts.items()}
    index = UnitIndex(
        pass_cd=flat["pass_cd"], cd_q=flat["cd_q"], cd_ud=np.arange(n_cd),
        ud_unit=flat["ud_unit"], unit_wells=np.zeros(n_units, dtype=np.intp),
        labels=flat["labels"], member_unit=np.arange(n_units),
        member_stratum=flat["member_stratum"], member_fac=flat["member_fac"],
        n_sampled=np.tile([pop.strata[n].n_sampled for n in names], n_out),
        n_population=np.tile([pop.strata[n].n_population for n in names], n_out),
        stratum_group=np.repeat(np.arange(n_out), n_strata),
    )
    return index, flat["rates"], flat["phis"]

