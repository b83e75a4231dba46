"""Batched evaluation of the design estimator over a compiled layout.

Across the iterations of the measurement-error Monte Carlo only the drawn
rates and their detection probabilities change.  Everything else is fixed by
the units and the `EstimatorConfig`.  A `frame.UnitIndex` (a frame's is
`SurveyFrame.index`; the exact oracle builds one per block of outcomes, the
simulation lab one per block of replications) says as flat arrays which
detected passes make up each component-day and its pass count Q_pt, the
surveyed days d_p, and which component-days a well site sums and spreads
over its wells.  Units are estimated; stage I runs on members, each adding
one unit's estimate to its stratum, so that members may share a unit.

A layout is built in two steps, with numpy alone.  `compile_index` compiles
what no configuration decides, once per `UnitIndex`: the detected
component-days, the phi groups, the unit-days, each unit's d_p and its count
m of days with a detection, and stage I membership (members, facilities,
strata and groups).  `build_layout` adds, per configuration, what the
configuration decides: which units are zero emitters or need a pooled
variance, the days the other units expand (IPW on the original plan: every
surveyed day, at phi_hat = 1, read in place with no index; else the star
days), the pooling peers among the members, and the check of d_p against
the horizon.  The peers are
scheduled only when a member pools: else `Layout.peers` is None and
`evaluate` skips the pooled-variance sum.  Every configuration
of an index shares its `CompiledIndex`, and a frame keeps each
configuration's layout (`SurveyFrame.layout`).  `evaluate` computes a whole
chunk of iterations at once, as arrays with one row per iteration, for
every layout of one compiled index it is given.  The layouts of one
`Layout.kind` differ only in their horizons and their ``observed`` and
``printed`` flags, so each kind's daily stage, unit means, stage III parts,
member expansion, facility sums and stratum totals are computed once, and
each ragged sum takes the terms of all of the kind's layouts in one pass.

Each ragged index (the passes of a component-day, the members of a stratum,
...) is a `Schedule`: its items row by row, and the row of each item, built
with one stable argsort and no sort by row length.  Most evaluations are one
iteration (a bias-corrected estimate, an oracle block, a block of simulated
replications): there a row sum is one `np.bincount` over (leading index,
row) keys, and a row product one `np.multiply.at`.  A Monte Carlo chunk of
several iterations reads the schedule's column view instead, built on first
use and kept: its rows are stored longest first, so the c-th items of all
rows with more than c items fill a contiguous prefix of the rows; a row sum
takes one gather and one in-place add per column, and the rows are put back
in order once at the end.  A schedule of items that are positions (a
stratum's members, a group's strata, ...) is built from the keys alone,
with no gather through an identity array.

This kernel is the estimator of every production path: the Monte Carlo,
the oracle, the simulation lab, and the single design pass of bias
correction (`estimators.estimate_survey`, one iteration).  The specification
is the scalar estimator of the tests (`tests/estimator_reference.py`): its
per-day formulas, then its component, stratum and population stages.  Every
sum here is accumulated left to right over the same terms in the same order
as there (Python's `sum`), and every formula keeps their association order,
so the daily stage agrees with the reference bit for bit and the whole
kernel agrees with it to rounding.  All arithmetic is elementwise along the
iteration axis, so an iteration's result does not depend on the chunk it is
evaluated in.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .reporting import EstimationError

if TYPE_CHECKING:
    from .estimators import EstimatorConfig
    from .frame import UnitIndex

__all__ = ["Schedule", "CompiledIndex", "Layout", "BatchEstimate", "NonFiniteEstimate",
           "compile_index", "build_layout", "evaluate"]

POPULATION_KEYS = ("total", "v3stage", "v1", "v2", "v3", "u1", "u2", "u3")
STRATUM_KEYS = ("total", "v1", "v2", "v3", "u1", "u2", "u3")


class _Columns(NamedTuple):
    """A schedule's rows stored longest first, for row sums over many iterations.

    Stored row i is row ``order[i]``, and row r is stored at ``rank[r]``
    (both None when the rows already come longest first).  Column c, the
    c-th item of every row longer than c, then covers stored rows
    ``0..n_c - 1``; ``columns`` holds ``(n_c, start, stop)`` per column, and
    ``items[start:stop]`` are its items in stored row order.
    """

    columns: tuple[tuple[int, int, int], ...]
    items: np.ndarray
    order: np.ndarray | None
    rank: np.ndarray | None


@dataclass(frozen=True, eq=False)
class Schedule:
    """A ragged index: rows of items, for left-to-right row sums and products.

    ``items`` lists row 0's items in order, then row 1's, and so on; ``row``
    holds each item's row, so it never decreases.
    """

    n_rows: int
    items: np.ndarray
    row: np.ndarray

    @cached_property
    def by_column(self) -> _Columns:
        """The column view, built on first use and kept: only chunks of
        several iterations read it."""
        n_rows = self.n_rows
        counts = np.bincount(self.row, minlength=n_rows)
        starts = np.cumsum(counts) - counts
        order = rank = None
        if np.any(counts[1:] > counts[:-1]):
            # a stable sort by the shortfall from the longest row, in the
            # narrowest dtype that holds it (numpy radix-sorts up to 16 bits)
            longest = int(counts.max())
            order = np.argsort((longest - counts).astype(np.min_scalar_type(longest)),
                               kind="stable")
            rank = np.empty(n_rows, dtype=np.intp)
            rank[order] = np.arange(n_rows)
            starts, counts = starts[order], counts[order]
        # column c: the rows longer than c, which are stored rows 0..n_c - 1
        n_c = n_rows - np.cumsum(np.bincount(counts))[:-1]
        stop = np.cumsum(n_c)
        col = np.repeat(np.arange(len(n_c)), n_c)
        at = starts[np.arange(len(col)) - (stop - n_c)[col]] + col
        return _Columns(tuple(zip(n_c.tolist(), (stop - n_c).tolist(), stop.tolist())),
                        self.items[at], order, rank)


def _ranges(counts: np.ndarray) -> Schedule:
    """Row r lists the next ``counts[r]`` positions, from 0 on."""
    row = np.repeat(np.arange(len(counts)), counts)
    return Schedule(len(counts), np.arange(len(row)), row)


def _schedule(keys: np.ndarray, values: np.ndarray | None, n_rows: int) -> Schedule:
    """Row k lists, in their order, the values whose key is k; with
    ``values`` None, the positions of those keys."""
    by_key = np.argsort(keys, kind="stable")
    return Schedule(n_rows, by_key if values is None else values[by_key], keys[by_key])


def _flat_rows(s: Schedule, lead: tuple[int, ...]) -> np.ndarray:
    """Each item's row, numbered on through the leading axes: the keys of
    ``x[..., s.items]`` flattened."""
    n = math.prod(lead)
    if n == 1:
        return s.row
    return (np.arange(n)[:, None] * s.n_rows + s.row).ravel()


def _seq_sum(x: np.ndarray, s: Schedule) -> np.ndarray:
    """Row sums ``sum(x[..., j, :] for j in row r)``, added left to right from 0.

    ``x`` has items on axis -2 and iterations on axis -1.  One iteration
    takes one `np.bincount`, which adds the items in index order; several
    take one gather per column of the column view.
    """
    lead = x.shape[:-2]
    if x.shape[-1] == 1:
        # float: np.bincount of no weights is of integers
        out = np.bincount(_flat_rows(s, lead), x[..., 0].take(s.items, axis=-1).ravel(),
                          minlength=math.prod(lead) * s.n_rows).astype(float, copy=False)
        return out.reshape(lead + (s.n_rows, 1))
    c = s.by_column
    out = np.zeros(lead + (s.n_rows, x.shape[-1]))
    for n, start, stop in c.columns:
        out[..., :n, :] += x.take(c.items[start:stop], axis=-2)
    return out if c.rank is None else out.take(c.rank, axis=-2)


def _seq_prod(first: np.ndarray, x: np.ndarray, s: Schedule) -> np.ndarray:
    """Row products ``first[..., r, :]`` times each ``x[..., j, :]`` of row r, left to right.

    One iteration takes one `np.multiply.at`, which multiplies in index order.
    """
    if x.shape[-1] == 1:
        out = np.array(first)
        np.multiply.at(out.reshape(-1), _flat_rows(s, x.shape[:-2]),
                       x[..., 0].take(s.items, axis=-1).ravel())
        return out
    c = s.by_column
    out = np.array(first) if c.order is None else first.take(c.order, axis=-2)
    for n, start, stop in c.columns:
        out[..., :n, :] *= x.take(c.items[start:stop], axis=-2)
    return out if c.rank is None else out.take(c.rank, axis=-2)


def _phi_any(phi: np.ndarray, groups: Schedule, count: np.ndarray, misses: np.ndarray):
    """Any-detection probability of each pass group (rows of ``groups``).

    A group's ``misses`` undetected passes are imputed with the mean POD mu
    of its detected ones: 1 - (1 - mu)^misses * prod (1 - phi), each product
    taken left to right from 1.0.  With no miss it is the exact probability.
    """
    mu = _seq_sum(phi, groups) / count
    prod = np.ones(mu.shape)
    for t in range(int(misses.max(initial=0))):
        prod = np.where(t < misses, prod * (1.0 - mu), prod)
    return 1.0 - _seq_prod(prod, 1.0 - phi, groups)


def _col(values, dtype=float) -> np.ndarray:
    # per-item constants broadcast along the iteration axis
    return np.asarray(values, dtype=dtype).reshape(-1, 1)


@dataclass(frozen=True)
class CompiledIndex:
    """The part of a `Layout` that no configuration decides, compiled once per `UnitIndex`.

    Levels: detected passes, in `UnitIndex` order; then, each in the order
    of the units (the scalar reference's order), detected component-days
    ("ddays"); phi groups (each dday, then each pooled well-site day) for the
    any-detection probability; unit-days (one per surveyed day of a unit: a
    non-well component or a well site standing for all of its wells); units;
    stage I members (positions, each adding one unit); facilities; strata;
    groups of strata, each summed into one population total.
    """

    labels: np.ndarray              # per unit, for error messages
    # detected component-days
    dd_pass: Schedule
    dd_q: np.ndarray
    pass_dd: np.ndarray
    # phi groups
    grp_pass: Schedule
    grp_count: np.ndarray
    grp_misses: np.ndarray
    # unit-days
    ud_members: Schedule
    ud_wells: np.ndarray
    ud_unit: np.ndarray
    star: np.ndarray                # unit-days with a detection
    star_unit: np.ndarray
    star_grp: np.ndarray
    star_one_pass: np.ndarray       # positions in star of the unit-days of one pass
    # units: surveyed days d_p, days with a detection m
    d_p: np.ndarray
    m: np.ndarray
    unit_d: np.ndarray
    # stage I: members and facilities per stratum, strata per group
    member_unit: np.ndarray
    member_stratum: np.ndarray
    member_f: np.ndarray            # per member: its stratum's n_sampled / n_population
    members: Schedule               # per stratum: its members
    fac_members: Schedule           # per facility: its members
    fac_of_stratum: Schedule        # per stratum: facilities
    stratum_f: np.ndarray
    stratum_pair_coef: np.ndarray   # 0 where n_sampled < 2
    groups: Schedule                # per group: its strata
    n_zero_emitting_strata: int

    @property
    def n_units(self) -> int:
        return len(self.d_p)

    @property
    def n_strata(self) -> int:
        return self.members.n_rows


def compile_index(index: UnitIndex) -> CompiledIndex:
    """Compile the units for `build_layout`, under any configuration."""
    ud_unit, member_unit, member_stratum = index.ud_unit, index.member_unit, index.member_stratum
    n_cd, n_ud, n_units = len(index.cd_q), len(ud_unit), len(index.unit_wells)
    n_strata = len(index.n_sampled)

    # detected component-days, and the detected passes in component-day order
    by_cd = np.argsort(index.pass_cd, kind="stable")
    pass_cd = index.pass_cd[by_cd]
    cd_n = np.bincount(pass_cd, minlength=n_cd)
    dd_cd = np.flatnonzero(cd_n)
    n_dd = len(dd_cd)
    dd_of_cd = np.cumsum(cd_n > 0) - 1
    pass_dd = np.empty(len(by_cd), dtype=np.intp)
    pass_dd[by_cd] = dd_of_cd[pass_cd]
    dd_ud = index.cd_ud[dd_cd]

    # phi groups: every detected component-day, then every well-site day
    # with a detection, pooled over the site's components
    star = np.flatnonzero(np.bincount(dd_ud, minlength=n_ud))
    wells = index.unit_wells[ud_unit]
    site = star[wells[star] > 0]
    ud_grp = np.full(n_ud, -1, dtype=np.intp)
    ud_grp[star] = np.searchsorted(dd_ud, star)
    ud_grp[site] = n_dd + np.arange(len(site))
    pass_ud = index.cd_ud[pass_cd]
    in_site = wells[pass_ud] > 0
    grp_key = np.concatenate([dd_of_cd[pass_cd], ud_grp[pass_ud[in_site]]])
    n_grp = n_dd + len(site)
    ud_q = np.bincount(index.cd_ud, weights=index.cd_q, minlength=n_ud).astype(np.intp)
    ud_misses = ud_q - np.bincount(pass_ud, minlength=n_ud)

    # units: surveyed days d_p and days with a detection m
    d_p = np.bincount(ud_unit, minlength=n_units)
    star_unit = ud_unit[star]
    m = np.bincount(star_unit, minlength=n_units)

    # strata: members in order, facilities (numbered in order of their
    # first member) in order
    _, fac_first, fac_of_member = np.unique(index.member_fac, return_index=True,
                                            return_inverse=True)
    # float64 counts: N(N-1) overflows int64 once N passes about 3e9, and
    # the float products are exact wherever N(N-1) < 2**53
    n_sampled, n_population = index.n_sampled.astype(float), index.n_population.astype(float)
    stratum_f = n_sampled / n_population
    with np.errstate(divide="ignore", invalid="ignore"):
        pair_coef = np.where(n_sampled >= 2, 1.0 - stratum_f * stratum_f / (
            n_sampled * (n_sampled - 1) / (n_population * (n_population - 1))), 0.0)
    size = np.bincount(member_stratum, minlength=n_strata)
    n_zero = np.bincount(member_stratum[m[member_unit] == 0], minlength=n_strata)

    return CompiledIndex(
        labels=index.labels,
        dd_pass=_schedule(dd_of_cd[pass_cd], by_cd, n_dd),
        dd_q=_col(index.cd_q[dd_cd]),
        pass_dd=pass_dd,
        grp_pass=_schedule(grp_key, np.concatenate([by_cd, by_cd[in_site]]), n_grp),
        grp_count=_col(np.bincount(grp_key, minlength=n_grp)),
        grp_misses=_col(np.concatenate([index.cd_q[dd_cd] - cd_n[dd_cd], ud_misses[site]]),
                        np.intp),
        ud_members=_schedule(dd_ud, None, n_ud),
        ud_wells=_col(np.maximum(wells, 1)),
        ud_unit=ud_unit,
        star=star,
        star_unit=star_unit,
        star_grp=ud_grp[star],
        star_one_pass=np.flatnonzero(ud_q[star] == 1),
        d_p=d_p,
        m=m,
        unit_d=_col(d_p),
        member_unit=member_unit,
        member_stratum=member_stratum,
        member_f=_col(stratum_f[member_stratum]),
        members=_schedule(member_stratum, None, n_strata),
        fac_members=_schedule(fac_of_member, None, len(fac_first)),
        fac_of_stratum=_schedule(member_stratum[fac_first], None, n_strata),
        stratum_f=_col(stratum_f),
        stratum_pair_coef=_col(pair_coef),
        groups=_schedule(index.stratum_group, None,
                         int(index.stratum_group.max(initial=-1)) + 1),
        n_zero_emitting_strata=int(np.count_nonzero((size > 0) & (size == n_zero))),
    )


@dataclass(frozen=True)
class Layout:
    """Everything about the units and configuration that is fixed across iterations.

    ``index`` holds what the configuration does not decide; the rest is
    per unit class (full variance, pooled variance, zero emitter) under this
    configuration, and the pooling of the pooled units' members.
    """

    index: CompiledIndex
    kind: str                       # "ipw", "starred" (IPW modified) or "hajek"
    observed: bool
    printed: bool
    full: np.ndarray
    pooled: np.ndarray
    unit_h: np.ndarray
    # the unit-days expanded: every unit-day ("ipw", at phi_hat = 1; ``days``
    # is then None) or the star days; positions in ``days`` of the full
    # units' days, and their unit's d and D
    days: np.ndarray | None
    full_days: np.ndarray
    full_d: np.ndarray
    full_h: np.ndarray
    days_of_full: Schedule          # per full unit: its full_days positions
    first_day_of_pooled: np.ndarray  # per pooled unit: its position in days
    # pooling, per member
    member_h: np.ndarray
    peers: Schedule | None          # per stratum: the members of its full units;
                                    # None when no member pools
    n_peers: np.ndarray
    pooled_members: np.ndarray
    pooled_stratum: np.ndarray      # per pooled member
    diagnostics: dict

    @property
    def n_passes(self) -> int:
        return len(self.index.pass_dd)


def build_layout(index: CompiledIndex, config: EstimatorConfig) -> Layout:
    """Complete a compiled index for `evaluate` under one estimator configuration.

    Raises `EstimationError` for what the scalar path would reject on every
    iteration: a surveyed day count above the horizon.
    """
    kind = "hajek" if config.estimator == "hajek" else (
        "starred" if config.plan == "modified" else "ipw")
    observed = config.stage2 == "observed"
    d_p, m = index.d_p, index.m
    horizon = d_p if observed else np.full(index.n_units, config.horizon)
    over = np.flatnonzero(d_p > horizon)
    if len(over):
        u = over[0]
        raise EstimationError(
            f"component {index.labels[u]!r}: d_p={d_p[u]} exceeds the horizon D={horizon[u]}"
        )
    single = (m if kind == "hajek" else d_p) == 1
    is_full, is_pooled = (m > 0) & ~single, (m > 0) & single
    full, pooled = np.flatnonzero(is_full), np.flatnonzero(is_pooled)

    # the original plan is the starred one with phi_hat = 1 on every
    # surveyed day, zero-detection days included
    if kind == "ipw":
        days, day_unit, n_days = None, index.ud_unit, d_p
    else:
        days, day_unit, n_days = index.star, index.star_unit, m
    # the days of full units get positions of their own, in unit order
    full_days = np.flatnonzero(is_full[day_unit])
    n_full = n_days[full]

    # pooling peers: the members of each stratum's full units, in order,
    # scheduled only if a member pools
    peer = is_full[index.member_unit]
    peer_stratum = index.member_stratum[peer]
    n_peers = np.bincount(peer_stratum, minlength=index.n_strata)
    pooled_members = np.flatnonzero(is_pooled[index.member_unit])
    pooled_stratum = index.member_stratum[pooled_members]
    peers = None
    if len(pooled_members):
        peers = _schedule(peer_stratum, np.flatnonzero(peer), index.n_strata)
    diagnostics = {
        "n_pooled_components": len(pooled_members),
        "n_pooled_without_peers": int(np.count_nonzero(n_peers[pooled_stratum] == 0)),
        "n_zero_emitting_strata": index.n_zero_emitting_strata,
    }
    return Layout(
        index=index,
        kind=kind,
        observed=observed,
        printed=config.decomposition == "printed",
        full=full,
        pooled=pooled,
        unit_h=_col(horizon),
        days=days,
        full_days=full_days,
        full_d=_col(d_p[day_unit[full_days]]),
        full_h=_col(horizon[day_unit[full_days]]),
        days_of_full=_ranges(n_full),
        first_day_of_pooled=(np.cumsum(n_days) - n_days)[pooled],
        member_h=_col(horizon[index.member_unit]),
        peers=peers,
        n_peers=_col(np.maximum(1, n_peers)),  # an empty sum stays 0.0
        pooled_members=pooled_members,
        pooled_stratum=pooled_stratum,
        diagnostics=diagnostics,
    )


@dataclass
class BatchEstimate:
    """Per-iteration results of a chunk, in kg/h units.

    ``population`` maps `POPULATION_KEYS` to arrays of shape (B, n_groups)
    (a frame has one group); ``strata`` maps `POPULATION_KEYS` to arrays of
    shape (B, n_strata), strata in `UnitIndex` order.  The keys mirror the
    fields of the scalar reference's survey and stratum estimates;
    `STRATUM_KEYS` are the ones a report row carries.
    """

    population: dict[str, np.ndarray]
    strata: dict[str, np.ndarray]


# The kernel below holds every per-iteration quantity as an array of shape
# (items, B): gathering items then moves whole contiguous rows.


def _daily(ix: CompiledIndex, kind: str, y: np.ndarray, phi: np.ndarray):
    """Unit-day means and variances, and star-day any-detection probabilities.

    ``kind`` is a `Layout.kind`.  Each detected component-day gets the IPW
    daily mean (sum Y/phi)/Q_pt with variance (1/Q_pt^2) sum (1-phi)/phi^2 Y^2,
    or for "hajek" the ratio (sum Y/phi)/(sum 1/phi) with the variance

        (phi_hat/Q_pt^2) [sum (1-phi) R^2 + (phi_hat - 1)(sum R)^2],

    R = (Y - mean)/phi, clipped at zero.  A unit-day sums its component-days
    (one, or each of a well site's components) and spreads the sums over the
    site's wells: the mean divided by the wells, the variance by their
    square.  A day without a detection is 0.0.  The probabilities (None for
    "ipw") are per unit-day with a detection, pooled over a site's
    components; see `_phi_any`.
    """
    q = ix.dd_q
    ph_grp = None
    if kind != "ipw":
        ph_grp = _phi_any(phi, ix.grp_pass, ix.grp_count, ix.grp_misses)
    # the terms of each ragged sum are written into one array, not stacked,
    # and the day means and variances over the sums they come from
    x = np.empty((2,) + y.shape)
    np.divide(y, phi, out=x[0])
    if kind == "hajek":
        np.divide(1.0, phi, out=x[1])
        day = _seq_sum(x, ix.dd_pass)
        mean = np.divide(day[0], day[1], out=day[0])
        resid = np.divide(y - mean[ix.pass_dd], phi, out=x[1])
        np.multiply(1.0 - phi, resid**2, out=x[0])
        resid_sq, resid_sum = _seq_sum(x, ix.dd_pass)
        ph = ph_grp[:len(q)]
        np.maximum(0.0, ph / (q * q) * (resid_sq + (ph - 1.0) * resid_sum**2), out=day[1])
    else:
        np.multiply((1.0 - phi) / (phi * phi) * y, y, out=x[1])
        day = _seq_sum(x, ix.dd_pass)
        day[0] /= q
        day[1] /= q * q
    del x
    w = ix.ud_wells
    ud_mean, ud_var = _seq_sum(day, ix.ud_members)
    ud_ph = None if ph_grp is None else ph_grp[ix.star_grp]
    return ud_mean / w, ud_var / (w * w), ud_ph


def _unit_estimates(layouts: Sequence[Layout], ud_mean, ud_var, ud_ph):
    """Per-unit mean and stage III part, which every layout of one kind
    shares, then each layout's per-unit variance (NaN until pooled), stacked."""
    layout = layouts[0]
    ix = layout.index
    out = np.zeros((2 + len(layouts), ix.n_units, ud_mean.shape[-1]))
    mean, s3, var = out[0], out[1], out[2:]
    full, pooled, first = layout.full, layout.pooled, layout.first_day_of_pooled
    sf, sd = layout.full_days, layout.full_d
    if layout.kind == "ipw":  # the original plan: phi_hat = 1 on every surveyed day
        day_mean, day_var = ud_mean, ud_var
        ph0 = ph = 1.0
    else:
        day_mean, day_var = ud_mean[layout.days], ud_var[layout.days]
        if layout.kind == "starred":
            # the reference's starred_daily on every star day, 0.0 on a day of one pass
            day_mean, day_var = (ud_ph * day_mean,
                                 ud_ph * day_var + ud_ph * (ud_ph - 1.0) * day_mean**2)
            day_var[ix.star_one_pass] = 0.0
        ph0, ph = ud_ph[first], ud_ph[sf]
    m0, v0 = day_mean[first], day_var[first]
    m, v = day_mean[sf], day_var[sf]
    d = ix.unit_d[full]
    var[:, pooled] = np.nan

    # the reference's _starred_srs over the days of each full unit; pooled: the single day
    # (a pooled "ipw" or "starred" unit has d_p = 1, so dividing by d0 is exact).  The
    # horizon enters t1 and t3 only: each layout's are summed in the shared pass.
    terms = np.empty((2 + 2 * len(layouts),) + m.shape)
    r = np.divide(m, ph, out=terms[0])
    np.divide(v, ph * ph, out=terms[1])
    for i, lay in enumerate(layouts):
        sh = lay.full_h
        np.multiply(sh * (sh - 1 - ph * (sd - 1)) / (sd * (sd - 1)) * r, r, out=terms[2 + 2 * i])
        np.multiply(sh / (sd * ph), v, out=terms[3 + 2 * i])
    del day_mean, day_var, m, v, ph   # the sums below are the peak of a chunk's memory
    s1, s3sum, *t13 = _seq_sum(terms, layout.days_of_full)
    mean[full] = s1 / d
    s3[full] = s3sum / (d * d)
    for lay, unit_var, t1, t3 in zip(layouts, var, t13[::2], t13[1::2]):
        h = lay.unit_h[full]
        t2 = h * (d - h) / (d * d * (d - 1)) * s1 * s1
        unit_var[full] = np.maximum(0.0, (t1 + t2 + t3) / (h * h))
    d0 = ix.unit_d[pooled]
    mean[pooled] = m0 / (ph0 * d0)
    s3[pooled] = v0 / (ph0 * ph0 * d0 * d0)
    return out


def _assemble(layouts: Sequence[Layout], unit_est: np.ndarray):
    """Give each member its unit's estimates, pool single-day variances, then
    the reference's `stratum_total` and each group's population sums: the
    (population, strata) parts of each of ``layouts``, which share one kind.

    The expanded means, facility sums and a1 are shared; each ragged sum
    takes every layout's terms in one pass.
    """
    layout = layouts[0]
    ix = layout.index
    n = len(layouts)
    members = unit_est.take(ix.member_unit, axis=1)
    mean, s3, var = members[0], members[1], members[2:]
    pooled = layout.pooled_members
    if layout.peers is not None:
        var[:, pooled] = (_seq_sum(var, layout.peers) / layout.n_peers)[:, layout.pooled_stratum]
    f = ix.member_f
    ff = f * f
    terms = np.empty((1 + 3 * n,) + mean.shape)
    expanded = np.divide(mean, f, out=terms[0])
    for i, (lay, v) in enumerate(zip(layouts, var)):
        part = s3
        if lay.observed:
            part = s3.copy()
            part[pooled] = v[pooled]
        if lay.printed:
            part = part * lay.member_h
        np.divide(v, f, out=terms[1 + 3 * i])
        np.divide(v, ff, out=terms[2 + 3 * i])
        np.divide(part, ff, out=terms[3 + 3 * i])
    total, *sums = _seq_sum(terms, ix.members)
    fac = _seq_sum(expanded, ix.fac_members)
    sumsq = _seq_sum(fac * fac, ix.fac_of_stratum)
    a1 = (1.0 - ix.stratum_f) * sumsq + ix.stratum_pair_coef * (total * total - sumsq)

    # each layout's stratum parts, written where its population sums read them
    strata = []
    parts = np.empty((6 * n,) + total.shape)
    for i in range(n):
        v23, s23, s3s = sums[3 * i:3 * i + 3]
        row = parts[6 * i:6 * i + 6]
        row[0] = total
        v3stage = np.add(a1, v23, out=row[1])
        u1 = np.subtract(v3stage, s23, out=row[2])
        u2 = np.subtract(s23, s3s, out=row[3])
        row[4] = s3s
        np.add(u2, s3s, out=row[5])
        st = {"total": total, "v3stage": v3stage, "u3": s3s, "u2": u2, "u1": u1}
        st["v3"] = np.maximum(0.0, s3s)
        st["v2"] = np.maximum(0.0, s23 - st["v3"])
        st["v1"] = np.maximum(0.0, v3stage - st["v2"] - st["v3"])
        strata.append(st)

    # each group's population sums, stratum by stratum in order
    pop_sums = _seq_sum(parts, ix.groups)
    out = []
    for i, st in enumerate(strata):
        sums = pop_sums[6 * i:6 * i + 6]
        pop = dict(zip(("total", "v3stage", "u1", "u2", "u3"), sums))
        pop["v3"] = np.maximum(0.0, pop["u3"])
        pop["v2"] = np.maximum(0.0, sums[5] - pop["v3"])
        pop["v1"] = np.maximum(0.0, pop["v3stage"] - pop["v2"] - pop["v3"])
        out.append((pop, st))
    return out


class NonFiniteEstimate(EstimationError):
    """An iteration's estimate under one layout of an `evaluate` call is not
    finite: part ``key`` of the population (``stratum`` None) or of the
    stratum at position ``stratum``.  ``layout`` is that layout's position in
    the call."""

    hint = "a measured rate too large to estimate with?"

    def __init__(self, iteration: int, layout: int, stratum: int | None, key: str):
        where = "population" if stratum is None else "stratum"
        super().__init__(f"Monte Carlo iteration {iteration}: non-finite {where} {key} "
                         f"({self.hint})")
        self.layout, self.stratum, self.key = layout, stratum, key


def evaluate(layouts: Sequence[Layout], y: np.ndarray, phi: np.ndarray,
             first_iteration: int = 0) -> list[BatchEstimate]:
    """Estimate every iteration of a chunk under each of ``layouts``, which
    share one `CompiledIndex`: rates and floored PODs of shape (B, n).

    Columns align with the index's detected passes; row b is iteration
    ``first_iteration + b``.  The layouts of one `Layout.kind` differ only
    in their horizons and their ``observed`` and ``printed`` flags, so each
    distinct kind runs the daily stage and the unit, member, facility and
    stratum total terms once (`_unit_estimates`, `_assemble`), with each
    layout's own terms alongside; each layout's estimate is the same as in
    a call of its own.  Layouts are checked in order: raises
    `NonFiniteEstimate` for the first whose total or any variance part is
    not finite on an iteration, naming the first such iteration (see
    `_check_finite`).
    """
    if not layouts:
        return []
    index = layouts[0].index
    if any(layout.index is not index for layout in layouts):
        raise ValueError("evaluate takes the layouts of one compiled index")
    by_kind: dict[str, list[int]] = {}
    for position, layout in enumerate(layouts):
        by_kind.setdefault(layout.kind, []).append(position)
    out: list[BatchEstimate] = [None] * len(layouts)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y_t, phi_t = np.ascontiguousarray(y.T), np.ascontiguousarray(phi.T)
        for kind, positions in by_kind.items():
            group = [layouts[p] for p in positions]
            units = _unit_estimates(group, *_daily(index, kind, y_t, phi_t))
            for position, (pop, st) in zip(positions, _assemble(group, units)):
                out[position] = BatchEstimate(population={k: v.T for k, v in pop.items()},
                                              strata={k: v.T for k, v in st.items()})
        for position, est in enumerate(out):
            _check_finite(est, first_iteration, position)
    return out


def _check_finite(est: BatchEstimate, first_iteration: int, position: int) -> None:
    """Name the first iteration with a non-finite total or variance part, and
    in it the first such part: the population's, then stratum by stratum,
    each in `POPULATION_KEYS` order."""
    pop = np.isfinite(np.stack([est.population[k] for k in POPULATION_KEYS]))
    st = np.isfinite(np.stack([est.strata[k] for k in POPULATION_KEYS]))
    if pop.all() and st.all():
        return
    pop_bad, st_bad = ~pop.all(axis=2), ~st    # (keys, B), (keys, B, strata)
    row = int(np.argmax(pop_bad.any(axis=0) | st_bad.any(axis=(0, 2))))
    if pop_bad[:, row].any():
        stratum, key = None, int(np.argmax(pop_bad[:, row]))
    else:
        stratum, key = np.argwhere(st_bad[:, row].T)[0].tolist()
    raise NonFiniteEstimate(first_iteration + row, position, stratum, POPULATION_KEYS[key])
