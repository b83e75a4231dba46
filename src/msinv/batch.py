"""Batched evaluation of the design estimator over a compiled layout.

Across the iterations of the measurement-error Monte Carlo only the drawn
rates and their detection probabilities change.  Everything else is fixed by
the units and the `EstimatorConfig`.  A `frame.UnitIndex` (a frame's is
`SurveyFrame.index`, built once per frame; the exact oracle builds one per
block of outcomes, the simulation lab one per block of replications) says as
flat arrays which detected passes make up each component-day and its pass
count Q_pt, the surveyed days d_p, and which component-days a well site sums
and spreads over its wells.

A layout is built in two steps, with numpy alone.  `compile_index` compiles
what no configuration decides, once per `UnitIndex`: the detected
component-days, the phi groups, the unit-days, each unit's d_p and its count
m of days with a detection, and stage I membership (members, facilities,
strata and groups).  `build_layout` adds, per configuration, what the
configuration decides: which units are zero emitters or need a pooled
variance, the days the other units expand (IPW on the original plan: every
surveyed day, at phi_hat = 1; else the star days), the pooling peers, and the
check of d_p against the horizon.  Every configuration of an index shares its
`CompiledIndex`.  `evaluate` computes a whole chunk of iterations at once,
as arrays with one row per iteration.

Each ragged index (the passes of a component-day, the members of a stratum,
...) is a prefix sum `Schedule`: its rows are stored longest first, so the
c-th items of all rows with more than c items fill a contiguous prefix of
the rows.  A row sum then takes one gather and one in-place add per column,
and the rows are put back in order once at the end.

The scalar functions in `estimators` (`prepare_components` followed by
`estimate_survey`) are the specification.  Every sum here is accumulated left
to right over the same terms in the same order as there (Python's `sum`), and
every formula keeps their association order, so the two paths agree to
rounding.  All arithmetic is elementwise along the iteration axis, so an
iteration's result does not depend on the chunk it is evaluated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import EstimationError, EstimatorConfig
from .frame import SurveyFrame, UnitIndex

__all__ = ["Schedule", "CompiledIndex", "Layout", "BatchEstimate", "compile_index",
           "build_layout", "compile_layout", "evaluate"]

POPULATION_KEYS = ("total", "v3stage", "v1", "v2", "v3", "u1", "u2", "u3")
STRATUM_KEYS = ("total", "v1", "v2", "v3", "u1", "u2", "u3")


class Schedule(NamedTuple):
    """A ragged index (rows of items) laid out for left-to-right row sums.

    Rows are stored longest first: stored row i is row ``order[i]``, and row
    r is stored at ``rank[r]`` (both None when the rows already come longest
    first).  Column c, the c-th item of every row longer than c, then covers
    stored rows ``0..n_c - 1``; ``columns`` holds ``(n_c, start, stop)`` per
    column, and ``items[start:stop]`` are its items in stored row order.
    """

    n_rows: int
    columns: tuple[tuple[int, int, int], ...]
    items: np.ndarray
    order: np.ndarray | None
    rank: np.ndarray | None


def _ranges(starts: np.ndarray, counts: np.ndarray) -> Schedule:
    """Row r lists ``starts[r]``, ``starts[r] + 1``, ... (``counts[r]`` items)."""
    n_rows = len(counts)
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
    items = starts[np.arange(len(col)) - (stop - n_c)[col]] + col
    return Schedule(n_rows, tuple(zip(n_c.tolist(), (stop - n_c).tolist(), stop.tolist())),
                    items, order, rank)


def _schedule(keys: np.ndarray, values: np.ndarray, n_rows: int) -> Schedule:
    """Row k lists, in their order, the values whose key is k."""
    by_key = np.argsort(keys, kind="stable")
    length = np.bincount(keys, minlength=n_rows)
    s = _ranges(np.cumsum(length) - length, length)
    return s._replace(items=values[by_key][s.items])


def _seq_sum(x: np.ndarray, s: Schedule) -> np.ndarray:
    """Row sums ``sum(x[..., j, :] for j in row r)``, added left to right from 0.

    ``x`` has items on axis -2 and iterations on axis -1.
    """
    out = np.zeros(x.shape[:-2] + (s.n_rows, x.shape[-1]))
    for n, start, stop in s.columns:
        out[..., :n, :] += np.take(x, s.items[start:stop], axis=-2)
    return out if s.rank is None else np.take(out, s.rank, axis=-2)


def _seq_prod(first: np.ndarray, x: np.ndarray, s: Schedule) -> np.ndarray:
    """Row products ``first[..., r, :]`` times each ``x[..., j, :]`` of row r, left to right."""
    out = np.array(first) if s.order is None else np.take(first, s.order, axis=-2)
    for n, start, stop in s.columns:
        out[..., :n, :] *= np.take(x, s.items[start:stop], axis=-2)
    return out if s.rank is None else np.take(out, s.rank, axis=-2)


def _phi_any(phi: np.ndarray, groups: Schedule, count: np.ndarray, misses: np.ndarray):
    """`pod.phi_any_detection` of each pass group (rows of ``groups``), batched."""
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
    stratum members (units repeated once per well); facilities; strata;
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
    # units: surveyed days d_p, days with a detection m
    d_p: np.ndarray
    m: np.ndarray
    unit_d: np.ndarray
    unit_stratum: np.ndarray
    unit_f: np.ndarray
    # stage I: members and facilities per stratum, strata per group
    member_unit: np.ndarray
    member_stratum: np.ndarray
    n_members: np.ndarray           # per unit
    members: Schedule               # per stratum: units, with well repeats
    fac_units: Schedule             # per facility: units
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
    ud_unit, unit_stratum, member_unit = index.ud_unit, index.unit_stratum, index.member_unit
    n_cd, n_ud, n_units = len(index.cd_q), len(ud_unit), len(unit_stratum)
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

    # strata: members in unit order, facilities (numbered in order of their
    # first member) in order
    member_stratum = unit_stratum[member_unit]
    _, fac_first, fac_of_member = np.unique(index.member_fac, return_index=True,
                                            return_inverse=True)
    n_sampled, n_population = index.n_sampled, index.n_population
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
        ud_members=_schedule(dd_ud, np.arange(n_dd), n_ud),
        ud_wells=_col(np.maximum(wells, 1)),
        ud_unit=ud_unit,
        star=star,
        star_unit=star_unit,
        star_grp=ud_grp[star],
        d_p=d_p,
        m=m,
        unit_d=_col(d_p),
        unit_stratum=unit_stratum,
        unit_f=_col(stratum_f[unit_stratum]),
        member_unit=member_unit,
        member_stratum=member_stratum,
        n_members=np.bincount(member_unit, minlength=n_units),
        members=_schedule(member_stratum, member_unit, n_strata),
        fac_units=_schedule(fac_of_member, member_unit, len(fac_first)),
        fac_of_stratum=_schedule(member_stratum[fac_first], np.arange(len(fac_first)),
                                 n_strata),
        stratum_f=_col(stratum_f),
        stratum_pair_coef=_col(pair_coef),
        groups=_schedule(index.stratum_group, np.arange(n_strata),
                         int(index.stratum_group.max(initial=-1)) + 1),
        n_zero_emitting_strata=int(np.count_nonzero((size > 0) & (size == n_zero))),
    )


@dataclass(frozen=True)
class Layout:
    """Everything about the units and configuration that is fixed across iterations.

    ``index`` holds what the configuration does not decide; the rest is
    per unit class (full variance, pooled variance, zero emitter) under this
    configuration.
    """

    index: CompiledIndex
    kind: str                       # "ipw", "starred" (IPW modified) or "hajek"
    observed: bool
    printed: bool
    full: np.ndarray
    pooled: np.ndarray
    unit_h: np.ndarray
    # the unit-days expanded: every unit-day ("ipw", at phi_hat = 1) or the
    # star days; positions in ``days`` of the full units' days, and their
    # unit's d and D
    days: np.ndarray
    full_days: np.ndarray
    full_d: np.ndarray
    full_h: np.ndarray
    days_of_full: Schedule          # per full unit: its full_days positions
    first_day_of_pooled: np.ndarray  # per pooled unit: its position in days
    # pooling
    peers: Schedule                 # per stratum: full units, with well repeats
    n_peers: np.ndarray
    pooled_stratum: np.ndarray
    diagnostics: dict

    @property
    def n_passes(self) -> int:
        return len(self.index.pass_dd)


def compile_layout(frame: SurveyFrame, config: EstimatorConfig) -> Layout:
    """`build_layout` of the frame's units; columns align with ``frame.measured_rates``."""
    return build_layout(compile_index(frame.index), config)


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
    pooled = np.flatnonzero((m > 0) & single)
    full = np.flatnonzero((m > 0) & ~single)
    is_full = np.zeros(index.n_units, dtype=bool)
    is_full[full] = True

    # the original plan is the starred one with phi_hat = 1 on every
    # surveyed day, zero-detection days included
    if kind == "ipw":
        days, day_unit, n_days = np.arange(len(index.ud_unit)), index.ud_unit, d_p
    else:
        days, day_unit, n_days = index.star, index.star_unit, m
    # the days of full units get positions of their own, in unit order
    full_days = np.flatnonzero(is_full[day_unit])
    n_full = n_days[full]

    # pooling peers: the full units of each stratum, in member order
    peer = is_full[index.member_unit]
    n_peers = np.bincount(index.member_stratum[peer], minlength=index.n_strata)
    pooled_stratum = index.unit_stratum[pooled]
    n_members = index.n_members
    diagnostics = {
        "n_pooled_components": int(n_members[pooled].sum()),
        "n_pooled_without_peers": int(n_members[pooled][n_peers[pooled_stratum] == 0].sum()),
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
        days_of_full=_ranges(np.cumsum(n_full) - n_full, n_full),
        first_day_of_pooled=(np.cumsum(n_days) - n_days)[pooled],
        peers=_schedule(index.member_stratum[peer], index.member_unit[peer], index.n_strata),
        n_peers=_col(np.maximum(1, n_peers)),  # an empty sum stays 0.0
        pooled_stratum=pooled_stratum,
        diagnostics=diagnostics,
    )


@dataclass
class BatchEstimate:
    """Per-iteration results of a chunk, in kg/h units.

    ``population`` maps `POPULATION_KEYS` to arrays of shape (B, n_groups)
    (a frame has one group); ``strata`` maps `POPULATION_KEYS` to arrays of
    shape (B, n_strata), strata in `UnitIndex` order.  The keys mirror the
    fields of `estimators.SurveyEstimate` and `estimators.StratumEstimate`;
    `STRATUM_KEYS` are the ones a report row carries.
    """

    population: dict[str, np.ndarray]
    strata: dict[str, np.ndarray]


# The kernel below holds every per-iteration quantity as an array of shape
# (items, B): gathering items then moves whole contiguous rows.


def _daily(layout: Layout, y: np.ndarray, phi: np.ndarray):
    """Unit-day means and variances, and star-day any-detection probabilities.

    Daily values are `ipw_daily` or `hajek_daily` per detected component-day;
    a well site's day sums them over its components and spreads the sums over
    its wells as `wells_allocate` does.  The probabilities (None for "ipw")
    are per unit-day with a detection, pooled over a site's components.
    """
    ix = layout.index
    q = ix.dd_q
    ph_grp = None
    if layout.kind != "ipw":
        ph_grp = _phi_any(phi, ix.grp_pass, ix.grp_count, ix.grp_misses)
    if layout.kind == "hajek":
        num, den = _seq_sum(np.stack([y / phi, 1.0 / phi]), ix.dd_pass)
        mean = num / den
        resid = (y - mean[ix.pass_dd]) / phi
        resid_sq, resid_sum = _seq_sum(np.stack([(1.0 - phi) * resid**2, resid]),
                                       ix.dd_pass)
        ph = ph_grp[:len(q)]
        var = np.maximum(0.0, ph / (q * q) * (resid_sq + (ph - 1.0) * resid_sum**2))
    else:
        num, sq = _seq_sum(np.stack([y / phi, (1.0 - phi) / (phi * phi) * y * y]),
                           ix.dd_pass)
        mean, var = num / q, sq / (q * q)
    w = ix.ud_wells
    ud_mean, ud_var = _seq_sum(np.stack([mean, var]), ix.ud_members)
    ud_ph = None if ph_grp is None else ph_grp[ix.star_grp]
    return ud_mean / w, ud_var / (w * w), ud_ph


def _unit_estimates(layout: Layout, ud_mean, ud_var, ud_ph):
    """Per-unit mean, variance (NaN until pooled) and stage III part."""
    ix = layout.index
    shape = (ix.n_units, ud_mean.shape[-1])
    mean, var, s3 = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    full, pooled, first = layout.full, layout.pooled, layout.first_day_of_pooled
    sf, sd, sh = layout.full_days, layout.full_d, layout.full_h
    day_mean, day_var = ud_mean[layout.days], ud_var[layout.days]
    if layout.kind == "ipw":  # the original plan: phi_hat = 1 on every surveyed day
        ph0 = ph = 1.0
    else:
        if layout.kind == "starred":
            # starred_daily on every star day
            day_mean, day_var = (ud_ph * day_mean,
                                 ud_ph * day_var + ud_ph * (ud_ph - 1.0) * day_mean**2)
        ph0, ph = ud_ph[first], ud_ph[sf]
    m0, v0 = day_mean[first], day_var[first]
    m, v = day_mean[sf], day_var[sf]
    d, h = ix.unit_d[full], layout.unit_h[full]
    var[pooled] = np.nan

    # _starred_srs over the days of each full unit; pooled: the single day
    # (a pooled "ipw" or "starred" unit has d_p = 1, so dividing by d0 is exact)
    r = m / ph
    s1, t1, t3, s3sum = _seq_sum(np.stack([
        r,
        sh * (sh - 1 - ph * (sd - 1)) / (sd * (sd - 1)) * r * r,
        sh / (sd * ph) * v,
        v / (ph * ph),
    ]), layout.days_of_full)
    t2 = h * (d - h) / (d * d * (d - 1)) * s1 * s1
    mean[full] = s1 / d
    var[full] = np.maximum(0.0, (t1 + t2 + t3) / (h * h))
    s3[full] = s3sum / (d * d)
    d0 = ix.unit_d[pooled]
    mean[pooled] = m0 / (ph0 * d0)
    s3[pooled] = v0 / (ph0 * ph0 * d0 * d0)
    return mean, var, s3


def _assemble(layout: Layout, mean, var, s3):
    """Pool single-day variances, then `stratum_total` and each group's population sums."""
    ix = layout.index
    pool = _seq_sum(var, layout.peers) / layout.n_peers
    var[layout.pooled] = pool[layout.pooled_stratum]
    if layout.observed:
        s3[layout.pooled] = var[layout.pooled]
    part = s3 * layout.unit_h if layout.printed else s3
    f = ix.unit_f
    expanded = mean / f
    total, v23, s23, s3s = _seq_sum(
        np.stack([expanded, var / f, var / (f * f), part / (f * f)]), ix.members)
    fac = _seq_sum(expanded, ix.fac_units)
    sumsq = _seq_sum(fac * fac, ix.fac_of_stratum)
    a1 = (1.0 - ix.stratum_f) * sumsq + ix.stratum_pair_coef * (total * total - sumsq)
    v3stage = a1 + v23
    st = {"total": total, "v3stage": v3stage, "u3": s3s, "u2": s23 - s3s, "u1": v3stage - s23}
    st["v3"] = np.maximum(0.0, s3s)
    st["v2"] = np.maximum(0.0, s23 - st["v3"])
    st["v1"] = np.maximum(0.0, v3stage - st["v2"] - st["v3"])

    # each group's population sums, stratum by stratum in order
    sums = _seq_sum(np.stack([total, v3stage, st["u1"], st["u2"], s3s, st["u2"] + s3s]),
                    ix.groups)
    pop = dict(zip(("total", "v3stage", "u1", "u2", "u3"), sums))
    pop["v3"] = np.maximum(0.0, pop["u3"])
    pop["v2"] = np.maximum(0.0, sums[5] - pop["v3"])
    pop["v1"] = np.maximum(0.0, pop["v3stage"] - pop["v2"] - pop["v3"])
    return pop, st


def evaluate(layout: Layout, y: np.ndarray, phi: np.ndarray,
             first_iteration: int = 0) -> BatchEstimate:
    """Estimate every iteration of a chunk: rates and floored PODs of shape (B, n).

    Columns align with the layout's detected passes; row b is iteration
    ``first_iteration + b``.  Raises `EstimationError` when an iteration's
    total or any variance part is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y_t, phi_t = np.ascontiguousarray(y.T), np.ascontiguousarray(phi.T)
        ud_mean, ud_var, ud_ph = _daily(layout, y_t, phi_t)
        pop, st = _assemble(layout, *_unit_estimates(layout, ud_mean, ud_var, ud_ph))
    out = BatchEstimate(population={k: v.T for k, v in pop.items()},
                        strata={k: v.T for k, v in st.items()})
    for where, values in (("population", out.population), ("stratum", out.strata)):
        for key, arr in values.items():
            bad = ~np.isfinite(arr)
            if bad.any():
                row = first_iteration + int(np.argwhere(bad)[0][0])
                raise EstimationError(
                    f"Monte Carlo iteration {row}: non-finite {where} {key} "
                    "(a measured rate too large to estimate with?)"
                )
    return out
