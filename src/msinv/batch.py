"""Batched evaluation of the design estimator over a compiled frame layout.

Across the iterations of the measurement-error Monte Carlo only the drawn
rates and their detection probabilities change.  Everything else is fixed by
the frame and the `EstimatorConfig`.  The frame's unit index
(`SurveyFrame.units`, built at load) already says which detected passes make
up each component-day and its pass count Q_pt, the surveyed days d_p, and
which component-days a well site sums and spreads over its wells.
`compile_layout` turns it into index arrays once per run, adding what the
configuration fixes: which units are zero emitters or need a pooled variance,
the pooling peers, and facility and stratum membership.  `evaluate` computes
a whole chunk of iterations at once, as arrays with one row per iteration.

The scalar functions in `estimators` (`prepare_components` followed by
`estimate_survey`) are the specification.  Every sum here is accumulated left
to right over the same terms in the same order as there (Python's `sum`), and
every formula keeps their association order, so the two paths agree to
rounding.  All arithmetic is elementwise along the iteration axis, so an
iteration's result does not depend on the chunk it is evaluated in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import EstimationError, EstimatorConfig
from .frame import SurveyFrame

__all__ = ["Layout", "BatchEstimate", "compile_layout", "evaluate"]

POPULATION_KEYS = ("total", "v3stage", "v1", "v2", "v3", "u1", "u2", "u3")
STRATUM_KEYS = ("total", "v1", "v2", "v3", "u1", "u2", "u3")


def _padded(rows) -> np.ndarray:
    """Ragged index lists as a rectangular array, short rows filled with -1."""
    width = max((len(r) for r in rows), default=0)
    out = np.full((len(rows), width), -1, dtype=np.intp)
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def _columns(idx: np.ndarray):
    """Per column of a padded index array: the rows it fills and their items."""
    for col in idx.T:
        rows = np.flatnonzero(col >= 0)
        yield rows, col[rows]


def _seq_sum(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row sums ``sum(x[..., j, :] for j in idx[r])``, added left to right from 0.

    ``x`` has items on axis -2 and iterations on axis -1; ``idx`` rows are
    padded with -1, which adds nothing.
    """
    out = np.zeros(x.shape[:-2] + (idx.shape[0], x.shape[-1]))
    for rows, items in _columns(idx):
        out[..., rows, :] += x[..., items, :]
    return out


def _phi_any(phi: np.ndarray, idx: np.ndarray, count: np.ndarray, misses: np.ndarray):
    """`pod.phi_any_detection` of each pass group (rows of ``idx``), batched."""
    mu = _seq_sum(phi, idx) / count
    prod = np.ones(mu.shape)
    for t in range(int(misses.max(initial=0))):
        prod = np.where(t < misses, prod * (1.0 - mu), prod)
    miss = 1.0 - phi
    for rows, items in _columns(idx):
        prod[rows] *= miss[items]
    return 1.0 - prod


@dataclass(frozen=True)
class Layout:
    """Everything about a frame and configuration that is fixed across iterations.

    Levels: detected passes, in ``frame.detected_passes`` order; then, each
    indexed in the order of a walk over ``frame.units`` (the scalar
    reference's order), detected component-days ("ddays"); phi groups (each
    dday, then each pooled well-site day) for the any-detection probability;
    unit-days (one per surveyed day of a unit: a non-well component or a well
    site standing for all of its wells); units; stratum members (units
    repeated once per well); facilities; strata.
    """

    kind: str                       # "ipw", "starred" (IPW modified) or "hajek"
    observed: bool
    printed: bool
    strata: tuple[str, ...]
    measured: np.ndarray
    winds: np.ndarray
    altitudes: np.ndarray
    # detected component-days
    dd_pass: np.ndarray
    dd_q: np.ndarray
    pass_dd: np.ndarray
    # phi groups
    grp_pass: np.ndarray
    grp_count: np.ndarray
    grp_misses: np.ndarray
    # unit-days
    ud_members: np.ndarray
    ud_wells: np.ndarray
    ud_grp: np.ndarray
    star: np.ndarray                # unit-days with a detection
    # units by class: full variance, pooled variance, zero emitter
    full: np.ndarray
    pooled: np.ndarray
    n_units: int
    days_of_full: np.ndarray        # rows of unit-days ("ipw") or star_full positions
    first_day_of_pooled: np.ndarray
    unit_d: np.ndarray
    unit_h: np.ndarray
    # "starred"/"hajek": star days of full units, their unit's d and D, and
    # every ordered pair of a unit's star days
    star_full: np.ndarray
    star_d: np.ndarray
    star_h: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    pair_base: np.ndarray
    pair_diag: np.ndarray
    pairs_of_full: np.ndarray
    # pooling and stage I
    peers: np.ndarray               # per stratum: full units, with well repeats
    n_peers: np.ndarray
    pooled_stratum: np.ndarray
    unit_f: np.ndarray
    members: np.ndarray             # per stratum: units, with well repeats
    fac_units: np.ndarray           # per facility: units
    fac_of_stratum: np.ndarray      # per stratum: facilities
    stratum_f: np.ndarray
    stratum_pair_coef: np.ndarray   # 0 where n_sampled < 2
    diagnostics: dict

    @property
    def n_passes(self) -> int:
        return len(self.measured)


def compile_layout(frame: SurveyFrame, config: EstimatorConfig) -> Layout:
    """Index the frame once for `evaluate` under one estimator configuration.

    Raises `EstimationError` for what the scalar path would reject on every
    iteration: a surveyed day count above the horizon.
    """
    det = frame.detected_passes
    kind = "hajek" if config.estimator == "hajek" else (
        "starred" if config.plan == "modified" else "ipw")
    observed = config.stage2 == "observed"
    units = frame.units

    # phi groups: every detected component-day, then every well-site day
    # with a detection, pooled over the site's components
    n_dd = sum(1 for unit in units for day in unit.days for passes, _ in day.parts if passes)
    dd_pass, dd_q, site_rows, site_misses = [], [], [], []
    pass_dd = np.empty(len(det), dtype=np.intp)
    ud_members, ud_wells, ud_grp, star = [], [], [], []
    full, pooled, days_of_full, first_day_of_pooled = [], [], [], []
    unit_d, unit_h = [], []
    star_full, star_d, star_h = [], [], []
    pair_a, pair_b, pair_base, pair_diag, pairs_of_full = [], [], [], [], []
    for u, unit in enumerate(units):
        d_p = len(unit.days)
        horizon = d_p if observed else config.horizon
        if d_p > horizon:
            label = unit.members[0] if unit.wells else unit.unit_id
            raise EstimationError(
                f"component {label!r}: d_p={d_p} exceeds the horizon D={horizon}"
            )
        unit_d.append(d_p)
        unit_h.append(horizon)
        rows, star_rows = [], []
        for day in unit.days:
            t = len(ud_members)
            rows.append(t)
            dds = []
            for passes, q_pt in day.parts:
                if passes:
                    pass_dd[list(passes)] = len(dd_pass)
                    dds.append(len(dd_pass))
                    dd_pass.append(passes)
                    dd_q.append(q_pt)
            ud_members.append(dds)
            ud_wells.append(unit.wells or 1)
            if not dds:
                ud_grp.append(-1)
                continue
            star_rows.append(len(star))
            star.append(t)
            if not unit.wells:
                ud_grp.append(dds[0])
            else:
                ud_grp.append(n_dd + len(site_rows))
                site_rows.append([i for passes, _ in day.parts for i in passes])
                site_misses.append(sum(q_pt - len(passes) for passes, q_pt in day.parts))
        m = len(star_rows)
        if m == 0:
            continue
        if (m if kind == "hajek" else d_p) == 1:
            pooled.append(u)
            first_day_of_pooled.append(star_rows[0] if kind != "ipw" else rows[0])
            continue
        full.append(u)
        if kind == "ipw":
            days_of_full.append(rows)
            continue
        # star days of full units get positions of their own, in unit order
        first = len(star_full)
        days_of_full.append(list(range(first, first + m)))
        star_full += star_rows
        star_d += [d_p] * m
        star_h += [horizon] * m
        base = d_p * (d_p - 1) / (horizon * (horizon - 1)) if horizon > 1 else 0.0
        pairs_of_full.append(list(range(len(pair_a), len(pair_a) + m * m)))
        for a in range(first, first + m):
            for b in range(first, first + m):
                pair_a.append(a)
                pair_b.append(b)
                pair_base.append(base)
                pair_diag.append(a == b)

    names = tuple(frame.strata)
    s_index = {name: s for s, name in enumerate(names)}
    is_full = set(full)
    is_pooled = set(pooled)
    members = [[] for _ in names]
    peers = [[] for _ in names]
    facs: dict[tuple[int, str], list[int]] = {}
    fac_of_stratum = [[] for _ in names]
    size = [0] * len(names)
    n_zero = [0] * len(names)
    for u, unit in enumerate(units):
        s = s_index[unit.stratum]
        for fac in unit.members:
            members[s].append(u)
            size[s] += 1
            n_zero[s] += u not in is_full and u not in is_pooled
            if u in is_full:
                peers[s].append(u)
            key = (s, fac)
            if key not in facs:
                facs[key] = []
                fac_of_stratum[s].append(len(facs) - 1)
            facs[key].append(u)
    pooled_stratum = [s_index[units[u].stratum] for u in pooled]
    n_peers = [len(p) for p in peers]
    stratum_f = [frame.strata[n].n_sampled / frame.strata[n].n_population for n in names]
    pair_coef = []
    for name, f in zip(names, stratum_f):
        n, big_n = frame.strata[name].n_sampled, frame.strata[name].n_population
        pair_coef.append(1.0 - f * f / (n * (n - 1) / (big_n * (big_n - 1))) if n >= 2 else 0.0)
    n_pooled = sum(len(units[u].members) for u in pooled)
    diagnostics = {
        "n_pooled_components": n_pooled,
        "n_pooled_without_peers": sum(len(units[u].members) for u, s in
                                      zip(pooled, pooled_stratum) if not n_peers[s]),
        "n_zero_emitting_strata": sum(1 for n, z in zip(size, n_zero) if n and n == z),
    }

    grp_rows = dd_pass + site_rows
    grp_misses = [q_pt - len(passes) for passes, q_pt in zip(dd_pass, dd_q)] + site_misses

    def arr(values, dtype=float):
        return np.array(values, dtype=dtype)

    def col(values, dtype=float):
        # per-item constants broadcast along the iteration axis
        return np.array(values, dtype=dtype).reshape(-1, 1)

    return Layout(
        kind=kind,
        observed=observed,
        printed=config.decomposition == "printed",
        strata=names,
        measured=arr([p.measured_rate for p in det]),
        winds=arr([p.wind_speed for p in det]),
        altitudes=arr([p.altitude for p in det]),
        dd_pass=_padded(dd_pass),
        dd_q=col(dd_q),
        pass_dd=pass_dd,
        grp_pass=_padded(grp_rows),
        grp_count=col([len(r) for r in grp_rows]),
        grp_misses=col(grp_misses, np.intp),
        ud_members=_padded(ud_members),
        ud_wells=col(ud_wells),
        ud_grp=arr(ud_grp, np.intp),
        star=arr(star, np.intp),
        full=arr(full, np.intp),
        pooled=arr(pooled, np.intp),
        n_units=len(units),
        days_of_full=_padded(days_of_full),
        first_day_of_pooled=arr(first_day_of_pooled, np.intp),
        unit_d=col(unit_d),
        unit_h=col(unit_h),
        star_full=arr(star_full, np.intp),
        star_d=col(star_d),
        star_h=col(star_h),
        pair_a=arr(pair_a, np.intp),
        pair_b=arr(pair_b, np.intp),
        pair_base=col(pair_base),
        pair_diag=col(pair_diag, bool),
        pairs_of_full=_padded(pairs_of_full),
        peers=_padded(peers),
        n_peers=col([max(1, n) for n in n_peers]),  # an empty sum stays 0.0
        pooled_stratum=arr(pooled_stratum, np.intp),
        unit_f=col([stratum_f[s_index[u.stratum]] for u in units]),
        members=_padded(members),
        fac_units=_padded(list(facs.values())),
        fac_of_stratum=_padded(fac_of_stratum),
        stratum_f=col(stratum_f),
        stratum_pair_coef=col(pair_coef),
        diagnostics=diagnostics,
    )


@dataclass
class BatchEstimate:
    """Per-iteration results of a chunk, in kg/h units.

    ``population`` maps `POPULATION_KEYS` to arrays of shape (B,); ``strata``
    maps `STRATUM_KEYS` to arrays of shape (B, n_strata), strata in frame
    order.  The keys mirror the fields of `estimators.SurveyEstimate` and
    `estimators.StratumEstimate`.
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
    q = layout.dd_q
    ph_grp = None
    if layout.kind != "ipw":
        ph_grp = _phi_any(phi, layout.grp_pass, layout.grp_count, layout.grp_misses)
    if layout.kind == "hajek":
        num, den = _seq_sum(np.stack([y / phi, 1.0 / phi]), layout.dd_pass)
        mean = num / den
        resid = (y - mean[layout.pass_dd]) / phi
        resid_sq, resid_sum = _seq_sum(np.stack([(1.0 - phi) * resid**2, resid]),
                                       layout.dd_pass)
        ph = ph_grp[:len(q)]
        var = np.maximum(0.0, ph / (q * q) * (resid_sq + (ph - 1.0) * resid_sum**2))
    else:
        num, sq = _seq_sum(np.stack([y / phi, (1.0 - phi) / (phi * phi) * y * y]),
                           layout.dd_pass)
        mean, var = num / q, sq / (q * q)
    w = layout.ud_wells
    ud_mean, ud_var = _seq_sum(np.stack([mean, var]), layout.ud_members)
    ud_ph = None if ph_grp is None else ph_grp[layout.ud_grp[layout.star]]
    return ud_mean / w, ud_var / (w * w), ud_ph


def _unit_estimates(layout: Layout, ud_mean, ud_var, ud_ph):
    """Per-unit mean, variance (NaN until pooled) and stage III part."""
    shape = (layout.n_units, ud_mean.shape[-1])
    mean, var, s3 = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    full, pooled, first = layout.full, layout.pooled, layout.first_day_of_pooled
    rows = layout.days_of_full
    d, h = layout.unit_d[full], layout.unit_h[full]
    var[pooled] = np.nan
    if layout.kind == "ipw":
        # component_srs_ipw over every surveyed day; pooled: the single day
        s1, s2, sv = _seq_sum(np.stack([ud_mean, ud_mean**2, ud_var]), rows)
        a = (h - d) * h / (d * (d - 1))
        b = h * (d - h) / (d * d * (d - 1))
        mean[full] = s1 / d
        var[full] = np.maximum(0.0, (a * s2 + b * s1 * s1 + (h / d) * sv) / (h * h))
        s3[full] = sv / (d * d)
        mean[pooled] = ud_mean[first]
        s3[pooled] = ud_var[first]
        return mean, var, s3

    st_mean, st_var = ud_mean[layout.star], ud_var[layout.star]
    ph0, m0, v0 = ud_ph[first], st_mean[first], st_var[first]
    sf, sd, sh = layout.star_full, layout.star_d, layout.star_h
    ph, m, v = ud_ph[sf], st_mean[sf], st_var[sf]
    if layout.kind == "starred":
        # starred_daily, then component_generic with the starred day design
        ms = ph * m
        vs = ph * v + ph * (ph - 1.0) * m**2
        marg = ph * sd / sh
        z = ms / marg
        a, b = layout.pair_a, layout.pair_b
        pij = np.where(layout.pair_diag, marg[a], ph[a] * ph[b] * layout.pair_base)
        dsum = _seq_sum((pij - marg[a] * marg[b]) / pij * z[a] * z[b], layout.pairs_of_full)
        zsum, bsum, s3sum = _seq_sum(np.stack([z, vs / marg, vs / (marg * marg)]), rows)
        mean[full] = zsum / h
        var[full] = (dsum + bsum) / (h * h)
        s3[full] = s3sum / (h * h)
        ms0 = ph0 * m0
        vs0 = ph0 * v0 + ph0 * (ph0 - 1.0) * m0**2
        mean[pooled] = ms0 / ph0
        s3[pooled] = vs0 / (ph0 * ph0)
        return mean, var, s3

    # component_srs_hajek over the detection days; pooled: the single one
    r = m / ph
    s1, t1, t3, s3sum = _seq_sum(np.stack([
        r,
        sh * (sh - 1 - ph * (sd - 1)) / (sd * (sd - 1)) * r * r,
        sh / (sd * ph) * v,
        v / (ph * ph),
    ]), rows)
    t2 = h * (d - h) / (d * d * (d - 1)) * s1 * s1
    mean[full] = s1 / d
    var[full] = np.maximum(0.0, (t1 + t2 + t3) / (h * h))
    s3[full] = s3sum / (d * d)
    d0 = layout.unit_d[pooled]
    mean[pooled] = m0 / (ph0 * d0)
    s3[pooled] = v0 / (ph0 * ph0 * d0 * d0)
    return mean, var, s3


def _assemble(layout: Layout, mean, var, s3):
    """Pool single-day variances, then `stratum_total` and the population sums."""
    pool = _seq_sum(var, layout.peers) / layout.n_peers
    var[layout.pooled] = pool[layout.pooled_stratum]
    if layout.observed:
        s3[layout.pooled] = var[layout.pooled]
    part = s3 * layout.unit_h if layout.printed else s3
    f = layout.unit_f
    expanded = mean / f
    total, v23, s23, s3s = _seq_sum(
        np.stack([expanded, var / f, var / (f * f), part / (f * f)]), layout.members)
    fac = _seq_sum(expanded, layout.fac_units)
    sumsq = _seq_sum(fac * fac, layout.fac_of_stratum)
    a1 = (1.0 - layout.stratum_f) * sumsq + layout.stratum_pair_coef * (total * total - sumsq)
    v3stage = a1 + v23
    st = {"total": total, "u3": s3s, "u2": s23 - s3s, "u1": v3stage - s23}
    st["v3"] = np.maximum(0.0, s3s)
    st["v2"] = np.maximum(0.0, s23 - st["v3"])
    st["v1"] = np.maximum(0.0, v3stage - st["v2"] - st["v3"])

    pop = {k: np.zeros(total.shape[-1]) for k in ("total", "v3stage", "u1", "u2", "u3")}
    s3_pop, s23_pop = np.zeros(total.shape[-1]), np.zeros(total.shape[-1])
    for s in range(len(layout.strata)):
        pop["total"] += total[s]
        pop["v3stage"] += v3stage[s]
        for k in ("u1", "u2", "u3"):
            pop[k] += st[k][s]
        s3_pop += st["u3"][s]
        s23_pop += st["u2"][s] + st["u3"][s]
    pop["v3"] = np.maximum(0.0, s3_pop)
    pop["v2"] = np.maximum(0.0, s23_pop - pop["v3"])
    pop["v1"] = np.maximum(0.0, pop["v3stage"] - pop["v2"] - pop["v3"])
    return pop, st


def evaluate(layout: Layout, y: np.ndarray, phi: np.ndarray,
             first_iteration: int = 0) -> BatchEstimate:
    """Estimate every iteration of a chunk: rates and floored PODs of shape (B, n).

    Columns align with ``SurveyFrame.detected_passes``; row b is iteration
    ``first_iteration + b``.  Raises `EstimationError` when an iteration's
    total or any variance part is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y_t, phi_t = np.ascontiguousarray(y.T), np.ascontiguousarray(phi.T)
        ud_mean, ud_var, ud_ph = _daily(layout, y_t, phi_t)
        pop, st = _assemble(layout, *_unit_estimates(layout, ud_mean, ud_var, ud_ph))
    out = BatchEstimate(population=pop, strata={k: v.T for k, v in st.items()})
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
