"""Helpers that lay `UnitIndex` arrays out anew, for tests of the batched kernel.

`side_by_side` puts several indexes into one, and `unit_per_member` gives
every stage I member a unit of its own.  Neither changes an estimate:
`evaluate` on the result equals `evaluate` on the inputs bit for bit, which
`same_bits` compares.
"""

import dataclasses

import numpy as np

from msinv.frame import UnitIndex


def same_bits(got, want) -> bool:
    """Equal shapes, NaN where ``want`` is NaN, and every other value bit for bit."""
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64)))


def side_by_side(indexes) -> UnitIndex:
    """One index holding each of ``indexes`` in order, each with groups of its own."""
    parts = {f.name: [] for f in dataclasses.fields(UnitIndex)}
    n_cd = n_ud = n_units = n_strata = n_facs = n_groups = 0
    for ix in indexes:
        for name, values in (
            ("pass_cd", ix.pass_cd + n_cd), ("cd_q", ix.cd_q), ("cd_ud", ix.cd_ud + n_ud),
            ("ud_unit", ix.ud_unit + n_units), ("unit_wells", ix.unit_wells),
            ("labels", ix.labels), ("member_unit", ix.member_unit + n_units),
            ("member_stratum", ix.member_stratum + n_strata),
            ("member_fac", ix.member_fac + n_facs),
            ("n_sampled", ix.n_sampled), ("n_population", ix.n_population),
            ("stratum_group", ix.stratum_group + n_groups),
        ):
            parts[name].append(values)
        n_cd += len(ix.cd_q)
        n_ud += len(ix.ud_unit)
        n_units += len(ix.unit_wells)
        n_strata += len(ix.n_sampled)
        n_facs += int(ix.member_fac.max(initial=-1)) + 1
        n_groups += int(ix.stratum_group.max(initial=-1)) + 1
    return UnitIndex(**{name: np.concatenate(values) for name, values in parts.items()})


def unit_per_member(index: UnitIndex, rates: np.ndarray, phis: np.ndarray):
    """``(index, rates, phis)`` with a unit of its own per stage I member.

    Member i gets a copy of its unit as unit i: the unit's unit-days,
    component-days and detected passes, each in their order, with the rates
    and PODs of the copied passes (on the last axis).  Stage I arrays are
    kept.
    """
    n_units = len(index.unit_wells)
    # per unit: its unit-days, component-days and detected passes, in order
    uds = [np.flatnonzero(index.ud_unit == u) for u in range(n_units)]
    cds = [np.flatnonzero(np.isin(index.cd_ud, ud)) for ud in uds]
    passes = [np.flatnonzero(np.isin(index.pass_cd, cd)) for cd in cds]
    parts: dict[str, list[np.ndarray]] = {
        k: [np.empty(0, dtype=np.intp)] for k in ("pass_cd", "cd_q", "cd_ud", "ud_unit", "pass")}
    n_cd = n_ud = 0
    for i, u in enumerate(index.member_unit.tolist()):
        parts["pass_cd"].append(n_cd + np.searchsorted(cds[u], index.pass_cd[passes[u]]))
        parts["cd_q"].append(index.cd_q[cds[u]])
        parts["cd_ud"].append(n_ud + np.searchsorted(uds[u], index.cd_ud[cds[u]]))
        parts["ud_unit"].append(np.full(len(uds[u]), i, dtype=np.intp))
        parts["pass"].append(passes[u])
        n_cd += len(cds[u])
        n_ud += len(uds[u])
    flat = {key: np.concatenate(arrays) for key, arrays in parts.items()}
    members = index.member_unit
    copy = dataclasses.replace(
        index, pass_cd=flat["pass_cd"], cd_q=flat["cd_q"], cd_ud=flat["cd_ud"],
        ud_unit=flat["ud_unit"], unit_wells=index.unit_wells[members],
        labels=index.labels[members], member_unit=np.arange(len(members)))
    return copy, rates[..., flat["pass"]], phis[..., flat["pass"]]
