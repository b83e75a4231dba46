"""The oracle's block builder as a loop over chunks: the reference for `oracle._block`.

`oracle._block` lays a block of enumerated outcomes out as one `UnitIndex`
with whole-array numpy.  This builds the same index chunk by chunk, each
chunk from its own padded table of the sampled (component, day) pairs, and
must give equal arrays of equal dtypes.
"""

import numpy as np

from msinv.frame import UnitIndex


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
        k: [] for k in ("pass_cd", "rates", "phis", "cd_q", "ud_unit", "unit_stratum",
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
        parts["unit_stratum"].append(np.tile(comp_stratum[comps], k) + n_strata * outcome)
        parts["labels"].append(np.tile(comp_ids[comps], k))
        parts["member_fac"].append(np.tile(comp_fac[comps], k) + n_facs * outcome)
        n_out += k
        n_units += k * len(comps)
        n_cd += k * n_pairs
    flat = {key: np.concatenate(arrays) for key, arrays in parts.items()}
    index = UnitIndex(
        pass_cd=flat["pass_cd"], cd_q=flat["cd_q"], cd_ud=np.arange(n_cd),
        ud_unit=flat["ud_unit"], unit_stratum=flat["unit_stratum"],
        unit_wells=np.zeros(n_units, dtype=np.intp), labels=flat["labels"],
        member_unit=np.arange(n_units), member_fac=flat["member_fac"],
        n_sampled=np.tile([pop.strata[n].n_sampled for n in names], n_out),
        n_population=np.tile([pop.strata[n].n_population for n in names], n_out),
        stratum_group=np.repeat(np.arange(n_out), n_strata),
    )
    return index, flat["rates"], flat["phis"]
