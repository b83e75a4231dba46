"""Survey frame: the site -> facility -> component hierarchy plus the pass log.

A frame is loaded from three CSV files (pass log, component registry, strata
table), validated for referential integrity, and frozen.  Non-detected passes
are kept: they carry no measurement fields but they set the per-day pass
count that every estimator divides by.

Each file is read a block of rows at a time into columns (see `BLOCK_ROWS`)
and checked a column at a time, naming the fault a row-by-row reader would
meet first (`_FirstFault`).  The registry and the pass log are held as
columns (`ComponentColumns`, `PassColumns`); one lookup gives each pass its
registry row, which both checks its hierarchy fields and codes its
component.  Loading sorts the passes once and groups them into the units
every estimator walks: a non-well component, or a well site that stands for
its wells, with the detected passes and pass count of each component-day.
The frame-level checks and the grouping run over arrays, with no Python
step per component.  `SurveyFrame.index` holds the units as the flat arrays
of a `UnitIndex`, the input of the batched estimator; the per-component
records of `SurveyFrame.components` are built only when asked for.

This module also holds the one strict reader for the JSON configuration
documents (the `simulate` study config and the `plan` scenario) and the INI
model constants: `read_json` opens a document, `json_object` and `json_list`
check its shape and name any missing or unknown key, and `number`, `count`
and `text` convert each value.  They raise `ValueError`, which the command
line reports as a configuration error (exit 4).
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import batch

__all__ = [
    "FrameError",
    "StratumDef",
    "ComponentRef",
    "ComponentColumns",
    "PassColumns",
    "UnitIndex",
    "SurveyFrame",
    "FrameDiagnostics",
    "load_survey",
    "validate",
    "read_json",
    "json_object",
    "json_list",
    "number",
    "count",
    "text",
]

PASSES_HEADER = [
    "component_id", "facility_id", "site_id", "stratum", "day", "pass",
    "detected", "rate_kg_h", "wind_m_s", "altitude_m",
]
STRATA_HEADER = ["stratum", "n_sampled", "n_population"]
FRAME_HEADER = [
    "component_id", "facility_id", "site_id", "stratum", "is_well", "wells_at_site",
]

# More than this many passes over one component in one day is suspicious for
# real aerial data; it is a warning, not an error.
REALISTIC_MAX_PASSES = 5


class FrameError(ValueError):
    """Schema, parse or referential-integrity failure while loading a frame."""


@dataclass(frozen=True)
class StratumDef:
    """One post-stratification stratum with its stage I sample/population sizes."""

    name: str
    n_sampled: int
    n_population: int

    def __post_init__(self):
        if not 1 <= self.n_sampled <= self.n_population:
            raise FrameError(
                f"stratum {self.name!r}: need 1 <= n_sampled <= n_population, "
                f"got ({self.n_sampled}, {self.n_population})"
            )
        # the unit index holds the sizes as intp
        if self.n_population > np.iinfo(np.intp).max:
            raise FrameError(f"stratum {self.name!r}: n_population={self.n_population} "
                             f"is above {np.iinfo(np.intp).max}")


@dataclass(frozen=True)
class ComponentRef:
    """A surveyed piece of equipment and where it sits in the hierarchy."""

    component_id: str
    facility_id: str
    site_id: str
    stratum: str
    is_well: bool = False


@dataclass(frozen=True)
class UnitIndex:
    """Units and stage I members as flat index arrays, the input of `batch.compile_index`.

    Units are what gets estimated; members are what stage I samples, each
    adding one unit's estimate to its stratum and facility.  A frame has a
    member per well of a site and per other unit; the exact oracle lets
    members of many strata and groups share one unit.

    Component-days are grouped by unit-day and unit-days by unit, each in
    order, so ``cd_ud`` and ``ud_unit`` never decrease.  A component-day
    without a detection is kept: its passes still count as misses of a well
    site's day.  Facility numbers are unique across strata and increase in
    the order of each facility's first member.  Every stratum adds to the
    population total of its group; a frame is one group.
    """

    pass_cd: np.ndarray         # per detected pass: its component-day
    cd_q: np.ndarray            # per component-day: its pass count Q_pt
    cd_ud: np.ndarray           # per component-day: its unit-day
    ud_unit: np.ndarray         # per unit-day: its unit
    unit_wells: np.ndarray      # per unit: its wells, 0 for a non-well component
    labels: np.ndarray          # per unit: the component id (simulation: number) errors name
    member_unit: np.ndarray     # per stage I member: the unit it adds
    member_stratum: np.ndarray  # per stage I member: its stratum
    member_fac: np.ndarray      # per stage I member: its facility (see above)
    n_sampled: np.ndarray       # per stratum
    n_population: np.ndarray    # per stratum
    stratum_group: np.ndarray   # per stratum: the population total it adds to


@dataclass(frozen=True, eq=False)
class ComponentColumns:
    """A component registry as columns, one entry per row in registry order;
    `read_components` builds it.

    ``wells_at_site`` holds Python ints, which have no size limit.  The
    reader has checked that no id repeats and that the rows of a site agree
    on its wells.
    """

    component_id: list[str]
    facility_id: list[str]
    site_id: list[str]
    stratum: list[str]
    is_well: np.ndarray         # bool
    wells_at_site: list[int]

    def __len__(self) -> int:
        return len(self.component_id)


@dataclass(frozen=True, eq=False)
class PassColumns:
    """A pass log as columns, one entry per pass in log order; `read_passes` builds it.

    ``component`` is each pass's row in the registry, -1 for an id the
    registry lacks.  ``day_id`` and ``pass_index`` hold Python ints, which
    have no size limit.  The measurement columns hold the detected passes
    only, in log order; the reader has checked their presence, finiteness
    and ranges.
    """

    component_id: list[str]
    component: np.ndarray       # intp
    day_id: list[int]
    pass_index: list[int]
    detected: np.ndarray        # bool
    measured_rate: np.ndarray
    wind_speed: np.ndarray
    altitude: np.ndarray

    def __len__(self) -> int:
        return len(self.component_id)


def _ranks(values: list) -> tuple[list, np.ndarray]:
    """(the distinct values in order, each value's rank among them)."""
    distinct = sorted(set(values))
    rank = {v: r for r, v in enumerate(distinct)}
    return distinct, np.fromiter(map(rank.__getitem__, values), np.intp, len(values))


def _starts(*keys: np.ndarray) -> np.ndarray:
    """Whether each row of sorted ``keys`` starts a new run of equal keys."""
    new = np.zeros(len(keys[0]), dtype=bool)
    new[:1] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    return new


def _order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The stable order of the rows by (major, minor).

    ``major`` holds codes from -1 and ``minor`` codes from 0, each below the
    row count of a file, so both pack into one int64 key.  One stable sort
    of that key takes a small fraction of the time `np.lexsort` of the two
    takes.
    """
    return np.argsort(major * (int(minor.max(initial=0)) + 1) + minor, kind="stable")


def _pairs(major: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (major, minor) pairs of `_order` codes: the first row of
    each, in (major, minor) order, and each row's pair."""
    order = _order(major, minor)
    new = _starts(major[order], minor[order])
    pair = np.empty(len(major), dtype=np.intp)
    pair[order] = np.cumsum(new) - 1
    return order[new], pair


class _Sites(NamedTuple):
    """The sites of a registry's well components, in site id order."""

    names: list[str]
    wells: list[int]            # per site: its wells_at_site
    comps: np.ndarray           # the well components, in id order
    of: np.ndarray              # per well component: its site
    pairs: np.ndarray           # per (stratum, site) pair: its first place in comps


@dataclass(frozen=True, init=False, eq=False)
class SurveyFrame:
    """Validated, immutable survey frame.

    ``registry`` is the `ComponentColumns` that `read_components` returned
    and ``passes`` the `PassColumns` that `read_passes` returned, each in
    file order.  Construction sorts the passes once into canonical
    (component, day, pass) order, which gives the per-detected-pass arrays
    ``measured_rates``, ``wind_speeds`` and ``altitudes`` (every rate vector
    aligns with them) and ``index``, the units as the flat arrays of a
    `UnitIndex`: non-well components in id order, then well sites with at
    least one well in id order.  ``compiled_index`` is built on first use,
    and so is each configuration's `layout` of it, which the frame then keeps.

    ``components`` (component_id -> `ComponentRef`, in registry order) is
    built on first use too; no command reads it.
    """

    strata: dict[str, StratumDef]
    registry: ComponentColumns = field(repr=False)
    passes: PassColumns = field(repr=False)
    index: UnitIndex = field(repr=False)
    measured_rates: np.ndarray = field(repr=False)
    wind_speeds: np.ndarray = field(repr=False)
    altitudes: np.ndarray = field(repr=False)

    def __init__(self, strata, registry, passes):
        set_ = functools.partial(object.__setattr__, self)
        set_("strata", strata)
        set_("registry", registry)
        set_("passes", passes)
        set_("_layouts", {})

        # a component's code is its place in id order; a pass of no registry
        # row (-1) gets -1
        n_comp = len(registry)
        by_id = np.array(sorted(range(n_comp), key=registry.component_id.__getitem__),
                         dtype=np.intp)
        code = np.full(n_comp + 1, -1, dtype=np.intp)
        code[by_id] = np.arange(n_comp)
        n = len(passes)
        comp = code[passes.component]
        day_values, day = _ranks(passes.day_id)
        _, pass_rank = _ranks(passes.pass_index)
        # each pass's component-day (cd), numbered in (component, day) order,
        # then the canonical (component, day, pass) order.  Two sorts, as
        # coding (component, day) first keeps each packed key below n**2; one
        # (component, day, pass) key could pass 2**63 on a few million rows.
        by_cd = _order(comp, day)
        new_cd = _starts(comp[by_cd], day[by_cd])
        cd_first = by_cd[new_cd]
        cd = np.empty(n, dtype=np.intp)
        cd[by_cd] = np.cumsum(new_cd) - 1
        order = _order(cd, pass_rank)

        # the first pass of an unknown component, or repeating an earlier key
        bad = np.concatenate([np.flatnonzero(comp < 0),
                              order[~_starts(cd[order], pass_rank[order])]])
        if bad.size:
            first = int(bad.min())
            cid = passes.component_id[first]
            if comp[first] < 0:
                raise FrameError(f"pass references unknown component {cid!r}")
            key = (cid, passes.day_id[first], passes.pass_index[first])
            raise FrameError(f"duplicate pass key {key}")
        # the first registry row of an unknown stratum or without passes
        s_index = {name: s for s, name in enumerate(strata)}
        stratum = np.fromiter(map(s_index.get, registry.stratum, itertools.repeat(-1)),
                              np.intp, n_comp)
        idle = np.bincount(passes.component, minlength=n_comp) == 0
        bad = np.flatnonzero((stratum < 0) | idle)
        if bad.size:
            r = int(bad[0])
            cid = registry.component_id[r]
            if stratum[r] < 0:
                raise FrameError(
                    f"component {cid!r} references unknown stratum {registry.stratum[r]!r}"
                )
            raise FrameError(
                f"component {cid!r} has no passes; surveyed components must have at least one"
            )

        # from here on, per component in id order: its stratum, facility and
        # well flag; per well component its site, numbered in site id order
        ids = list(map(registry.component_id.__getitem__, by_id.tolist()))
        stratum, well = stratum[by_id], registry.is_well[by_id]
        fac = _ranks(registry.facility_id)[1][by_id]
        well_comps = np.flatnonzero(well)
        well_rows = by_id[well_comps].tolist()
        well_sites = list(map(registry.site_id.__getitem__, well_rows))
        site_names, site_of = _ranks(well_sites)
        wells_of = dict(zip(well_sites, map(registry.wells_at_site.__getitem__, well_rows)))
        sites = _Sites(site_names, list(map(wells_of.__getitem__, site_names)), well_comps,
                       site_of, _pairs(stratum[well_comps], site_of)[0])
        self._check_stage1_sizes(stratum, fac, sites)

        cd_comp, cd_day = comp[cd_first], day[cd_first]
        cd_q = np.bincount(cd, minlength=len(cd_first))
        big = cd_q[cd_q > REALISTIC_MAX_PASSES]
        if big.size:
            warnings.warn(
                f"{big.size} component-day(s) with more than {REALISTIC_MAX_PASSES} passes "
                f"(max {int(big.max())}); unusual for real aerial data",
                stacklevel=2,
            )
        det_rows = order[passes.detected[order]]
        det_cd = cd[det_rows]
        cd_detected = np.bincount(det_cd, minlength=len(cd_first))
        in_log = (np.cumsum(passes.detected) - 1)[det_rows]
        for name, column in (("measured_rates", passes.measured_rate),
                             ("wind_speeds", passes.wind_speed), ("altitudes", passes.altitude)):
            values = column[in_log]
            values.flags.writeable = False
            set_(name, values)
        set_("_ids", ids)
        set_("_code", code[:n_comp])
        set_("_comp_stratum", stratum)
        set_("_day_values", day_values)
        set_("_cd", (cd_comp, cd_day, cd_q, cd_detected))
        self._index_units(stratum, fac, sites, cd_comp, cd_day, cd_q, cd_detected, det_cd)

    def _check_stage1_sizes(self, stratum, fac, sites):
        # n_sampled must equal the number of distinct facilities actually in
        # the registry for each stratum of the table, none for a stratum no
        # component names; the stage I probabilities assume it.  Well strata
        # are different: every well at a surveyed site counts as a sampled
        # facility whether or not equipment was attributed to it, so there
        # n_sampled must instead cover the per-site well counts.
        n_strata = len(self.strata)
        rows = np.bincount(stratum, minlength=n_strata).tolist()
        well_stratum = stratum[sites.comps]
        well_rows = np.bincount(well_stratum, minlength=n_strata).tolist()
        facs = np.bincount(stratum[_pairs(stratum, fac)[0]], minlength=n_strata).tolist()
        registered = [0] * n_strata
        # each well site of a stratum once
        for s, site in zip(well_stratum[sites.pairs].tolist(), sites.of[sites.pairs].tolist()):
            registered[s] += sites.wells[site]
        for s, (name, d) in enumerate(self.strata.items()):
            if 0 < well_rows[s] < rows[s]:
                raise FrameError(f"stratum {name!r} mixes well and non-well components")
            if well_rows[s]:
                need = max(registered[s], facs[s])
                if d.n_sampled < need:
                    raise FrameError(
                        f"stratum {name!r}: n_sampled={d.n_sampled} is "
                        f"below the {need} wells implied by the registry"
                    )
            elif d.n_sampled != facs[s]:
                raise FrameError(
                    f"stratum {name!r}: n_sampled={d.n_sampled} but the "
                    f"registry lists {facs[s]} distinct facilities"
                )

    def _index_units(self, stratum, fac, sites, cd_comp, cd_day, cd_q, cd_detected, det_cd):
        """Group the component-days into units and build ``index``.

        ``stratum`` and ``fac`` are each component's codes, in id order.
        Rejects well sites the estimators cannot use: a site's well
        components must share one stratum, and a site without registered
        wells may carry no detection (its unit is then dropped).
        """
        n_comp = len(stratum)
        plain = np.ones(n_comp, dtype=bool)
        plain[sites.comps] = False
        plain = np.flatnonzero(plain)
        n_plain, n_sites = len(plain), len(sites.names)
        well_stratum = stratum[sites.comps]
        n_strata_here = np.bincount(sites.of[sites.pairs], minlength=n_sites)
        comp_detected = np.zeros(n_comp, dtype=bool)
        comp_detected[cd_comp[cd_detected > 0]] = True
        detected = np.zeros(n_sites, dtype=bool)
        detected[sites.of[comp_detected[sites.comps]]] = True
        site_wells = np.array(sites.wells, dtype=object)    # Python ints, of any size
        idle = site_wells < 1
        bad = np.flatnonzero((n_strata_here > 1) | (idle & detected))
        if bad.size:
            name = sites.names[bad[0]]
            if n_strata_here[bad[0]] > 1:
                raise FrameError(f"well components at site {name!r} span multiple strata")
            raise FrameError(f"well detections at site {name!r} but wells_at_site=0")
        kept = np.flatnonzero(~idle)
        unit_wells = np.concatenate([np.zeros(n_plain, dtype=np.intp),
                                     site_wells[kept].astype(np.intp)])
        n_units = len(unit_wells)
        site_stratum = np.empty(n_sites, dtype=np.intp)
        site_stratum[sites.of] = well_stratum   # one per site, checked above
        unit_stratum = np.concatenate([stratum[plain], site_stratum[kept]])
        site_unit = np.full(n_sites, -1, dtype=np.intp)
        site_unit[kept] = np.arange(n_plain, n_units)
        unit_of = np.empty(n_comp, dtype=np.intp)
        unit_of[plain] = np.arange(n_plain)
        unit_of[sites.comps] = site_unit[sites.of]
        member_unit = np.repeat(np.arange(n_units), np.maximum(unit_wells, 1))
        # facilities numbered in the order of their first member: a non-well
        # unit's is its (stratum, facility) pair, each well is one of its own
        first, pair = _pairs(stratum[plain], fac[plain])
        number = np.empty(len(first), dtype=np.intp)
        number[np.argsort(first)] = np.arange(len(first))
        n_facs = len(first) + len(member_unit) - n_plain
        labels = np.array(list(map(self._ids.__getitem__, plain.tolist()))
                          + [f"{sites.names[j]}/well1" for j in kept.tolist()], dtype=object)

        # a unit's component-days by day, then component (component-days are
        # numbered in component order, which the stable sort keeps); a
        # dropped site's go
        cd_unit = unit_of[cd_comp]
        kept_cd = np.flatnonzero(cd_unit >= 0)
        cds = kept_cd[_order(cd_unit[kept_cd], cd_day[kept_cd])]
        ud_start = _starts(cd_unit[cds], cd_day[cds])
        position = np.empty(len(cd_comp), dtype=np.intp)
        position[cds] = np.arange(len(cds))
        object.__setattr__(self, "index", UnitIndex(
            pass_cd=position[det_cd],
            cd_q=cd_q[cds],
            cd_ud=np.cumsum(ud_start) - 1,
            ud_unit=cd_unit[cds][ud_start],
            unit_wells=unit_wells,
            labels=labels,
            member_unit=member_unit,
            member_stratum=unit_stratum[member_unit],
            member_fac=np.concatenate([number[pair], np.arange(len(first), n_facs)]),
            n_sampled=np.array([d.n_sampled for d in self.strata.values()], dtype=np.intp),
            n_population=np.array([d.n_population for d in self.strata.values()],
                                  dtype=np.intp),
            stratum_group=np.zeros(len(self.strata), dtype=np.intp),
        ))

    @functools.cached_property
    def components(self) -> dict[str, ComponentRef]:
        """component_id -> `ComponentRef`, in registry order."""
        r = self.registry
        return {cid: ComponentRef(cid, fac, site, stratum, well)
                for cid, fac, site, stratum, well in zip(
                    r.component_id, r.facility_id, r.site_id, r.stratum, r.is_well.tolist())}

    @functools.cached_property
    def compiled_index(self):
        """`batch.compile_index` of ``index``, shared by every configuration."""
        return batch.compile_index(self.index)

    def layout(self, config) -> batch.Layout:
        """`batch.build_layout` of ``compiled_index`` under ``config``, built on
        first use and kept: configurations that agree on the settings a layout
        reads get the same `batch.Layout`.  A configuration whose horizon is
        refused raises each time it is asked for."""
        key = (config.estimator, config.plan, config.stage2, config.horizon,
               config.decomposition)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layouts[key] = batch.build_layout(self.compiled_index, config)
        return layout

    @property
    def days_surveyed(self) -> dict[str, int]:
        """component_id -> number of distinct survey days (d_p), in registry order."""
        days = np.bincount(self._cd[0], minlength=len(self._ids))
        return dict(zip(self.registry.component_id, days[self._code].tolist()))

    @property
    def passes_per_day(self) -> dict[tuple[str, int], int]:
        """(component_id, day_id) -> number of passes that day (Q_pt), in canonical order."""
        cd_comp, cd_day, cd_q, _ = self._cd
        return {(self._ids[c], self._day_values[d]): q
                for c, d, q in zip(cd_comp.tolist(), cd_day.tolist(), cd_q.tolist())}


@dataclass(frozen=True)
class FrameDiagnostics:
    """Data-quality findings; informational only, never fatal."""

    single_day_components: tuple[str, ...]
    zero_detection_component_days: tuple[tuple[str, int], ...]
    zero_detection_strata: tuple[str, ...]
    small_strata: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "single_day_components": list(self.single_day_components),
            "single_day_count": len(self.single_day_components),
            "zero_detection_component_days": [list(k) for k in self.zero_detection_component_days],
            "zero_detection_strata": list(self.zero_detection_strata),
            "small_strata": list(self.small_strata),
        }


def validate(frame: SurveyFrame) -> FrameDiagnostics:
    """Diagnose patterns that change how estimation will treat the data.

    Flags components surveyed on a single day (their variance must be pooled),
    component-days with zero detections, strata with no non-zero measurement
    anywhere (treated as zero-emitting), and strata below the minimum
    post-stratification sample size of 10.
    """
    single = sorted(c for c, d in frame.days_surveyed.items() if d == 1)
    cd_comp, cd_day, _, cd_detected = frame._cd
    zero = cd_detected == 0
    # component-days in canonical order are in (component_id, day_id) order
    zero_days = [(frame._ids[c], frame._day_values[d])
                 for c, d in zip(cd_comp[zero].tolist(), cd_day[zero].tolist())]
    with_detection = np.zeros(len(frame.strata), dtype=bool)
    with_detection[frame._comp_stratum[cd_comp[~zero]]] = True
    zero_strata = sorted(s for s, hit in zip(frame.strata, with_detection.tolist()) if not hit)
    small = sorted(s for s, d in frame.strata.items() if d.n_sampled < 10)
    return FrameDiagnostics(
        single_day_components=tuple(single),
        zero_detection_component_days=tuple(zero_days),
        zero_detection_strata=tuple(zero_strata),
        small_strata=tuple(small),
    )


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is an error, not the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        doc[key] = value
    return doc


def read_json(path):
    """The JSON configuration document at ``path``.

    An object that repeats a key is refused (`ValueError`), as the INI reader
    refuses a repeated option.
    """
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def json_object(value, what: str, required=(), optional=None) -> dict:
    """``value`` as a JSON object that holds every ``required`` key.

    Given ``optional``, any key outside ``required`` and ``optional`` is an
    error too, so a misspelt key cannot fall back to its default unnoticed.
    """
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    problems = [f"missing key {k!r}" for k in required if k not in value]
    if optional is not None:
        problems += [f"unknown key {k!r}" for k in value
                     if k not in required and k not in optional]
    if problems:
        raise ValueError(f"{what}: " + "; ".join(problems))
    return value


def json_list(value, what: str) -> list:
    """``value`` as a JSON list."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def number(value, key: str, finite: bool = True) -> float:
    """A JSON number, or a string holding one; never a boolean.

    With ``finite`` (the default) nan and inf are errors too; without it they
    pass, and the caller's own range check decides.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key} must be a number, got {value!r}") from None
    if finite and not math.isfinite(out):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return out


def count(value, key: str) -> int:
    """A whole JSON number, or a string holding one; a fraction is an error."""
    if not number(value, key).is_integer():
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    try:
        return int(value)       # exact for integers and integer strings
    except ValueError:
        return int(float(value))  # "30.0"


def text(value, key: str) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _check_header(got: list[str] | None, want: list[str], path: str):
    if got is None or [h.strip() for h in got] != want:
        raise FrameError(f"{path}: expected header {','.join(want)!r}, got {got!r}")


# Rows are read this many at a time.  `csv.reader` makes each row a list,
# which CPython's cyclic garbage collector tracks; holding a whole file's rows
# at once made loading a log of a few hundred rows or more start collections,
# full ones included, whose cost grows with everything else on the heap.
# Well under the 700 tracked allocations that start a young collection.
BLOCK_ROWS = 128


def _read_columns(path, want: list[str]) -> tuple[list[list[str]], _FirstFault]:
    """The body of a CSV file with header ``want``, as columns, and the
    `_FirstFault` of its rows, which holds the field-count fault of the
    first body row of another width, if any.

    The columns stop before that row.  The file is still read to its end, so
    a file that cannot be decoded or parsed anywhere fails with "cannot
    parse" before any header or row fault.
    """
    columns = [[] for _ in want]
    bad_width = None
    # utf-8-sig: a leading byte-order mark (Excel's "CSV UTF-8") is not part
    # of the first header field
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            while block := list(itertools.islice(reader, BLOCK_ROWS)):
                if bad_width is None:
                    widths = list(map(len, block))
                    if widths.count(len(want)) != len(widths):
                        k = next(k for k, w in enumerate(widths) if w != len(want))
                        bad_width = widths[k]
                        del block[k:]
                    for column, values in zip(columns, zip(*block)):
                        column += values
                del block       # before the next block is read
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FrameError(f"{path}: cannot parse: {exc}") from None
    if header is None:
        raise FrameError(f"{path}: empty file")
    _check_header(header, want, str(path))
    n = len(columns[0])
    fault = _FirstFault(str(path), n + 1)   # row n: the first of another width, if any
    if bad_width is not None:
        fault.fail(n, f"expected {len(want)} fields, got {bad_width}")
    return columns, fault


def read_strata(path) -> dict[str, StratumDef]:
    """Parse a strata table (stratum, n_sampled, n_population); a table
    without rows is refused, as a survey cannot be estimated without strata.

    Each check runs over a whole column, in the order a row is read: field
    count, a repeated stratum name, n_sampled, then n_population parsed.
    The rows before the first failure then make their `StratumDef` in
    order, which checks the sizes.
    """
    cols, fault = _read_columns(path, STRATA_HEADER)
    names = list(map(str.strip, cols[0]))
    fault.unique(names, "stratum")
    sizes = [fault.parse_repeated(texts, int, lambda row, text, what=what:
                                  f"cannot parse {what} from {text!r}")
             for texts, what in zip(cols[1:], STRATA_HEADER[1:])]
    out = {name: StratumDef(name, *n) for name, *n in zip(names[:fault.rows], *sizes)}
    fault.raise_first()
    if not out:
        raise FrameError(f"{path}: no strata rows")
    return out


def read_components(path) -> ComponentColumns:
    """Parse the component registry into columns.

    Each check runs over a whole column.  A failure names the first failing
    row and, within it, the first failing check in the order a row is read:
    field count, a repeated component id, the is_well flag, then
    wells_at_site (parsed, not negative, and as the site's first row says).
    """
    cols, fault = _read_columns(path, FRAME_HEADER)
    n = len(cols[0])
    cids, facs, sites, strata = (list(map(str.strip, col)) for col in cols[:4])
    fault.unique(cids, "component_id")
    is_well = fault.flags(cols[4], "is_well")
    wells = fault.parse_repeated(cols[5], int,
                                 lambda row, text: f"cannot parse wells_at_site from {text!r}")
    # a row without a value is past the first failure, where no check looks
    if any(w is not None and w < 0 for w in set(wells)):
        fault.check(np.fromiter((w is not None and w < 0 for w in wells), bool, n),
                    lambda i: "wells_at_site must be >= 0")
    if len(set(zip(sites, wells))) != len(set(sites)):
        first = dict(zip(reversed(sites), reversed(wells)))     # each site's first value
        fault.check(np.fromiter(map(operator.ne, map(first.__getitem__, sites), wells), bool, n),
                    lambda i: (f"conflicting wells_at_site for site {sites[i]!r} "
                               f"({first[sites[i]]} vs {wells[i]})"))
    fault.raise_first()
    return ComponentColumns(component_id=cids, facility_id=facs, site_id=sites, stratum=strata,
                            is_well=is_well, wells_at_site=wells)


class _FirstFault:
    """The failure a row-by-row reader would meet first, found column by column.

    Checks are made in the order a row is read.  Each looks only at the rows
    before the earliest failure found so far, so the failure kept at the end
    is the first failing row's first failing check.
    """

    def __init__(self, path: str, n_rows: int):
        self.path = path
        self.rows = n_rows      # the rows still to check
        self.message = None

    def fail(self, row: int, message: str):
        if row < self.rows:
            self.rows = row
            self.message = f"{self.path} row {row + 2}: {message}"

    def check(self, bad, message, rows=None):
        """Fail the first row where ``bad`` holds, with the text ``message(row)``.

        ``bad`` covers every row, or a prefix of ``rows`` (ascending row numbers).
        """
        hits = np.flatnonzero(bad)
        if rows is not None:
            hits = rows[hits]
        if hits.size and hits[0] < self.rows:
            row = int(hits[0])
            self.fail(row, message(row))

    def unique(self, keys: list[str], what: str):
        """Fail the first row whose key an earlier row holds."""
        n = len(keys)
        if len(set(keys)) < n:
            first_row = dict(zip(reversed(keys), range(n - 1, -1, -1)))    # each key's first row
            self.check(np.fromiter(map(first_row.__getitem__, keys), np.intp, n) != np.arange(n),
                       lambda i: f"duplicate {what} {keys[i]!r}")

    def flags(self, texts: list[str], what: str) -> np.ndarray:
        """``texts`` as bools; a text other than 0 or 1, padded or not, fails its row."""
        flag = {text: text.strip() for text in set(texts)}
        if not set(flag.values()) <= {"0", "1"}:
            self.check(np.fromiter((flag[t] not in ("0", "1") for t in texts), bool, len(texts)),
                       lambda i: f"{what} must be 0 or 1, got {flag[texts[i]]!r}")
        ones = {text for text, f in flag.items() if f == "1"}
        return np.fromiter(map(ones.__contains__, texts), bool, len(texts))

    def parse(self, texts, convert, row_of, message) -> list:
        """``convert`` of each text up to the first it rejects, text ``k``, which
        fails row ``row_of(k)`` with ``message(row, text)``."""
        values = []
        try:
            values.extend(map(convert, texts))  # keeps what was converted before a failure
        except ValueError:
            k = len(values)
            row = int(row_of(k))
            self.fail(row, message(row, texts[k]))
        return values

    def parse_repeated(self, texts, convert, message) -> list:
        """`parse` of a column with few distinct texts: each is converted once."""
        distinct = list(dict.fromkeys(texts))   # in the order of their first rows
        values = dict(zip(distinct, self.parse(distinct, convert,
                                               lambda k: texts.index(distinct[k]), message)))
        return list(map(values.get, texts))

    def raise_first(self):
        if self.message is not None:
            raise FrameError(self.message)


MEASUREMENTS = ((7, "rate_kg_h", "measured_rate"), (8, "wind_m_s", "wind_speed"),
                (9, "altitude_m", "altitude"))


def read_passes(path, registry: ComponentColumns) -> PassColumns:
    """Parse the pass log into columns, cross-checking hierarchy fields against the registry.

    Each check runs over a whole column.  A failure names the first failing
    row and, within it, the first failing check in the order a row is read:
    field count, component, hierarchy fields, detected flag, measurement
    fields (present iff detected, then each parsed and finite), day, pass,
    and the measurement ranges.  One lookup of each pass's component and
    hierarchy fields in the registry checks them and gives the pass its
    registry row (`PassColumns.component`).  Where a column's values repeat,
    each distinct value is checked once, and a row mask is built only to
    find the first failing row.
    """
    cols, fault = _read_columns(path, PASSES_HEADER)
    n = len(cols[0])
    cids = list(map(str.strip, cols[0]))
    # each pass's registry row, found by its component and hierarchy fields;
    # a miss is a padded field, an unknown component or a wrong hierarchy
    row_of = dict(zip(zip(registry.component_id, registry.facility_id, registry.site_id,
                          registry.stratum), itertools.count()))
    component = np.fromiter(map(row_of.get, zip(cids, *cols[1:4]), itertools.repeat(-1)),
                            np.intp, n)
    miss = np.flatnonzero(component < 0)
    if miss.size:
        component[miss] = [row_of.get((cids[i], *(cols[c][i].strip() for c in (1, 2, 3))), -1)
                           for i in miss.tolist()]
        miss = miss[component[miss] < 0]
        known = set(registry.component_id)
        unknown = np.fromiter((cids[i] not in known for i in miss.tolist()), bool, len(miss))
        fault.check(unknown, lambda i: f"unknown component {cids[i]!r}", rows=miss)
        fault.check(~unknown,
                    lambda i: f"hierarchy fields disagree with the registry for {cids[i]!r}",
                    rows=miss)
    detected_mask = fault.flags(cols[6], "detected")
    detected = detected_mask.tolist()
    for col, name, _ in MEASUREMENTS:
        filled = list(map(bool, map(str.strip, cols[col])))
        if filled != detected:
            fault.check(np.not_equal(filled, detected), lambda i, name=name: (
                f"detected pass with empty {name}" if detected[i]
                else f"non-detected pass must leave {name} empty"))

    at = np.flatnonzero(detected_mask)      # the detected rows
    measured = {}
    for col, name, key in MEASUREMENTS:
        texts = cols[col]
        values = np.array(fault.parse(
            list(itertools.compress(texts, detected)), float, at.__getitem__,
            lambda row, text, name=name: f"cannot parse {name} from {text!r}"))
        fault.check(~np.isfinite(values),
                    lambda i, name=name, texts=texts: f"{name} must be finite, got {texts[i]!r}",
                    rows=at)
        measured[key] = values
    days = fault.parse_repeated(cols[4], int,
                                lambda row, text: f"cannot parse day from {text!r}")
    pass_index = fault.parse_repeated(cols[5], int,
                                      lambda row, text: f"cannot parse pass from {text!r}")
    for bad, need in ((measured["measured_rate"] <= 0, "measured_rate > 0"),
                      (measured["wind_speed"] < 0, "wind_speed >= 0"),
                      (measured["altitude"] <= 0, "altitude > 0")):
        fault.check(bad, lambda i, need=need: (
            f"pass ({cids[i]}, {days[i]}, {pass_index[i]}): detected pass needs a finite {need}"),
            rows=at)
    fault.raise_first()
    return PassColumns(component_id=cids, component=component, day_id=days,
                       pass_index=pass_index, detected=detected_mask, **measured)


def load_survey(passes_path, frame_path, strata_path) -> SurveyFrame:
    """Load and validate a survey frame from its three CSV files."""
    strata = read_strata(strata_path)
    registry = read_components(frame_path)
    return SurveyFrame(strata, registry, read_passes(passes_path, registry))
