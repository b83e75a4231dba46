"""Survey frame: the site -> facility -> component hierarchy plus the pass log.

A frame is loaded from three CSV files (pass log, component registry, strata
table), validated for referential integrity, and frozen.  Non-detected passes
are kept: they carry no measurement fields but they set the per-day pass
count that every estimator divides by.

Each file is read a block of rows at a time into columns (see `BLOCK_ROWS`).
The pass log is held as columns (`PassColumns`), checked a column at a time.
Loading sorts the passes once and groups them into the units every estimator
walks: a non-well component, or a well site that stands for its wells, with
the detected passes and pass count of each component-day.
`SurveyFrame.index` holds the units as the flat arrays of a `UnitIndex`, the
input of the batched estimator.

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
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import batch

__all__ = [
    "FrameError",
    "StratumDef",
    "ComponentRef",
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
class PassColumns:
    """A pass log as columns, one entry per pass in log order; `read_passes` builds it.

    ``day_id`` and ``pass_index`` hold Python ints, which have no size limit.
    The measurement columns hold the detected passes only, in log order; the
    reader has checked their presence, finiteness and ranges.
    """

    component_id: list[str]
    day_id: list[int]
    pass_index: list[int]
    detected: np.ndarray        # bool
    measured_rate: np.ndarray
    wind_speed: np.ndarray
    altitude: np.ndarray

    def __len__(self) -> int:
        return len(self.component_id)


def _ranks(values: list[int]) -> tuple[list[int], np.ndarray]:
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


@dataclass(frozen=True, init=False, eq=False)
class SurveyFrame:
    """Validated, immutable survey frame.

    ``passes`` is the `PassColumns` that `read_passes` returned, in log
    order.  Construction sorts the passes once into canonical (component,
    day, pass) order, which gives the per-detected-pass arrays
    ``measured_rates``, ``wind_speeds`` and ``altitudes`` (every rate vector
    aligns with them) and ``index``, the units as the flat arrays of a
    `UnitIndex`: non-well components in id order, then well sites with at
    least one well in id order.  ``compiled_index`` is built on first use,
    and so is each configuration's `layout` of it, which the frame then keeps.

    ``wells_per_site`` maps site_id -> number of wells at the site, for the
    shared-equipment allocation of well emissions.
    """

    strata: dict[str, StratumDef]
    components: dict[str, ComponentRef]
    passes: PassColumns = field(repr=False)
    wells_per_site: dict[str, int]
    index: UnitIndex = field(repr=False)
    measured_rates: np.ndarray = field(repr=False)
    wind_speeds: np.ndarray = field(repr=False)
    altitudes: np.ndarray = field(repr=False)

    def __init__(self, strata, components, passes, wells_per_site=None):
        wells_per_site = {} if wells_per_site is None else wells_per_site
        set_ = functools.partial(object.__setattr__, self)
        set_("strata", strata)
        set_("components", components)
        set_("passes", passes)
        set_("wells_per_site", wells_per_site)
        set_("_layouts", {})

        ids = sorted(components)
        code = {cid: k for k, cid in enumerate(ids)}
        n = len(passes)
        comp = np.fromiter(map(code.get, passes.component_id, itertools.repeat(-1)),
                           np.intp, n)
        day_values, day = _ranks(passes.day_id)
        _, pass_rank = _ranks(passes.pass_index)
        order = np.lexsort((pass_rank, day, comp))
        comp_s, day_s = comp[order], day[order]

        # the first pass of an unknown component, or repeating an earlier key
        bad = np.concatenate([np.flatnonzero(comp < 0),
                              order[~_starts(comp_s, day_s, pass_rank[order])]])
        if bad.size:
            first = int(bad.min())
            cid = passes.component_id[first]
            if comp[first] < 0:
                raise FrameError(f"pass references unknown component {cid!r}")
            key = (cid, passes.day_id[first], passes.pass_index[first])
            raise FrameError(f"duplicate pass key {key}")
        has_passes = (np.bincount(comp, minlength=len(ids)) > 0).tolist()
        for c in components.values():
            if c.stratum not in strata:
                raise FrameError(
                    f"component {c.component_id!r} references unknown stratum {c.stratum!r}"
                )
            if not has_passes[code[c.component_id]]:
                raise FrameError(
                    f"component {c.component_id!r} has no passes; surveyed components "
                    "must have at least one"
                )
        self._check_stage1_sizes()

        # component-days (cd), in canonical order
        cd_start = _starts(comp_s, day_s)
        cd_of_sorted = np.cumsum(cd_start) - 1
        starts = np.flatnonzero(cd_start)
        cd_q = np.diff(np.append(starts, n))
        cd_comp, cd_day = comp_s[starts], day_s[starts]
        big = cd_q[cd_q > REALISTIC_MAX_PASSES]
        if big.size:
            warnings.warn(
                f"{big.size} component-day(s) with more than {REALISTIC_MAX_PASSES} passes "
                f"(max {int(big.max())}); unusual for real aerial data",
                stacklevel=2,
            )
        detected_s = passes.detected[order]
        det_rows = order[detected_s]
        det_cd = cd_of_sorted[detected_s]
        cd_detected = np.bincount(det_cd, minlength=len(starts))
        in_log = (np.cumsum(passes.detected) - 1)[det_rows]
        for name, column in (("measured_rates", passes.measured_rate),
                             ("wind_speeds", passes.wind_speed), ("altitudes", passes.altitude)):
            values = column[in_log]
            values.flags.writeable = False
            set_(name, values)
        set_("_ids", ids)
        set_("_day_values", day_values)
        set_("_cd", (cd_comp, cd_day, cd_q, cd_detected))
        self._index_units(ids, cd_comp, cd_day, cd_q, cd_detected, det_cd)

    def _check_stage1_sizes(self):
        # n_sampled must equal the number of distinct facilities actually in
        # the registry for each stratum of the table, none for a stratum no
        # component names; the stage I probabilities assume it.  Well strata
        # are different: every well at a surveyed site counts as a sampled
        # facility whether or not equipment was attributed to it, so there
        # n_sampled must instead cover the per-site well counts.
        fac_by_stratum: dict[str, set[str]] = {name: set() for name in self.strata}
        well_flags: dict[str, set[bool]] = {name: set() for name in self.strata}
        well_sites: dict[str, set[str]] = {}
        for comp in self.components.values():
            fac_by_stratum[comp.stratum].add(comp.facility_id)
            well_flags[comp.stratum].add(comp.is_well)
            if comp.is_well:
                well_sites.setdefault(comp.stratum, set()).add(comp.site_id)
        for name, facs in fac_by_stratum.items():
            if well_flags[name] == {True, False}:
                raise FrameError(f"stratum {name!r} mixes well and non-well components")
            if well_flags[name] == {True}:
                registered = sum(self.wells_per_site.get(s, 0) for s in well_sites[name])
                if self.strata[name].n_sampled < max(registered, len(facs)):
                    raise FrameError(
                        f"stratum {name!r}: n_sampled={self.strata[name].n_sampled} is "
                        f"below the {max(registered, len(facs))} wells implied by the registry"
                    )
            elif self.strata[name].n_sampled != len(facs):
                raise FrameError(
                    f"stratum {name!r}: n_sampled={self.strata[name].n_sampled} but the "
                    f"registry lists {len(facs)} distinct facilities"
                )

    def _index_units(self, ids, cd_comp, cd_day, cd_q, cd_detected, det_cd):
        """Group the component-days into units and build ``index``.

        Rejects well sites the estimators cannot use: a site's well
        components must share one stratum, and a site without registered
        wells may carry no detection (its unit is then dropped).
        """
        comp_detected = np.bincount(cd_comp[cd_detected > 0], minlength=len(ids)) > 0
        unit_of = [-1] * len(ids)
        heads = []      # per unit: (unit_id, stratum, members, wells)
        sites: dict[str, list[int]] = {}
        for k, cid in enumerate(ids):
            comp = self.components[cid]
            if comp.is_well:
                sites.setdefault(comp.site_id, []).append(k)
                continue
            unit_of[k] = len(heads)
            heads.append((cid, comp.stratum, (comp.facility_id,), 0))
        for site, group in sorted(sites.items()):
            strata_here = {self.components[ids[k]].stratum for k in group}
            if len(strata_here) != 1:
                raise FrameError(f"well components at site {site!r} span multiple strata")
            wells = self.wells_per_site.get(site, 0)
            if wells < 1:
                if comp_detected[group].any():
                    raise FrameError(f"well detections at site {site!r} but wells_at_site=0")
                continue
            for k in group:
                unit_of[k] = len(heads)
            heads.append((site, strata_here.pop(),
                          tuple(f"{site}/well{i + 1}" for i in range(wells)), wells))
        s_index = {name: s for s, name in enumerate(self.strata)}
        facs: dict[tuple[str, str], int] = {}
        member_fac = [facs.setdefault((stratum, member), len(facs))
                      for _, stratum, members, _ in heads for member in members]
        unit_wells = np.array([wells for *_, wells in heads], dtype=np.intp)

        # a unit's component-days by day, then component; a dropped site's go
        cd_unit = np.array(unit_of, dtype=np.intp)[cd_comp]
        kept = np.flatnonzero(cd_unit >= 0)
        cds = kept[np.lexsort((cd_comp[kept], cd_day[kept], cd_unit[kept]))]
        ud_start = _starts(cd_unit[cds], cd_day[cds])
        position = np.empty(len(cd_comp), dtype=np.intp)
        position[cds] = np.arange(len(cds))
        set_ = functools.partial(object.__setattr__, self)
        set_("index", UnitIndex(
            pass_cd=position[det_cd],
            cd_q=cd_q[cds],
            cd_ud=np.cumsum(ud_start) - 1,
            ud_unit=cd_unit[cds][ud_start],
            unit_wells=unit_wells,
            labels=np.array([members[0] if wells else uid for uid, _, members, wells in heads],
                            dtype=object),
            member_unit=np.repeat(np.arange(len(heads)), np.maximum(unit_wells, 1)),
            member_stratum=np.array([s_index[stratum] for _, stratum, members, _ in heads
                                     for _ in members], dtype=np.intp),
            member_fac=np.array(member_fac, dtype=np.intp),
            n_sampled=np.array([d.n_sampled for d in self.strata.values()], dtype=np.intp),
            n_population=np.array([d.n_population for d in self.strata.values()],
                                  dtype=np.intp),
            stratum_group=np.zeros(len(self.strata), dtype=np.intp),
        ))

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
        """component_id -> number of distinct survey days (d_p)."""
        days = np.bincount(self._cd[0], minlength=len(self._ids)).tolist()
        by_id = dict(zip(self._ids, days))
        return {cid: by_id[cid] for cid in self.components}

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

    def is_clean(self) -> bool:
        return not any(getattr(self, f.name) for f in fields(self))

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
    strata_with_detection = {frame.components[frame._ids[c]].stratum
                             for c in np.unique(cd_comp[~zero]).tolist()}
    zero_strata = sorted(s for s in frame.strata if s not in strata_with_detection)
    small = sorted(s for s, d in frame.strata.items() if d.n_sampled < 10)
    return FrameDiagnostics(
        single_day_components=tuple(single),
        zero_detection_component_days=tuple(zero_days),
        zero_detection_strata=tuple(zero_strata),
        small_strata=tuple(small),
    )


def _parse_int(text: str, what: str, row: int, path: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FrameError(f"{path} row {row}: cannot parse {what} from {text!r}") from None


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is an error, not the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r} in a JSON object")
        doc[key] = value
    return doc


def read_json(source):
    """A JSON configuration document from a path, an open file or a parsed dict.

    An object that repeats a key is refused (`ValueError`), as the INI reader
    refuses a repeated option.
    """
    if isinstance(source, dict):
        return source
    if hasattr(source, "read"):
        return json.load(source, object_pairs_hook=_unique_keys)
    with open(source, encoding="utf-8") as fh:
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


def _read_columns(path, want: list[str]) -> tuple[list[list[str]], int | None]:
    """The body of a CSV file with header ``want``, as columns, and the field
    count of the first body row of another width (None if every row fits).

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
    return columns, bad_width


def _rows(path, columns, bad_width):
    """The rows of ``columns`` as tuples, each with its row number, then the
    field-count fault of the row the columns stop at, if any."""
    yield from enumerate(zip(*columns), start=2)
    if bad_width is not None:
        raise FrameError(f"{path} row {len(columns[0]) + 2}: "
                         f"expected {len(columns)} fields, got {bad_width}")


def read_strata(path) -> dict[str, StratumDef]:
    """Parse a strata table (stratum, n_sampled, n_population)."""
    out: dict[str, StratumDef] = {}
    for i, row in _rows(path, *_read_columns(path, STRATA_HEADER)):
        name = row[0].strip()
        if name in out:
            raise FrameError(f"{path} row {i}: duplicate stratum {name!r}")
        out[name] = StratumDef(
            name=name,
            n_sampled=_parse_int(row[1], "n_sampled", i, str(path)),
            n_population=_parse_int(row[2], "n_population", i, str(path)),
        )
    return out


def read_components(path):
    """Parse the component registry; returns (components, wells_per_site)."""
    comps: dict[str, ComponentRef] = {}
    wells: dict[str, int] = {}
    for i, row in _rows(path, *_read_columns(path, FRAME_HEADER)):
        cid = row[0].strip()
        if cid in comps:
            raise FrameError(f"{path} row {i}: duplicate component_id {cid!r}")
        is_well = row[4].strip()
        if is_well not in {"0", "1"}:
            raise FrameError(f"{path} row {i}: is_well must be 0 or 1, got {is_well!r}")
        comps[cid] = ComponentRef(
            component_id=cid,
            facility_id=row[1].strip(),
            site_id=row[2].strip(),
            stratum=row[3].strip(),
            is_well=is_well == "1",
        )
        site = row[2].strip()
        w = _parse_int(row[5], "wells_at_site", i, str(path))
        if w < 0:
            raise FrameError(f"{path} row {i}: wells_at_site must be >= 0")
        if site in wells and wells[site] != w:
            raise FrameError(
                f"{path} row {i}: conflicting wells_at_site for site {site!r} "
                f"({wells[site]} vs {w})"
            )
        wells[site] = w
    return comps, wells


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


def read_passes(path, components: dict[str, ComponentRef]) -> PassColumns:
    """Parse the pass log into columns, cross-checking hierarchy fields against the registry.

    Each check runs over a whole column.  A failure names the first failing
    row and, within it, the first failing check in the order a row is read:
    field count, component, hierarchy fields, detected flag, measurement
    fields (present iff detected, then each parsed and finite), day, pass,
    and the measurement ranges.  Where a column's values repeat, each
    distinct value is checked once, and a row mask is built only to find the
    first failing row.
    """
    cols, bad_width = _read_columns(path, PASSES_HEADER)
    path = str(path)
    n = len(cols[0])
    fault = _FirstFault(path, n + 1)    # row n: the first of another width, if any
    if bad_width is not None:
        fault.fail(n, f"expected 10 fields, got {bad_width}")

    cids = list(map(str.strip, cols[0]))
    hierarchy = {cid: (c.facility_id, c.site_id, c.stratum) for cid, c in components.items()}
    wrong = {key for key in set(zip(cids, *cols[1:4]))
             if hierarchy.get(key[0]) != tuple(map(str.strip, key[1:]))}
    if wrong:
        fault.check(~np.fromiter(map(components.__contains__, cids), bool, n),
                    lambda i: f"unknown component {cids[i]!r}")
        fault.check(np.fromiter(map(wrong.__contains__, zip(cids, *cols[1:4])), bool, n),
                    lambda i: f"hierarchy fields disagree with the registry for {cids[i]!r}")
    flag = {text: text.strip() for text in set(cols[6])}
    ones = {text for text, f in flag.items() if f == "1"}
    detected = list(map(ones.__contains__, cols[6]))
    if not set(flag.values()) <= {"0", "1"}:
        fault.check(np.fromiter((flag[t] not in ("0", "1") for t in cols[6]), bool, n),
                    lambda i: f"detected must be 0 or 1, got {flag[cols[6][i]]!r}")
    for col, name, _ in MEASUREMENTS:
        filled = list(map(bool, map(str.strip, cols[col])))
        if filled != detected:
            fault.check(np.not_equal(filled, detected), lambda i, name=name: (
                f"detected pass with empty {name}" if detected[i]
                else f"non-detected pass must leave {name} empty"))

    detected_mask = np.array(detected, dtype=bool)
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
    return PassColumns(component_id=cids, day_id=days, pass_index=pass_index,
                       detected=detected_mask, **measured)


def load_survey(passes_path, frame_path, strata_path) -> SurveyFrame:
    """Load and validate a survey frame from its three CSV files."""
    strata = read_strata(strata_path)
    components, wells = read_components(frame_path)
    return SurveyFrame(strata, components, read_passes(passes_path, components), wells)
