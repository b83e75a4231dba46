"""The row-by-row frame loader, kept as the reference the column loader is diffed against.

`load_reference` reads a survey the way the loader did before it read the
files a block of rows at a time and the pass log as columns: each file's
rows held at once, the strata table and the registry checked row by row,
one `ComponentRef` per registry row and one `Pass` per pass log row, each
checked as it is read, then the frame-level checks and the grouping into
units over those records, with dicts and sets.  It returns the derived
views the two loaders share and raises the same `FrameError` messages.

The `ComponentRef` and `Pass` records are the tests' way to write a survey
by hand: `frame_from_passes` builds a `SurveyFrame` from records, through
the `ComponentColumns` that `columns_from_components` and the `PassColumns`
that `columns_from_passes` make of them, and `log_records` and
`detected_records` read a frame's passes back as records.  The grouping into
units gives `Unit` records, which the scalar estimator reference
(`estimator_reference`) walks.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from msinv.frame import (
    FRAME_HEADER, PASSES_HEADER, REALISTIC_MAX_PASSES, STRATA_HEADER, ComponentColumns,
    ComponentRef, FrameError, PassColumns, StratumDef, SurveyFrame, UnitIndex, _check_header,
)


@dataclass(frozen=True)
class Pass:
    """One plane pass over one component on one day.

    Measurement fields are present iff the pass detected methane; the
    instrument reports rate, wind and altitude only on detection.
    """

    component_id: str
    day_id: int
    pass_index: int
    detected: bool
    measured_rate: float | None = None
    wind_speed: float | None = None
    altitude: float | None = None

    def __post_init__(self):
        if self.detected:
            if self.measured_rate is None or not 0 < self.measured_rate < math.inf:
                raise FrameError(
                    f"pass ({self.component_id}, {self.day_id}, {self.pass_index}): "
                    "detected pass needs a finite measured_rate > 0"
                )
            if self.wind_speed is None or not 0 <= self.wind_speed < math.inf:
                raise FrameError(
                    f"pass ({self.component_id}, {self.day_id}, {self.pass_index}): "
                    "detected pass needs a finite wind_speed >= 0"
                )
            if self.altitude is None or not 0 < self.altitude < math.inf:
                raise FrameError(
                    f"pass ({self.component_id}, {self.day_id}, {self.pass_index}): "
                    "detected pass needs a finite altitude > 0"
                )
        else:
            if (self.measured_rate, self.wind_speed, self.altitude) != (None, None, None):
                raise FrameError(
                    f"pass ({self.component_id}, {self.day_id}, {self.pass_index}): "
                    "non-detected pass must not carry measurement fields"
                )


def columns_from_components(components, wells_per_site=None) -> ComponentColumns:
    """The registry columns of `ComponentRef` records, in their order; each
    row's wells_at_site is its site's in ``wells_per_site``, else 0."""
    wells_per_site = wells_per_site or {}
    comps = list(components.values())
    return ComponentColumns(
        component_id=[c.component_id for c in comps],
        facility_id=[c.facility_id for c in comps],
        site_id=[c.site_id for c in comps],
        stratum=[c.stratum for c in comps],
        is_well=np.array([c.is_well for c in comps], dtype=bool),
        wells_at_site=[wells_per_site.get(c.site_id, 0) for c in comps],
    )


def columns_from_passes(passes, registry: ComponentColumns) -> PassColumns:
    """The columns of `Pass` records, which checked their own measurement
    fields; each pass's registry row is found by its component id."""
    row = {cid: r for r, cid in enumerate(registry.component_id)}
    detected = [p for p in passes if p.detected]
    return PassColumns(
        component_id=[p.component_id for p in passes],
        component=np.array([row.get(p.component_id, -1) for p in passes], dtype=np.intp),
        day_id=[p.day_id for p in passes],
        pass_index=[p.pass_index for p in passes],
        detected=np.array([p.detected for p in passes], dtype=bool),
        measured_rate=np.array([p.measured_rate for p in detected], dtype=float),
        wind_speed=np.array([p.wind_speed for p in detected], dtype=float),
        altitude=np.array([p.altitude for p in detected], dtype=float),
    )


def wells_per_site(registry: ComponentColumns) -> dict[str, int]:
    """site_id -> number of wells at the site, in registry order."""
    return dict(zip(registry.site_id, registry.wells_at_site))


def frame_from_passes(strata, components, passes, wells_per_site=None) -> SurveyFrame:
    """A `SurveyFrame` of `ComponentRef` records, in registry order, and
    `Pass` records, in log order."""
    registry = columns_from_components(components, wells_per_site)
    return SurveyFrame(strata, registry, columns_from_passes(passes, registry))


def canonical(p: Pass) -> tuple[str, int, int]:
    """The (component, day, pass) key that orders a frame's detected passes."""
    return p.component_id, p.day_id, p.pass_index


def log_records(frame: SurveyFrame) -> tuple[Pass, ...]:
    """The frame's passes in log order, as records."""
    c = frame.passes
    measured = zip(c.measured_rate.tolist(), c.wind_speed.tolist(), c.altitude.tolist())
    return tuple(
        Pass(cid, day, q, True, *next(measured)) if det else Pass(cid, day, q, False)
        for cid, day, q, det in zip(c.component_id, c.day_id, c.pass_index,
                                    c.detected.tolist())
    )


def detected_records(frame: SurveyFrame) -> tuple[Pass, ...]:
    """The frame's detected passes in canonical order, as records."""
    return tuple(sorted((p for p in log_records(frame) if p.detected), key=canonical))


class UnitDay(NamedTuple):
    """One surveyed day of a `Unit`.

    ``parts`` holds a ``(positions, q_pt)`` pair per component-day summed into
    the day, in component id order: the positions of its detected passes in
    `SurveyFrame.measured_rates` (empty on a day without a detection) and
    its pass count Q_pt.
    """

    day_id: int
    parts: tuple[tuple[tuple[int, ...], int], ...]


class Unit(NamedTuple):
    """What the estimators treat as one component: its days and stage I members.

    A non-well component is one unit with ``wells`` 0; ``members`` holds its
    facility.  A well site is one unit whose ``wells`` wells share its
    emissions equally; ``members`` holds their ids ``site/well1`` ... and
    each day sums the site's component-days.  ``days`` are in day order, so
    d_p is ``len(days)``.  `SurveyFrame.index` holds the same units as flat
    arrays, in the same order.
    """

    unit_id: str                    # the component id, or the site id
    stratum: str
    members: tuple[str, ...]
    wells: int
    days: tuple[UnitDay, ...]


class ReferenceFrame(NamedTuple):
    components: dict[str, ComponentRef]
    wells_per_site: dict[str, int]
    passes: tuple[Pass, ...]
    detected_passes: tuple[Pass, ...]
    units: tuple[Unit, ...]
    index: UnitIndex
    days_surveyed: dict[str, int]
    passes_per_day: dict[tuple[str, int], int]


def _parse_int(text: str, what: str, row: int, path: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FrameError(f"{path} row {row}: cannot parse {what} from {text!r}") from None


def _parse_float(text: str, what: str, row: int, path: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FrameError(f"{path} row {row}: cannot parse {what} from {text!r}") from None
    if not math.isfinite(value):
        raise FrameError(f"{path} row {row}: {what} must be finite, got {text!r}")
    return value


def _read_rows(path):
    # utf-8-sig: a leading byte-order mark (Excel's "CSV UTF-8") is not part
    # of the first header field
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FrameError(f"{path}: cannot parse: {exc}") from None
    if not rows:
        raise FrameError(f"{path}: empty file")
    return rows[0], rows[1:]


def read_strata(path) -> dict[str, StratumDef]:
    """Parse a strata table (stratum, n_sampled, n_population)."""
    header, rows = _read_rows(path)
    _check_header(header, STRATA_HEADER, str(path))
    out: dict[str, StratumDef] = {}
    for i, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise FrameError(f"{path} row {i}: expected 3 fields, got {len(row)}")
        name = row[0].strip()
        if name in out:
            raise FrameError(f"{path} row {i}: duplicate stratum {name!r}")
        out[name] = StratumDef(
            name=name,
            n_sampled=_parse_int(row[1], "n_sampled", i, str(path)),
            n_population=_parse_int(row[2], "n_population", i, str(path)),
        )
    if not out:
        raise FrameError(f"{path}: no strata rows")
    return out


def read_components(path):
    """Parse the component registry; returns (components, wells_per_site)."""
    header, rows = _read_rows(path)
    _check_header(header, FRAME_HEADER, str(path))
    comps: dict[str, ComponentRef] = {}
    wells: dict[str, int] = {}
    for i, row in enumerate(rows, start=2):
        if len(row) != 6:
            raise FrameError(f"{path} row {i}: expected 6 fields, got {len(row)}")
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


def read_passes_rows(path, components: dict[str, ComponentRef]) -> list[Pass]:
    """Parse the pass log row by row, cross-checking hierarchy fields against the registry."""
    header, rows = _read_rows(path)
    _check_header(header, PASSES_HEADER, str(path))
    out: list[Pass] = []
    for i, row in enumerate(rows, start=2):
        if len(row) != 10:
            raise FrameError(f"{path} row {i}: expected 10 fields, got {len(row)}")
        cid = row[0].strip()
        comp = components.get(cid)
        if comp is None:
            raise FrameError(f"{path} row {i}: unknown component {cid!r}")
        if (row[1].strip(), row[2].strip(), row[3].strip()) != (
            comp.facility_id, comp.site_id, comp.stratum,
        ):
            raise FrameError(
                f"{path} row {i}: hierarchy fields disagree with the registry for {cid!r}"
            )
        detected_field = row[6].strip()
        if detected_field not in {"0", "1"}:
            raise FrameError(f"{path} row {i}: detected must be 0 or 1, got {detected_field!r}")
        detected = detected_field == "1"
        rate = wind = alt = None
        if detected:
            for col, name in ((7, "rate_kg_h"), (8, "wind_m_s"), (9, "altitude_m")):
                if not row[col].strip():
                    raise FrameError(f"{path} row {i}: detected pass with empty {name}")
            rate = _parse_float(row[7], "rate_kg_h", i, str(path))
            wind = _parse_float(row[8], "wind_m_s", i, str(path))
            alt = _parse_float(row[9], "altitude_m", i, str(path))
        else:
            for col, name in ((7, "rate_kg_h"), (8, "wind_m_s"), (9, "altitude_m")):
                if row[col].strip():
                    raise FrameError(
                        f"{path} row {i}: non-detected pass must leave {name} empty"
                    )
        day = _parse_int(row[4], "day", i, str(path))
        pass_index = _parse_int(row[5], "pass", i, str(path))
        try:
            out.append(
                Pass(
                    component_id=cid,
                    day_id=day,
                    pass_index=pass_index,
                    detected=detected,
                    measured_rate=rate,
                    wind_speed=wind,
                    altitude=alt,
                )
            )
        except FrameError as exc:
            raise FrameError(f"{path} row {i}: {exc}") from None
    return out


def reference_frame(strata, components, passes, wells_per_site) -> ReferenceFrame:
    """Check ``passes`` against the registry and group them into units, record by record."""
    seen = set()
    comp_days: dict[str, set[int]] = {c: set() for c in components}
    q_counts: dict[tuple[str, int], int] = {}
    for p in passes:
        if p.component_id not in components:
            raise FrameError(f"pass references unknown component {p.component_id!r}")
        key = (p.component_id, p.day_id, p.pass_index)
        if key in seen:
            raise FrameError(f"duplicate pass key {key}")
        seen.add(key)
        comp_days[p.component_id].add(p.day_id)
        q_counts[(p.component_id, p.day_id)] = q_counts.get((p.component_id, p.day_id), 0) + 1
    for comp in components.values():
        if comp.stratum not in strata:
            raise FrameError(
                f"component {comp.component_id!r} references unknown stratum {comp.stratum!r}"
            )
        if not comp_days[comp.component_id]:
            raise FrameError(
                f"component {comp.component_id!r} has no passes; surveyed components "
                "must have at least one"
            )
    # every stratum of the table: one no component names has no facilities
    fac_by_stratum: dict[str, set[str]] = {name: set() for name in strata}
    well_flags: dict[str, set[bool]] = {name: set() for name in strata}
    well_sites: dict[str, set[str]] = {}
    for comp in components.values():
        fac_by_stratum[comp.stratum].add(comp.facility_id)
        well_flags[comp.stratum].add(comp.is_well)
        if comp.is_well:
            well_sites.setdefault(comp.stratum, set()).add(comp.site_id)
    for name, facs in fac_by_stratum.items():
        if well_flags[name] == {True, False}:
            raise FrameError(f"stratum {name!r} mixes well and non-well components")
        if well_flags[name] == {True}:
            registered = sum(wells_per_site.get(s, 0) for s in well_sites[name])
            if strata[name].n_sampled < max(registered, len(facs)):
                raise FrameError(
                    f"stratum {name!r}: n_sampled={strata[name].n_sampled} is "
                    f"below the {max(registered, len(facs))} wells implied by the registry"
                )
        elif strata[name].n_sampled != len(facs):
            raise FrameError(
                f"stratum {name!r}: n_sampled={strata[name].n_sampled} but the "
                f"registry lists {len(facs)} distinct facilities"
            )
    big = {k: q for k, q in q_counts.items() if q > REALISTIC_MAX_PASSES}
    if big:
        warnings.warn(
            f"{len(big)} component-day(s) with more than {REALISTIC_MAX_PASSES} passes "
            f"(max {max(big.values())}); unusual for real aerial data",
            stacklevel=2,
        )
    detected = tuple(sorted((p for p in passes if p.detected), key=canonical))
    units = _group_units(strata, components, wells_per_site, detected, comp_days, q_counts)
    return ReferenceFrame(
        components=components, wells_per_site=wells_per_site, passes=tuple(passes),
        detected_passes=detected, units=units,
        index=_index(strata, units, len(detected)),
        days_surveyed={c: len(d) for c, d in comp_days.items()}, passes_per_day=q_counts,
    )


def _group_units(strata, components, wells_per_site, detected, comp_days, q_counts):
    positions: dict[tuple[str, int], list[int]] = {}
    for i, p in enumerate(detected):
        positions.setdefault((p.component_id, p.day_id), []).append(i)

    def part(cid, day):
        return tuple(positions.get((cid, day), ())), q_counts[cid, day]

    units = []
    sites: dict[str, list[str]] = {}
    for cid in sorted(components):
        comp = components[cid]
        if comp.is_well:
            sites.setdefault(comp.site_id, []).append(cid)
            continue
        days = tuple(UnitDay(day, (part(cid, day),)) for day in sorted(comp_days[cid]))
        units.append(Unit(cid, comp.stratum, (comp.facility_id,), 0, days))
    for site, group in sorted(sites.items()):
        strata_here = {components[c].stratum for c in group}
        if len(strata_here) != 1:
            raise FrameError(f"well components at site {site!r} span multiple strata")
        wells = wells_per_site.get(site, 0)
        if wells < 1:
            if any((c, d) in positions for c in group for d in comp_days[c]):
                raise FrameError(f"well detections at site {site!r} but wells_at_site=0")
            continue
        days = tuple(
            UnitDay(day, tuple(part(c, day) for c in group if day in comp_days[c]))
            for day in sorted(set().union(*(comp_days[c] for c in group)))
        )
        wids = tuple(f"{site}/well{i + 1}" for i in range(wells))
        units.append(Unit(site, strata_here.pop(), wids, wells, days))
    return tuple(units)


def _index(strata, units, n_detected) -> UnitIndex:
    s_index = {name: s for s, name in enumerate(strata)}
    pass_cd = np.empty(n_detected, dtype=np.intp)
    cd_q, cd_ud, ud_unit, member_unit, member_stratum, member_fac = [], [], [], [], [], []
    facs: dict[tuple[str, str], int] = {}
    for u, unit in enumerate(units):
        for day in unit.days:
            for positions, q_pt in day.parts:
                pass_cd[list(positions)] = len(cd_q)
                cd_q.append(q_pt)
                cd_ud.append(len(ud_unit))
            ud_unit.append(u)
        for member in unit.members:
            member_unit.append(u)
            member_stratum.append(s_index[unit.stratum])
            member_fac.append(facs.setdefault((unit.stratum, member), len(facs)))

    def ints(values):
        return np.array(values, dtype=np.intp)

    return UnitIndex(
        pass_cd=pass_cd, cd_q=ints(cd_q), cd_ud=ints(cd_ud), ud_unit=ints(ud_unit),
        unit_wells=ints([unit.wells for unit in units]),
        labels=np.array([unit.members[0] if unit.wells else unit.unit_id
                         for unit in units], dtype=object),
        member_unit=ints(member_unit), member_stratum=ints(member_stratum),
        member_fac=ints(member_fac),
        n_sampled=ints([d.n_sampled for d in strata.values()]),
        n_population=ints([d.n_population for d in strata.values()]),
        stratum_group=np.zeros(len(strata), dtype=np.intp),
    )


def load_reference(passes_path, frame_path, strata_path) -> ReferenceFrame:
    """`load_survey` as it was: every pass a `Pass`, checked and grouped row by row."""
    strata = read_strata(strata_path)
    components, wells = read_components(frame_path)
    passes = read_passes_rows(passes_path, components)
    return reference_frame(strata, components, passes, wells)


def reference_diagnostics(frame: ReferenceFrame, strata, components) -> dict:
    """`validate` as it was, over the `Pass` records: its findings as a dict."""
    single = sorted(c for c, d in frame.days_surveyed.items() if d == 1)
    detected_days = set()
    strata_with_detection = set()
    for p in frame.passes:
        if p.detected:
            detected_days.add((p.component_id, p.day_id))
            strata_with_detection.add(components[p.component_id].stratum)
    zero_days = sorted(k for k in frame.passes_per_day if k not in detected_days)
    return {
        "single_day_components": tuple(single),
        "zero_detection_component_days": tuple(zero_days),
        "zero_detection_strata": tuple(sorted(s for s in strata
                                              if s not in strata_with_detection)),
        "small_strata": tuple(sorted(s for s, d in strata.items() if d.n_sampled < 10)),
    }
