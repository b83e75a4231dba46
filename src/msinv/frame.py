"""Survey frame: the site -> facility -> component hierarchy plus pass records.

A frame is loaded from three CSV files (pass log, component registry, strata
table), validated for referential integrity, and frozen.  Non-detected passes
are first-class records: they carry no measurement fields but they set the
per-day pass count that every estimator divides by.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

__all__ = [
    "FrameError",
    "StratumDef",
    "ComponentRef",
    "Pass",
    "SurveyFrame",
    "FrameDiagnostics",
    "load_survey",
    "save_survey",
    "validate",
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


@dataclass(frozen=True)
class SurveyFrame:
    """Validated, immutable survey frame.

    ``wells_per_site`` maps site_id -> number of wells at the site, for the
    shared-equipment allocation of well emissions.
    """

    strata: dict[str, StratumDef]
    components: dict[str, ComponentRef]
    passes: tuple[Pass, ...]
    wells_per_site: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        comp_days: dict[str, set[int]] = {c: set() for c in self.components}
        q_counts: dict[tuple[str, int], int] = {}
        for p in self.passes:
            if p.component_id not in self.components:
                raise FrameError(f"pass references unknown component {p.component_id!r}")
            key = (p.component_id, p.day_id, p.pass_index)
            if key in seen:
                raise FrameError(f"duplicate pass key {key}")
            seen.add(key)
            comp_days[p.component_id].add(p.day_id)
            q_counts[(p.component_id, p.day_id)] = q_counts.get((p.component_id, p.day_id), 0) + 1
        for comp in self.components.values():
            if comp.stratum not in self.strata:
                raise FrameError(
                    f"component {comp.component_id!r} references unknown stratum {comp.stratum!r}"
                )
            if not comp_days[comp.component_id]:
                raise FrameError(
                    f"component {comp.component_id!r} has no passes; surveyed components "
                    "must have at least one"
                )
        # n_sampled must equal the number of distinct facilities actually in
        # the registry for each stratum; the stage I probabilities assume it.
        # Well strata are different: every well at a surveyed site counts as a
        # sampled facility whether or not equipment was attributed to it, so
        # there n_sampled must instead cover the per-site well counts.
        fac_by_stratum: dict[str, set[str]] = {}
        well_flags: dict[str, set[bool]] = {}
        well_sites: dict[str, set[str]] = {}
        for comp in self.components.values():
            fac_by_stratum.setdefault(comp.stratum, set()).add(comp.facility_id)
            well_flags.setdefault(comp.stratum, set()).add(comp.is_well)
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
        big = {k: q for k, q in q_counts.items() if q > REALISTIC_MAX_PASSES}
        if big:
            warnings.warn(
                f"{len(big)} component-day(s) with more than {REALISTIC_MAX_PASSES} passes "
                f"(max {max(big.values())}); unusual for real aerial data",
                stacklevel=2,
            )
        object.__setattr__(self, "_days_surveyed", {c: len(d) for c, d in comp_days.items()})
        object.__setattr__(self, "_passes_per_day", q_counts)

    @property
    def days_surveyed(self) -> dict[str, int]:
        """component_id -> number of distinct survey days (d_p)."""
        return dict(self._days_surveyed)

    @property
    def passes_per_day(self) -> dict[tuple[str, int], int]:
        """(component_id, day_id) -> number of passes that day (Q_pt)."""
        return dict(self._passes_per_day)


@dataclass(frozen=True)
class FrameDiagnostics:
    """Data-quality findings; informational only, never fatal."""

    single_day_components: tuple[str, ...]
    zero_detection_component_days: tuple[tuple[str, int], ...]
    zero_detection_strata: tuple[str, ...]
    small_strata: tuple[str, ...]

    def is_clean(self) -> bool:
        return not (
            self.single_day_components
            or self.zero_detection_component_days
            or self.zero_detection_strata
            or self.small_strata
        )

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
    detected_days = set()
    strata_with_detection = set()
    for p in frame.passes:
        if p.detected:
            detected_days.add((p.component_id, p.day_id))
            strata_with_detection.add(frame.components[p.component_id].stratum)
    zero_days = sorted(k for k in frame.passes_per_day if k not in detected_days)
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


def _parse_float(text: str, what: str, row: int, path: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FrameError(f"{path} row {row}: cannot parse {what} from {text!r}") from None
    if not math.isfinite(value):
        raise FrameError(f"{path} row {row}: {what} must be finite, got {text!r}")
    return value


def _check_header(got: list[str] | None, want: list[str], path: str):
    if got is None or [h.strip() for h in got] != want:
        raise FrameError(f"{path}: expected header {','.join(want)!r}, got {got!r}")


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
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


def read_passes(path, components: dict[str, ComponentRef]) -> list[Pass]:
    """Parse the pass log, cross-checking hierarchy fields against the registry."""
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
        try:
            out.append(
                Pass(
                    component_id=cid,
                    day_id=_parse_int(row[4], "day", i, str(path)),
                    pass_index=_parse_int(row[5], "pass", i, str(path)),
                    detected=detected,
                    measured_rate=rate,
                    wind_speed=wind,
                    altitude=alt,
                )
            )
        except FrameError as exc:
            raise FrameError(f"{path} row {i}: {exc}") from None
    return out


def load_survey(passes_path, frame_path, strata_path) -> SurveyFrame:
    """Load and validate a survey frame from its three CSV files."""
    strata = read_strata(strata_path)
    components, wells = read_components(frame_path)
    passes = read_passes(passes_path, components)
    return SurveyFrame(
        strata=strata,
        components=components,
        passes=tuple(passes),
        wells_per_site=wells,
    )


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(x)


def save_survey(frame: SurveyFrame, passes_path, frame_path, strata_path):
    """Write a frame back to the three-file CSV layout (round-trips load_survey)."""
    with open(strata_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(STRATA_HEADER)
        for s in frame.strata.values():
            w.writerow([s.name, s.n_sampled, s.n_population])
    with open(frame_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(FRAME_HEADER)
        for c in frame.components.values():
            w.writerow([
                c.component_id, c.facility_id, c.site_id, c.stratum,
                int(c.is_well), frame.wells_per_site.get(c.site_id, 0),
            ])
    with open(passes_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(PASSES_HEADER)
        for p in frame.passes:
            c = frame.components[p.component_id]
            w.writerow([
                p.component_id, c.facility_id, c.site_id, c.stratum,
                p.day_id, p.pass_index, int(p.detected),
                _fmt(p.measured_rate), _fmt(p.wind_speed), _fmt(p.altitude),
            ])
