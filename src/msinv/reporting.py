"""Report assembly and serialization.

Everything upstream works in kg/h; this module converts to kt/y, attaches the
Wald interval, and renders the result as JSON (full precision) and as CSV
tables (a display table rounded to 2 decimals, and a plot-ready variance
decomposition at full precision).  A run manifest can be embedded verbatim in
every artifact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtri

__all__ = [
    "EstimationError",
    "KG_H_PER_KT_Y",
    "StratumReport",
    "InventoryReport",
    "build_report",
    "assemble_report",
    "manifest_line",
    "write_report_json",
    "write_report_table",
    "write_decomposition_table",
    "wald_ci",
]

# 1 kg/h sustained for a year: 8760 h/y over 1e6 kg/kt.
KG_H_PER_KT_Y = 8760.0 / 1.0e6
VAR_KG_H_PER_KT_Y = KG_H_PER_KT_Y * KG_H_PER_KT_Y


@dataclass
class StratumReport:
    """One stratum row of the inventory table, in kt/y units."""

    name: str
    total: float
    var_stage1: float
    var_stage2: float
    var_stage3: float
    var_measurement: float
    var_total: float
    unclipped: dict = field(default_factory=dict)


@dataclass
class InventoryReport:
    """Machine-readable inventory: totals, variance split, CI, provenance."""

    total: float
    ci_lower: float
    ci_upper: float
    ci_level: float
    var_stage1: float
    var_stage2: float
    var_stage3: float
    var_measurement: float
    var_total: float
    var_design: float
    unclipped: dict
    strata: list[StratumReport]
    config: dict
    diagnostics: dict = field(default_factory=dict)
    manifest: dict | None = None

    def as_dict(self) -> dict:
        return asdict(self)


class EstimationError(ValueError):
    """An estimator was called outside its domain.

    It lives here, beside `wald_ci`, so that the estimators, which import
    this module, and the simulation lab share one interval and one error.
    """


def wald_ci(estimate, variance, level: float = 0.95):
    """Symmetric normal-theory interval: estimate +/- z * sqrt(variance).

    ``estimate`` and ``variance`` are floats, or arrays that broadcast
    together and give arrays of bounds, element by element as floats would.
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0):
        raise EstimationError("variance must be >= 0")
    if not 0 < level < 1:
        raise EstimationError("level must lie in (0, 1)")
    z = float(ndtri(0.5 + level / 2.0))
    half = z * np.sqrt(variance)
    if half.ndim == 0:
        half = float(half)
    return estimate - half, estimate + half


def assemble_report(
    total_kgh: float,
    parts_kgh2: dict,
    strata_rows: list[dict],
    config_echo: dict,
    ci_level: float,
    diagnostics: dict | None = None,
) -> InventoryReport:
    """Convert kg/h-scale results to a kt/y report with a Wald interval.

    ``parts_kgh2`` needs keys v1, v2, v3, vm, u1, u2, u3 and v3stage; each
    strata row mirrors that plus a name and total.  The reported total
    variance is the stage sum v1 + v2 + v3 + vm (the decomposition identity
    holds by construction), and the interval is built on it.
    """
    s = KG_H_PER_KT_Y
    v = VAR_KG_H_PER_KT_Y
    v_total = (parts_kgh2["v1"] + parts_kgh2["v2"] + parts_kgh2["v3"] + parts_kgh2["vm"]) * v
    total = total_kgh * s
    ci_lower, ci_upper = wald_ci(total, max(0.0, v_total), ci_level)
    rows = []
    for r in strata_rows:
        rows.append(
            StratumReport(
                name=r["name"],
                total=r["total"] * s,
                var_stage1=r["v1"] * v,
                var_stage2=r["v2"] * v,
                var_stage3=r["v3"] * v,
                var_measurement=r["vm"] * v,
                var_total=(r["v1"] + r["v2"] + r["v3"] + r["vm"]) * v,
                unclipped={
                    "var_stage1": r["u1"] * v,
                    "var_stage2": r["u2"] * v,
                    "var_stage3": r["u3"] * v,
                },
            )
        )
    rows.sort(key=lambda r: (r.total, r.name))
    return InventoryReport(
        total=total,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        ci_level=ci_level,
        var_stage1=parts_kgh2["v1"] * v,
        var_stage2=parts_kgh2["v2"] * v,
        var_stage3=parts_kgh2["v3"] * v,
        var_measurement=parts_kgh2["vm"] * v,
        var_total=v_total,
        var_design=parts_kgh2["v3stage"] * v,
        unclipped={
            "var_stage1": parts_kgh2["u1"] * v,
            "var_stage2": parts_kgh2["u2"] * v,
            "var_stage3": parts_kgh2["u3"] * v,
        },
        strata=rows,
        config=dict(config_echo),
        diagnostics=dict(diagnostics or {}),
    )


def build_report(est, config) -> InventoryReport:
    """Assemble a report from a `SurveyEstimate` (single design pass)."""
    rows = []
    for name, se in est.strata.items():
        rows.append({
            "name": name, "total": se.total,
            "v1": se.v1, "v2": se.v2, "v3": se.v3,
            "vm": 0.0,
            "u1": se.u1, "u2": se.u2, "u3": se.u3,
        })
    parts = {
        "v1": est.v1, "v2": est.v2, "v3": est.v3, "vm": 0.0,
        "u1": est.u1, "u2": est.u2, "u3": est.u3, "v3stage": est.v3stage,
    }
    diagnostics = {
        "n_pooled_components": est.n_pooled,
        "n_pooled_without_peers": est.n_pooled_no_peers,
        "phi_floor_hits": est.phi_floor_hits,
        "n_zero_emitting_strata": sum(1 for se in est.strata.values()
                                      if se.n_components and se.n_components == se.n_zero),
    }
    return assemble_report(est.total, parts, rows, config.as_dict(), config.ci_level, diagnostics)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def manifest_line(manifest: dict | None) -> str:
    """The comment line that heads a CSV artifact with its manifest ('' without one)."""
    if manifest is None:
        return ""
    return "# manifest: " + json.dumps(manifest, sort_keys=True) + "\n"


def write_report_json(report: InventoryReport, path, manifest: dict | None = None):
    """Full-precision JSON artifact; the manifest is embedded when given."""
    doc = report.as_dict()
    if manifest is not None:
        doc["manifest"] = manifest
    # NaN/inf are not JSON; refuse them before the file is created
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


TABLE_COLUMNS = [
    "stratum", "total_kt_y", "var_stage1", "var_stage2", "var_stage3",
    "var_measurement", "var_total",
]


def write_report_table(report: InventoryReport, path, manifest: dict | None = None,
                       decimals: int = 2):
    """Display CSV mirroring the stratum summary table, rounded for reading."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(manifest_line(manifest))
        w = csv.writer(fh)
        w.writerow(TABLE_COLUMNS)
        for r in report.strata:
            w.writerow([
                r.name,
                round(r.total, decimals),
                round(r.var_stage1, decimals),
                round(r.var_stage2, decimals),
                round(r.var_stage3, decimals),
                round(r.var_measurement, decimals),
                round(r.var_total, decimals),
            ])
        w.writerow([
            "Population",
            round(report.total, decimals),
            round(report.var_stage1, decimals),
            round(report.var_stage2, decimals),
            round(report.var_stage3, decimals),
            round(report.var_measurement, decimals),
            round(report.var_total, decimals),
        ])


DECOMPOSITION_COLUMNS = ["stratum", "source", "variance_kt_y2", "share"]


def write_decomposition_table(report: InventoryReport, path, manifest: dict | None = None):
    """Plot-ready long-format variance decomposition (full precision)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(manifest_line(manifest))
        w = csv.writer(fh)
        w.writerow(DECOMPOSITION_COLUMNS)
        rows = list(report.strata) + [
            StratumReport(
                name="Population",
                total=report.total,
                var_stage1=report.var_stage1,
                var_stage2=report.var_stage2,
                var_stage3=report.var_stage3,
                var_measurement=report.var_measurement,
                var_total=report.var_total,
            )
        ]
        for r in rows:
            for source, value in (
                ("stage1", r.var_stage1),
                ("stage2", r.var_stage2),
                ("stage3", r.var_stage3),
                ("measurement", r.var_measurement),
            ):
                share = value / r.var_total if r.var_total > 0 else 0.0
                w.writerow([r.name, source, repr(value), repr(share)])
