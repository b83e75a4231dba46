"""Report assembly and serialization.

Everything upstream works in kg/h; this module converts to kt/y, attaches the
Wald interval, and renders the result as JSON (full precision) and as CSV
tables (a display table rounded to 2 decimals, and a plot-ready variance
decomposition at full precision).

It is also the one place where artifacts are written.  Every file msinv
writes, reports and all other outputs alike, goes through `write_json` or
`write_csv`, which embed the run manifest the same way in each: under
``"manifest"`` in a JSON document, and as a first ``# manifest:`` line in a
CSV file.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EstimationError",
    "KG_H_PER_KT_Y",
    "StratumReport",
    "InventoryReport",
    "assemble_report",
    "batch_report",
    "write_json",
    "write_csv",
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


class EstimationError(ValueError):
    """An estimator was called outside its domain.

    It lives here, beside `wald_ci`, so that the estimators, which import
    this module, and the simulation lab share one interval and one error.
    """


def valid_level(level: float) -> bool:
    """Whether `wald_ci` takes ``level``: in (0, 1), with ``0.5 + level / 2`` below 1."""
    return 0 < level < 1 and 0.5 + level / 2.0 < 1


def wald_ci(estimate, variance, level: float = 0.95):
    """Symmetric normal-theory interval: estimate +/- z * sqrt(variance).

    ``estimate`` and ``variance`` are floats, or arrays that broadcast
    together and give arrays of bounds, element by element as floats would.
    """
    variance = np.asarray(variance, dtype=float)
    if np.any(variance < 0):
        raise EstimationError("variance must be >= 0")
    if not valid_level(level):
        raise EstimationError(f"level must lie in (0, 1 - 2**-53), got {level!r}")
    z = statistics.NormalDist().inv_cdf(0.5 + level / 2.0)
    half = z * np.sqrt(variance)
    if half.ndim == 0:
        half = float(half)
    return estimate - half, estimate + half


def _variance_fields(parts: dict) -> dict:
    """The variance fields of a report or of a stratum row, in (kt/y)^2, from
    the kg/h-scale parts v1-v3, vm and u1-u3."""
    v = VAR_KG_H_PER_KT_Y
    return {
        "var_stage1": parts["v1"] * v,
        "var_stage2": parts["v2"] * v,
        "var_stage3": parts["v3"] * v,
        "var_measurement": parts["vm"] * v,
        "var_total": (parts["v1"] + parts["v2"] + parts["v3"] + parts["vm"]) * v,
        "unclipped": {"var_stage1": parts["u1"] * v, "var_stage2": parts["u2"] * v,
                      "var_stage3": parts["u3"] * v},
    }


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
    holds by construction), and the interval is built on it.  A report with
    a number that is not finite is refused (`_refuse_non_finite`).
    """
    variances = _variance_fields(parts_kgh2)
    total = total_kgh * KG_H_PER_KT_Y
    ci_lower, ci_upper = wald_ci(total, max(0.0, variances["var_total"]), ci_level)
    rows = [StratumReport(name=r["name"], total=r["total"] * KG_H_PER_KT_Y,
                          **_variance_fields(r))
            for r in strata_rows]
    rows.sort(key=lambda r: (r.total, r.name))
    report = InventoryReport(
        total=total,
        ci_lower=ci_lower,
        ci_upper=ci_upper,
        ci_level=ci_level,
        var_design=parts_kgh2["v3stage"] * VAR_KG_H_PER_KT_Y,
        **variances,
        strata=rows,
        config=dict(config_echo),
        diagnostics=dict(diagnostics or {}),
    )
    _refuse_non_finite(report)
    return report


def _refuse_non_finite(report: InventoryReport):
    """Raise `EstimationError` naming the first number of ``report`` that is not finite.

    The population's fields come first, then each stratum row's, in report
    order; within each, its float fields in field order (the total, the
    interval bounds, the clipped variances), then the unclipped ones.  Each
    part of an estimate can be finite while a sum of them, over the stages
    or over the Monte Carlo iterations, overflows.
    """
    for where, row in [("population", report),
                       *((f"stratum {r.name!r}", r) for r in report.strata)]:
        named = [(k, v) for k, v in vars(row).items() if isinstance(v, float)]
        named += [(f"unclipped.{k}", v) for k, v in row.unclipped.items()]
        for key, value in named:
            if not math.isfinite(value):
                raise EstimationError(f"non-finite {where} {key} in the report "
                                      "(a measured rate too large to estimate with?)")


def batch_report(
    population: dict,
    strata: dict,
    names: list[str],
    config_echo: dict,
    ci_level: float,
    diagnostics: dict | None = None,
) -> InventoryReport:
    """The report of a run of the batched estimator, from its kg/h iterations.

    ``population`` maps the total and each variance part to an array of one
    value per iteration; ``strata`` maps them to arrays with a row per
    stratum, in the order of ``names``.  Each is reported as its mean over
    the iterations.  The measurement variance is the between-iteration
    sample variance of the totals (denominator B - 1), and 0.0 for a single
    design pass (B = 1), which has none.  A sum that overflows gives a
    report that is refused, without a numpy warning.
    """
    b = population["total"].shape[-1]

    # each series is summed where it lies, along its last (contiguous) axis,
    # which gives each row, bit for bit, what summing that row alone gives;
    # that sum over B is numpy's mean.  Stacking the series first would copy
    # every one of them.
    def means(values: dict) -> np.ndarray:
        return np.array([v.sum(axis=-1) for v in values.values()]) / b

    def vm(totals: np.ndarray):
        return (np.zeros(totals.shape[:-1]) if b == 1 else totals.var(axis=-1, ddof=1)).tolist()

    with np.errstate(over="ignore", invalid="ignore"):
        parts = dict(zip(population, means(population).tolist()))
        parts["vm"] = vm(population["total"])
        rows = [dict(zip(strata, values), name=name, vm=v)
                for name, values, v in zip(names, means(strata).T.tolist(), vm(strata["total"]))]
    total = parts.pop("total")
    return assemble_report(total, parts, rows, config_echo, ci_level, diagnostics)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _cut_to_one_byte(path, flags):
    """`os.open` for mode "w", but cutting a longer regular file to one byte, not zero.

    Truncating a file to zero bytes and writing it again makes ext4 (with its
    default ``auto_da_alloc``) allocate the new blocks when the file is
    closed, which is most of the cost of rewriting a small artifact; a cut to
    any other length does not.  The first write covers the byte that is
    left, and every artifact has at least one, so no old byte survives the
    writing, nor a kill or a failed write after the cut.  The file keeps its
    inode, links, mode and owner, as with truncation, and a symlink is
    written through.  Only a regular file is cut, whatever its path: a pipe
    or a character device holds no old bytes.
    """
    fd = os.open(path, flags & ~os.O_TRUNC, 0o666)
    st = os.fstat(fd)
    if stat.S_ISREG(st.st_mode) and st.st_size > 1:
        os.ftruncate(fd, 1)
    return fd


def write_json(path, doc: dict, manifest: dict | None = None):
    """Write ``doc`` as a JSON artifact, the manifest under "manifest" when given.

    NaN and inf are not JSON: they are refused before the file is created.
    """
    if manifest is not None:
        doc = dict(doc, manifest=manifest)
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", opener=_cut_to_one_byte) as fh:
        fh.write(text + "\n")


def write_csv(path, header: list[str], rows, manifest: dict | None = None):
    """Write a CSV artifact: a ``# manifest:`` line when given, the header, the rows.

    ``path`` may instead be an open text file, which is written from where it
    stands and left open.
    """
    with (nullcontext(path) if hasattr(path, "write") else
          open(path, "w", newline="", encoding="utf-8", opener=_cut_to_one_byte)) as fh:
        if manifest is not None:
            fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_report_json(report: InventoryReport, path, manifest: dict | None = None):
    """Full-precision JSON artifact, written from the report's and its rows'
    fields as they stand, with no copy; the manifest is embedded when given."""
    write_json(path, dict(vars(report), strata=list(map(vars, report.strata))), manifest)


# A table row's numbers, in column order: the total, the variance sources and
# their sum.  They are named here, not read from `fields(StratumReport)`, so
# that a stratum field added to the reports does not reach the tables.
_ROW_NUMBERS = ("total", "var_stage1", "var_stage2", "var_stage3", "var_measurement", "var_total")
_SOURCES = _ROW_NUMBERS[1:-1]


def _table_rows(report: InventoryReport) -> list[StratumReport]:
    """The stratum rows, then the Population row that both tables end with."""
    return [*report.strata, StratumReport(name="Population",
                                          **{k: getattr(report, k) for k in _ROW_NUMBERS})]


TABLE_COLUMNS = ["stratum", "total_kt_y", *_ROW_NUMBERS[1:]]


def write_report_table(report: InventoryReport, path, manifest: dict | None = None):
    """Display CSV mirroring the stratum summary table, rounded to 2 decimals."""
    write_csv(path, TABLE_COLUMNS, (
        [r.name, *(round(getattr(r, k), 2) for k in _ROW_NUMBERS)] for r in _table_rows(report)
    ), manifest)


DECOMPOSITION_COLUMNS = ["stratum", "source", "variance_kt_y2", "share"]


def write_decomposition_table(report: InventoryReport, path, manifest: dict | None = None):
    """Plot-ready long-format variance decomposition (full precision)."""
    rows = []
    for r in _table_rows(report):
        for key in _SOURCES:
            value = getattr(r, key)
            share = value / r.var_total if r.var_total > 0 else 0.0
            rows.append([r.name, key.removeprefix("var_"), repr(value), repr(share)])
    write_csv(path, DECOMPOSITION_COLUMNS, rows, manifest)
