"""Span tracing of the program from outside its source.

`Tracer.install` replaces each traced function with a wrapper at the module
attribute its caller looks up (``msinv.simlab.estimate_survey`` is what
simlab's own code calls), so the program runs unmodified.  A span records its
name, start, end, thread CPU time, parent span and request id.  Spans stay in
memory until the run ends; `layer_metrics` derives busy, self and wait times
from them, and `write_spans` saves them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    cpu: float
    parent: int | None
    request: int | None

    @property
    def wall(self) -> float:
        return self.end - self.start


# Counters measured at the same boundaries as the spans: (args, kwargs,
# result) -> {counter name: increment}.
def _bytes_hashed(args, kwargs, result):
    inputs = args[2] if len(args) > 2 else kwargs["inputs"]
    return {"cli.bytes_hashed": sum(os.path.getsize(p) for p in inputs.values())}


def _passes_loaded(args, kwargs, result):
    return {"frame.passes_loaded": len(result.passes)}


def _iterations(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"measurement.iterations": config.iterations}


def _draws(args, kwargs, result):
    return {"pod.draws": int(np.size(result))}


def _pod_evaluations(args, kwargs, result):
    from msinv.pod import PHI_FLOOR

    phi = np.asarray(result)
    return {"pod.evaluations": int(phi.size),
            "pod.floor_hits": int(np.count_nonzero(phi < PHI_FLOOR))}


def _bytes_written(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"reporting.bytes_written": os.path.getsize(path)}


def _outcomes(args, kwargs, result):
    return {"oracle.outcomes": len(result[0].probabilities)}


# (span name, [(module, attribute) where callers look it up], counter).
# These are the public functions at the boundaries between src/msinv modules,
# plus the CLI's own manifest step.  Leaf formulas (ipw_daily and the like)
# are not traced: they run hundreds of times per estimate and would swamp the
# trace with its own overhead.  design.py has no entry the program calls
# except through estimators, so it has no span of its own.
TRACED = (
    ("cli.main", [("msinv.cli", "main")], None),
    ("cli.build_manifest", [("msinv.cli", "build_manifest")], _bytes_hashed),
    ("frame.load_survey", [("msinv.cli", "load_survey")], _passes_loaded),
    ("measurement.run_mc", [("msinv.cli", "run_mc")], _iterations),
    ("measurement.bias_corrected_inventory", [("msinv.cli", "bias_corrected_inventory")], None),
    ("measurement.iteration_uniforms", [("msinv.measurement", "iteration_uniforms")], None),
    ("pod.sample_true_rate", [("msinv.measurement", "sample_true_rate")], _draws),
    ("pod.pod", [("msinv.measurement", "pod"), ("msinv.estimators", "pod"),
                 ("msinv.simlab", "pod")], _pod_evaluations),
    ("estimators.prepare_components", [("msinv.measurement", "prepare_components"),
                                       ("msinv.estimators", "prepare_components")], None),
    ("estimators.estimate_survey", [("msinv.measurement", "estimate_survey"),
                                    ("msinv.estimators", "estimate_survey"),
                                    ("msinv.simlab", "estimate_survey"),
                                    ("msinv.oracle", "estimate_survey")], None),
    ("estimators.total_inventory", [("msinv.estimators", "total_inventory")], None),
    ("reporting.assemble_report", [("msinv.reporting", "assemble_report")], None),
    ("reporting.write_report_json", [("msinv.cli", "write_report_json")], _bytes_written),
    ("reporting.write_report_table", [("msinv.cli", "write_report_table")], _bytes_written),
    ("reporting.write_decomposition_table", [("msinv.cli", "write_decomposition_table")],
     _bytes_written),
    ("simlab.run_study", [("msinv.cli", "run_study")], None),
    ("simlab.generate_population", [("msinv.simlab", "generate_population")], None),
    ("simlab.wald_ci", [("msinv.simlab", "wald_ci")], None),
    ("simlab.write_csv", [("msinv.simlab.SimStudyResult", "write_csv")], None),
    ("oracle.enumerate_outcomes", [("msinv.oracle", "enumerate_outcomes")], _outcomes),
    ("oracle.exact_stage_variances", [("msinv.oracle", "exact_stage_variances")], None),
    ("planner.predict_variance_exact", [("msinv.planner", "predict_variance_exact")], None),
    ("planner.predict_variance", [("msinv.planner", "predict_variance")], None),
)


def _resolve(dotted: str):
    """A module, or a class inside one (``msinv.simlab.SimStudyResult``)."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Collects spans while installed; install and remove around traced requests."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.request: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._saved: list[tuple[object, str, object]] = []
        self._count_lock = threading.Lock()  # pool threads update counts too

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a pool thread's first span hangs off the span the main thread
            # has open, which is the call that started the pool
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.thread_time()
                stack.pop()
                self.spans.append(Span(span_id, name, t0, t1, cpu1 - cpu0, parent, self.request))
            if counter is not None:
                increments = counter(args, kwargs, result)
                with self._count_lock:
                    for key, inc in increments.items():
                        self.counts[key] = self.counts.get(key, 0) + inc
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites, counter in TRACED:
            for owner_name, attr in sites:
                owner = _resolve(owner_name)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its wall time minus the part its child spans cover.

    Children from several threads may overlap one another, so their
    intervals are merged before subtracting; a child that outlives its parent
    is clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.wall - union_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: busy wall time (union), self time, wait time, calls."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for name, group in by_name.items():
        out[name] = {
            "s": union_length((s.start, s.end) for s in group),
            "self_s": sum(selfs[s.id] for s in group),
            # wall time not spent on this thread's CPU: waiting for the GIL,
            # the scheduler or I/O
            "wait_s": sum(max(0.0, s.wall - s.cpu) for s in group),
            "calls": float(len(group)),
        }
    return out


def calls_under(spans, name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    by_id = {s.id: s for s in spans}
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and p in by_id:
            if by_id[p].name == ancestor:
                n += 1
                break
            p = by_id[p].parent
    return n


def layer_metrics(spans, counts: dict[str, int], n_requests: int) -> dict[str, float]:
    """The per-layer metrics, each per traced request (0 for a layer not reached)."""
    totals = span_totals(spans)
    per = 1.0 / max(1, n_requests)

    def t(name, kind):
        return totals.get(name, {}).get(kind, 0.0) * per

    def c(key):
        return counts.get(key, 0) * per

    iterations = counts.get("measurement.iterations", 0)
    evaluations = counts.get("pod.evaluations", 0)
    return {
        "cli.main.self_s": t("cli.main", "self_s"),
        "cli.build_manifest.s": t("cli.build_manifest", "s"),
        "cli.bytes_hashed": c("cli.bytes_hashed"),
        "frame.load_survey.s": t("frame.load_survey", "s"),
        "frame.passes_loaded": c("frame.passes_loaded"),
        "measurement.run_mc.self_s": t("measurement.run_mc", "self_s"),
        "measurement.iteration_uniforms.s": t("measurement.iteration_uniforms", "s"),
        "measurement.bias_corrected_inventory.s": t("measurement.bias_corrected_inventory", "s"),
        "measurement.iterations": c("measurement.iterations"),
        "pod.sample_true_rate.s": t("pod.sample_true_rate", "s"),
        "pod.pod.s": t("pod.pod", "s"),
        "pod.draws": c("pod.draws"),
        "pod.floor_hit_ratio": counts.get("pod.floor_hits", 0) / evaluations if evaluations else 0.0,
        "estimators.prepare_components.s": t("estimators.prepare_components", "s"),
        "estimators.prepare_components.calls_per_iter": (
            calls_under(spans, "estimators.prepare_components", "measurement.run_mc") / iterations
            if iterations else 0.0),
        "estimators.estimate_survey.s": t("estimators.estimate_survey", "s"),
        "estimators.estimate_survey.calls": t("estimators.estimate_survey", "calls"),
        "estimators.estimate_survey.wait_s": t("estimators.estimate_survey", "wait_s"),
        "estimators.total_inventory.s": t("estimators.total_inventory", "s"),
        "reporting.assemble_report.s": t("reporting.assemble_report", "s"),
        "reporting.write_report_json.s": t("reporting.write_report_json", "s"),
        "reporting.write_report_table.s": t("reporting.write_report_table", "s"),
        "reporting.write_decomposition_table.s": t("reporting.write_decomposition_table", "s"),
        "reporting.bytes_written": c("reporting.bytes_written"),
        "simlab.generate_population.s": t("simlab.generate_population", "s"),
        "simlab.run_study.self_s": t("simlab.run_study", "self_s"),
        "simlab.wald_ci.s": t("simlab.wald_ci", "s"),
        "simlab.wald_ci.calls": t("simlab.wald_ci", "calls"),
        "simlab.write_csv.s": t("simlab.write_csv", "s"),
        "oracle.enumerate_outcomes.self_s": t("oracle.enumerate_outcomes", "self_s"),
        "oracle.exact_stage_variances.s": t("oracle.exact_stage_variances", "s"),
        "oracle.outcomes": c("oracle.outcomes"),
        "planner.predict_variance_exact.s": t("planner.predict_variance_exact", "s"),
        "planner.predict_variance.s": t("planner.predict_variance", "s"),
    }


def write_spans(spans, path) -> None:
    """All spans as CSV, times relative to the first span's start."""
    origin = min((s.start for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,cpu_s,parent,request\n")
        for s in sorted(spans, key=lambda s: s.id):
            fh.write(f"{s.id},{s.name},{s.start - origin!r},{s.end - origin!r},{s.cpu!r},"
                     f"{'' if s.parent is None else s.parent},"
                     f"{'' if s.request is None else s.request}\n")
