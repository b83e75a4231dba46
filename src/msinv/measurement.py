"""Measurement-error handling: bias correction and the Monte Carlo wrapper.

Measured rates are biased and noisy.  The cheap treatment multiplies every
measurement by the bias factor and runs a single design pass.  The full
treatment redraws the true rates from the conditional log-logistic
distribution B times, recomputes detection probabilities from each draw, runs
the design estimator per draw, and reports the iteration mean together with a
four-way variance split: the between-iteration variance is the measurement
contribution, and each stage contribution is the mean of its per-iteration
estimates.

The frame keeps its compiled index arrays and each configuration's layout of
them (`SurveyFrame.layout`), and the iterations are evaluated in fixed-size
chunks by one batched kernel (`batch.evaluate`), the estimator of every
report; the scalar reference in the tests specifies it.  A run's report is
assembled by `reporting.batch_report`, as a single design pass's is.
Draws are generated from a counter-based generator keyed by (seed, iteration),
so results are bit-identical for a given seed no matter how many worker
threads execute the chunks or in which order they finish.  The draws do not
depend on the estimator configuration either, so `run_mc_variants` runs
several configurations of one run together: each chunk's uniforms, true
rates and PODs are drawn once and evaluated under every configuration's
layout in one `batch.evaluate` call.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import reporting
from .batch import POPULATION_KEYS, STRATUM_KEYS, Layout, evaluate
from .estimators import EstimatorConfig
# not used here: perfbench/tracer.py patches these two names on this module
from .estimators import estimate_survey, prepare_components  # noqa: F401
from .frame import SurveyFrame
from .pod import DEFAULT_MEASUREMENT, PHI_FLOOR, MeasurementModel, bias_correct, pod, sample_true_rate

__all__ = [
    "McConfig",
    "McResult",
    "run_mc",
    "run_mc_variants",
    "bias_corrected_inventory",
    "convergence_trace",
    "write_trace_csv",
    "resolve_threads",
]

THREADS_ENV = "MSINV_THREADS"

# Iterations evaluated together.  At its peak a chunk holds about 14 float64
# values per detected pass and iteration for one variant and 18 for four
# (about 15 and 19 MiB for the packaged subset's 551 detected passes,
# measured with tracemalloc), so memory is bounded whatever the iteration
# count; each worker thread holds one chunk.  The pages a four-variant chunk
# touches come to about 20 MiB (the first chunk's minor faults); `cli` sets
# malloc thresholds that keep them in the heap for the next chunk.
MC_CHUNK = 256

# Most iterations one run may ask for, and the most that the variants of one
# `run_mc_variants` pass hold together: a pass takes at most
# MAX_MC_ITERATIONS // iterations variants.  A variant keeps (8 + 7 * strata)
# float64 values per iteration, and (5 + strata) more with the trace: about
# 435 MiB at this limit for the packaged subset's seven strata, 526 MiB traced.
# A run there peaks at 490 MiB, 528 MiB traced (tools/peak_memory.py): the
# report's variance adds a temporary of the stratum totals, and the trace CSV
# its cumulative means.
MAX_MC_ITERATIONS = 1_000_000


def resolve_threads(requested: int | None) -> int:
    """Worker count: explicit argument, else MSINV_THREADS, else 1.

    Capped at the CPUs this process may run on: more threads than CPUs
    only add contention.  Raises ValueError when the count is below 1, or
    when MSINV_THREADS is not a whole number; a count read from
    MSINV_THREADS is named as such.
    """
    source = "threads"
    if requested is None:
        env = os.environ.get(THREADS_ENV)
        source = THREADS_ENV
        try:
            requested = int(env) if env else 1
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be a whole number, got {env!r}") from None
    if requested < 1:
        raise ValueError(f"{source} must be at least 1, got {requested}")
    return min(int(requested), _usable_cpus())


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a cpuset or ``taskset`` narrows it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings wrapped around an estimator configuration."""

    estimator: EstimatorConfig = EstimatorConfig()
    iterations: int = 8000
    seed: int = 0
    measurement: MeasurementModel = DEFAULT_MEASUREMENT
    trace: bool = False
    threads: int | None = None

    def __post_init__(self):
        if self.iterations < 2:
            raise ValueError("need at least 2 Monte Carlo iterations")
        if self.iterations > MAX_MC_ITERATIONS:
            raise ValueError(f"at most {MAX_MC_ITERATIONS} Monte Carlo iterations, "
                             f"got {self.iterations}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "measurement": self.measurement.as_dict(),
            "trace": self.trace,
        }


@dataclass
class McResult:
    """Aggregated Monte Carlo inventory plus optional per-iteration series."""

    report: reporting.InventoryReport
    config: McConfig
    iteration_totals: np.ndarray | None = None
    iteration_parts: dict[str, np.ndarray] | None = None
    stratum_design_var: dict[str, np.ndarray] | None = None


def iteration_uniforms(seed: int, iterations: range, n: int) -> np.ndarray:
    """Uniform draws of the given iterations, shape (len(iterations), n).

    Each row holds one draw per detected pass in canonical order, from the
    Philox stream keyed by seed * 2**64 + iteration, so an iteration's draws
    do not depend on which other iterations are drawn with it.
    """
    # Philox(key=...) would first seed itself from OS entropy; setting the
    # keyed state directly gives the same stream without that cost
    bitgen = np.random.Philox()
    gen = np.random.Generator(bitgen)
    out = np.empty((len(iterations), n))
    for row, b in enumerate(iterations):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64),
                      "key": np.array([b, int(seed) % 2**64], np.uint64)},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0,
        }
        gen.random(n, out=out[row])
    # random() yields [0, 1); the inverse CDF needs the open interval
    return np.nextafter(out, 1.0)


def run_mc(frame: SurveyFrame, config: McConfig) -> McResult:
    """Propagate measurement error through the design estimator.

    Per iteration: draw true rates given the measurements, recompute each
    pass's detection probability from its draw, and run the full three-stage
    estimation.  The reported total is the iteration mean; the measurement
    variance is the between-iteration sample variance (denominator B - 1);
    each stage part is the mean of its per-iteration (clipped) estimates.

    The frame is compiled once into a `batch.Layout`, which checks the
    horizon before anything is drawn, and the iterations are evaluated in
    chunks of `MC_CHUNK`; up to ``threads`` workers take chunks in parallel.
    This is `run_mc_variants` of ``config.estimator`` alone.
    """
    return next(run_mc_variants(frame, config, [config.estimator]))


def run_mc_variants(frame: SurveyFrame, config: McConfig,
                    estimators: Sequence[EstimatorConfig]) -> Iterator[McResult]:
    """`run_mc` of ``config`` under each of ``estimators``, in order.

    Each result equals, bit for bit, `run_mc` of ``config`` with that
    estimator configuration, which its ``config`` carries (``config.estimator``
    itself is not run).  Every configuration's layout is built, and so its
    horizon checked, before this returns; the configurations must share
    their POD parameters.

    The configurations run in passes of at most
    ``MAX_MC_ITERATIONS // config.iterations``.  A pass draws each chunk's
    uniforms, true rates and PODs once and evaluates them under all of its
    layouts; it runs when its first result is asked for, and holds no
    result once it has handed them all out, so at most one pass's
    per-iteration arrays are alive at a time.  When an estimate is not
    finite, the pass raises the error of its first failing chunk, for the
    first configuration that fails there.
    """
    if len({e.pod_params for e in estimators}) > 1:
        raise ValueError("the variants of one Monte Carlo run must share their POD parameters")
    # built here, outside the generator, so that every check runs before the
    # caller asks for (and writes) its first result
    variants = [(replace(config, estimator=e), frame.layout(e)) for e in estimators]
    return _passes(frame, variants, MAX_MC_ITERATIONS // config.iterations)


def _passes(frame: SurveyFrame, variants: list[tuple[McConfig, Layout]],
            per_pass: int) -> Iterator[McResult]:
    for start in range(0, len(variants), per_pass):
        results = _run_pass(frame, variants[start:start + per_pass])
        while results:
            yield results.pop(0)


def _run_pass(frame: SurveyFrame, variants: list[tuple[McConfig, Layout]]) -> list[McResult]:
    """The `McResult` of each (config, layout) pair; the configs differ only
    in their estimator configuration."""
    config = variants[0][0]
    layouts = [layout for _, layout in variants]
    b_total = config.iterations
    names = list(frame.strata)

    pops = [{k: np.empty(b_total) for k in POPULATION_KEYS} for _ in variants]
    # a row per stratum
    sts = [{k: np.empty((len(names), b_total)) for k in STRATUM_KEYS} for _ in variants]
    chunks = [range(start, min(start + MC_CHUNK, b_total))
              for start in range(0, b_total, MC_CHUNK)]
    floor_hits = np.zeros(len(chunks), dtype=int)

    def run_chunk(c: int):
        its = chunks[c]
        u = iteration_uniforms(config.seed, its, layouts[0].n_passes)
        y = sample_true_rate(frame.measured_rates, u, config.measurement)
        raw_phi = pod(y, frame.altitudes, frame.wind_speeds, config.estimator.pod_params)
        floor_hits[c] = int(np.count_nonzero(raw_phi < PHI_FLOOR))
        ests = evaluate(layouts, y, np.maximum(raw_phi, PHI_FLOOR), its.start)
        sl = slice(its.start, its.stop)
        for est, pop, st in zip(ests, pops, sts):
            for k in pop:
                pop[k][sl] = est.population[k][:, 0]
            for k in st:
                st[k][:, sl] = est.strata[k].T

    workers = min(resolve_threads(config.threads), len(chunks))
    if workers == 1:
        for c in range(len(chunks)):
            run_chunk(c)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, range(len(chunks))))

    hits = int(floor_hits.sum())
    return [_result(cfg, layout, names, pop, st, hits)
            for (cfg, layout), pop, st in zip(variants, pops, sts)]


def _result(config: McConfig, layout: Layout, names: list[str], pop: dict, st: dict,
            floor_hits: int) -> McResult:
    """Aggregate one configuration's per-iteration arrays into its `McResult`."""
    est_cfg = config.estimator
    echo = est_cfg.as_dict()
    echo["measurement_mode"] = "mc"
    echo["mc"] = dict(config.as_dict(), measurement=_echo(config.measurement))
    diagnostics = dict(layout.diagnostics, phi_floor_hits=floor_hits)
    report = reporting.batch_report(pop, st, names, echo, est_cfg.ci_level, diagnostics)
    result = McResult(report=report, config=config)
    if config.trace:
        scale = reporting.VAR_KG_H_PER_KT_Y
        result.iteration_totals = pop["total"] * reporting.KG_H_PER_KT_Y
        result.iteration_parts = {k: pop[k] * scale for k in ("v1", "v2", "v3")}
        design = {name: st["v1"][s] + st["v2"][s] + st["v3"][s] for s, name in enumerate(names)}
        design["Population"] = pop["v1"] + pop["v2"] + pop["v3"]
        for v in design.values():  # fresh sums: scaled in place, not copied
            v *= scale
        result.stratum_design_var = design
    return result


def convergence_trace(result: McResult) -> dict[str, np.ndarray]:
    """Cumulative mean of the design variance (stages I+II+III) versus b.

    Requires the run to have been made with tracing enabled.
    """
    if result.stratum_design_var is None:
        raise ValueError("convergence trace requires a run with trace=True")
    out = {}
    for name, series in result.stratum_design_var.items():
        out[name] = np.cumsum(series) / np.arange(1, len(series) + 1)
    return out


def write_trace_csv(result: McResult, path, manifest: dict | None = None):
    """Emit the per-stratum convergence series as CSV."""
    trace = convergence_trace(result)
    reporting.write_csv(path, ["stratum", "b", "cum_var_design"],
                        ([name, b, repr(float(v))] for name, series in trace.items()
                         for b, v in enumerate(series, start=1)), manifest)


def bias_corrected_inventory(
    frame: SurveyFrame,
    config,
    measurement: MeasurementModel = DEFAULT_MEASUREMENT,
):
    """Single design pass on bias-corrected rates (no Monte Carlo).

    Every measured rate is multiplied by the model's bias factor and the
    detection probabilities are recomputed from the corrected rates; the
    measurement variance slot is zero by construction.  ``config`` is one
    `EstimatorConfig` and gives one report, or a sequence of them sharing
    their POD parameters and gives the list of their reports: the rates are
    corrected and their PODs computed once, and every configuration is
    evaluated in one pass (`estimators.total_inventory`).
    """
    from .estimators import total_inventory

    rates = bias_correct(frame.measured_rates, measurement)
    reports = total_inventory(frame, config, rates=rates)
    for report in reports if isinstance(reports, list) else [reports]:
        report.config["measurement_mode"] = "bias-correct"
        report.config["measurement"] = _echo(measurement)
    return reports


def _echo(model: MeasurementModel) -> dict:
    """``model.as_dict()``, an infinite ``beta`` written "inf" as flags spell it: JSON has none."""
    return {key: "inf" if value == np.inf else value for key, value in model.as_dict().items()}
