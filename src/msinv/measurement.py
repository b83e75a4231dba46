"""Measurement-error handling: bias correction and the Monte Carlo wrapper.

Measured rates are biased and noisy.  The cheap treatment multiplies every
measurement by the bias factor and runs a single design pass.  The full
treatment redraws the true rates from the conditional log-logistic
distribution B times, recomputes detection probabilities from each draw, runs
the design estimator per draw, and reports the iteration mean together with a
four-way variance split: the between-iteration variance is the measurement
contribution, and each stage contribution is the mean of its per-iteration
estimates.

The frame is compiled once per run into index arrays (`batch.compile_layout`)
and the iterations are evaluated in fixed-size chunks by one batched kernel
(`batch.evaluate`), which the scalar estimator in `estimators` specifies.
Draws are generated from a counter-based generator keyed by (seed, iteration),
so results are bit-identical for a given seed no matter how many worker
threads execute the chunks or in which order they finish.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import reporting
from .batch import POPULATION_KEYS, STRATUM_KEYS, compile_layout, evaluate
from .estimators import EstimatorConfig
# not used here: perfbench/tracer.py patches these two names on this module
from .estimators import estimate_survey, prepare_components  # noqa: F401
from .frame import SurveyFrame
from .pod import DEFAULT_MEASUREMENT, PHI_FLOOR, MeasurementModel, bias_correct, pod, sample_true_rate

__all__ = [
    "McConfig",
    "McResult",
    "run_mc",
    "bias_corrected_inventory",
    "convergence_trace",
    "write_trace_csv",
    "resolve_threads",
]

THREADS_ENV = "MSINV_THREADS"

# Iterations evaluated together.  A chunk holds about 20 float64 values per
# detected pass and iteration (about 20 MiB for the packaged subset's 551
# detected passes), so memory is bounded whatever the iteration count; each
# worker thread holds one chunk.
MC_CHUNK = 256

# Most iterations one run may ask for.  A run keeps (8 + 7 * strata) float64
# values per iteration, and (5 + strata) more with the trace: about 435 MiB
# at this limit for the packaged subset's seven strata, 526 MiB traced.
MAX_MC_ITERATIONS = 1_000_000


def resolve_threads(requested: int | None) -> int:
    """Worker count: explicit argument, else MSINV_THREADS, else 1.

    Capped at the CPU count: more threads than CPUs only add contention.
    """
    if requested is None:
        env = os.environ.get(THREADS_ENV)
        requested = int(env) if env else 1
    return max(1, min(int(requested), os.cpu_count() or 1))


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

    def as_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "seed": self.seed,
            "measurement": asdict(self.measurement),
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
    """
    est_cfg = config.estimator
    layout = compile_layout(frame, est_cfg)
    b_total = config.iterations
    names = list(frame.strata)

    pop = {k: np.empty(b_total) for k in POPULATION_KEYS}
    st = {k: np.empty((len(names), b_total)) for k in STRATUM_KEYS}  # a row per stratum
    chunks = [range(start, min(start + MC_CHUNK, b_total))
              for start in range(0, b_total, MC_CHUNK)]
    floor_hits = np.zeros(len(chunks), dtype=int)

    def run_chunk(c: int):
        its = chunks[c]
        u = iteration_uniforms(config.seed, its, layout.n_passes)
        y = sample_true_rate(frame.measured_rates, u, config.measurement)
        raw_phi = pod(y, frame.altitudes, frame.wind_speeds, est_cfg.pod_params)
        floor_hits[c] = int(np.count_nonzero(raw_phi < PHI_FLOOR))
        est = evaluate(layout, y, np.maximum(raw_phi, PHI_FLOOR), its.start)
        sl = slice(its.start, its.stop)
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

    pop_parts = {k: float(pop[k].mean()) for k in POPULATION_KEYS if k != "total"}
    pop_parts["vm"] = float(pop["total"].var(ddof=1))
    rows = [dict({k: float(st[k][s].mean()) for k in STRATUM_KEYS},
                 name=name, vm=float(st["total"][s].var(ddof=1)))
            for s, name in enumerate(names)]
    echo = est_cfg.as_dict()
    echo["measurement_mode"] = "mc"
    echo["mc"] = config.as_dict()
    diagnostics = dict(layout.diagnostics, phi_floor_hits=int(floor_hits.sum()))
    report = reporting.assemble_report(
        float(pop["total"].mean()), pop_parts, rows, echo, est_cfg.ci_level, diagnostics
    )
    result = McResult(report=report, config=config)
    if config.trace:
        scale = reporting.VAR_KG_H_PER_KT_Y
        result.iteration_totals = pop["total"] * reporting.KG_H_PER_KT_Y
        result.iteration_parts = {k: pop[k] * scale for k in ("v1", "v2", "v3")}
        design = {name: st["v1"][s] + st["v2"][s] + st["v3"][s] for s, name in enumerate(names)}
        design["Population"] = pop["v1"] + pop["v2"] + pop["v3"]
        result.stratum_design_var = {name: v * scale for name, v in design.items()}
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
    import csv

    trace = convergence_trace(result)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(reporting.manifest_line(manifest))
        w = csv.writer(fh)
        w.writerow(["stratum", "b", "cum_var_design"])
        for name in trace:
            for b, v in enumerate(trace[name], start=1):
                w.writerow([name, b, repr(float(v))])


def bias_corrected_inventory(
    frame: SurveyFrame,
    config: EstimatorConfig,
    measurement: MeasurementModel = DEFAULT_MEASUREMENT,
) -> reporting.InventoryReport:
    """Single design pass on bias-corrected rates (no Monte Carlo).

    Every measured rate is multiplied by the model's bias factor and the
    detection probabilities are recomputed from the corrected rates; the
    measurement variance slot is zero by construction.
    """
    from .estimators import total_inventory

    rates = bias_correct(frame.measured_rates, measurement)
    report = total_inventory(frame, config, rates=np.atleast_1d(rates))
    report.config["measurement_mode"] = "bias-correct"
    report.config["measurement"] = asdict(measurement)
    return report
