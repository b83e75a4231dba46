#!/usr/bin/env python3
"""msinv benchmark: run one workload for a fixed time and print one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mc-subset, mc-subset-2t, survey-batch, sim-study, oracle-plan (see
BENCHMARK.json for why each exists).  The client is closed-loop: one request
at a time, the next sent when the previous one returns, for ``--seconds``
seconds and at least one request.

With ``--trace 0`` the result's metrics are the end-to-end ones.  With
``--trace 1`` every request runs twice, once traced and once not (the order
alternates), and the metrics are the per-layer ones derived from the spans,
plus the tracing overhead measured from those pairs.  Either way the outputs
of every request are checked, and a failed check makes ``correct`` false.

The last line of standard output is the result; the line before it, starting
with ``#``, carries the run's details.  Spans, the environment record and the
result are also written under ``.perfbench-work/``.  Exit codes: 0 ok, 1 a
check or request failed (the result is still printed), 2 the checkout cannot
be benchmarked (no result).
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import shutil
import statistics
import sys
import time
import traceback

import benchenv

SETUP_REPEATS = 3

# On a shared host, CPU speed drifts by 10-30% over minutes, which swamps
# run-to-run comparisons of raw wall time.  A fixed probe that does not touch
# the program runs between requests; each request's time is scaled by
# PROBE_REF_S / (mean of the probes just before and after it).  Program
# changes move the request times and not the probe, so they show in full.
PROBE_REF_S = 0.005
PROBE_INTERVAL_S = 0.2
END_TO_END_UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
                    "peak_rss_mib": "MiB"}


def tail_percentile(samples, beyond: int = 10):
    """(value, percentile, samples beyond it) for the highest percentile that
    has at least ``beyond`` samples above it.

    With n samples sorted ascending that is the sample of rank n - beyond, the
    (100 * (n - beyond) / n)-th percentile.  Below 2 * beyond samples that
    percentile would lie under the median, so the maximum is returned
    instead, with percentile 100 and no samples beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * beyond:
        return xs[-1], 100.0, 0
    rank = n - beyond
    return xs[rank - 1], 100.0 * rank / n, n - rank


def speed_probe() -> float:
    """Wall time of a fixed pure-Python and numpy task (about 5 ms on a 2-vCPU Xeon VM)."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    a = np.arange(4096.0)
    for _ in range(40):
        a = np.sqrt(a + 1.0)
    return time.perf_counter() - t0


def speed_adjusted(requests, probes) -> list[float]:
    """Request durations scaled to the probe's reference speed.

    ``requests`` are (start, end) times and ``probes`` (time, duration) pairs
    in time order, with a probe before the first request and after the last.
    """
    times = [t for t, _ in probes]
    out = []
    for start, end in requests:
        before = bisect.bisect_right(times, start) - 1
        after = bisect.bisect_left(times, end)
        probe = (probes[before][1] + probes[after][1]) / 2.0
        out.append((end - start) * PROBE_REF_S / probe)
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Times requests, counts failures, collects check failures."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.units = 0
        self.requests: list[tuple[float, float]] = []  # untraced, succeeded
        self.probes: list[tuple[float, float]] = []

    def probe(self) -> None:
        self.probes.append((time.perf_counter(), speed_probe()))

    def _record_problem(self, what: str) -> None:
        self.problems.append(what)
        print(f"perfbench: {what}", file=sys.stderr)

    def one(self, i: int, traced: bool = False) -> float | None:
        """Run request i and check it; returns its wall time, None if it failed."""
        from workloads import CheckFailed

        self.attempted += 1
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_INTERVAL_S:
            self.probe()
        if traced:
            self.tracer.request = i
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            units = self.workload.request(i)
        except Exception:  # noqa: BLE001 - the loop must go on; the failure is counted
            self.failed += 1
            print(f"perfbench: request {i} failed\n{traceback.format_exc()}", file=sys.stderr)
            return None
        finally:
            t1 = time.perf_counter()
            if traced:
                self.tracer.remove()
        try:
            self.workload.check_request(i)
        except CheckFailed as exc:
            self._record_problem(f"request {i}: {exc}")
        except Exception:  # noqa: BLE001 - an unreadable output is a failed check
            self._record_problem(f"request {i}: checking raised\n{traceback.format_exc()}")
        if not traced:
            self.units += units
            self.requests.append((t0, t1))
        return t1 - t0

    def final_check(self) -> None:
        from workloads import CheckFailed

        try:
            self.workload.final_check()
        except CheckFailed as exc:
            self._record_problem(f"final check: {exc}")
        except Exception:  # noqa: BLE001 - a crash in a check run is a failed check
            self._record_problem(f"final check raised\n{traceback.format_exc()}")


def measure(runner: Runner, seconds: float, traced: bool):
    """Closed loop for ``seconds``; returns (traced, untraced) time pairs if traced."""
    pairs = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        if traced:
            # alternate which run of the pair goes first, so warm caches
            # favour neither side
            first_traced = i % 2 == 1
            a = runner.one(i, traced=first_traced)
            b = runner.one(i, traced=not first_traced)
            if a is not None and b is not None:
                pairs.append((a, b) if first_traced else (b, a))
        else:
            runner.one(i)
        i += 1
    runner.probe()
    return pairs


def end_to_end_metrics(runner: Runner, import_s: float, setup_times):
    """(metrics, details) of an untraced run; all times are speed-adjusted."""
    adjusted = speed_adjusted(runner.requests, runner.probes)
    raw = [end - start for start, end in runner.requests]
    if adjusted:
        work_per_s = runner.units / sum(adjusted)
        p50 = statistics.median(adjusted) * 1e3
        tail, pct, beyond = tail_percentile(adjusted)
        tail *= 1e3
    else:
        work_per_s = p50 = tail = pct = beyond = 0.0
    metrics = {
        "setup_s": import_s + statistics.median(speed_adjusted(setup_times, runner.probes)),
        "work_per_s": work_per_s,
        "op_ms_p50": p50,
        "op_ms_tail": tail,
        "peak_rss_mib": peak_rss_mib(),
    }
    details = {
        "tail": {"percentile": pct, "samples": len(adjusted), "beyond": beyond},
        "probe_ms_median": statistics.median(p for _, p in runner.probes) * 1e3,
        "raw_wall": {
            "work_per_s": runner.units / sum(raw) if raw else 0.0,
            "op_ms_p50": statistics.median(raw) * 1e3 if raw else 0.0,
            "op_ms_tail": tail_percentile(raw)[0] * 1e3 if raw else 0.0,
        },
    }
    return metrics, details


def traced_metrics(runner: Runner, pairs) -> dict[str, float]:
    """Per-layer metrics of a traced run, per traced request."""
    import tracer as tracing

    metrics = tracing.layer_metrics(runner.tracer.spans, runner.tracer.counts, len(pairs))
    plain = sum(u for _, u in pairs)
    metrics["trace.overhead_frac"] = sum(t for t, _ in pairs) / plain - 1.0 if plain else 0.0
    metrics["failed_frac"] = runner.failed / runner.attempted
    return metrics


def main(argv=None) -> int:
    benchenv.pin_environment()
    args = parse_args(argv)
    try:
        benchenv.use_source_tree()
        import numpy  # noqa: F401 - third-party imports stay out of setup_s
        import scipy.stats  # noqa: F401

        speed_probe()  # first call pays numpy's lazy initialisation
        probe_before = speed_probe()
        t0 = time.perf_counter()
        import msinv.cli  # noqa: F401
        import msinv.oracle  # noqa: F401
        import msinv.planner  # noqa: F401
        import msinv.simlab  # noqa: F401
        raw_import_s = time.perf_counter() - t0
        import_s = raw_import_s * PROBE_REF_S / ((probe_before + speed_probe()) / 2.0)

        import tracer as tracing
        import workloads
    except (benchenv.SetupError, ImportError) as exc:
        print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workdir = benchenv.WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.make(args.workload, seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        runner.probe()
        t0 = time.perf_counter()
        try:
            workload.prepare()
        except benchenv.SetupError as exc:
            print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
            return 2
        setup_times.append((t0, time.perf_counter()))
    runner.probe()
    pairs = measure(runner, args.seconds, traced=bool(args.trace))
    runner.final_check()

    ok = runner.requests
    details = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unit_of_work": workload.unit,
        "requests_ok": len(ok),
        "import_raw_s": raw_import_s,
        "setup_repeats_raw_s": [end - start for start, end in setup_times],
        "problems": runner.problems,
    }
    if args.trace:
        metrics = traced_metrics(runner, pairs)
        units = {k: _layer_unit(k) for k in metrics}
        details["spans"] = len(tracer.spans)
        tracing.write_spans(tracer.spans, workdir / "spans.csv")
    else:
        metrics, more = end_to_end_metrics(runner, import_s, setup_times)
        details.update(more)
        units = END_TO_END_UNITS
        details["aliases"] = workload.aliases(metrics)
    correct = not runner.problems and bool(ok)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = benchenv.environment_record()
    (workdir / "env.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
    (workdir / "result.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2, sort_keys=True) + "\n")
    details["env"] = {k: env[k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy",
                                          "commit", "src_sha256")}
    print("# " + json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct and runner.failed == 0 else 1


def _layer_unit(name: str) -> str:
    if name.endswith(("bytes_hashed", "bytes_written")):
        return "B/request"
    if name.endswith(("_s", ".s")):
        return "s/request"
    if name.endswith(("ratio", "_frac", "per_iter")):
        return "ratio"
    return "count/request"


if __name__ == "__main__":
    sys.exit(main())
