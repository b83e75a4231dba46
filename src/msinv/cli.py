"""Command-line interface: estimate, simulate, plan, diagnose.

Every run writes machine-readable artifacts carrying a manifest (command,
resolved flags, input digests, seed, version, timestamp) so results can be
traced back to their inputs and reproduced exactly.

Exit codes: 0 success, 2 input/schema failure (including a path that cannot
be read or written), 3 estimation failure, 4 configuration failure.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import functools
import hashlib
import os
import sys
import time
from pathlib import Path

from . import __version__
from .datasets import packaged_subset_paths
from .estimators import EstimationError, EstimatorConfig
from .frame import FrameError, load_survey, number, validate
from .measurement import (McConfig, bias_corrected_inventory, resolve_threads, run_mc_variants,
                          write_trace_csv)
# not called here: perfbench/tracer.py patches this name on this module
from .measurement import run_mc  # noqa: F401
from .planner import gamma_table, predict_variance, scenario_from_json
from .pod import MeasurementModel, PodParams
from .reporting import (write_csv, write_decomposition_table, write_json, write_report_json,
                        write_report_table)
from .simlab import config_from_json, default_config, run_study

__all__ = ["main"]

EXIT_SCHEMA = 2
EXIT_ESTIMATION = 3
EXIT_CONFIG = 4

TIMESTAMP_ENV = "MSINV_TIMESTAMP"

# glibc's mallopt(3) parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# Each Monte Carlo chunk frees its temporaries when it ends.  By default glibc
# gives the freed top of the heap back to the OS, and serves large arrays by
# mmap, so the next chunk has the kernel zero-fill the same pages again, in
# about 30% of an 8000-iteration run's wall time.  Pinning the mmap threshold
# at 32 MiB, the ceiling glibc's own dynamic threshold grows to, serves the
# chunk arrays from the heap; a trim threshold of 64 MiB keeps a chunk's freed
# working set (about 20 MiB for four variants on the packaged subset) in the
# heap until the next chunk reuses it.
MMAP_THRESHOLD = 32 * 2**20
TRIM_THRESHOLD = 64 * 2**20


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; config failures are exit 4 here
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, flags: dict, inputs: dict, seed=None) -> dict:
    """The run manifest embedded verbatim in every output artifact."""
    stamp = os.environ.get(TIMESTAMP_ENV)
    return {
        "command": command,
        "flags": flags,
        "inputs": {name: {"path": str(p), "sha256": _digest(p)} for name, p in inputs.items()},
        "seed": seed,
        "version": __version__,
        "timestamp": stamp if stamp is not None else time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


# ---------------------------------------------------------------------------
# Model-constant overrides: config file section [pod] / [measurement] + flags
# ---------------------------------------------------------------------------


def _add_model_flags(parser):
    for f in dataclasses.fields(PodParams):
        parser.add_argument(f"--pod-{f.name.replace('_', '-')}", type=float, default=None)
    for f in dataclasses.fields(MeasurementModel):
        parser.add_argument(f"--meas-{f.name}", type=float, default=None)
    parser.add_argument("--model-config", default=None, metavar="INI",
                        help="INI file with [pod] and [measurement] sections")


def _resolve_models(args) -> tuple[PodParams, MeasurementModel]:
    pod_kw: dict = {}
    meas_kw: dict = {}
    if args.model_config:
        ini = configparser.ConfigParser()
        try:
            read = ini.read(args.model_config)
            sections = {name: ini.items(name) for name in ini.sections()}
        except configparser.Error as exc:
            reason = " ".join(str(exc).split())   # configparser's messages span lines
            raise ConfigError(f"bad model config {args.model_config!r}: {reason}") from None
        if not read:
            raise ConfigError(f"cannot read model config {args.model_config!r}")
        unknown = sorted(set(sections) - {"pod", "measurement"})
        if unknown:
            raise ConfigError(f"unknown model config section(s) {unknown}")
        for section, kw in (("pod", pod_kw), ("measurement", meas_kw)):
            # the dataclasses decide which values are in range (beta may be inf)
            kw.update({k: number(v, f"[{section}] {k}", finite=False)
                       for k, v in sections.get(section, ())})
    for f in dataclasses.fields(PodParams):
        v = getattr(args, f"pod_{f.name}")
        if v is not None:
            pod_kw[f.name] = v
    for f in dataclasses.fields(MeasurementModel):
        v = getattr(args, f"meas_{f.name}")
        if v is not None:
            meas_kw[f.name] = v
    try:
        return PodParams(**pod_kw), MeasurementModel(**meas_kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model constants: {exc}") from None


def _input_args(parser):
    parser.add_argument("--passes", help="pass log CSV")
    parser.add_argument("--frame", help="component registry CSV")
    parser.add_argument("--strata", help="strata table CSV")
    parser.add_argument("--packaged", action="store_true",
                        help="use the bundled demonstration subset")


def _resolve_inputs(args) -> dict:
    if args.packaged:
        p, f, s = packaged_subset_paths()
        return {"passes": str(p), "frame": str(f), "strata": str(s)}
    if not (args.passes and args.frame and args.strata):
        raise ConfigError("either --packaged or all of --passes/--frame/--strata are required")
    return {"passes": args.passes, "frame": args.frame, "strata": args.strata}


def _thread_count(text: str) -> int:
    """The --threads value: a whole number of at least 1."""
    try:
        threads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}") from None
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {threads}")
    return threads


def _parse_stage2(text: str) -> tuple[str, int]:
    if text == "observed":
        return "observed", 365
    name, colon, days = text.partition(":")
    if name == "year":
        horizon = 365
        if colon:
            try:
                horizon = int(days)
            except ValueError:
                raise ConfigError(f"bad --stage2 horizon in {text!r}") from None
        if horizon < 1:
            raise ConfigError("--stage2 horizon must be positive")
        return "year", horizon
    raise ConfigError(f"--stage2 must be 'observed' or 'year[:D]', got {text!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    inputs = _resolve_inputs(args)
    pod_params, measurement = _resolve_models(args)
    stage2, horizon = _parse_stage2(args.stage2)
    if args.all_variants:
        variants = [(e, s2, m) for e in ("ipw", "hajek")
                    for s2 in ("observed", "year") for m in ("bias-correct", "mc")]
    else:
        variants = [(args.estimator, stage2, args.measurement)]
    # the estimator and Monte Carlo settings are checked before anything is read or written
    try:
        configs = [EstimatorConfig(estimator=est, stage2=s2, horizon=horizon,
                                   decomposition=args.decomposition, ci_level=args.ci_level,
                                   pod_params=pod_params)
                   for est, s2, _ in variants]
    except EstimationError as exc:
        raise ConfigError(str(exc)) from None
    mc_base = None
    if any(mm == "mc" for _, _, mm in variants):
        mc_base = McConfig(iterations=args.mc_iters, seed=args.seed, measurement=measurement,
                           trace=args.trace, threads=resolve_threads(args.threads))
    frame = load_survey(inputs["passes"], inputs["frame"], inputs["strata"])
    # every Monte Carlo variant's layout is built, and its horizon checked,
    # before anything is written; the variants then run in shared passes
    mc_results = iter(())
    if mc_base is not None:
        mc_results = run_mc_variants(frame, mc_base, [cfg for cfg, (_, _, mm)
                                                      in zip(configs, variants) if mm == "mc"])
    # the bias-correct variants run in one design pass, also before anything
    # is written, so that a failing one leaves no output
    bc_configs = [cfg for cfg, (_, _, mm) in zip(configs, variants) if mm == "bias-correct"]
    bc_reports = iter(bias_corrected_inventory(frame, bc_configs, measurement))
    # then the first Monte Carlo pass, so that a failing one leaves no output
    # either; it is the only pass unless the variants' iterations exceed
    # MAX_MC_ITERATIONS together, and a later pass runs between the writes
    mc_first = [next(mc_results)] if mc_base is not None else []
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    # the inputs are hashed once; each variant's manifest differs in its flags
    base_manifest = build_manifest("estimate", {}, inputs, seed=args.seed)

    for est, s2, mm in variants:
        flags = {
            "estimator": est, "stage2": s2, "horizon": horizon,
            "measurement": mm, "mc_iters": args.mc_iters, "ci_level": args.ci_level,
            "decomposition": args.decomposition, "trace": args.trace,
        }
        manifest = dict(base_manifest, flags=flags)
        result = (mc_first.pop() if mc_first else next(mc_results)) if mm == "mc" else None
        report = result.report if result else next(bc_reports)
        stem = f"report_{est}_{s2}_{mm.replace('-', '')}" if args.all_variants else "report"
        write_report_json(report, outdir / f"{stem}.json", manifest)
        write_report_table(report, outdir / f"{stem}_table.csv", manifest)
        write_decomposition_table(report, outdir / f"{stem}_decomposition.csv", manifest)
        if result and args.trace:
            write_trace_csv(result, outdir / f"{stem}_trace.csv", manifest)
        del result  # written: the next pass starts without it
        print(f"{est}/{s2}/{mm}: total {report.total:.3f} kt/y "
              f"[{report.ci_lower:.3f}, {report.ci_upper:.3f}] -> {outdir / (stem + '.json')}")
    return 0


def cmd_simulate(args) -> int:
    config = config_from_json(args.config) if args.config else default_config()
    overrides = {}
    if args.reps is not None:
        overrides["replications"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    inputs = {"config": args.config} if args.config else {}
    manifest = build_manifest("simulate", {"reps": config.replications}, inputs,
                              seed=config.seed)
    result = run_study(config)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    result.write_csv(outdir / "simstudy.csv", manifest)
    write_json(outdir / "simstudy_config.json",
               {"config": config.as_dict(), "true_totals": result.true_totals}, manifest)
    print(f"{config.replications} replications -> {outdir / 'simstudy.csv'}")
    return 0


def cmd_plan(args) -> int:
    scenario = scenario_from_json(args.scenario)
    manifest = build_manifest("plan", {"estimator": args.estimator},
                              {"scenario": args.scenario})
    overall, per_stratum = predict_variance(scenario, args.estimator)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    header = ["stratum", "var_stage1", "var_stage2", "var_stage3", "var_total"]
    rows = ([name, *map(repr, (sv.stage1, sv.stage2, sv.stage3, sv.total))]
            for name, sv in [*per_stratum.items(), ("TOTAL", overall)])
    if _is_stdout(out):
        # "/dev/stdout" and its like open the file anew, from its first byte,
        # over what stdout wrote there.  A copy of stdout's descriptor shares
        # its offset, and writes UTF-8 whatever stdout's own encoding.
        sys.stdout.flush()
        with open(os.dup(sys.stdout.fileno()), "w", newline="", encoding="utf-8") as fh:
            write_csv(fh, header, rows, manifest)
    else:
        write_csv(out, header, rows, manifest)
    print(f"predicted variance -> {out}")
    return 0


def _is_stdout(path) -> bool:
    """Whether ``path`` names the file that stdout writes to."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):     # no such file, or a stdout without a descriptor
        return False


def cmd_diagnose(args) -> int:
    inputs = _resolve_inputs(args)
    pod_params, measurement = _resolve_models(args)
    frame = load_survey(inputs["passes"], inputs["frame"], inputs["strata"])
    manifest = build_manifest("diagnose", {}, inputs)
    diag = validate(frame)
    gt = gamma_table(frame, pod_params, measurement)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    doc = {
        "diagnostics": diag.as_dict(),
        "n_components": len(frame.registry),
        "n_passes": len(frame.passes),
        "n_detections": int(frame.passes.detected.sum()),
        "gamma_quartiles": [round(q, 2) for q in gt.quartiles],
    }
    write_json(outdir / "diagnostics.json", doc, manifest)
    write_csv(outdir / "gamma.csv", ["component_id", "gamma"],
              ([cid, repr(g)] for cid, g in sorted(gt.gammas.items())), manifest)
    print(f"{len(diag.single_day_components)} single-day components, "
          f"{len(diag.zero_detection_strata)} zero-detection strata, "
          f"gamma quartiles {doc['gamma_quartiles']} -> {outdir / 'diagnostics.json'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="msinv",
                     description="Design-based multi-stage methane inventory estimation")
    parser.add_argument("--version", action="version", version=f"msinv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate an inventory from survey CSVs")
    _input_args(est)
    est.add_argument("--estimator", choices=["ipw", "hajek"], default="ipw")
    est.add_argument("--stage2", default="year:365",
                     help="'observed' (D = days surveyed) or 'year[:D]' (default year:365)")
    est.add_argument("--measurement", choices=["bias-correct", "mc"], default="bias-correct")
    est.add_argument("--mc-iters", type=int, default=8000)
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--ci-level", type=float, default=0.95)
    est.add_argument("--decomposition", choices=["corrected", "printed"], default="corrected")
    est.add_argument("--trace", action="store_true", help="emit the MC convergence trace")
    est.add_argument("--threads", type=_thread_count, default=None,
                     help="MC worker threads, each taking chunks of iterations "
                          "(default: MSINV_THREADS or 1; capped at the CPUs "
                          "the process may run on)")
    est.add_argument("--all-variants", action="store_true",
                     help="run all eight estimator/stage2/measurement combinations")
    est.add_argument("--out-dir", default="msinv-out")
    _add_model_flags(est)
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="run the estimator performance study")
    sim.add_argument("--config", default=None, help="JSON study configuration")
    sim.add_argument("--reps", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--out-dir", default="msinv-out")
    sim.set_defaults(func=cmd_simulate)

    plan = sub.add_parser("plan", help="predict stage variances for a design scenario")
    plan.add_argument("--scenario", required=True, help="JSON scenario file")
    plan.add_argument("--estimator", choices=["ipw", "hajek"], default="ipw")
    plan.add_argument("--out", default="msinv-plan.csv")
    plan.set_defaults(func=cmd_plan)

    diag = sub.add_parser("diagnose", help="frame diagnostics and repeat-visit table")
    _input_args(diag)
    diag.add_argument("--out-dir", default="msinv-out")
    _add_model_flags(diag)
    diag.set_defaults(func=cmd_diagnose)
    return parser


@functools.cache
def _parser() -> _Parser:
    # built on the first call; parsing leaves the parser unchanged
    return build_parser()


@functools.cache
def _keep_freed_heap() -> None:
    """Set the malloc thresholds above, once per process, where libc is glibc.

    Elsewhere (another libc, no ``mallopt``) this does nothing.  The mmap
    threshold goes first: setting either one stops glibc adjusting the mmap
    threshold itself, so the trim threshold is set only once it is pinned.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc "):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):   # no confstr name, no libc, no symbol
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((M_MMAP_THRESHOLD, MMAP_THRESHOLD), (M_TRIM_THRESHOLD, TRIM_THRESHOLD)):
        if mallopt(param, value) == 0:   # glibc refused the value
            return


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"msinv: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FrameError as exc:
        print(f"msinv: input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"msinv: input error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except EstimationError as exc:
        print(f"msinv: estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except (ValueError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"msinv: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
