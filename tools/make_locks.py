#!/usr/bin/env python3
"""Compute and freeze the packaged-subset regression locks.

Runs the eight analysis variants (estimator x day-horizon treatment x
measurement treatment, Monte Carlo at its production iteration count with a
fixed seed) plus the diagnostics over the bundled subset, and writes the
results to tests/data/acceptance_locks.json.  The acceptance suite replays
the same runs and requires byte-level agreement up to floating-point noise.

Run this only to re-baseline after an intentional change, and inspect the
diff it produces.  ``--check`` recomputes the same values and compares them
with the file at rel 1e-9 instead of writing it: it prints every mismatch and
exits 1 if there is any.

    python3 tools/make_locks.py [PATH] [--check]
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not

from msinv.datasets import load_packaged_subset  # noqa: E402
from msinv.estimators import EstimatorConfig  # noqa: E402
from msinv.frame import validate  # noqa: E402
from msinv.measurement import McConfig, bias_corrected_inventory, run_mc  # noqa: E402
from msinv.planner import gamma_table  # noqa: E402

MC_ITERATIONS = 8000
MC_SEED = 1
CHECK_REL = 1e-9


def report_record(report):
    return {
        "total": report.total,
        "ci_lower": report.ci_lower,
        "ci_upper": report.ci_upper,
        "var_stage1": report.var_stage1,
        "var_stage2": report.var_stage2,
        "var_stage3": report.var_stage3,
        "var_measurement": report.var_measurement,
        "var_total": report.var_total,
        "var_design": report.var_design,
        "phi_floor_hits": report.diagnostics.get("phi_floor_hits", 0),
    }


def compute_locks() -> dict:
    frame = load_packaged_subset()
    locks = {"mc_iterations": MC_ITERATIONS, "mc_seed": MC_SEED, "variants": {}}
    for est in ("ipw", "hajek"):
        for stage2 in ("observed", "year"):
            cfg = EstimatorConfig(estimator=est, stage2=stage2)
            t0 = time.perf_counter()
            bias = bias_corrected_inventory(frame, cfg)
            mc = run_mc(frame, McConfig(estimator=cfg, iterations=MC_ITERATIONS,
                                        seed=MC_SEED)).report
            locks["variants"][f"{est}_{stage2}_bias-correct"] = report_record(bias)
            locks["variants"][f"{est}_{stage2}_mc"] = report_record(mc)
            print(f"{est}/{stage2}: bias-correct {bias.total:.4f}, "
                  f"mc {mc.total:.4f} [{time.perf_counter() - t0:.1f}s]")
    diag = validate(frame)
    gamma = gamma_table(frame)
    locks["diagnostics"] = {
        "n_components": len(frame.registry),
        "n_single_day": len(diag.single_day_components),
        "zero_detection_strata": list(diag.zero_detection_strata),
        "gamma_quartiles": [round(q, 2) for q in gamma.quartiles],
    }
    return locks


def mismatches(got, want, path="") -> list[str]:
    """Differences between two lock documents; numbers compare at `CHECK_REL`."""
    if isinstance(want, dict) and isinstance(got, dict):
        out = [f"{path}{k}: missing" for k in want if k not in got]
        out += [f"{path}{k}: not in the locks" for k in got if k not in want]
        for k in want:
            if k in got:
                out += mismatches(got[k], want[k], f"{path}{k}.")
        return out
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += mismatches(g, w, f"{path}{i}.")
        return out
    numbers = (int, float)
    if isinstance(want, numbers) and isinstance(got, numbers):
        if math.isclose(got, want, rel_tol=CHECK_REL):
            return []
    elif got == want:
        return []
    return [f"{path.rstrip('.')}: got {got!r}, locked {want!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default=ROOT / "tests/data/acceptance_locks.json")
    parser.add_argument("--check", action="store_true",
                        help="compare with the file at rel 1e-9 instead of writing it")
    args = parser.parse_args(argv)
    out_path = Path(args.path)
    locks = compute_locks()
    if args.check:
        bad = mismatches(locks, json.loads(out_path.read_text()))
        for line in bad:
            print(f"MISMATCH {line}")
        print(f"{len(bad)} mismatch(es) against {out_path}")
        return 1 if bad else 0
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(locks, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
