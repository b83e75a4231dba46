#!/usr/bin/env python3
"""Record reference.json: default-seed outputs that every later run must reproduce.

The mc-subset and sim-study workloads rerun their request at the default seed
after measuring and compare the numbers with this file at rel 1e-9.  Record
it once, on the commit that defines the reference:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys

import benchenv


def main() -> int:
    benchenv.pin_environment()
    benchenv.use_source_tree()
    import workloads as wl

    seed = wl.DEFAULT_SEED
    workdir = benchenv.WORK / "record-reference"
    mc = wl.McSubset(seed, workdir, "mc-subset", threads=1)
    mc_dir = mc.fresh_dir("mc")
    wl.run_cli(mc.argv(seed, 1, mc_dir))
    outputs = wl.read_artifacts(mc_dir)
    wl.check_subset_reports(outputs)

    sim = wl.SimStudy(seed, workdir)
    sim_dir = sim.fresh_dir("sim")
    wl.run_cli(sim.argv(seed, sim.REPS, sim_dir))
    rows = wl.read_simstudy(sim_dir / "simstudy.csv")
    wl.check_simstudy(rows)

    reference = {
        "seed": seed,
        "mc_iterations": mc.ITERATIONS,
        "sim_reps": sim.REPS,
        "src_sha256": benchenv.source_digest(),
        "mc": wl.mc_record(outputs),
        "sim": wl.sim_record(rows),
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
