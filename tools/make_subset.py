#!/usr/bin/env python3
"""Build the packaged demonstration survey subset.

The real provincial survey data is distributed under agreement and only a
subset of it is public; this script manufactures a survey of the same shape
and format (strata with sample/population sizes, multi-facility sites, one to
five passes per component-day with a median of two, detections driven by the
POD curve, a stratum with no detections at all, and well sites with shared
equipment) so the package can ship runnable data.  Regeneration is
deterministic: the output is a fixed function of SEED.

Also fits per-stratum lognormal parameters to the subset's bias-corrected
detections by moment matching and stores them as the simulation lab's default
configuration.

``--check`` rebuilds into a temporary directory instead and compares the
result with the files in outdir byte for byte: it names each file that
differs and exits 1 if any does, writing nothing in outdir.

Usage: python tools/make_subset.py [outdir] [--check]
(outdir defaults to the package's data directory, src/msinv/data)
"""

import argparse
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not

from msinv.frame import FRAME_HEADER, PASSES_HEADER, STRATA_HEADER  # noqa: E402
from msinv.pod import bias_correct, pod  # noqa: E402
from msinv.reporting import write_csv, write_json  # noqa: E402
from msinv.simlab import fit_lognormal_moments  # noqa: E402

PACKAGED = ROOT / "src" / "msinv" / "data"
SEED = 20211101

# name, facilities sampled, facility population, log-mean rate, log-sd,
# components-per-facility range, detections suppressed entirely?
STRATA = [
    ("CO SWB", 11, 14, math.log(38.0), 0.35, (1, 2), False),
    ("MS", 12, 21, math.log(34.0), 0.35, (1, 2), False),
    ("Gas MWB (effluent)", 12, 15, math.log(55.0), 0.55, (2, 4), False),
    ("GP Sweet", 10, 12, math.log(85.0), 0.80, (2, 5), False),
    ("Compressor station", 10, 56, math.log(95.0), 0.65, (2, 5), False),
    ("Water and Waste", 5, 8, math.log(4.0), 0.40, (1, 2), True),
]
WELL_SITES = 8
WELLS_POPULATION = 240
WELL_RATE_MU, WELL_RATE_SD = math.log(45.0), 0.45

PASS_COUNT_PMF = {1: 0.28, 2: 0.34, 3: 0.22, 4: 0.11, 5: 0.05}
DAY_COUNT_PMF = {1: 0.15, 2: 0.65, 3: 0.20}

# a pass can fail operationally (viewing geometry, partial plume coverage)
# even when the POD model says detection is near-certain; the analysis model
# does not know about this, matching how the real technology is treated
COVERAGE = 0.72

# reported quantifications below this rate are withheld (treated as misses),
# mirroring quantification-limit practice in published aerial survey data
QUANTIFICATION_LIMIT = 20.0


def pmf_table(pmf):
    """A {value: probability} pmf as (values, probabilities) arrays, values sorted."""
    keys = sorted(pmf)
    return np.array(keys), np.array([pmf[k] for k in keys])


PASS_COUNTS = pmf_table(PASS_COUNT_PMF)
DAY_COUNTS = pmf_table(DAY_COUNT_PMF)


def draw_pmf(rng, table):
    values, probabilities = table
    return int(rng.choice(values, p=probabilities))


def survey_days(rng):
    n = draw_pmf(rng, DAY_COUNTS)
    return sorted(int(d) for d in rng.choice(np.arange(1, 61), size=n, replace=False))


def pass_conditions(rng):
    # the draws are Python floats, and min/max clip them as np.clip would
    wind = min(max(rng.normal(4.5, 1.2), 1.0), 9.0)
    alt = min(max(rng.normal(150.0, 18.0), 115.0), 185.0)
    return wind, alt


def measured_from_true(rng, true_rate):
    # the instrument reads high on average (true ~ 0.918 x measured)
    return true_rate / 0.918 * float(rng.lognormal(-0.03, 0.25))


def component_passes(rng, comp_level, days, suppress):
    """Yield per-pass rows: (day, idx, detected, rate, wind, alt)."""
    rows = []
    for day in days:
        q = draw_pmf(rng, PASS_COUNTS)
        day_level = comp_level * float(rng.lognormal(0.0, 0.20))
        for idx in range(1, q + 1):
            true_rate = day_level * float(rng.lognormal(0.0, 0.15))
            wind, alt = pass_conditions(rng)
            phi = pod(true_rate, alt, wind)
            detected = (not suppress) and rng.random() < phi * COVERAGE
            rate = round(measured_from_true(rng, true_rate), 3) if detected else None
            if detected and rate >= QUANTIFICATION_LIMIT:
                rows.append((day, idx, 1, rate, round(wind, 2), round(alt, 1)))
            else:
                rows.append((day, idx, 0, "", "", ""))
    return rows


def build(rng):
    strata_rows = []
    frame_rows = []
    pass_rows = []

    for name, n_fac, n_pop, mu, sd, comp_range, suppress in STRATA:
        strata_rows.append((name, n_fac, n_pop))
        for fi in range(1, n_fac + 1):
            fac = f"{_slug(name)}-F{fi:02d}"
            # every other pair of facilities shares a site
            site = f"{_slug(name)}-S{(fi + 1) // 2:02d}" if rng.random() < 0.35 else f"{fac}-SITE"
            days = survey_days(rng)
            n_comp = int(rng.integers(comp_range[0], comp_range[1] + 1))
            for ci in range(1, n_comp + 1):
                cid = f"{fac}-C{ci}"
                frame_rows.append((cid, fac, site, name, 0, 0))
                level = float(rng.lognormal(mu, sd))
                for day, idx, det, rate, wind, alt in component_passes(rng, level, days, suppress):
                    pass_rows.append((cid, fac, site, name, day, idx, det, rate, wind, alt))

    # wells: standalone sites, several wells sharing detected equipment
    total_wells = 0
    for si in range(1, WELL_SITES + 1):
        site = f"WSITE-{si:02d}"
        wells_here = int(rng.integers(2, 6))
        total_wells += wells_here
        days = survey_days(rng)
        n_listed = int(rng.integers(1, 3))
        for ci in range(1, n_listed + 1):
            wid = f"{site}-W{ci}"
            frame_rows.append((wid, wid, site, "Wells", 1, wells_here))
            level = float(rng.lognormal(WELL_RATE_MU, WELL_RATE_SD))
            for day, idx, det, rate, wind, alt in component_passes(rng, level, days, False):
                pass_rows.append((wid, wid, site, "Wells", day, idx, det, rate, wind, alt))
    strata_rows.append(("Wells", total_wells, WELLS_POPULATION))

    # components whose every pass missed still belong in the frame; however a
    # zero-pass component is impossible by construction here
    return strata_rows, frame_rows, pass_rows


def _slug(name):
    return name.replace(" ", "").replace("(", "").replace(")", "")


def fit_defaults(pass_rows, frame_rows):
    """Per-stratum lognormal fits of bias-corrected detections, for simlab."""
    by_stratum = {}
    for row in pass_rows:
        if row[6] == 1:
            by_stratum.setdefault(row[3], []).append(row[7])
    fits = {}
    for name, rates in sorted(by_stratum.items()):
        arr = bias_correct(np.asarray(rates))
        if len(arr) < 2:
            continue
        mu, sigma = fit_lognormal_moments(float(arr.mean()), float(arr.var(ddof=1)))
        fits[name] = {"mu": mu, "sigma": sigma, "n_detections": int(len(arr))}
    return fits


def main(outdir, seed=SEED):
    rng = np.random.default_rng(seed)
    strata_rows, frame_rows, pass_rows = build(rng)
    pass_rows.sort(key=lambda r: (r[0], r[4], r[5]))
    frame_rows.sort(key=lambda r: r[0])

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "subset_strata.csv", STRATA_HEADER, strata_rows)
    write_csv(outdir / "subset_frame.csv", FRAME_HEADER, frame_rows)
    write_csv(outdir / "subset_passes.csv", PASSES_HEADER, pass_rows)
    write_json(outdir / "sim_defaults.json",
               {"seed": seed, "lognormal_fits": fit_defaults(pass_rows, frame_rows)})

    n_det = sum(1 for r in pass_rows if r[6] == 1)
    print(f"{len(frame_rows)} components, {len(pass_rows)} passes, {n_det} detections")


def check(outdir=PACKAGED) -> int:
    """Compare a rebuild with the files in outdir; 1 if any of them differs."""
    outdir = Path(outdir)
    with tempfile.TemporaryDirectory() as tmp:
        main(tmp)
        rebuilt = sorted(Path(tmp).iterdir())
        differ = [new.name for new in rebuilt
                  if not (outdir / new.name).is_file()
                  or (outdir / new.name).read_bytes() != new.read_bytes()]
    for name in differ:
        print(f"DIFFERS {name}")
    print(f"{len(differ)} of {len(rebuilt)} file(s) differ from a rebuild in {outdir}")
    return 1 if differ else 0


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", default=PACKAGED)
    parser.add_argument("--check", action="store_true",
                        help="compare a rebuild with the files in outdir instead of writing them")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.outdir)
    main(args.outdir)
    return 0


if __name__ == "__main__":
    sys.exit(cli())
