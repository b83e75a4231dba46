"""Seed-driven workload inputs: survey CSVs, micro populations, plan scenarios.

Every generator takes a numpy Generator built from the workload seed, so one
seed always yields the same inputs.  The program only ever sees the results:
CSV files for the CLI, and population or scenario objects for the oracle and
the planner.  All generated inputs are valid; no operation on them may fail.
"""

from __future__ import annotations

import csv
import importlib.util
import math
from pathlib import Path

import numpy as np

from benchenv import ROOT, require
from msinv.frame import StratumDef
from msinv.oracle import MicroComponent, MicroPass, MicroPopulation
from msinv.planner import PlanProfile, PlanScenario, PlanStratum

PASSES_HEADER = ["component_id", "facility_id", "site_id", "stratum", "day", "pass",
                 "detected", "rate_kg_h", "wind_m_s", "altitude_m"]
FRAME_HEADER = ["component_id", "facility_id", "site_id", "stratum", "is_well",
                "wells_at_site"]
STRATA_HEADER = ["stratum", "n_sampled", "n_population"]


def make_subset_module():
    """tools/make_subset.py as a module: its strata table and pass generators."""
    path = require(ROOT / "tools" / "make_subset.py")
    spec = importlib.util.spec_from_file_location("make_subset", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def survey_scales(n: int) -> list[float]:
    """n >= 2 sizes spread geometrically over 0.5x-4x the packaged subset."""
    return [0.5 * 8.0 ** (k / (n - 1)) for k in range(n)]


def survey_tables(rng: np.random.Generator, scale: float, ms=None):
    """(strata, frame, passes) rows of one survey shaped like the packaged subset.

    Facility, population and well-site counts are the subset's (from
    tools/make_subset.py) times ``scale``; the pass-level draws are the
    subset's own.  That keeps the subset's structure at every size: shared
    sites, a stratum with no detections, well sites, 1-5 passes per
    component-day and, forced on the first facility, a single-day component.
    """
    ms = ms or make_subset_module()
    strata_rows, frame_rows, pass_rows = [], [], []
    first = True
    for name, n_fac, n_pop, mu, sd, comp_range, suppress in ms.STRATA:
        n = max(1, round(n_fac * scale))
        strata_rows.append((name, n, max(n, round(n_pop * scale))))
        slug = ms._slug(name)
        for fi in range(1, n + 1):
            fac = f"{slug}-F{fi:02d}"
            site = f"{slug}-S{(fi + 1) // 2:02d}" if rng.random() < 0.35 else f"{fac}-SITE"
            days = ms.survey_days(rng)
            if first:
                days, first = days[:1], False
            for ci in range(1, int(rng.integers(comp_range[0], comp_range[1] + 1)) + 1):
                cid = f"{fac}-C{ci}"
                frame_rows.append((cid, fac, site, name, 0, 0))
                level = float(rng.lognormal(mu, sd))
                for row in ms.component_passes(rng, level, days, suppress):
                    pass_rows.append((cid, fac, site, name, *row))
    total_wells = 0
    for si in range(1, max(1, round(ms.WELL_SITES * scale)) + 1):
        site = f"WSITE-{si:02d}"
        wells_here = int(rng.integers(2, 6))
        total_wells += wells_here
        days = ms.survey_days(rng)
        for ci in range(1, int(rng.integers(1, 3)) + 1):
            wid = f"{site}-W{ci}"
            frame_rows.append((wid, wid, site, "Wells", 1, wells_here))
            level = float(rng.lognormal(ms.WELL_RATE_MU, ms.WELL_RATE_SD))
            for row in ms.component_passes(rng, level, days, False):
                pass_rows.append((wid, wid, site, "Wells", *row))
    strata_rows.append(("Wells", total_wells,
                        max(total_wells, round(ms.WELLS_POPULATION * scale))))
    pass_rows.sort(key=lambda r: (r[0], r[4], r[5]))
    frame_rows.sort(key=lambda r: r[0])
    return strata_rows, frame_rows, pass_rows


def write_survey(directory: Path, tables) -> dict[str, str]:
    """Write one survey's three CSVs; returns the CLI's --passes/--frame/--strata."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, header, rows in zip(("strata", "frame", "passes"),
                                 (STRATA_HEADER, FRAME_HEADER, PASSES_HEADER), tables):
        path = directory / f"{key}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        paths[key] = str(path)
    return paths


# Micro populations: one stratum, 2 of F facilities sampled, one component per
# facility, 3 days of which 2 are sampled.  A shape fixes the passes per
# facility-day; the seed permutes facilities and days and draws every rate and
# detection probability.  Permuting rows, and days within a row, keeps the
# number of enumerated outcomes, so each shape has a fixed cost.  Both shapes
# stay under the oracle's default MAX_OUTCOMES bound.
MICRO_SHAPES = (
    ((2, 2, 1), (2, 2, 1), (2, 1, 1)),             # 3 facilities, 2304 outcomes
    ((2, 2, 1), (2, 1, 1), (1, 1, 1), (1, 1, 1)),  # 4 facilities, 2032 outcomes
)
WARMUP_SHAPE = ((1, 1, 1), (1, 1, 1), (1, 1, 1))  # 432 outcomes
MICRO_DAYS_SAMPLED = 2
PHI_RANGE = (0.3, 0.95)


def micro_population(rng: np.random.Generator, shape) -> MicroPopulation:
    rows = [shape[i] for i in rng.permutation(len(shape))]
    facilities, components = {}, []
    for f, row in enumerate(rows, start=1):
        fac = f"F{f}"
        facilities[fac] = "S"
        level = float(rng.lognormal(math.log(10.0), 0.6))
        days = []
        for q in (row[i] for i in rng.permutation(len(row))):
            day_level = level * float(rng.lognormal(0.0, 0.4))
            days.append(tuple(
                MicroPass(rate=day_level * float(rng.lognormal(0.0, 0.2)),
                          phi=float(rng.uniform(*PHI_RANGE)))
                for _ in range(q)
            ))
        components.append(MicroComponent(f"c{f}", fac, tuple(days)))
    return MicroPopulation(
        strata={"S": StratumDef("S", 2, len(rows))},
        facilities=facilities,
        components=tuple(components),
        days_sampled=MICRO_DAYS_SAMPLED,
    )


def plan_scenario(rng: np.random.Generator) -> PlanScenario:
    """A 2-4 stratum design with emission profiles and per-pass PODs."""
    strata = []
    for s in range(int(rng.integers(2, 5))):
        big_n = int(rng.integers(10, 60))  # above the at most 9 profiled facilities
        profiles = tuple(
            PlanProfile(ybar=float(rng.lognormal(math.log(40.0), 0.7)),
                        day_sd=float(rng.uniform(0.0, 20.0)),
                        count=int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(1, 4)))
        )
        strata.append(PlanStratum(
            name=f"P{s}",
            n_sampled=int(rng.integers(2, big_n + 1)),
            n_population=big_n,
            profiles=profiles,
            pass_phis=tuple(float(rng.uniform(*PHI_RANGE))
                            for _ in range(int(rng.integers(1, 4)))),
        ))
    return PlanScenario(strata=tuple(strata), horizon=365,
                        days_sampled=int(rng.integers(2, 5)))
