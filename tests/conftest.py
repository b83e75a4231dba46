"""Shared fixtures and helpers: micro populations, the packaged subset, random
frames, reading artifacts back, the measurement model's mean factor, the
CPUs the Monte Carlo may use, an outcome distribution's support and a
simulation study's scores."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from msinv import measurement
from msinv.datasets import load_packaged_subset
from frame_reference import Pass, frame_from_passes
from msinv.frame import ComponentRef, StratumDef, SurveyFrame
from msinv.oracle import MicroComponent, MicroPass, MicroPopulation
from msinv.pod import DEFAULT_MEASUREMENT, MeasurementModel, pod


@pytest.fixture(scope="session")
def micro_a() -> MicroPopulation:
    """One census facility, two days of which one is sampled, certain detection."""
    return MicroPopulation(
        strata={"S": StratumDef("S", 1, 1)},
        facilities={"F1": "S"},
        components=(
            MicroComponent("c1", "F1", ((MicroPass(4.0, 1.0),), (MicroPass(6.0, 1.0),))),
        ),
        days_sampled=1,
    )


@pytest.fixture(scope="session")
def micro_b() -> MicroPopulation:
    """Three facilities (two sampled), three days (two sampled), mixed PODs."""
    return MicroPopulation(
        strata={"S": StratumDef("S", 2, 3)},
        facilities={"F1": "S", "F2": "S", "F3": "S"},
        components=(
            MicroComponent("c1", "F1", (
                (MicroPass(4.0, 0.6), MicroPass(5.0, 0.8)),
                (MicroPass(6.0, 0.6), MicroPass(7.0, 0.8)),
                (MicroPass(8.0, 0.6), MicroPass(9.0, 0.8)),
            )),
            MicroComponent("c2", "F2", (
                (MicroPass(1.0, 0.6), MicroPass(2.0, 0.8)),
                (MicroPass(2.0, 0.6), MicroPass(3.0, 0.8)),
                (MicroPass(3.0, 0.6), MicroPass(4.0, 0.8)),
            )),
            MicroComponent("c3", "F3", (
                (MicroPass(10.0, 0.6), MicroPass(12.0, 0.8)),
                (MicroPass(8.0, 0.6), MicroPass(6.0, 0.8)),
                (MicroPass(5.0, 0.6), MicroPass(5.0, 0.8)),
            )),
        ),
        days_sampled=2,
    )


@pytest.fixture(scope="session")
def subset_frame() -> SurveyFrame:
    return load_packaged_subset()


def random_frame(seed: int) -> SurveyFrame:
    """A small random survey frame with POD-consistent detections.

    Rates are drawn high enough that detections carry sane weights; misses
    arise from the POD draw itself.  Used for the randomized identity checks.
    """
    rng = np.random.default_rng(seed)
    strata: dict[str, StratumDef] = {}
    comps: dict[str, ComponentRef] = {}
    passes: list[Pass] = []
    wells: dict[str, int] = {}
    for hi in range(int(rng.integers(1, 4))):
        name = f"S{hi}"
        n_fac = int(rng.integers(1, 5))
        for fi in range(n_fac):
            fac = f"{name}-F{fi}"
            site = f"{name}-SITE{fi // 2}"
            wells[site] = 0
            for ci in range(int(rng.integers(1, 3))):
                cid = f"{fac}-C{ci}"
                comps[cid] = ComponentRef(cid, fac, site, name, False)
                days = rng.choice(60, size=int(rng.integers(1, 4)), replace=False)
                for d in days:
                    for q in range(int(rng.integers(1, 4))):
                        rate = float(rng.uniform(15, 120))
                        wind = float(rng.uniform(1, 8))
                        alt = float(rng.uniform(450, 750))
                        if rng.random() < float(pod(rate, alt, wind)):
                            passes.append(Pass(cid, int(d), q, True, rate, wind, alt))
                        else:
                            passes.append(Pass(cid, int(d), q, False))
        strata[name] = StratumDef(name, n_fac, n_fac + int(rng.integers(0, 6)))
    return frame_from_passes(strata=strata, components=comps, passes=tuple(passes),
                       wells_per_site=wells)


def read_csv_rows(path) -> tuple[dict | None, list[dict]]:
    """Read a CSV artifact back: (manifest or None, rows as dicts)."""
    manifest = None
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if first.startswith("# manifest: "):
            manifest = json.loads(first[len("# manifest: "):])
        else:
            fh.seek(0)
        reader = csv.DictReader(fh)
        rows = list(reader)
    return manifest, rows


def measurement_mean_factor(model: MeasurementModel = DEFAULT_MEASUREMENT) -> float:
    """Expected ratio of true to measured rate, d * alpha * (pi/beta)/sin(pi/beta).

    With the default constants this evaluates to ~0.918, i.e. the model's mean
    is internally consistent with the simple bias-correction factor.
    """
    if math.isinf(model.beta):
        return model.d * model.alpha
    x = math.pi / model.beta
    return model.d * model.alpha * x / math.sin(x)


def run_on_cpus(monkeypatch, n: int) -> None:
    """Let the Monte Carlo see ``n`` CPUs this process may run on."""
    monkeypatch.setattr(measurement.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def support_totals(dist) -> dict[float, float]:
    """Total -> probability of an `OutcomeDistribution`, merging numerically
    identical outcomes; outcomes with probability zero (impossible detection
    patterns under phi = 1) are dropped."""
    out: dict[float, float] = {}
    for p, t in zip(dist.probabilities.tolist(), dist.totals.tolist()):
        if p != 0.0:
            key = round(t, 12)
            out[key] = out.get(key, 0.0) + p
    return out


def metric(result, scope: str, variant: str, name: str) -> float:
    """Score ``name`` of ``variant`` on ``scope`` from a `SimStudyResult`'s rows."""
    for row in result.rows:
        if row["stratum"] == scope and row["variant"] == variant:
            return row[name]
    raise KeyError((scope, variant, name))
