"""Simulation lab: synthetic populations and estimator performance studies.

Builds an artificial stratified population of facilities whose emitting
components carry day-specific mean rates (lognormal by stratum) and
pass-level rates around them, with a wind speed and plane altitude per pass,
then repeatedly samples it under the three-stage design (facility SRS, day
SRS, POD-driven detection) and scores four estimation variants
(inverse-probability weighting or Hajek, with or without day-sampling
uncertainty) on percent bias, variance, mean squared error and Wald interval
coverage.

Each replication draws its sample from its own generator.  The samples of a
block of `SIM_BLOCK` replications are laid out as one `frame.UnitIndex`, a
stratum per (replication, stratum) pair and a population group per
replication, and estimated by the batched kernel of `batch`, one call per
variant.  POD is evaluated only on the passes of sampled component-days.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .batch import build_layout, compile_index, evaluate
from .datasets import packaged_sim_defaults_path
from .estimators import EstimationError, EstimatorConfig
# not used here: perfbench/tracer.py patches this name on this module
from .estimators import estimate_survey  # noqa: F401
from .frame import UnitIndex, count, json_list, json_object, number, read_json, text
from .pod import DEFAULT_POD, PodParams, pod
from .reporting import manifest_line, wald_ci

__all__ = [
    "SimStratumSpec",
    "SimConfig",
    "SimPopulation",
    "SimStudyResult",
    "fit_lognormal_moments",
    "default_config",
    "config_from_json",
    "generate_population",
    "run_study",
    "VARIANTS",
]

MAX_PASSES = 5

# Bound on the (emitting component, day, pass) cells of a whole population,
# summed over its strata.  A population holds three float64 arrays of this
# shape (rate, wind, altitude), so memory grows with it: the four-strata
# default has about 1.1M cells and peaks near 141 MiB; one stratum at the
# bound peaks near 450 MiB.
MAX_POPULATION_CELLS = 10_000_000

# Most replications one study may ask for.  A study keeps 9 bytes per
# replication for each variant and scope: about 172 MiB at this limit for
# the four-strata default.
MAX_REPLICATIONS = 1_000_000

# Replications sampled and estimated together.  A block's index and layouts
# grow with it, so blocks keep a study's memory flat in its replications.
SIM_BLOCK = 64

# estimator x stage II treatment; "year" carries the day-sampling variance,
# "observed" treats the surveyed days as the whole population
VARIANTS = ("ipw_year", "ipw_observed", "hajek_year", "hajek_observed")


def fit_lognormal_moments(sample_mean: float, sample_var: float) -> tuple[float, float]:
    """Moment-matching lognormal fit: mean/variance -> (mu, sigma)."""
    if sample_mean <= 0 or sample_var <= 0:
        raise ValueError("sample mean and variance must be > 0")
    sigma_sq = math.log(1.0 + sample_var / (sample_mean * sample_mean))
    mu = math.log(sample_mean) - sigma_sq / 2.0
    return mu, math.sqrt(sigma_sq)


@dataclass(frozen=True)
class SimStratumSpec:
    """Population shape and emission distribution of one stratum."""

    name: str
    n_sampled: int
    n_population: int
    lognormal_mu: float
    lognormal_sigma: float
    sd_ratio: float = 0.2

    def __post_init__(self):
        if not 1 <= self.n_sampled <= self.n_population:
            raise ValueError(f"stratum {self.name!r}: need 1 <= n <= N")
        if self.lognormal_sigma <= 0:
            raise ValueError("lognormal_sigma must be > 0")
        if self.sd_ratio < 0:
            raise ValueError("sd_ratio must be >= 0")


@dataclass(frozen=True)
class SimConfig:
    strata: tuple[SimStratumSpec, ...]
    components_per_facility: tuple[int, int] = (1, 50)
    emit_prob: float = 0.055
    passes_pmf: dict = field(
        default_factory=lambda: {1: 0.25, 2: 0.40, 3: 0.20, 4: 0.10, 5: 0.05}
    )
    wind_mean: float = 4.0
    wind_sd: float = 1.5
    altitude_mean: float = 680.0
    altitude_sd: float = 60.0
    horizon: int = 365
    days_sampled: int = 2
    replications: int = 5000
    seed: int = 0
    ci_level: float = 0.95
    pod_params: PodParams = DEFAULT_POD

    def __post_init__(self):
        if not 0.0 <= self.emit_prob <= 1.0:
            raise ValueError("emit_prob must lie in [0, 1]")
        if abs(sum(self.passes_pmf.values()) - 1.0) > 1e-9:
            raise ValueError("passes_pmf must sum to 1")
        if any(not 1 <= k <= MAX_PASSES for k in self.passes_pmf):
            raise ValueError(f"pass counts must lie in 1..{MAX_PASSES}")
        if not 1 <= self.days_sampled <= self.horizon:
            raise ValueError("need 1 <= days_sampled <= horizon")
        lo, hi = self.components_per_facility
        if not 1 <= lo <= hi:
            raise ValueError("bad components_per_facility range")
        if not 0 < self.ci_level < 1:
            raise ValueError("ci_level must lie in (0, 1)")
        if self.replications < 2:
            # the between-replication variance has denominator R - 1
            raise ValueError("need at least 2 replications")
        if self.replications > MAX_REPLICATIONS:
            raise ValueError(f"at most {MAX_REPLICATIONS} replications, got {self.replications}")
        # every facility is drawn before any cell: count it as one
        facilities = sum(s.n_population for s in self.strata)
        if facilities > MAX_POPULATION_CELLS:
            raise ValueError(f"the population has {facilities} facilities, over the limit of "
                             f"{MAX_POPULATION_CELLS} population cells")

    def as_dict(self) -> dict:
        return {
            "strata": [
                {
                    "name": s.name, "n_sampled": s.n_sampled, "n_population": s.n_population,
                    "lognormal_mu": s.lognormal_mu, "lognormal_sigma": s.lognormal_sigma,
                    "sd_ratio": s.sd_ratio,
                }
                for s in self.strata
            ],
            "components_per_facility": list(self.components_per_facility),
            "emit_prob": self.emit_prob,
            "passes_pmf": {str(k): v for k, v in self.passes_pmf.items()},
            "wind_mean": self.wind_mean, "wind_sd": self.wind_sd,
            "altitude_mean": self.altitude_mean, "altitude_sd": self.altitude_sd,
            "horizon": self.horizon, "days_sampled": self.days_sampled,
            "replications": self.replications, "seed": self.seed,
            "ci_level": self.ci_level,
        }


_STRATUM_KEYS = ("name", "n_sampled", "n_population", "lognormal_mu", "lognormal_sigma")
_NUMBER_KEYS = ("emit_prob", "wind_mean", "wind_sd", "altitude_mean", "altitude_sd", "ci_level")
_COUNT_KEYS = ("horizon", "days_sampled", "replications", "seed")


def config_from_json(source) -> SimConfig:
    """Load a simulation configuration from JSON (path, file object or dict).

    Every key must be one `SimConfig.as_dict` writes; see the README section
    "Configuration files".
    """
    doc = json_object(read_json(source), "config", required=("strata",),
                      optional=_NUMBER_KEYS + _COUNT_KEYS
                      + ("components_per_facility", "passes_pmf"))
    strata = []
    for i, s in enumerate(json_list(doc["strata"], "strata")):
        where = f"strata[{i}]"
        s = json_object(s, where, required=_STRATUM_KEYS, optional=("sd_ratio",))
        strata.append(SimStratumSpec(
            name=text(s["name"], f"{where}.name"),
            n_sampled=count(s["n_sampled"], f"{where}.n_sampled"),
            n_population=count(s["n_population"], f"{where}.n_population"),
            lognormal_mu=number(s["lognormal_mu"], f"{where}.lognormal_mu"),
            lognormal_sigma=number(s["lognormal_sigma"], f"{where}.lognormal_sigma"),
            sd_ratio=number(s.get("sd_ratio", 0.2), f"{where}.sd_ratio"),
        ))
    kwargs = {}
    for key in _NUMBER_KEYS:
        if key in doc:
            kwargs[key] = number(doc[key], key)
    for key in _COUNT_KEYS:
        if key in doc:
            kwargs[key] = count(doc[key], key)
    if "components_per_facility" in doc:
        kwargs["components_per_facility"] = tuple(
            count(v, "components_per_facility")
            for v in json_list(doc["components_per_facility"], "components_per_facility"))
    if "passes_pmf" in doc:
        kwargs["passes_pmf"] = {count(k, "passes_pmf count"): number(v, "passes_pmf")
                                for k, v in json_object(doc["passes_pmf"], "passes_pmf").items()}
    return SimConfig(strata=tuple(strata), **kwargs)


def default_config(**overrides) -> SimConfig:
    """The four-strata study configuration.

    Population sizes follow the published stratum table; the lognormal
    parameters are the packaged subset's moment-matching fits (regenerated by
    tools/make_subset.py and stored beside the data).
    """
    fits = read_json(packaged_sim_defaults_path())["lognormal_fits"]
    table = [
        ("CO SWB", 48, 58),
        ("MS", 51, 91),
        ("GP Sweet", 21, 25),
        ("Compressor station", 45, 254),
    ]
    strata = tuple(
        SimStratumSpec(
            name=name, n_sampled=n, n_population=big_n,
            lognormal_mu=fits[name]["mu"], lognormal_sigma=fits[name]["sigma"],
        )
        for name, n, big_n in table
    )
    return SimConfig(strata=strata, **overrides)


# ---------------------------------------------------------------------------
# Population generation
# ---------------------------------------------------------------------------


@dataclass
class _StratumPopulation:
    spec: SimStratumSpec
    emit_facility: np.ndarray   # facility index of each emitting component, ascending
    q: np.ndarray               # (n_emit, D) passes per day
    rates: np.ndarray           # (n_emit, D, MAX_PASSES) true pass rates
    wind: np.ndarray            # (n_emit, D, MAX_PASSES) wind speeds, >= 0
    altitude: np.ndarray        # (n_emit, D, MAX_PASSES) plane altitudes, >= 1
    true_total: float


@dataclass
class SimPopulation:
    """A fixed synthetic population with exact per-stratum estimands."""

    config: SimConfig
    strata: dict[str, _StratumPopulation]

    @property
    def true_totals(self) -> dict[str, float]:
        out = {name: sp.true_total for name, sp in self.strata.items()}
        out["Population"] = sum(sp.true_total for sp in self.strata.values())
        return out


def _population_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) % 2**64) * 2**64))


def _replication_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) % 2**64) * 2**64 + 1 + rep))


def generate_population(config: SimConfig, seed: int | None = None) -> SimPopulation:
    """Draw the artificial population; deterministic given the seed.

    Emitting components get independent daily mean rates for every day of the
    horizon and pass-level rates around them (normal with SD proportional to
    the daily mean, resampled after truncation at zero).  Pass counts, wind
    and altitude are drawn up front, so detection probabilities are a fixed
    property of the population (`run_study` evaluates POD on the sampled
    passes only); the per-replication randomness is then only which units
    are sampled and which passes detect.

    Raises `ValueError` when the population exceeds `MAX_POPULATION_CELLS`
    or a rate or true total is not finite.
    """
    rng = _population_rng(config.seed if seed is None else seed)
    lo, hi = config.components_per_facility
    pass_keys = sorted(config.passes_pmf)
    pass_probs = [config.passes_pmf[k] for k in pass_keys]
    big_d = config.horizon
    strata: dict[str, _StratumPopulation] = {}
    cells = 0
    for spec in config.strata:
        comp_counts = rng.integers(lo, hi + 1, size=spec.n_population)
        emit_fac = np.repeat(np.arange(spec.n_population),
                             rng.binomial(comp_counts, config.emit_prob))
        n_emit = len(emit_fac)
        cells += n_emit * big_d * MAX_PASSES
        if cells > MAX_POPULATION_CELLS:
            raise ValueError(
                f"the population reaches {cells} (component, day, pass) cells at stratum "
                f"{spec.name!r}, over the limit of {MAX_POPULATION_CELLS}; lower horizon, "
                "n_population, components_per_facility or emit_prob")
        q = rng.choice(pass_keys, p=pass_probs, size=(n_emit, big_d)).astype(np.int8)
        daily = rng.lognormal(spec.lognormal_mu, spec.lognormal_sigma, size=(n_emit, big_d))
        rates = _truncated_normal(rng, daily[..., None], spec.sd_ratio * daily[..., None],
                                  (n_emit, big_d, MAX_PASSES))
        wind = np.clip(
            _truncated_normal(rng, config.wind_mean, config.wind_sd,
                              (n_emit, big_d, MAX_PASSES)), 0.0, None)
        alt = np.maximum(
            rng.normal(config.altitude_mean, config.altitude_sd,
                       size=(n_emit, big_d, MAX_PASSES)), 1.0)
        mask = np.arange(MAX_PASSES)[None, None, :] < q[..., None]
        if n_emit:
            day_means = (rates * mask).sum(axis=2) / q
            true_total = float((day_means.mean(axis=1)).sum())
        else:
            true_total = 0.0
        # a non-finite rate anywhere, unused passes included (inf * 0 is nan),
        # makes the true total non-finite
        if not math.isfinite(true_total):
            raise ValueError(
                f"stratum {spec.name!r}: the true total is {true_total}, not finite; "
                "lower lognormal_mu or lognormal_sigma")
        strata[spec.name] = _StratumPopulation(
            spec=spec, emit_facility=emit_fac, q=q, rates=rates, wind=wind, altitude=alt,
            true_total=true_total,
        )
    population = SimPopulation(config=config, strata=strata)
    if not math.isfinite(population.true_totals["Population"]):
        raise ValueError("the population's true total is not finite; lower lognormal_mu or "
                         "lognormal_sigma")
    return population


def _truncated_normal(rng, mean, sd, shape, attempts: int = 100):
    """Normal draws truncated at zero by resampling, clamping as a last resort.

    Each attempt draws a whole array of standard normals, as
    ``rng.normal(mean, sd, size=shape)`` would, but scales and writes only
    those that replace a value at or below zero.
    """
    out = rng.normal(mean, sd, size=shape)
    mean, sd = np.broadcast_to(mean, shape), np.broadcast_to(sd, shape)
    for _ in range(attempts):
        bad = out <= 0.0
        if not bad.any():
            break
        out[bad] = mean[bad] + sd[bad] * rng.standard_normal(size=shape)[bad]
    return np.maximum(out, 1e-9)


# ---------------------------------------------------------------------------
# Study execution
# ---------------------------------------------------------------------------


def _variant_config(variant: str, config: SimConfig) -> EstimatorConfig:
    estimator, mode = variant.split("_")
    return EstimatorConfig(
        estimator=estimator,
        stage2="year" if mode == "year" else "observed",
        horizon=config.horizon,
        ci_level=config.ci_level,
    )


@dataclass
class SimStudyResult:
    """Per-variant, per-scope performance metrics (scope = stratum or Population).

    ``totals`` and ``covered`` keep the raw per-replication series so paired
    Monte Carlo standard errors can be formed when comparing variants.
    """

    config: SimConfig
    true_totals: dict[str, float]
    rows: list[dict]
    totals: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    covered: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)

    def metric(self, scope: str, variant: str, name: str) -> float:
        for row in self.rows:
            if row["stratum"] == scope and row["variant"] == variant:
                return row[name]
        raise KeyError((scope, variant, name))

    def write_csv(self, path, manifest: dict | None = None):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(manifest_line(manifest))
            w = csv.writer(fh)
            w.writerow(["stratum", "variant", "bias_pct", "var", "mse", "coverage"])
            for row in self.rows:
                w.writerow([row["stratum"], row["variant"], repr(row["bias_pct"]),
                            repr(row["var"]), repr(row["mse"]), repr(row["coverage"])])


def run_study(config: SimConfig, population: SimPopulation | None = None) -> SimStudyResult:
    """Sample the population ``replications`` times and score all variants.

    Every replication shares one draw of the three-stage sample across the
    four variants (they differ only in estimation).  Interval coverage uses
    the Wald interval on the three-stage design variance.  Replications are
    estimated together, `SIM_BLOCK` at a time, by the batched kernel; a
    replication's result does not depend on its block.
    """
    pop = population if population is not None else generate_population(config)
    names = [s.name for s in config.strata]
    scopes = names + ["Population"]
    truths = pop.true_totals
    truth_row = np.array([truths[scope] for scope in scopes])
    variant_cfgs = {v: _variant_config(v, config) for v in VARIANTS}
    reps = config.replications
    totals = {v: {s: np.empty(reps) for s in scopes} for v in VARIANTS}
    covered = {v: {s: np.zeros(reps, dtype=bool) for s in scopes} for v in VARIANTS}

    for start in range(0, reps, SIM_BLOCK):
        block = range(start, min(start + SIM_BLOCK, reps))
        index, y, phi = _sample_block(pop, config, block)
        compiled = compile_index(index)
        for variant, cfg in variant_cfgs.items():
            try:
                est = evaluate(build_layout(compiled, cfg), y[None], phi[None])
            except EstimationError:
                raise EstimationError(
                    f"{variant}, replications {block.start}-{block.stop - 1}: an estimate "
                    "is not finite (a rate too large to estimate with?)") from None
            # a row per replication, a column per scope
            total = np.column_stack([est.strata["total"][0].reshape(len(block), -1),
                                     est.population["total"][0]])
            v3stage = np.column_stack([est.strata["v3stage"][0].reshape(len(block), -1),
                                       est.population["v3stage"][0]])
            lo, hi = wald_ci(total, np.maximum(0.0, v3stage), config.ci_level)
            hit = (lo <= truth_row) & (truth_row <= hi)
            for i, scope in enumerate(scopes):
                totals[variant][scope][block.start:block.stop] = total[:, i]
                covered[variant][scope][block.start:block.stop] = hit[:, i]

    rows = []
    for scope in scopes:
        truth = truths[scope]
        for variant in VARIANTS:
            t = totals[variant][scope]
            bias = float(t.mean() - truth)
            var = float(t.var(ddof=1))
            rows.append({
                "stratum": scope,
                "variant": variant,
                "bias_pct": 100.0 * bias / truth if truth else 0.0,
                "var": var,
                "mse": var + bias * bias,
                "coverage": float(covered[variant][scope].mean()),
            })
    return SimStudyResult(config=config, true_totals=truths, rows=rows,
                          totals=totals, covered=covered)


def _replication_draws(pop: SimPopulation, config: SimConfig, rep: int):
    """Replication ``rep``'s random draws, one ``(components, days, uniforms)`` per stratum.

    ``components`` are the sampled facilities' emitting components (indices
    into the stratum's arrays, ascending), ``days`` their surveyed days
    (n, d_p) in draw order and ``uniforms`` (n, d_p, `MAX_PASSES`) decide
    which passes detect.  The draws depend on ``rep`` alone.
    """
    rng = _replication_rng(config.seed, rep)
    d_p = config.days_sampled
    out = []
    for sp in pop.strata.values():
        spec = sp.spec
        sampled = np.zeros(spec.n_population, dtype=bool)
        sampled[rng.choice(spec.n_population, size=spec.n_sampled, replace=False)] = True
        comps = np.flatnonzero(sampled[sp.emit_facility])
        days = np.empty((len(comps), d_p), dtype=np.intp)
        for row in range(len(comps)):
            days[row] = rng.choice(config.horizon, size=d_p, replace=False)
        # with no component sampled, the empty draw leaves the generator as it was
        out.append((comps, days, rng.random((len(comps), d_p, MAX_PASSES))))
    return out


def _sample_block(pop: SimPopulation, config: SimConfig, reps: range):
    """The samples of replications ``reps`` as one `UnitIndex`, with detected rates and PODs.

    Each (replication, stratum) pair is a stratum and each replication a
    group.  A unit is a sampled emitting component with one unit-day, and
    one component-day, per surveyed day; facilities keep their population
    order within a stratum.  POD is evaluated on the sampled passes only.
    """
    strata = list(pop.strata.values())
    n_strata, d_p = len(strata), config.days_sampled
    draws = [d for rep in reps for d in _replication_draws(pop, config, rep)]
    comp = np.concatenate([c for c, _, _ in draws])
    days = np.concatenate([d for _, d, _ in draws])
    u = np.concatenate([x for _, _, x in draws])
    unit_stratum = np.repeat(np.arange(len(draws)), [len(c) for c, _, _ in draws])
    n_units = len(comp)
    local = unit_stratum % n_strata
    fac = np.empty(n_units, dtype=np.intp)
    q = np.empty((n_units, d_p), dtype=np.intp)
    rates, wind, alt = (np.empty((n_units, d_p, MAX_PASSES)) for _ in range(3))
    for s, sp in enumerate(strata):
        rows = local == s
        c, d = comp[rows, None], days[rows]
        fac[rows] = sp.emit_facility[comp[rows]]
        q[rows] = sp.q[c, d]
        rates[rows], wind[rows], alt[rows] = sp.rates[c, d], sp.wind[c, d], sp.altitude[c, d]
    live = np.arange(MAX_PASSES) < q[..., None]
    y = rates[live]
    phi = pod(y, alt[live], wind[live], config.pod_params)
    det = u[live] < phi
    unit, k, _ = np.nonzero(live)   # in (unit, day, pass) order, like the boolean gathers

    n_sampled = np.tile([sp.spec.n_sampled for sp in strata], len(reps))
    n_population = np.tile([sp.spec.n_population for sp in strata], len(reps))
    names = [sp.spec.name for sp in strata]
    index = UnitIndex(
        pass_cd=(unit * d_p + k)[det], cd_q=q.reshape(-1), cd_ud=np.arange(n_units * d_p),
        ud_unit=np.repeat(np.arange(n_units), d_p), unit_stratum=unit_stratum,
        unit_wells=np.zeros(n_units, dtype=np.intp),
        labels=np.array([f"{names[s]}:{c}" for s, c in zip(local, comp)], dtype=object),
        member_unit=np.arange(n_units),
        member_fac=(np.cumsum(n_population) - n_population)[unit_stratum] + fac,
        n_sampled=n_sampled, n_population=n_population,
        stratum_group=np.repeat(np.arange(len(reps)), n_strata),
    )
    return index, y[det], phi[det]
