"""Simulation lab: synthetic populations and estimator performance studies.

Builds an artificial stratified population of facilities whose emitting
components carry day-specific mean rates (lognormal by stratum) and
pass-level rates around them, with a wind speed and plane altitude per pass,
then repeatedly samples it under the three-stage design (facility SRS, day
SRS, POD-driven detection) and scores four estimation variants
(inverse-probability weighting or Hajek, with or without day-sampling
uncertainty) on percent bias, variance, mean squared error and Wald interval
coverage.

Each replication draws its sample from its own generator.  The surveyed days
of all of a stratum's sampled components are drawn in one vectorised pass
(`_day_samples`) that consumes that generator exactly as one
``rng.choice(horizon, d_p, replace=False)`` per component would, so the
samples are those of the per-component draws.  The samples of a
block of `SIM_BLOCK` replications are laid out as one `frame.UnitIndex`, a
stratum per (replication, stratum) pair and a population group per
replication, and estimated by the batched kernel of `batch`, one call per
variant.  POD is evaluated only on the passes of sampled component-days.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .batch import NonFiniteEstimate, build_layout, compile_index, evaluate
from .datasets import packaged_sim_defaults_path
from .estimators import EstimationError, EstimatorConfig
# not used here: perfbench/tracer.py patches this name on this module
from .estimators import estimate_survey  # noqa: F401
from .frame import UnitIndex, count, json_list, json_object, number, read_json, text
from .pod import DEFAULT_POD, pod
from .reporting import valid_level, wald_ci, write_csv

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
# shape (rate, wind, altitude), 24 bytes a cell, and draws them with no
# other float array of that shape, so memory grows with it: under
# `simulate --reps 2` the four-strata default (about 1.1M cells) peaks at
# 27.5 MiB traced and 67.5 MiB RSS; one stratum of 9.94M cells, 228 MiB of
# arrays, at 240 MiB traced and 313 MiB RSS.
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

    def __post_init__(self):
        if not 0.0 <= self.emit_prob <= 1.0:
            raise ValueError("emit_prob must lie in [0, 1]")
        if any(p < 0 for p in self.passes_pmf.values()):
            raise ValueError(f"passes_pmf must hold no negative probability, got "
                             f"{min(self.passes_pmf.values())}")
        if abs(sum(self.passes_pmf.values()) - 1.0) > 1e-9:
            raise ValueError("passes_pmf must sum to 1")
        if any(not 1 <= k <= MAX_PASSES for k in self.passes_pmf):
            raise ValueError(f"pass counts must lie in 1..{MAX_PASSES}")
        if not 1 <= self.days_sampled <= self.horizon:
            raise ValueError("need 1 <= days_sampled <= horizon")
        for key in ("wind_sd", "altitude_sd"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if len(self.components_per_facility) != 2:
            raise ValueError("components_per_facility must be [low, high], got "
                             f"{list(self.components_per_facility)}")
        lo, hi = self.components_per_facility
        if not 1 <= lo <= hi:
            raise ValueError("bad components_per_facility range")
        if not valid_level(self.ci_level):
            raise ValueError(f"ci_level must lie in (0, 1 - 2**-53), got {self.ci_level!r}")
        if self.replications < 2:
            # the between-replication variance has denominator R - 1
            raise ValueError("need at least 2 replications")
        if self.replications > MAX_REPLICATIONS:
            raise ValueError(f"at most {MAX_REPLICATIONS} replications, got {self.replications}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        # every facility is drawn before any cell: count it as one
        facilities = sum(s.n_population for s in self.strata)
        if facilities > MAX_POPULATION_CELLS:
            raise ValueError(f"the population has {facilities} facilities, over the limit of "
                             f"{MAX_POPULATION_CELLS} population cells")

    def as_dict(self) -> dict:
        """Every field, as `config_from_json` reads it."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["strata"] = [asdict(s) for s in self.strata]
        doc["components_per_facility"] = list(self.components_per_facility)
        doc["passes_pmf"] = {str(k): v for k, v in self.passes_pmf.items()}
        return doc


_STRATUM_KEYS = ("name", "n_sampled", "n_population", "lognormal_mu", "lognormal_sigma")
_NUMBER_KEYS = ("emit_prob", "wind_mean", "wind_sd", "altitude_mean", "altitude_sd", "ci_level")
_COUNT_KEYS = ("horizon", "days_sampled", "replications", "seed")


def config_from_json(path) -> SimConfig:
    """Load a simulation configuration from the JSON document at ``path``.

    Every key must be one `SimConfig.as_dict` writes; see the README section
    "Configuration files".
    """
    doc = json_object(read_json(path), "config", required=("strata",),
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
            # an absent key takes the dataclass default
            **{k: number(s[k], f"{where}.{k}") for k in ("sd_ratio",) if k in s},
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


def generate_population(config: SimConfig) -> SimPopulation:
    """Draw the artificial population; deterministic given ``config.seed``.

    Emitting components get independent daily mean rates for every day of the
    horizon and pass-level rates around them (normal with SD proportional to
    the daily mean, resampled after truncation at zero).  Pass counts, wind
    and altitude are drawn up front, so detection probabilities are a fixed
    property of the population (`run_study` evaluates POD on the sampled
    passes only); the per-replication randomness is then only which units
    are sampled and which passes detect.

    Each stratum draws, from the one generator and in this order: the
    facilities' component counts, their emitting components, the passes of
    every (component, day), the daily means, the pass rates, the wind speeds
    and the altitudes.  Its true total is summed from the rates before any
    wind is drawn.  It allocates no float array of their shape besides the
    rate, wind and altitude arrays: the altitude array first serves as the
    buffer `_truncated_normal` draws its redraws into.

    Raises `ValueError` when the population exceeds `MAX_POPULATION_CELLS`
    or a rate or true total is not finite.
    """
    rng = _population_rng(config.seed)
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
        scratch = np.empty((n_emit, big_d, MAX_PASSES))
        daily = rng.lognormal(spec.lognormal_mu, spec.lognormal_sigma, size=(n_emit, big_d, 1))
        rates = _truncated_normal(rng, daily, spec.sd_ratio * daily, scratch)
        del daily   # no day-level array is kept while the wind and altitudes are drawn
        true_total = _true_total(rates, q)
        if not math.isfinite(true_total):
            raise ValueError(
                f"stratum {spec.name!r}: the true total is {true_total}, not finite; "
                "lower lognormal_mu or lognormal_sigma")
        # at least 1e-9 already, so >= 0 as `_StratumPopulation.wind` says
        wind = _truncated_normal(rng, config.wind_mean, config.wind_sd, scratch)
        # the values of rng.normal(altitude_mean, altitude_sd), drawn into the buffer
        alt = rng.standard_normal(out=scratch)
        alt *= config.altitude_sd
        alt += config.altitude_mean
        _raise_to(alt, 1.0)
        strata[spec.name] = _StratumPopulation(
            spec=spec, emit_facility=emit_fac, q=q, rates=rates, wind=wind, altitude=alt,
            true_total=true_total,
        )
    population = SimPopulation(config=config, strata=strata)
    if not math.isfinite(population.true_totals["Population"]):
        raise ValueError("the population's true total is not finite; lower lognormal_mu or "
                         "lognormal_sigma")
    return population


def _true_total(rates: np.ndarray, q: np.ndarray) -> float:
    """The sum over components of the mean over days of the mean of a day's ``q`` pass rates.

    A day's slots are summed in order, as ``(rates * used).sum(axis=2)`` sums
    them when ``used`` marks a day's first ``q`` slots.  A non-finite rate
    anywhere, unused slots included (inf * 0 is nan), makes the total
    non-finite.
    """
    day_sum = rates[..., 0] * (q > 0)
    for p in range(1, MAX_PASSES):
        day_sum += rates[..., p] * (q > p)
    day_sum /= q
    return float(day_sum.mean(axis=1).sum())


def _truncated_normal(rng, mean, sd, scratch: np.ndarray, attempts: int = 100) -> np.ndarray:
    """Normal draws of ``scratch``'s shape truncated at zero by resampling,
    clamped to 1e-9 as a last resort.

    The values, and the stream consumed, are those of whole-array redraws:
    ``rng.normal(mean, sd, size=scratch.shape)`` once, and once more per
    attempt while a value is at or below zero, each replacing those values.
    The first draw scales one new array of standard normals in place.  Each
    attempt draws its standard normals into ``scratch`` and scales only
    those at the cells it redraws, and only those cells are checked again.
    """
    shape = scratch.shape
    out = rng.standard_normal(size=shape)
    out *= sd
    out += mean
    redo = np.flatnonzero(out <= 0.0)
    mean, sd = np.broadcast_to(mean, shape), np.broadcast_to(sd, shape)
    for _ in range(attempts):
        if not redo.size:
            break
        rng.standard_normal(out=scratch)
        at = np.unravel_index(redo, shape)
        out[at] = value = mean[at] + sd[at] * scratch[at]
        redo = redo[value <= 0.0]
    _raise_to(out, 1e-9)
    return out


def _raise_to(values: np.ndarray, floor: float):
    """``np.maximum(values, floor, out=values)``, skipped when no value is below ``floor``."""
    # a nan minimum also clamps: maximum keeps the nan and raises the others
    if not values.min(initial=floor) >= floor:
        np.maximum(values, floor, out=values)


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

    def write_csv(self, path, manifest: dict | None = None):
        scores = ("bias_pct", "var", "mse", "coverage")
        write_csv(path, ["stratum", "variant", *scores],
                  ([row["stratum"], row["variant"], *(repr(row[k]) for k in scores)]
                   for row in self.rows), manifest)


def run_study(config: SimConfig) -> SimStudyResult:
    """Sample the population ``replications`` times and score all variants.

    Every replication shares one draw of the three-stage sample across the
    four variants (they differ only in estimation).  Interval coverage uses
    the Wald interval on the three-stage design variance.  Replications are
    estimated together, `SIM_BLOCK` at a time, by the batched kernel; a
    replication's result does not depend on its block.
    """
    pop = generate_population(config)
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
        layouts = [build_layout(compiled, cfg) for cfg in variant_cfgs.values()]
        try:
            ests = evaluate(layouts, y[None], phi[None])
        except NonFiniteEstimate as exc:
            raise EstimationError(
                f"{VARIANTS[exc.layout]}, replications {block.start}-{block.stop - 1}: an "
                "estimate is not finite (a rate too large to estimate with?)") from None
        for variant, est in zip(variant_cfgs, ests):
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
        days = _day_samples(rng, len(comps), config.horizon, d_p)
        # with no component sampled, the empty draw leaves the generator as it was
        out.append((comps, days, rng.random((len(comps), d_p, MAX_PASSES))))
    return out


def _day_samples(rng, n_rows: int, horizon: int, d_p: int) -> np.ndarray:
    """``n_rows`` samples of ``d_p`` distinct days of ``horizon``, shape (n_rows, d_p).

    Row i equals the i-th of ``n_rows`` successive ``rng.choice(horizon,
    size=d_p, replace=False)`` calls, and ``rng`` ends in the state those
    calls leave, but the rows are drawn together.  numpy's choice runs
    Floyd's algorithm and then a Fisher-Yates shuffle, each step one 32-bit
    word scaled to its bound by Lemire's method: 2 * d_p - 1 words per row.
    Here all the rows' words are drawn at once and every step is applied to
    a column of them.  Where choice takes another path (d_p == horizon, 64-bit
    words for a horizon of 2**32 or more, or its tail shuffle for a horizon
    over 10,000 and d_p over horizon // 50), or where Lemire's method
    would reject a word and draw another (about 6e-8 per word), the
    generator is rewound and the rows are drawn one call each.
    """
    if d_p < horizon < 2**32 and (horizon <= 10_000 or d_p <= horizon // 50):
        state = rng.bit_generator.state
        words = rng.integers(0, 2**32, size=(n_rows, 2 * d_p - 1), dtype=np.uint32)
        # Floyd's bounds j + 1, then the shuffle's i + 1 for i = d_p - 1 down to 1
        bounds = np.concatenate([np.arange(horizon - d_p + 1, horizon + 1),
                                 np.arange(d_p, 1, -1)]).astype(np.uint64)
        scaled = words * bounds
        if not ((scaled & 0xFFFF_FFFF) < 2**32 % bounds).any():
            draws = (scaled >> 32).astype(np.intp)
            out = draws[:, :d_p].copy()
            for t in range(1, d_p):
                # a day drawn already in the row is replaced by j
                out[(out[:, :t] == out[:, t, None]).any(axis=1), t] = horizon - d_p + t
            rows = np.arange(n_rows)
            for col, i in enumerate(range(d_p - 1, 0, -1), start=d_p):
                k = draws[:, col]
                held = out[rows, k]
                out[rows, k] = out[:, i]
                out[:, i] = held
            return out
        rng.bit_generator.state = state
    out = np.empty((n_rows, d_p), dtype=np.intp)
    for row in range(n_rows):
        out[row] = rng.choice(horizon, size=d_p, replace=False)
    return out


def _sample_block(pop: SimPopulation, config: SimConfig, reps: range):
    """The samples of replications ``reps`` as one `UnitIndex`, with detected rates and PODs.

    Each (replication, stratum) pair is a stratum and each replication a
    group.  A unit is a sampled emitting component with one unit-day, and
    one component-day, per surveyed day, labelled by its component number
    in its stratum; facilities keep their population order within a
    stratum.  POD is evaluated on the sampled passes only.
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
    phi = pod(y, alt[live], wind[live], DEFAULT_POD)
    det = u[live] < phi
    unit, k, _ = np.nonzero(live)   # in (unit, day, pass) order, like the boolean gathers

    n_sampled = np.tile([sp.spec.n_sampled for sp in strata], len(reps))
    n_population = np.tile([sp.spec.n_population for sp in strata], len(reps))
    index = UnitIndex(
        pass_cd=(unit * d_p + k)[det], cd_q=q.reshape(-1), cd_ud=np.arange(n_units * d_p),
        ud_unit=np.repeat(np.arange(n_units), d_p), unit_wells=np.zeros(n_units, dtype=np.intp),
        labels=comp,
        member_unit=np.arange(n_units), member_stratum=unit_stratum,
        member_fac=(np.cumsum(n_population) - n_population)[unit_stratum] + fac,
        n_sampled=n_sampled, n_population=n_population,
        stratum_group=np.repeat(np.arange(len(reps)), n_strata),
    )
    return index, y[det], phi[det]
