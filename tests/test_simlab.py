"""Simulation lab tests: generation, determinism, metrics, and the study
kernel against the per-replication scalar reference."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from msinv import simlab
from msinv.batch import build_layout, compile_index, evaluate
from msinv.estimators import EstimationError, wald_ci
from msinv.frame import StratumDef
from msinv.pod import PodParams, pod
from msinv.simlab import (
    MAX_PASSES,
    SimConfig,
    SimStratumSpec,
    VARIANTS,
    _day_samples,
    _population_rng,
    _replication_draws,
    _replication_rng,
    _sample_block,
    _variant_config,
    config_from_json,
    default_config,
    fit_lognormal_moments,
    generate_population,
    run_study,
)

from conftest import metric
from estimator_reference import ComponentObs, daily_estimate, estimate_survey

DATA = Path(__file__).resolve().parent / "data"
MIB = 2**20


class TestLognormalFit:
    def test_standard_lognormal(self):
        mu, sigma = fit_lognormal_moments(math.exp(0.5), (math.e - 1) * math.e)
        assert mu == pytest.approx(0.0, abs=1e-12)
        assert sigma == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_limit(self):
        mu, sigma = fit_lognormal_moments(1.0, 1e-12)
        assert abs(mu) < 1e-9
        assert sigma < 1e-5

    def test_round_trip(self):
        mu, sigma = fit_lognormal_moments(10.0, 400.0)
        mean = math.exp(mu + sigma**2 / 2)
        var = (math.exp(sigma**2) - 1) * math.exp(2 * mu + sigma**2)
        assert mean == pytest.approx(10.0, rel=1e-12)
        assert var == pytest.approx(400.0, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            fit_lognormal_moments(0.0, 1.0)


def json_config(name="sim_3_of_30_days.json", **overrides):
    """The config in ``tests/data/<name>``, with ``overrides``."""
    return dataclasses.replace(config_from_json(DATA / name), **overrides)


def tiny_config(**kw):
    spec = SimStratumSpec(name="A", n_sampled=3, n_population=5,
                          lognormal_mu=math.log(40.0), lognormal_sigma=0.3)
    defaults = dict(strata=(spec,), components_per_facility=(1, 4),
                    emit_prob=0.5, horizon=8, days_sampled=2,
                    replications=40, seed=5)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestGeneration:
    def test_zero_emission_population(self):
        cfg = tiny_config(emit_prob=0.0)
        pop = generate_population(cfg)
        assert pop.true_totals["Population"] == 0.0

    def test_zero_sd_ratio_shares_daily_mean(self):
        spec = SimStratumSpec(name="A", n_sampled=3, n_population=5,
                              lognormal_mu=math.log(40.0), lognormal_sigma=0.3,
                              sd_ratio=0.0)
        cfg = tiny_config(strata=(spec,))
        pop = generate_population(cfg)
        sp = pop.strata["A"]
        if len(sp.emit_facility):
            spread = sp.rates.max(axis=2) - sp.rates.min(axis=2)
            assert float(np.max(spread)) < 1e-9

    def test_cell_limit(self, monkeypatch):
        # tiny_config has 5 facilities of 1-4 components at emit_prob 0.5
        cells = generate_population(tiny_config()).strata["A"].rates.size
        monkeypatch.setattr(simlab, "MAX_POPULATION_CELLS", cells)
        generate_population(tiny_config())
        monkeypatch.setattr(simlab, "MAX_POPULATION_CELLS", cells - 1)
        with pytest.raises(ValueError, match="cells at stratum 'A'"):
            generate_population(tiny_config())

    def test_non_finite_true_totals(self):
        # e^709 is finite, and so is each stratum's total; three of them are not
        def spec(name, mu):
            return SimStratumSpec(name=name, n_sampled=1, n_population=1, lognormal_mu=mu,
                                  lognormal_sigma=0.01, sd_ratio=0.0)

        def config(*strata):
            return tiny_config(strata=strata, components_per_facility=(1, 1), emit_prob=1.0,
                               horizon=1, days_sampled=1, passes_pmf={1: 1.0})

        pop = generate_population(config(spec("A", 709.0), spec("B", 709.0)))
        assert math.isfinite(pop.true_totals["Population"])
        with pytest.raises(ValueError, match="population's true total is not finite"):
            generate_population(config(spec("A", 709.0), spec("B", 709.0), spec("C", 709.0)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="stratum 'A': the true total is"):
                generate_population(config(spec("A", 800.0)))

    def test_inf_in_an_unused_pass_slot_makes_the_true_total_non_finite(self, monkeypatch):
        # one component-day of one pass; at seed 4 its pass rate e^709 * (1 + z)
        # is finite in slot 0 and overflows in an unused slot
        spec = SimStratumSpec(name="A", n_sampled=1, n_population=1, lognormal_mu=709.0,
                              lognormal_sigma=0.01, sd_ratio=1.0)
        cfg = tiny_config(strata=(spec,), components_per_facility=(1, 1), emit_prob=1.0,
                          horizon=1, days_sampled=1, passes_pmf={1: 1.0}, seed=4)
        seen = []

        def recorded(rates, q):
            seen.append(rates.copy())
            return true_total(rates, q)

        true_total = simlab._true_total
        monkeypatch.setattr(simlab, "_true_total", recorded)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="stratum 'A': the true total is nan"):
                generate_population(cfg)
            with pytest.raises(ValueError, match="stratum 'A': the true total is nan"):
                population_reference(cfg)
        (rates,) = seen
        assert math.isfinite(rates[0, 0, 0]) and np.isinf(rates[0, 0, 1:]).any()

    def test_facility_limit_at_load(self, monkeypatch):
        # tiny_config has 5 facilities; each counts as one cell
        monkeypatch.setattr(simlab, "MAX_POPULATION_CELLS", 5)
        tiny_config()
        monkeypatch.setattr(simlab, "MAX_POPULATION_CELLS", 4)
        with pytest.raises(ValueError, match="5 facilities"):
            tiny_config()

    def test_replication_limit_at_load(self):
        tiny_config(replications=simlab.MAX_REPLICATIONS)
        with pytest.raises(ValueError, match="replications"):
            tiny_config(replications=simlab.MAX_REPLICATIONS + 1)

    @pytest.mark.parametrize("p", [0.0, 0.055, 0.5, 1.0])
    def test_emitter_draws_match_per_facility_draws(self, p):
        # one vectorised binomial call draws what a call per facility drew,
        # and leaves the generator where the loop left it, so populations
        # are unchanged for a given seed
        counts = np.random.default_rng(3).integers(1, 51, size=300)
        loop, vectorised = _population_rng(11), _population_rng(11)
        expected = [fac for fac in range(len(counts))
                    for _ in range(int(loop.binomial(counts[fac], p)))]
        got = np.repeat(np.arange(len(counts)), vectorised.binomial(counts, p))
        assert got.tolist() == expected
        assert vectorised.random(8).tolist() == loop.random(8).tolist()

    def test_deterministic_given_seed(self):
        a = generate_population(tiny_config())
        b = generate_population(tiny_config())
        assert np.array_equal(a.strata["A"].rates, b.strata["A"].rates)
        assert np.array_equal(a.strata["A"].q, b.strata["A"].q)

    def test_population_total_matches_analytic_expectation(self):
        # E[T] = N * E[components per facility] * emit_prob * lognormal mean
        spec = SimStratumSpec(name="A", n_sampled=10, n_population=60,
                              lognormal_mu=math.log(30.0), lognormal_sigma=0.4)
        cfg = tiny_config(strata=(spec,), components_per_facility=(1, 9),
                          emit_prob=0.2, horizon=40)
        expectation = 60 * 5.0 * 0.2 * math.exp(math.log(30.0) + 0.4**2 / 2)
        totals = []
        for seed in range(12):
            pop = generate_population(dataclasses.replace(cfg, seed=seed))
            totals.append(pop.true_totals["Population"])
        totals = np.array(totals)
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(totals.mean() - expectation) < 3.5 * se

    @pytest.mark.parametrize("make, overrides", [
        (default_config, {}),
        (default_config, {"seed": 1}),
        (json_config, {}),
        (default_config, {"wind_sd": 0.0}),
        (default_config, {"altitude_sd": 0.0}),
        (tiny_config, {"emit_prob": 0.0}),
        # many redraws of the wind, none clamped
        (json_config, {"wind_mean": 0.2}),
        # every wind redraw attempt used, and about one cell in ten clamped
        (lambda: json_config("sim_low_wind.json"), {}),
    ], ids=["default", "default-seed-1", "3-of-30-days", "wind-sd-0", "altitude-sd-0",
            "no-emitters", "wind-mean-0.2", "low-wind"])
    def test_population_equals_the_reference(self, monkeypatch, make, overrides):
        cfg = make(**overrides)
        made = []

        def recorded(seed):
            made.append(_population_rng(seed))
            return made[-1]

        monkeypatch.setattr(simlab, "_population_rng", recorded)
        got = generate_population(cfg)
        want, rng = population_reference(cfg)
        assert list(got.strata) == list(want.strata)
        for name, sp in got.strata.items():
            ref = want.strata[name]
            assert sp.spec == ref.spec
            for key in ("q", "rates", "wind", "altitude", "emit_facility"):
                a, b = getattr(sp, key), getattr(ref, key)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, key)
            assert sp.true_total.hex() == ref.true_total.hex(), name
        assert made[-1].random() == rng.random()     # the same stream consumed
        if cfg.wind_mean < 0:
            assert all(np.any(sp.wind == 1e-9) for sp in got.strata.values())

    def test_peak_memory_is_the_kept_arrays_and_a_fixed_margin(self):
        # one stratum of 1100 emitting components: 2,007,500 cells, 15.3 MiB per array
        spec = SimStratumSpec(name="A", n_sampled=10, n_population=1100,
                              lognormal_mu=math.log(40.0), lognormal_sigma=0.3)
        cfg = SimConfig(strata=(spec,), components_per_facility=(1, 1), emit_prob=1.0)
        margin = 8 * MIB
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            pop = generate_population(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sp = pop.strata["A"]
        kept = sp.rates.nbytes + sp.wind.nbytes + sp.altitude.nbytes
        assert sp.rates.size == 2_007_500
        assert peak - before <= kept + margin, f"{(peak - before - kept) / MIB:.1f} MiB over"

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("mean, sd, shape, attempts", [
        (4.0, 1.5, (40, 365, MAX_PASSES), 100),     # the default wind
        ("daily", 0.6, (30, 50, MAX_PASSES), 100),  # per-day rate means, as for rates
        (0.1, 1.0, (60, 7), 4),                     # many redraws; some clamped
        (-3.0, 1.0, (200,), 100),                   # nearly every draw clamped
    ])
    def test_truncated_normal_matches_whole_array_redraws(self, seed, mean, sd, shape, attempts):
        if mean == "daily":
            daily = np.random.default_rng(seed + 100).lognormal(2.0, 1.0, size=shape[:2])
            mean, sd = daily[..., None], sd * daily[..., None]
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = simlab._truncated_normal(new, mean, sd, np.empty(shape), attempts)
        want = truncated_normal_reference(ref, mean, sd, shape, attempts)
        assert np.array_equal(got, want)
        assert new.random() == ref.random()     # the same stream consumed
        if attempts == 4:
            assert np.any(got == 1e-9)


def truncated_normal_reference(rng, mean, sd, shape, attempts):
    """The redraw of whole ``rng.normal`` arrays that `simlab._truncated_normal` replaced."""
    out = rng.normal(mean, sd, size=shape)
    for _ in range(attempts):
        bad = out <= 0.0
        if not bad.any():
            break
        out = np.where(bad, rng.normal(mean, sd, size=shape), out)
    return np.maximum(out, 1e-9)


def population_reference(config):
    """The `simlab.generate_population` that drew every array over whole-array temporaries.

    Kept as it was, but for `truncated_normal_reference` in place of the
    `_truncated_normal` it called, which drew the same values.  Returns the
    population and the generator after it.
    """
    rng = _population_rng(config.seed)
    lo, hi = config.components_per_facility
    pass_keys = sorted(config.passes_pmf)
    pass_probs = [config.passes_pmf[k] for k in pass_keys]
    big_d = config.horizon
    strata = {}
    cells = 0
    for spec in config.strata:
        comp_counts = rng.integers(lo, hi + 1, size=spec.n_population)
        emit_fac = np.repeat(np.arange(spec.n_population),
                             rng.binomial(comp_counts, config.emit_prob))
        n_emit = len(emit_fac)
        cells += n_emit * big_d * MAX_PASSES
        if cells > simlab.MAX_POPULATION_CELLS:
            raise ValueError(
                f"the population reaches {cells} (component, day, pass) cells at stratum "
                f"{spec.name!r}, over the limit of {simlab.MAX_POPULATION_CELLS}; lower horizon, "
                "n_population, components_per_facility or emit_prob")
        q = rng.choice(pass_keys, p=pass_probs, size=(n_emit, big_d)).astype(np.int8)
        daily = rng.lognormal(spec.lognormal_mu, spec.lognormal_sigma, size=(n_emit, big_d))
        rates = truncated_normal_reference(rng, daily[..., None], spec.sd_ratio * daily[..., None],
                                           (n_emit, big_d, MAX_PASSES), 100)
        # at least 1e-9 already, so >= 0 as `_StratumPopulation.wind` says
        wind = truncated_normal_reference(rng, config.wind_mean, config.wind_sd,
                                          (n_emit, big_d, MAX_PASSES), 100)
        alt = rng.normal(config.altitude_mean, config.altitude_sd,
                         size=(n_emit, big_d, MAX_PASSES))
        np.maximum(alt, 1.0, out=alt)
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
        strata[spec.name] = simlab._StratumPopulation(
            spec=spec, emit_facility=emit_fac, q=q, rates=rates, wind=wind, altitude=alt,
            true_total=true_total,
        )
    population = simlab.SimPopulation(config=config, strata=strata)
    if not math.isfinite(population.true_totals["Population"]):
        raise ValueError("the population's true total is not finite; lower lognormal_mu or "
                         "lognormal_sigma")
    return population, rng


def replication_draws_reference(pop, config, rep):
    """The per-component ``rng.choice`` loop that `simlab._day_samples` replaced.

    Returns `simlab._replication_draws`'s result and the generator after it.
    """
    rng = _replication_rng(config.seed, rep)
    d_p = config.days_sampled
    out = []
    for sp in pop.strata.values():
        spec = sp.spec
        sampled = np.zeros(spec.n_population, dtype=bool)
        sampled[rng.choice(spec.n_population, size=spec.n_sampled, replace=False)] = True
        comps = np.flatnonzero(sampled[sp.emit_facility])
        days = day_samples_reference(rng, len(comps), config.horizon, d_p)
        out.append((comps, days, rng.random((len(comps), d_p, MAX_PASSES))))
    return out, rng


def day_samples_reference(rng, n_rows, horizon, d_p):
    days = np.empty((n_rows, d_p), dtype=np.intp)
    for row in range(n_rows):
        days[row] = rng.choice(horizon, size=d_p, replace=False)
    return days


def assert_same_state(got, want):
    """Two Philox generators are in the same state."""
    a, b = got.bit_generator.state, want.bit_generator.state
    for key in ("counter", "key"):
        assert np.array_equal(a["state"][key], b["state"][key]), key
    assert np.array_equal(a["buffer"], b["buffer"])
    for key in ("buffer_pos", "has_uint32", "uinteger"):
        assert a[key] == b[key], key


def lemire_rejects(key, n_rows, horizon, d_p):
    """Rows whose day draws under Philox ``key`` include a word Lemire's method rejects."""
    words = np.random.Generator(np.random.Philox(key=key)).integers(
        0, 2**32, size=(n_rows, 2 * d_p - 1), dtype=np.uint32).astype(np.uint64)
    bounds = np.array([*range(horizon - d_p + 1, horizon + 1), *range(d_p, 1, -1)],
                      dtype=np.uint64)
    return np.flatnonzero(((words * bounds) % 2**32 < 2**32 % bounds).any(axis=1))


class TestDaySamples:
    """`_day_samples` against one ``rng.choice`` per row: equal days, equal stream."""

    @pytest.mark.parametrize("horizon, d_p", [
        (365, 1), (365, 2), (365, 3), (30, 5), (1000, 4), (40, 39), (2, 1),
        (3, 3), (1, 1),                     # d_p == horizon: choice draws nothing at j = 0
        (10_000, 600), (10_001, 200),       # the widest Floyd cases
        (10_001, 201), (20_000, 401),       # choice's tail shuffle
    ])
    @pytest.mark.parametrize("key", [0, 1, 2**40 + 3])
    def test_rows_and_stream_equal_choice(self, horizon, d_p, key):
        got, want = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
        days = _day_samples(got, 25, horizon, d_p)
        assert days.dtype == np.intp and days.flags.c_contiguous
        assert np.array_equal(days, day_samples_reference(want, 25, horizon, d_p))
        assert_same_state(got, want)

    def test_a_rejected_word_falls_back_to_choice(self):
        # Philox key 6611 draws a word at row 876 that Lemire's method rejects
        assert lemire_rejects(6611, 1000, 365, 2).tolist() == [876]
        got, want = (np.random.Generator(np.random.Philox(key=6611)) for _ in range(2))
        days = _day_samples(got, 1000, 365, 2)
        assert np.array_equal(days, day_samples_reference(want, 1000, 365, 2))
        assert_same_state(got, want)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 400).flatmap(lambda h: st.tuples(
        st.just(h), st.integers(1, min(h, 12)), st.integers(0, 40), st.integers(0, 2**64 - 1))))
    def test_generated_shapes(self, case):
        horizon, d_p, n_rows, key = case
        got, want = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
        days = _day_samples(got, n_rows, horizon, d_p)
        assert np.array_equal(days, day_samples_reference(want, n_rows, horizon, d_p))
        assert days.shape == (n_rows, d_p)
        assert_same_state(got, want)

    @pytest.mark.parametrize("make, overrides", [
        (default_config, {}),
        (default_config, {"days_sampled": 1}),
        (default_config, {"days_sampled": 3}),
        (default_config, {"horizon": 3, "days_sampled": 3}),
        (tiny_config, {"horizon": 20_000, "days_sampled": 401}),
    ], ids=["default", "one-day", "three-days", "census-of-days", "tail-shuffle"])
    def test_replication_draws_equal_the_reference(self, monkeypatch, make, overrides):
        cfg = make(replications=2, **overrides)
        pop = generate_population(cfg)
        made = []

        def recorded(seed, rep):
            made.append(_replication_rng(seed, rep))
            return made[-1]

        monkeypatch.setattr(simlab, "_replication_rng", recorded)
        for rep in range(3):
            got = _replication_draws(pop, cfg, rep)
            want, rng = replication_draws_reference(pop, cfg, rep)
            assert sum(len(comps) for comps, _, _ in got) > 0
            for drawn, expected in zip(got, want, strict=True):
                for a, b in zip(drawn, expected, strict=True):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
            assert_same_state(made[-1], rng)


class TestStudy:
    def test_metrics_shape_and_mse_identity(self):
        cfg = tiny_config()
        res = run_study(cfg)
        scopes = {"A", "Population"}
        assert {r["stratum"] for r in res.rows} == scopes
        assert {r["variant"] for r in res.rows} == set(VARIANTS)
        for row in res.rows:
            truth = res.true_totals[row["stratum"]]
            bias = row["bias_pct"] / 100.0 * truth
            assert row["mse"] == pytest.approx(row["var"] + bias * bias, rel=1e-12)

    def test_degenerate_design_has_zero_error(self, monkeypatch):
        # certain detection, a census of two days, every facility sampled,
        # passes equal to the daily mean: every replication recovers T
        spec = SimStratumSpec(name="A", n_sampled=4, n_population=4,
                              lognormal_mu=math.log(30.0), lognormal_sigma=0.3,
                              sd_ratio=0.0)
        cfg = tiny_config(strata=(spec,), horizon=2, days_sampled=2, replications=10)
        monkeypatch.setattr(simlab, "DEFAULT_POD", PodParams(kappa=1e9))
        res = run_study(cfg)
        for variant in ("ipw_year", "ipw_observed"):
            assert metric(res, "Population", variant, "bias_pct") == pytest.approx(0.0, abs=1e-9)
            assert metric(res, "Population", variant, "var") == pytest.approx(0.0, abs=1e-9)
            assert metric(res, "Population", variant, "coverage") == 1.0

    def test_determinism_and_csv(self, tmp_path):
        cfg = tiny_config(replications=10, seed=7)
        a = run_study(cfg)
        b = run_study(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_csv(pa)
        b.write_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        header = pa.read_text().splitlines()[0]
        assert header == "stratum,variant,bias_pct,var,mse,coverage"

    def test_replication_order_independence(self):
        # a replication's sample depends only on its index, not on how many
        # replications ran before it
        cfg = tiny_config()
        pop = generate_population(cfg)
        first = _replication_draws(pop, cfg, 6)
        for _ in range(3):
            _replication_draws(pop, cfg, 0)
        again = _replication_draws(pop, cfg, 6)
        assert len(first) == len(again) == len(cfg.strata)
        for drawn, redrawn in zip(first, again):
            for a, b in zip(drawn, redrawn):
                assert np.array_equal(a, b)

    def test_results_do_not_depend_on_the_block_size(self, monkeypatch):
        cfg = tiny_config(replications=10)
        whole = run_study(cfg)
        monkeypatch.setattr(simlab, "SIM_BLOCK", 3)
        blocked = run_study(cfg)
        for variant in VARIANTS:
            for scope in ("A", "Population"):
                assert np.array_equal(blocked.totals[variant][scope],
                                      whole.totals[variant][scope])
                assert np.array_equal(blocked.covered[variant][scope],
                                      whole.covered[variant][scope])
        assert blocked.rows == whole.rows

    def test_non_finite_estimate_names_its_variant_and_block(self):
        # finite rates whose squares overflow in every variant's variance
        spec = SimStratumSpec(name="A", n_sampled=3, n_population=5, lognormal_mu=400.0,
                              lognormal_sigma=0.3)
        cfg = tiny_config(strata=(spec,), replications=2)
        with pytest.raises(EstimationError) as failed:
            run_study(cfg)
        assert str(failed.value) == ("ipw_year, replications 0-1: an estimate is not finite "
                                     "(a rate too large to estimate with?)")

    def test_pod_of_sampled_passes_equals_population_pod(self, monkeypatch):
        # a census of facilities and days samples every pass of the population
        spec = SimStratumSpec(name="A", n_sampled=5, n_population=5,
                              lognormal_mu=math.log(40.0), lognormal_sigma=0.3)
        cfg = tiny_config(strata=(spec,), horizon=3, days_sampled=3, replications=2)
        pop = generate_population(cfg)
        sp = pop.strata["A"]
        full = pod(sp.rates, sp.altitude, sp.wind)
        seen = []

        def recorded(*args):
            seen.append(pod(*args))
            return seen[-1]

        monkeypatch.setattr(simlab, "pod", recorded)
        index, _, _ = _sample_block(pop, cfg, range(cfg.replications))
        draws = [d for rep in range(cfg.replications) for d in _replication_draws(pop, cfg, rep)]
        expected = [full[ci, day, p]
                    for comps, days, _ in draws
                    for ci, comp_days in zip(comps, days)
                    for day in comp_days for p in range(sp.q[ci, day])]
        assert len(seen) == 1
        assert len(expected) == sp.q.sum() * cfg.replications
        assert np.array_equal(seen[0], expected)
        # a unit is labelled by its component number in its stratum
        assert index.labels.tolist() == [int(ci) for comps, _, _ in draws for ci in comps]


def scalar_study(pop, cfg):
    """The per-replication scalar path the study kernel replaced.

    Per replication: daily estimates from the detected passes, one
    `ComponentObs` per sampled emitting component, one `estimate_survey` per
    variant and a scalar Wald interval per scope.  POD comes from the whole
    population's arrays.  Returns per variant the estimates and coverage
    flags, a list per replication.
    """
    strata_defs = {s.name: StratumDef(s.name, s.n_sampled, s.n_population)
                   for s in cfg.strata}
    phi = {name: pod(sp.rates, sp.altitude, sp.wind)
           for name, sp in pop.strata.items()}
    truths = pop.true_totals
    out = {v: ([], []) for v in VARIANTS}
    for rep in range(cfg.replications):
        obs = {"ipw": [], "hajek": []}
        draws = _replication_draws(pop, cfg, rep)
        for (name, sp), (comps, days, u) in zip(pop.strata.items(), draws):
            for row, ci in enumerate(comps):
                day_obs = []
                for k, day in enumerate(days[row]):
                    q = int(sp.q[ci, day])
                    hit = [p for p in range(q) if u[row, k, p] < phi[name][ci, day, p]]
                    day_obs.append((int(day), [float(sp.rates[ci, day, p]) for p in hit],
                                    [float(phi[name][ci, day, p]) for p in hit], q))
                for kind, comps_obs in obs.items():
                    dailies = tuple(daily_estimate(rs, ps, q, kind, day_id=day)
                                    for day, rs, ps, q in day_obs)
                    comps_obs.append(ComponentObs(f"{name}:{ci}",
                                                  f"{name}:F{int(sp.emit_facility[ci])}",
                                                  name, dailies))
        for variant in VARIANTS:
            vcfg = _variant_config(variant, cfg)
            est = estimate_survey(obs[vcfg.estimator], strata_defs, vcfg)
            flags = {}
            for scope, (total, v3stage) in dict(
                    {n: (se.total, se.v3stage) for n, se in est.strata.items()},
                    Population=(est.total, est.v3stage)).items():
                lo, hi = wald_ci(total, max(0.0, v3stage), cfg.ci_level)
                flags[scope] = lo <= truths[scope] <= hi
            out[variant][0].append(est)
            out[variant][1].append(flags)
    return out


def assert_matches_scalar_reference(cfg):
    """Totals, stratum and population v3stage and coverage of every replication
    and variant against `scalar_study`, at rel 1e-12."""
    pop = generate_population(cfg)
    reference = scalar_study(pop, cfg)
    result = run_study(cfg)
    names = [s.name for s in cfg.strata]
    index, y, phi = _sample_block(pop, cfg, range(cfg.replications))
    compiled = compile_index(index)
    for variant in VARIANTS:
        ests, flags = reference[variant]
        (kernel,) = evaluate([build_layout(compiled, _variant_config(variant, cfg))], y[None],
                             phi[None])
        st_total = kernel.strata["total"][0].reshape(cfg.replications, -1)
        st_v3 = kernel.strata["v3stage"][0].reshape(cfg.replications, -1)
        for rep, (est, flag) in enumerate(zip(ests, flags)):
            want = {"Population": (est.total, est.v3stage)}
            got = {"Population": (result.totals[variant]["Population"][rep],
                                  kernel.population["v3stage"][0, rep])}
            for s, name in enumerate(names):
                want[name] = (est.strata[name].total, est.strata[name].v3stage)
                got[name] = (result.totals[variant][name][rep], st_v3[rep, s])
                assert st_total[rep, s] == result.totals[variant][name][rep]
            for scope, values in want.items():
                what = f"{variant} rep {rep} {scope}"
                assert np.allclose(got[scope], values, rtol=1e-12, atol=0), what
                assert result.covered[variant][scope][rep] == flag[scope], what
    return pop


@st.composite
def small_configs(draw):
    """Study configs of 1-3 strata of at most 6 facilities, with up to
    `MAX_PASSES` passes a day and rates from near-certain misses to
    near-certain detections."""
    strata = []
    for h in range(draw(st.integers(1, 3))):
        big_n = draw(st.integers(1, 6))
        strata.append(SimStratumSpec(
            name=f"S{h}", n_sampled=draw(st.integers(1, big_n)), n_population=big_n,
            lognormal_mu=draw(st.floats(2.0, 5.0)), lognormal_sigma=draw(st.floats(0.1, 1.0)),
            sd_ratio=draw(st.sampled_from([0.0, 0.2, 0.5]))))
    top = draw(st.integers(1, MAX_PASSES))
    horizon = draw(st.integers(1, 6))
    return SimConfig(
        strata=tuple(strata), components_per_facility=(1, draw(st.integers(1, 4))),
        emit_prob=draw(st.sampled_from([0.2, 0.5, 1.0])),
        passes_pmf={k: 1.0 / top for k in range(1, top + 1)},
        horizon=horizon, days_sampled=draw(st.integers(1, horizon)),
        replications=draw(st.integers(2, 5)), seed=draw(st.integers(0, 2**32)))


class TestKernelMatchesScalarReference:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(small_configs())
    def test_generated_configs(self, cfg):
        assert_matches_scalar_reference(cfg)

    def test_stratum_without_sampled_emitters(self):
        # stratum B: one of 4 facilities sampled, a third of them emitting
        b = SimStratumSpec(name="B", n_sampled=1, n_population=4,
                           lognormal_mu=math.log(40.0), lognormal_sigma=0.3)
        cfg = tiny_config(strata=tiny_config().strata + (b,), components_per_facility=(1, 2),
                          emit_prob=0.3, replications=8, seed=3)
        pop = assert_matches_scalar_reference(cfg)
        assert any(len(draws[1][0]) == 0 for draws in
                   (_replication_draws(pop, cfg, rep) for rep in range(cfg.replications)))

    @pytest.mark.parametrize("n_sampled, horizon, days_sampled", [
        (1, 8, 2), (3, 8, 1), (3, 4, 4), (5, 1, 1),
    ], ids=["one-facility", "one-day-pooled", "census-of-days", "one-day-horizon"])
    def test_design_edges(self, n_sampled, horizon, days_sampled):
        spec = SimStratumSpec(name="A", n_sampled=n_sampled, n_population=5,
                              lognormal_mu=math.log(40.0), lognormal_sigma=0.5)
        assert_matches_scalar_reference(tiny_config(
            strata=(spec,), horizon=horizon, days_sampled=days_sampled, replications=6,
            passes_pmf={k: 0.2 for k in range(1, MAX_PASSES + 1)}))


class TestConfigRoundTrip:
    def test_json(self, tmp_path):
        strata = (SimStratumSpec(name="A", n_sampled=3, n_population=5, lognormal_mu=1.5,
                                 lognormal_sigma=0.3, sd_ratio=0.4),
                  SimStratumSpec(name="B", n_sampled=1, n_population=2, lognormal_mu=-0.5,
                                 lognormal_sigma=1.2, sd_ratio=0.0))
        cfg = SimConfig(strata=strata, components_per_facility=(2, 7), emit_prob=0.3,
                        passes_pmf={1: 0.5, 3: 0.5}, wind_mean=5.5, wind_sd=2.0,
                        altitude_mean=700.0, altitude_sd=40.0, horizon=30, days_sampled=3,
                        replications=17, seed=9, ci_level=0.9)
        default = SimConfig(strata=strata)
        written = {f.name for f in dataclasses.fields(SimConfig)}
        # every field but the strata differs from its default
        assert [k for k in written if getattr(cfg, k) == getattr(default, k)] == ["strata"]
        doc = cfg.as_dict()
        assert set(doc) == written
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert config_from_json(path) == cfg

    def test_default_config_strata(self):
        cfg = default_config()
        names = [s.name for s in cfg.strata]
        assert names == ["CO SWB", "MS", "GP Sweet", "Compressor station"]
        sizes = {s.name: (s.n_sampled, s.n_population) for s in cfg.strata}
        assert sizes["CO SWB"] == (48, 58)
        assert sizes["MS"] == (51, 91)
        assert sizes["GP Sweet"] == (21, 25)
        assert sizes["Compressor station"] == (45, 254)

    def test_unknown_key_is_named(self, tmp_path):
        doc = tiny_config().as_dict()
        doc["replicatons"] = 3
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown key 'replicatons'"):
            config_from_json(path)

    @pytest.mark.parametrize("key", ["wind_sd", "altitude_sd"])
    @pytest.mark.parametrize("value", [-1e-12, -60.0, math.nan])
    def test_negative_sd_is_refused_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be >= 0, got "):
            tiny_config(**{key: value})

    @pytest.mark.parametrize("key", ["wind_sd", "altitude_sd"])
    def test_zero_sd_is_accepted(self, key):
        assert getattr(tiny_config(**{key: 0.0}), key) == 0.0

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError):
            tiny_config(passes_pmf={1: 0.5, 2: 0.4})
