"""Simulation lab tests: generation, determinism, metrics."""

import math

import numpy as np
import pytest

from msinv import simlab
from msinv.pod import PodParams
from msinv.simlab import (
    SimConfig,
    SimStratumSpec,
    VARIANTS,
    _draw_sample,
    _population_rng,
    _replication_rng,
    config_from_json,
    default_config,
    fit_lognormal_moments,
    generate_population,
    run_study,
)


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
            pop = generate_population(cfg, seed=seed)
            totals.append(pop.true_totals["Population"])
        totals = np.array(totals)
        se = totals.std(ddof=1) / math.sqrt(len(totals))
        assert abs(totals.mean() - expectation) < 3.5 * se


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

    def test_degenerate_design_has_zero_error(self):
        # certain detection, a census of two days, every facility sampled,
        # passes equal to the daily mean: every replication recovers T
        spec = SimStratumSpec(name="A", n_sampled=4, n_population=4,
                              lognormal_mu=math.log(30.0), lognormal_sigma=0.3,
                              sd_ratio=0.0)
        cfg = tiny_config(strata=(spec,), horizon=2, days_sampled=2,
                          replications=10,
                          pod_params=PodParams(kappa=1e9))
        res = run_study(cfg)
        for variant in ("ipw_year", "ipw_observed"):
            assert res.metric("Population", variant, "bias_pct") == pytest.approx(0.0, abs=1e-9)
            assert res.metric("Population", variant, "var") == pytest.approx(0.0, abs=1e-9)
            assert res.metric("Population", variant, "coverage") == 1.0

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
        first = _draw_sample(pop, cfg, _replication_rng(cfg.seed, 6))
        for _ in range(3):
            _draw_sample(pop, cfg, _replication_rng(cfg.seed, 0))
        again = _draw_sample(pop, cfg, _replication_rng(cfg.seed, 6))
        assert first == again


class TestConfigRoundTrip:
    def test_json(self):
        cfg = tiny_config()
        again = config_from_json(cfg.as_dict())
        assert again.strata == cfg.strata
        assert again.passes_pmf == cfg.passes_pmf
        assert again.horizon == cfg.horizon

    def test_default_config_strata(self):
        cfg = default_config()
        names = [s.name for s in cfg.strata]
        assert names == ["CO SWB", "MS", "GP Sweet", "Compressor station"]
        sizes = {s.name: (s.n_sampled, s.n_population) for s in cfg.strata}
        assert sizes["CO SWB"] == (48, 58)
        assert sizes["MS"] == (51, 91)
        assert sizes["GP Sweet"] == (21, 25)
        assert sizes["Compressor station"] == (45, 254)

    def test_unknown_key_is_named(self):
        doc = tiny_config().as_dict()
        doc["replicatons"] = 3
        with pytest.raises(ValueError, match="unknown key 'replicatons'"):
            config_from_json(doc)

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError):
            tiny_config(passes_pmf={1: 0.5, 2: 0.4})
