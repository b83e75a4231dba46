"""Instrument model tests.

Expected POD values were computed with an independent 50-digit evaluation of
the detection curve (mpmath) before the implementation existed and are frozen
here as literals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msinv.pod import (
    MeasurementModel,
    PodParams,
    bias_correct,
    pod,
    sample_true_rate,
)

from conftest import measurement_mean_factor
from estimator_reference import phi_any_detection

# (rate, altitude, wind) -> POD from the high-precision oracle
POD_ORACLE = [
    ((100.0, 500.0, 3.0), 0.99792604354127546879),
    ((20.0, 500.0, 3.0), 0.85046751283420201148),
    ((10.0, 700.0, 5.0), 1.1342200180342480899e-15),
]


class TestPod:
    def test_zero_rate_limit(self):
        assert pod(0.0, 500.0, 3.0) == 0.0

    @pytest.mark.parametrize("args, expected", POD_ORACLE)
    def test_high_precision_oracle(self, args, expected):
        assert pod(*args) == pytest.approx(expected, rel=1e-12)

    def test_tiny_source_is_effectively_undetectable(self):
        assert pod(1.0, 500.0, 3.0) < 1e-200

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pod(10.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            pod(10.0, -5.0, 3.0)
        with pytest.raises(ValueError):
            pod(-1.0, 500.0, 3.0)
        with pytest.raises(ValueError):
            pod(10.0, 500.0, -0.1)

    def test_vectorized(self):
        rates = np.array([0.0, 20.0, 100.0])
        out = pod(rates, 500.0, 3.0)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[2] == pytest.approx(POD_ORACLE[0][1], rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.floats(0.0, 500.0),
        alt=st.floats(50.0, 2000.0),
        wind=st.floats(0.0, 30.0),
    )
    def test_bounds(self, rate, alt, wind):
        value = pod(rate, alt, wind)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        rate=st.floats(0.1, 300.0),
        alt=st.floats(100.0, 1500.0),
        wind=st.floats(0.0, 20.0),
        bump=st.floats(0.01, 10.0),
    )
    def test_monotonicity(self, rate, alt, wind, bump):
        # dispersion hurts detection: POD falls with altitude and with wind
        base = pod(rate, alt, wind)
        assert pod(rate + bump, alt, wind) >= base
        assert pod(rate, alt + 50 * bump, wind) <= base
        assert pod(rate, alt, wind + bump) <= base

    def test_params_must_be_positive(self):
        with pytest.raises(ValueError):
            PodParams(kappa=0.0)


class TestMeasurementModel:
    def test_median_equals_scale(self):
        # quantile at 0.5 is exactly d * alpha * measured
        assert sample_true_rate(10.0, 0.5) == pytest.approx(8.17938, abs=1e-12)

    def test_zero_measurement(self):
        assert sample_true_rate(0.0, 0.7) == 0.0

    def test_draw_domain(self):
        with pytest.raises(ValueError):
            sample_true_rate(10.0, 0.0)
        with pytest.raises(ValueError):
            sample_true_rate(10.0, 1.0)
        with pytest.raises(ValueError):
            sample_true_rate(-1.0, 0.5)

    def test_empirical_mean_matches_bias_factor(self):
        # mean of the conditional distribution is 0.918 x measured
        rng = np.random.default_rng(42)
        draws = sample_true_rate(10.0, rng.random(1_000_000))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 9.18) < 3 * se
        assert 9.13 < draws.mean() < 9.23

    def test_analytic_mean_factor(self):
        assert abs(measurement_mean_factor() - 0.918) < 1e-3

    def test_degenerate_model_is_point_mass(self):
        model = MeasurementModel(d=1.0, alpha=1.0, beta=math.inf)
        draws = sample_true_rate(7.5, np.array([0.001, 0.5, 0.999]), model)
        assert np.allclose(draws, 7.5)
        assert measurement_mean_factor(model) == 1.0

    def test_bias_correct(self):
        assert bias_correct(10.0) == pytest.approx(9.18)
        assert bias_correct(0.0) == 0.0
        assert bias_correct(100.0) == pytest.approx(91.8)

    def test_shape_must_exceed_one(self):
        with pytest.raises(ValueError):
            MeasurementModel(beta=1.0)


class TestPhiAnyDetection:
    def test_no_misses_exact(self):
        assert phi_any_detection([0.5, 0.5], 0) == pytest.approx(0.75)

    def test_mean_imputation(self):
        assert phi_any_detection([0.6], 1) == pytest.approx(0.84)

    def test_certain_detection_dominates(self):
        assert phi_any_detection([1.0], 3) == pytest.approx(1.0)

    def test_no_basis_for_imputation(self):
        with pytest.raises(ValueError):
            phi_any_detection([], 2)

    @settings(max_examples=100, deadline=None)
    @given(phi=st.floats(0.01, 1.0), k=st.integers(1, 6))
    def test_equal_phis_reduce_to_complement_power(self, phi, k):
        got = phi_any_detection([phi] * k, 0)
        assert got == pytest.approx(1.0 - (1.0 - phi) ** k, rel=1e-12)

    def test_values_must_be_probabilities(self):
        with pytest.raises(ValueError):
            phi_any_detection([1.2], 0)
        with pytest.raises(ValueError):
            phi_any_detection([0.4], -1)
