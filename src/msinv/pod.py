"""Instrument model: probability of detection and measurement error.

The airborne gas-mapping lidar is characterised by two empirical results from
controlled releases: a probability-of-detection (POD) curve in emission rate,
plane altitude and wind speed, and a log-logistic distribution of the true
emission rate given a measurement.  Both are parameterised here with the
published constants as defaults, and both are overridable so the machinery can
be pointed at a different sensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "PodParams",
    "MeasurementModel",
    "PHI_FLOOR",
    "pod",
    "sample_true_rate",
    "bias_correct",
]

# Detection probabilities are floored before any division by phi so that a
# pathological near-zero POD cannot overflow an inverse weight.  Floor hits are
# counted and surfaced in report diagnostics.
PHI_FLOOR = 1e-12


@dataclass(frozen=True)
class PodParams:
    """Constants of the POD curve phi(rate, altitude, wind).

    The curve is
        exp(-[kappa * Y^rate_exp / ((a/1000)^altitude_exp
              * (u + wind_offset)^wind_exp)]^(-outer_exp))
    with rate Y in kg/h, altitude a in m and wind u in m/s.
    """

    kappa: float = 0.244
    rate_exp: float = 1.07
    altitude_exp: float = 2.44
    wind_offset: float = 2.14
    wind_exp: float = 1.69
    outer_exp: float = 2.53

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"PodParams.{f.name} must be a finite number > 0")

    def as_dict(self) -> dict:
        """The constants by name, equal to `dataclasses.asdict` of them."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class MeasurementModel:
    """True emission rate given a measurement: Log-logistic(d*alpha*measured, beta).

    ``d`` is the multiplicative bias factor, ``alpha`` a scale factor and
    ``beta`` the log-logistic shape.  The conditional mean is
    d * alpha * measured * (pi/beta) / sin(pi/beta), which at the default
    constants is d * measured, the rate `bias_correct` gives, to 3e-5
    relative.  ``beta`` may be ``inf``, which degenerates the distribution
    to a point mass at d * alpha * measured: the Monte Carlo then draws no
    noise, and its rates are alpha times the bias-corrected ones.
    """

    d: float = 0.918
    alpha: float = 0.891
    beta: float = 3.82

    def __post_init__(self):
        if not (0 < self.d < math.inf and 0 < self.alpha < math.inf):
            raise ValueError("MeasurementModel.d and .alpha must be finite numbers > 0")
        if not self.beta > 1:
            raise ValueError("MeasurementModel.beta must be > 1 (finite mean)")

    def as_dict(self) -> dict:
        """The parameters by name, equal to `dataclasses.asdict` of them."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_POD = PodParams()
DEFAULT_MEASUREMENT = MeasurementModel()


def _any(mask) -> bool:
    """Whether any entry of a comparison on float arrays holds.

    A comparison of 0-d arrays gives a numpy bool, which is tested as it is:
    `np.any`, or the bool's own `.any()`, would first wrap it in a new array,
    and on a scalar call that costs more than the rest of the check.
    """
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def pod(rate, altitude, wind, params: PodParams = DEFAULT_POD):
    """Probability of detection for a point source.

    Parameters
    ----------
    rate : array_like
        True emission rate in kg/h, >= 0.  A rate of exactly 0 returns POD 0
        (the analytic limit of the curve).
    altitude : array_like
        Plane altitude over the source in m, > 0.
    wind : array_like
        Wind speed in m/s, >= 0.

    Returns
    -------
    float or ndarray in [0, 1], matching the broadcast shape of the inputs.

    Notes
    -----
    NaN passes the argument checks, and a NaN in any argument gives POD 0.0.

    A scalar call and an array call on the same values may differ in the last
    bits: with 0-d arrays, some of the powers run in numpy's scalar
    arithmetic rather than in the array loops (707 of 20,000 random inputs
    differed, by up to 5e-13 relative, on a 2-vCPU Xeon).  That is why the
    estimate and `msinv.planner.gamma_table` each evaluate their PODs in
    one array call.
    """
    rate = np.asarray(rate, dtype=float)
    altitude = np.asarray(altitude, dtype=float)
    wind = np.asarray(wind, dtype=float)
    if _any(rate < 0):
        raise ValueError("rate must be >= 0")
    if _any(altitude <= 0):
        raise ValueError("altitude must be > 0")
    if _any(wind < 0):
        raise ValueError("wind must be >= 0")

    with np.errstate(divide="ignore", over="ignore"):
        denom = (altitude / 1000.0) ** params.altitude_exp * (
            wind + params.wind_offset
        ) ** params.wind_exp
        base = params.kappa * rate**params.rate_exp / denom
        # a zero base (of either sign) gives |base|^(-outer_exp) == inf and a
        # NaN one (0/0 or inf/inf) NaN, which fmin takes to inf: POD 0
        out = np.exp(-np.fmin(np.power(np.fabs(base), -params.outer_exp), np.inf))
    if out.ndim == 0:
        return float(out)
    return out


def sample_true_rate(measured, uniform_draw, model: MeasurementModel = DEFAULT_MEASUREMENT):
    """Inverse-CDF draw of the true rate given a measured rate.

    The log-logistic quantile function is scale * (u / (1-u))^(1/beta) with
    scale = d * alpha * measured.  Supplying the uniform draw keeps this
    function pure; RNG policy lives with the Monte Carlo layer.
    """
    measured = np.asarray(measured, dtype=float)
    uniform_draw = np.asarray(uniform_draw, dtype=float)
    if _any(measured < 0):
        raise ValueError("measured must be >= 0")
    if _any((uniform_draw <= 0) | (uniform_draw >= 1)):
        raise ValueError("uniform_draw must lie in (0, 1)")
    scale = model.d * model.alpha * measured
    out = scale * (uniform_draw / (1.0 - uniform_draw)) ** (1.0 / model.beta)
    if out.ndim == 0:
        return float(out)
    return out


def bias_correct(measured, model: MeasurementModel = DEFAULT_MEASUREMENT):
    """Multiplicative bias correction: d * measured.

    That is the measurement model's conditional mean at its default
    constants (`MeasurementModel`); other constants give another mean, and
    an infinite ``beta`` gives d * alpha * measured.
    """
    measured = np.asarray(measured, dtype=float)
    if _any(measured < 0):
        raise ValueError("measured must be >= 0")
    out = model.d * measured
    if out.ndim == 0:
        return float(out)
    return out
