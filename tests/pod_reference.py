"""The instrument model's functions as they were before their argument checks
were made cheap, kept as the reference `test_pod_reference.py` diffs against.

Each argument was checked with `np.any` over its comparison, and `pod`
steered a zero or NaN base through two `np.where` temporaries.  The current
functions must return the same bits, the same types, the same errors and the
same `RuntimeWarning`s for every input.  The one change kept here is in
`pod`: its denominator is computed under the `np.errstate` of its base, so an
overflow to inf there, which gives POD 0, warns of nothing, as in `msinv.pod`.
"""

from __future__ import annotations

import numpy as np

from msinv.pod import DEFAULT_MEASUREMENT, DEFAULT_POD, MeasurementModel, PodParams


def pod(rate, altitude, wind, params: PodParams = DEFAULT_POD):
    rate = np.asarray(rate, dtype=float)
    altitude = np.asarray(altitude, dtype=float)
    wind = np.asarray(wind, dtype=float)
    if np.any(rate < 0):
        raise ValueError("rate must be >= 0")
    if np.any(altitude <= 0):
        raise ValueError("altitude must be > 0")
    if np.any(wind < 0):
        raise ValueError("wind must be >= 0")

    with np.errstate(divide="ignore", over="ignore"):
        denom = (altitude / 1000.0) ** params.altitude_exp * (
            wind + params.wind_offset
        ) ** params.wind_exp
        base = params.kappa * rate**params.rate_exp / denom
        # base == 0 -> base^(-outer_exp) diverges -> exp(-inf) == 0
        powed = np.where(base > 0, base, 1.0) ** -params.outer_exp
        out = np.exp(-np.where(base > 0, powed, np.inf))
    if out.ndim == 0:
        return float(out)
    return out


def sample_true_rate(measured, uniform_draw, model: MeasurementModel = DEFAULT_MEASUREMENT):
    measured = np.asarray(measured, dtype=float)
    uniform_draw = np.asarray(uniform_draw, dtype=float)
    if np.any(measured < 0):
        raise ValueError("measured must be >= 0")
    if np.any((uniform_draw <= 0) | (uniform_draw >= 1)):
        raise ValueError("uniform_draw must lie in (0, 1)")
    scale = model.d * model.alpha * measured
    out = scale * (uniform_draw / (1.0 - uniform_draw)) ** (1.0 / model.beta)
    if out.ndim == 0:
        return float(out)
    return out


def bias_correct(measured, model: MeasurementModel = DEFAULT_MEASUREMENT):
    measured = np.asarray(measured, dtype=float)
    if np.any(measured < 0):
        raise ValueError("measured must be >= 0")
    out = model.d * measured
    if out.ndim == 0:
        return float(out)
    return out
