"""The instrument model against its pre-optimisation copy in `pod_reference.py`.

Every call goes to both versions with the same arguments, and the outcomes
must agree exactly: the value (as `float.hex`, or an array's dtype, shape,
NaN positions and the bits of every other entry), the return type, the
exception type and message, and each `RuntimeWarning` with its message.
Arguments are Python floats, numpy scalars, 0-d, 1-d, 2-d and 3-d arrays and
broadcast mixes of them, over a grid that puts 0, -0, subnormals, 1e300,
+-inf, NaN and out-of-domain values in each argument.  The random draws are
fixed by their seeds and counts, so every run makes the same calls.
"""

import importlib
import itertools
import math
import warnings

import numpy as np
import pytest

import pod_reference as ref
from msinv.pod import MeasurementModel, PodParams

cur = importlib.import_module("msinv.pod")  # the package exports a function of that name

SPECIAL = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-3, 0.3,
           1.0 - 2.0**-53, 1.0, 4.5, 150.0, 1e300, math.inf, -math.inf, math.nan, -1.0]
# the values each check lets through; NaN passes every check
VALID = [v for v in SPECIAL if not v < 0]
POSITIVE = [v for v in SPECIAL if not v <= 0]
UNIFORM = [v for v in SPECIAL if not (v <= 0 or v >= 1)]

POD_PARAMS = [PodParams(), PodParams(kappa=2.0, rate_exp=0.5, altitude_exp=1.0, wind_offset=0.5,
                                     wind_exp=2.0, outer_exp=1.0)]
MODELS = [MeasurementModel(), MeasurementModel(d=1.0, alpha=1.0, beta=math.inf)]

RANDOM_ARRAY = 20_000
RANDOM_SCALARS = 2_000


def outcome(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args)
        except Exception as exc:  # the type and message are compared
            result = ("raises", type(exc), str(exc))
        else:
            result = ("returns", type(value), bits(value))
    return result, [(w.category, str(w.message)) for w in caught]


def bits(value):
    if isinstance(value, np.ndarray):
        nan = np.isnan(value)
        return (value.dtype.str, value.shape, nan.tobytes(),
                np.where(nan, 0.0, value).tobytes())
    return float.hex(value)


def assert_same(name, *args):
    got = outcome(getattr(cur, name), *args)
    want = outcome(getattr(ref, name), *args)
    assert got == want, (name, args)


def wrappers(value):
    """One value as a Python float, a numpy scalar, a 0-d and a 1-d array."""
    return [value, np.float64(value), np.asarray(value), np.asarray([value])]


@pytest.mark.parametrize("params", POD_PARAMS, ids=["default", "custom"])
def test_pod_matches_on_every_scalar_triple_of_the_grid(params):
    for rate, altitude, wind in itertools.product(SPECIAL, repeat=3):
        assert_same("pod", rate, altitude, wind, params)


def test_a_nan_in_any_argument_gives_pod_zero_as_the_docstring_says():
    for args in ([math.nan, 150.0, 4.5], [37.5, math.nan, 4.5], [37.5, 150.0, math.nan]):
        assert float.hex(cur.pod(*args)) == float.hex(ref.pod(*args)) == "0x0.0p+0"
        assert cur.pod(*[np.array([v, v]) for v in args]).tolist() == [0.0, 0.0]


def test_pod_matches_on_wrapped_and_mixed_scalars():
    values = [0.0, 5e-324, 37.5, 1e300, math.inf, math.nan, -1.0]
    for rate, altitude, wind in itertools.product(values, [150.0, 1e-310, math.inf, 0.0],
                                                  [4.5, math.inf, -0.0]):
        for wrapped in itertools.product(wrappers(rate), wrappers(altitude), wrappers(wind)):
            assert_same("pod", *wrapped)


@pytest.mark.parametrize("params", POD_PARAMS, ids=["default", "custom"])
def test_pod_matches_on_arrays_and_broadcasts(params):
    grids = [np.array(VALID), np.array(POSITIVE), np.array(VALID)]
    rate, altitude, wind = grids
    # every valid triple at once, as a 3-d broadcast of three 1-d axes
    assert_same("pod", rate[:, None, None], altitude[None, :, None], wind[None, None, :], params)
    # 2-d against 1-d and scalars, and each argument's grid as a 1-d array
    assert_same("pod", rate[:, None], altitude[None, :], 4.5, params)
    assert_same("pod", 37.5, altitude[:, None], wind, params)
    for position, grid in enumerate(grids):
        args = [37.5, 150.0, 4.5]
        args[position] = grid
        assert_same("pod", *args, params)
        # one invalid entry anywhere in an array, alone or after another's
        for bad in (-1.0, -math.inf, 0.0):
            for at in (0, len(grid) // 2, len(grid) - 1):
                arr = grid.copy()
                arr[at] = bad
                args[position] = arr
                assert_same("pod", *args, params)
                assert_same("pod", -1.0, *args[1:], params)
                assert_same("pod", *args[:2], -1.0, params)


def test_pod_matches_on_random_draws():
    rng = np.random.default_rng(20240101)
    rate = rng.lognormal(3.0, 2.0, RANDOM_ARRAY)
    altitude = rng.uniform(50.0, 900.0, RANDOM_ARRAY)
    wind = rng.uniform(0.0, 12.0, RANDOM_ARRAY)
    assert_same("pod", rate, altitude, wind)
    assert_same("pod", rate.reshape(100, -1), altitude.reshape(100, -1), wind.reshape(100, -1))
    for i in range(RANDOM_SCALARS):
        assert_same("pod", float(rate[i]), float(altitude[i]), float(wind[i]))


@pytest.mark.parametrize("model", MODELS, ids=["default", "point-mass"])
def test_sample_true_rate_matches_on_the_grid_and_arrays(model):
    for measured, u in itertools.product(SPECIAL, repeat=2):
        for wrapped in itertools.product(wrappers(measured), wrappers(u)):
            assert_same("sample_true_rate", *wrapped, model)
    measured = np.array(VALID)
    inside = np.array(UNIFORM)
    assert_same("sample_true_rate", measured[:, None], inside[None, :], model)
    assert_same("sample_true_rate", measured, 0.5, model)
    assert_same("sample_true_rate", 12.0, inside, model)
    for bad_u in (0.0, 1.0, -0.0, math.inf, -1.0):
        assert_same("sample_true_rate", measured[:, None], np.append(inside, bad_u), model)
        assert_same("sample_true_rate", np.append(measured, -1.0), np.append(inside, bad_u), model)
    rng = np.random.default_rng(20240102)
    measured = rng.lognormal(3.0, 1.5, RANDOM_ARRAY)
    u = rng.random(RANDOM_ARRAY)
    assert_same("sample_true_rate", measured, u, model)
    for i in range(RANDOM_SCALARS):
        assert_same("sample_true_rate", float(measured[i]), float(u[i]), model)


@pytest.mark.parametrize("model", MODELS, ids=["default", "point-mass"])
def test_bias_correct_matches_on_the_grid_and_arrays(model):
    for measured in SPECIAL:
        for wrapped in wrappers(measured):
            assert_same("bias_correct", wrapped, model)
    assert_same("bias_correct", np.array(VALID), model)
    assert_same("bias_correct", np.array(VALID).reshape(-1, 1) * np.ones(3), model)
    assert_same("bias_correct", np.array(SPECIAL), model)
    measured = np.random.default_rng(20240103).lognormal(3.0, 1.5, RANDOM_ARRAY)
    assert_same("bias_correct", measured, model)
    for value in measured[:RANDOM_SCALARS]:
        assert_same("bias_correct", float(value), model)
