"""Canonical JSON: a float64 array is written in one step, byte for byte as
the walk writes the same numbers as nested lists."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwlab import jsonio
from pwlab.pwspace import default_grid, sinc_kernel
from pwlab.symbols import gaussian_symbol, sampled_symbol, to_dict
from pwlab.toeplitz import matrix_to_dict, toeplitz_matrix

_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e100, -1e100,
                     3.0, -17.0, 0.1 + 0.2, 1.2345678901234567e-5]))


@st.composite
def _arrays(draw):
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from([(n,), (n, 2), (n, n, 2)]))
    values = draw(st.lists(_FLOATS, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.float64).reshape(shape)


def _nest(value, depth: int):
    """value `depth` levels deep, alternately in a dict and a list."""
    for i in range(depth):
        value = {"k%d" % i: value, "z": 1.5} if i % 2 else [0.5, value]
    return value


@settings(max_examples=200)
@given(arr=_arrays(), depth=st.integers(0, 3))
def test_float_array_matches_the_walk(arr, depth):
    assert (jsonio.dumps_canonical(_nest(arr, depth))
            == jsonio.dumps_canonical(_nest(arr.tolist(), depth)))


@pytest.mark.parametrize("arr", [
    np.zeros(0), np.zeros((3, 0)), np.array(2.5), np.array(-0.0),
    np.arange(6).reshape(3, 2), np.array([True, False]),
    np.array([1.5, -0.0], dtype=np.float32)])
def test_other_arrays_take_the_walk(arr):
    for depth in (0, 2):
        assert (jsonio.dumps_canonical(_nest(arr, depth))
                == jsonio.dumps_canonical(_nest(arr.tolist(), depth)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_raise_on_both_routes(bad):
    arr = np.array([[1.0, 2.0], [bad, 0.0]])
    for obj in (arr, arr.tolist(), {"a": arr}):
        with pytest.raises(ValueError, match="cannot serialize non-finite float"):
            jsonio.dumps_canonical(obj)


def test_real_payloads_survive_a_json_round_trip():
    small = default_grid(1.0, 8.0)
    payloads = [
        matrix_to_dict(toeplitz_matrix(gaussian_symbol(), 1.0, 2.0, 8.0, small)),
        jsonio.function_to_dict(sinc_kernel(0.5, 0.0, small)),
        to_dict(sampled_symbol(sinc_kernel(0.5, 0.0, small), support=(-0.5, 0.5))),
    ]
    for d in payloads:
        text = jsonio.dumps_canonical(d)
        assert jsonio.dumps_canonical(json.loads(text)) == text
