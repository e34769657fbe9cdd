import math

import numpy as np
import pytest

from oilab.errors import ParseError
from oilab.jsonio import canonical_dumps, int_array, load_json, require_real


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_dumps_refuses_non_finite_floats(value):
    with pytest.raises(ValueError):
        canonical_dumps({"x": value})


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
def test_load_json_refuses_non_finite_numbers(text, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(f'{{"x": [1, {text}]}}')
    with pytest.raises(ParseError, match=f"^{path}: "):
        load_json(str(path))


def test_load_json_keeps_finite_numbers(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"x": [1, 2.5, -1e300, 100000000000000000000000]}')
    assert load_json(str(path)) == {"x": [1, 2.5, -1e300, 10 ** 23]}


@pytest.mark.parametrize(
    "value",
    [[True, 2], [1.0, 2], ["1", 2], [None], [[1, 2], [3]], [[1], 2], [2 ** 63], [-(2 ** 63) - 1],
     5, "12", None, np.zeros(2), np.array([True]), np.array([2 ** 63], dtype=np.uint64)],
)
def test_int_array_refuses_what_is_not_an_int64_array(value):
    with pytest.raises(TypeError):
        int_array(value, "A")


def test_int_array_keeps_ints():
    extremes = [[1, -2], [2 ** 63 - 1, -(2 ** 63)]]
    assert int_array(extremes, "A").tolist() == extremes
    assert int_array([], "b").shape == (0,)
    assert int_array(np.array([3, 1], dtype=np.uint8), "b").dtype == np.int64
    table = np.arange(4)
    assert int_array(table, "table") is table


@pytest.mark.parametrize("value", [True, False, "1", None, [1.0], math.nan, math.inf, -math.inf])
def test_require_real_refuses_what_is_not_a_finite_number(value):
    with pytest.raises(ValueError, match="^d must be a real number"):
        require_real(value, "d")


@pytest.mark.parametrize("value", [0, -3, 1.5, 10 ** 400])
def test_require_real_returns_finite_numbers(value):
    assert require_real(value, "d") is value
