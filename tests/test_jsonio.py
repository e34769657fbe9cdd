import math

import pytest

from oilab.errors import ParseError
from oilab.jsonio import canonical_dumps, load_json


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
