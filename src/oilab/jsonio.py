"""JSON plumbing: canonical dumps, atomic writes, exact probability strings.

Probabilities cross file boundaries as strings, not floats: a decimal string
when the value has a finite decimal expansion, a ``p/q`` string otherwise.
Python floats passed in from code are read as their shortest decimal
representation (``repr``), which is what a human typing ``0.1`` means.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from typing import Any

import numpy as np

from .errors import ParseError


def as_exact_probability(value) -> Fraction:
    """Coerce a probability-like value to an exact Fraction in [0, 1]."""
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, int) and not isinstance(value, bool):  # JSON true is no 1
        frac = Fraction(value)
    elif isinstance(value, float):
        frac = Fraction(repr(value))
    elif isinstance(value, str):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse probability {value!r}") from exc
    else:
        raise ParseError(f"cannot parse probability of type {type(value).__name__}")
    if not 0 <= frac <= 1:
        raise ParseError(f"probability {frac} outside [0, 1]")
    return frac


def fraction_to_string(frac: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a·5^b, else 'p/q'."""
    den = frac.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{frac.numerator}/{frac.denominator}"
    shift = max(twos, fives)
    scaled = frac.numerator * 10 ** shift // frac.denominator
    if shift == 0:
        return str(scaled)
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


def canonical_dumps(obj: Any) -> str:
    """Sorted, indented JSON; a NaN or an infinity raises ValueError, since
    neither is JSON."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def config_hash(obj: Any) -> str:
    """Short stable hash over a JSON-serializable configuration record."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".oilab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj: Any) -> None:
    atomic_write_text(path, canonical_dumps(obj))


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ParseError(f"{token} is not a finite JSON number")
    return value


def load_json(path: str) -> Any:
    """Parse strict JSON: the NaN and Infinity tokens that Python's json
    module accepts, and float literals beyond the float range, raise
    ParseError."""
    try:
        with open(path) as handle:
            return json.load(handle, parse_float=_finite_float, parse_constant=_finite_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def require_int(value, what: str) -> int:
    # bool is an int subclass, but a JSON ``true`` is no count or index
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def require_real(value, what: str):
    """Return a finite int or float as is; an int of any size is finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) < math.inf:
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return value


def int_array(value, what: str) -> np.ndarray:
    """An int64 array from an integer ndarray, or from a rectangular nested
    list of ints within the int64 range; anything else raises TypeError."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu" and np.can_cast(value.dtype, np.int64):
        return value.astype(np.int64, copy=False)
    if not isinstance(value, (list, np.ndarray)):
        raise TypeError(f"{what} must be a list of ints, got {value!r}")
    leaves = np.array(value, dtype=object)
    for leaf in leaves.flat:  # the rows of a ragged list are leaves, and fail here
        if not -(1 << 63) <= require_int(leaf, f"{what} entry") < 1 << 63:
            raise TypeError(f"{what} entry {leaf} does not fit int64")
    return leaves.astype(np.int64)


def require_field(obj: dict, key: str, context: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{context} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ParseError(f"missing field {key!r} in {context}")
    return obj[key]


@contextmanager
def typed_fields(context: str):
    """Report a TypeError raised while building ``context`` from JSON fields
    (a string where a number belongs, a number where a list belongs) as a
    ParseError."""
    try:
        yield
    except TypeError as exc:
        raise ParseError(f"ill-typed field in {context}: {exc}") from exc
