"""Exact sparse distributions over packed fixed-width outcomes, and their
exact total-variation distance, the metric the corpus labels and the
promise gaps are stated in.

An outcome is a packed int, most significant bit first, as in the circuit
layer; it doubles as the basis index of the output-distribution state.
Probabilities are ``Fraction``s, and ``tv_distance`` returns a
``Fraction`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import WidthError


def _validate_key(key: int, width: int) -> None:
    if not 0 <= key < 1 << width:
        raise WidthError(f"key {key!r} is not a {width}-bit outcome")


@dataclass(frozen=True, eq=True)
class Distribution:
    """Probability map over {0,1}^width, sparse (zero-mass keys dropped)."""

    width: int
    probs: Mapping[int, Fraction]

    def __post_init__(self):
        if self.width < 0:
            raise WidthError("width must be non-negative")
        cleaned = {}
        for key, value in self.probs.items():
            _validate_key(key, self.width)
            if not isinstance(value, (Fraction, int)):
                raise TypeError(f"probability at {key!r} is not exact: {value!r}")
            if value < 0:
                raise ValueError(f"negative probability at {key!r}")
            if value != 0:
                cleaned[key] = value
        object.__setattr__(self, "probs", cleaned)
        # one Fraction: sum the numerators over the common denominator, which
        # is one power of two for an enumeration or a fold
        values = cleaned.values()
        common = math.lcm(*{p.denominator for p in values})
        numerator = sum(p.numerator * (common // p.denominator) for p in values)
        if numerator != common:
            raise ValueError(f"probabilities sum to {Fraction(numerator, common)}, not 1")



def tv_distance(d0: Distribution, d1: Distribution) -> Fraction:
    """(1/2) sum over the joint support of |p0 - p1|, exactly."""
    if d0.width != d1.width:
        raise WidthError(f"domain widths differ: {d0.width} vs {d1.width}")
    keys = set(d0.probs) | set(d1.probs)
    return Fraction(sum(abs(d0.probs.get(k, 0) - d1.probs.get(k, 0)) for k in keys)) / 2
