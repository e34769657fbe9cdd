"""Exact sparse distributions over packed fixed-width outcomes, plus the
three metrics used by the decision pipeline: total variation distance,
Bhattacharyya fidelity, and the cosine similarity of probability vectors
(the inner product of the corresponding output-distribution states).

An outcome is a packed int, most significant bit first, as in the circuit
layer; it doubles as the basis index of the output-distribution state.
Probabilities are ``Fraction``s and ``tv_distance`` is exact; only
``fidelity`` and ``cosine_similarity``, which take square roots, return
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import DegenerateInputError, WidthError
from .jsonio import fraction_to_string


def _validate_key(key: int, width: int) -> None:
    if not 0 <= key < 1 << width:
        raise WidthError(f"key {key!r} is not a {width}-bit outcome")


@dataclass(frozen=True, eq=True)
class Distribution:
    """Probability map over {0,1}^width, sparse (zero-mass keys dropped)."""

    width: int
    probs: Mapping[int, Fraction] = field(default_factory=dict)

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

    def prob(self, key: int) -> Fraction:
        _validate_key(key, self.width)
        return self.probs.get(key, 0)

    def support(self) -> list[int]:
        return sorted(self.probs)

    def marginal(self, start: int, stop: int) -> "Distribution":
        """Marginal over the bit slice [start, stop), counted from the MSB."""
        if not 0 <= start <= stop <= self.width:
            raise WidthError(f"slice [{start}, {stop}) outside width {self.width}")
        shift, mask = self.width - stop, (1 << (stop - start)) - 1
        out: dict[int, Fraction] = {}
        for key, value in self.probs.items():
            sub = (key >> shift) & mask
            out[sub] = out.get(sub, 0) + value
        return Distribution(stop - start, out)

    def to_json_dict(self) -> dict:
        digits = max(1, (self.width + 3) // 4)
        probs = {
            format(key, f"0{digits}x"): fraction_to_string(Fraction(value))
            for key, value in sorted(self.probs.items())
        }
        return {"width": self.width, "probs": probs}


def uniform_distribution(width: int) -> Distribution:
    prob = Fraction(1, 2 ** width)
    return Distribution(width, dict.fromkeys(range(2 ** width), prob))


def point_mass(width: int, key: int) -> Distribution:
    return Distribution(width, {key: Fraction(1)})


def _check_same_width(d0: Distribution, d1: Distribution) -> None:
    if d0.width != d1.width:
        raise WidthError(f"domain widths differ: {d0.width} vs {d1.width}")


def tv_distance(d0: Distribution, d1: Distribution) -> Fraction:
    """(1/2) sum over the joint support of |p0 - p1|, exactly."""
    _check_same_width(d0, d1)
    keys = set(d0.probs) | set(d1.probs)
    return Fraction(sum(abs(d0.probs.get(k, 0) - d1.probs.get(k, 0)) for k in keys)) / 2


def fidelity(d0: Distribution, d1: Distribution) -> float:
    """Sum of sqrt(p0 * p1); 1 iff identical, 0 iff disjoint supports."""
    _check_same_width(d0, d1)
    acc = 0.0
    for key, p0 in d0.probs.items():
        p1 = d1.probs.get(key)
        if p1 is None:
            continue
        # exact equal masses contribute exactly, avoiding sqrt round-off
        acc += float(p0) if p0 == p1 else math.sqrt(float(p0) * float(p1))
    return min(acc, 1.0)


def cosine_similarity(d0: Distribution, d1: Distribution) -> float:
    """Inner product of the unit-normalized probability vectors.

    This equals the overlap of the two output-distribution states, whose
    amplitudes are proportional to probabilities (not their square roots).
    """
    _check_same_width(d0, d1)
    if not d0.probs or not d1.probs:
        raise DegenerateInputError("cosine similarity needs nonzero mass on both sides")
    dot = sum(float(v) * float(d1.probs.get(k, 0)) for k, v in d0.probs.items())
    n0 = math.sqrt(sum(float(v) ** 2 for v in d0.probs.values()))
    n1 = math.sqrt(sum(float(v) ** 2 for v in d1.probs.values()))
    return min(dot / (n0 * n1), 1.0)
