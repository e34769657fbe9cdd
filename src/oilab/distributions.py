"""Sparse distributions over fixed-width bitstrings, plus the three metrics
used by the decision pipeline: total variation distance, Bhattacharyya
fidelity, and the cosine similarity of probability vectors (the inner
product of the corresponding output-distribution states).

Two arithmetic modes coexist: exact ``Fraction`` probabilities on the
brute-force/oracle paths, and floats for metric estimation.  ``tv_distance``
stays exact whenever both operands are exact; ``fidelity`` and
``cosine_similarity`` involve square roots and always return floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import DegenerateInputError, ParseError, WidthError
from .jsonio import fraction_to_string

SUM_TOLERANCE = 1e-12


def _validate_key(key: str, width: int) -> None:
    if len(key) != width or any(ch not in "01" for ch in key):
        raise WidthError(f"key {key!r} is not a {width}-bit string")


@dataclass(frozen=True, eq=True)
class Distribution:
    """Probability map over {0,1}^width, sparse (zero-mass keys dropped)."""

    width: int
    probs: Mapping[str, Fraction | float] = field(default_factory=dict)

    def __post_init__(self):
        if self.width < 0:
            raise WidthError("width must be non-negative")
        cleaned = {}
        for key, value in self.probs.items():
            _validate_key(key, self.width)
            if value < 0:
                raise ValueError(f"negative probability at {key!r}")
            if value != 0:
                cleaned[key] = value
        object.__setattr__(self, "probs", cleaned)
        total = sum(cleaned.values())
        if self.is_exact:
            if total != 1:
                raise ValueError(f"exact probabilities sum to {total}, not 1")
        elif abs(float(total) - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"probabilities sum to {float(total)!r}")

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.probs.values())

    def prob(self, key: str) -> Fraction | float:
        _validate_key(key, self.width)
        return self.probs.get(key, 0)

    def support(self) -> list[str]:
        return sorted(self.probs)

    def marginal(self, start: int, stop: int) -> "Distribution":
        """Marginal over the bit slice [start, stop)."""
        if not 0 <= start <= stop <= self.width:
            raise WidthError(f"slice [{start}, {stop}) outside width {self.width}")
        out: dict[str, Fraction | float] = {}
        for key, value in self.probs.items():
            sub = key[start:stop]
            out[sub] = out.get(sub, 0) + value
        return Distribution(stop - start, out)

    def to_json_dict(self) -> dict:
        probs = {}
        for key, value in sorted(self.probs.items()):
            hexkey = format(int(key, 2), f"0{max(1, (self.width + 3) // 4)}x") if self.width else "0"
            if isinstance(value, (Fraction, int)):
                probs[hexkey] = fraction_to_string(Fraction(value))
            else:
                probs[hexkey] = repr(float(value))
        return {"width": self.width, "probs": probs}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Distribution":
        from .jsonio import require_field

        width = require_field(obj, "width", "distribution object")
        raw = require_field(obj, "probs", "distribution object")
        probs: dict[str, Fraction] = {}
        for hexkey, value in raw.items():
            try:
                key = format(int(hexkey, 16), f"0{width}b") if width else ""
            except ValueError as exc:
                raise ParseError(f"bad hex key {hexkey!r} in distribution") from exc
            if len(key) > width:
                raise ParseError(f"key {hexkey!r} does not fit width {width}")
            probs[key] = Fraction(value)
        return cls(width, probs)


def uniform_distribution(width: int) -> Distribution:
    prob = Fraction(1, 2 ** width)
    return Distribution(width, {format(i, f"0{width}b"): prob for i in range(2 ** width)})


def point_mass(width: int, key: str) -> Distribution:
    return Distribution(width, {key: Fraction(1)})


def _check_same_width(d0: Distribution, d1: Distribution) -> None:
    if d0.width != d1.width:
        raise WidthError(f"domain widths differ: {d0.width} vs {d1.width}")


def tv_distance(d0: Distribution, d1: Distribution) -> Fraction | float:
    """(1/2) sum over the joint support of |p0 - p1|; exact for exact inputs."""
    _check_same_width(d0, d1)
    keys = set(d0.probs) | set(d1.probs)
    total = sum(abs(d0.probs.get(k, 0) - d1.probs.get(k, 0)) for k in keys)
    if isinstance(total, Fraction):
        return total / 2
    return float(total) / 2.0


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
