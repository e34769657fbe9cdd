"""Resource caps for the brute-force and simulation paths.

The defaults are desk-scale bounds: enumeration over at most 2^24 inputs,
at most 8 unitaries per order-interference query (8! orderings), and
state vectors of at most 14 qubits.  All of them are plain data and can be
overridden per call site.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_CAP_BITS = "OILAB_CAP_BITS"


@dataclass(frozen=True)
class Caps:
    enum_bits: int = 24          # max input bits for exact enumeration
    max_oracle_unitaries: int = 8  # max m per OI query (m! orderings)
    qubit_cap: int = 14          # max state-vector width
    cvp_enum_cap: int = 2 ** 20  # max q**n for exact CVP enumeration

    def __post_init__(self):
        if min(self.enum_bits, self.max_oracle_unitaries, self.qubit_cap, self.cvp_enum_cap) <= 0:
            raise ValueError("all caps must be positive")


DEFAULT_CAPS = Caps()


def caps_from_env(bits: int | None = None) -> Caps:
    """Default caps with the enumeration budget set to ``bits``, or to
    OILAB_CAP_BITS when ``bits`` is None and the variable is set.

    The budget bounds both brute-force paths: exact enumeration over at
    most 2^bits inputs and exact CVP over at most 2^bits candidates.
    """
    if bits is None:
        raw = os.environ.get(ENV_CAP_BITS)
        if raw is None:
            return DEFAULT_CAPS
        try:
            bits = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_CAP_BITS} must be an integer, got {raw!r}") from exc
    return replace(DEFAULT_CAPS, enum_bits=bits, cvp_enum_cap=2 ** bits)
