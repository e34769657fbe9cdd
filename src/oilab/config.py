"""Desk-scale limits for the brute-force and simulation paths.

Exact enumeration runs over at most 2^ENUM_BITS inputs and exact CVP over
at most 2^CVP_BITS candidates; an order-interference query takes at most
MAX_ORACLE_UNITARIES unitaries (m! orderings), and state vectors have at
most QUBIT_CAP qubits.  Only the two brute-force budgets vary: the
functions behind them take ``cap_bits``, which the CLI reads from
``--cap-bits`` or OILAB_CAP_BITS through ``cap_bits_from_env``.
"""

from __future__ import annotations

import os

ENUM_BITS = 24
CVP_BITS = 20
MAX_ORACLE_UNITARIES = 8
QUBIT_CAP = 14

ENV_CAP_BITS = "OILAB_CAP_BITS"


def cap_bits_from_env(bits: int | None, default: int) -> int:
    """The brute-force budget in bits: ``bits`` when given, else
    OILAB_CAP_BITS when set, else ``default``.  It must be positive."""
    if bits is None:
        raw = os.environ.get(ENV_CAP_BITS)
        if raw is None:
            return default
        try:
            bits = int(raw)
        except ValueError as exc:
            raise ValueError(f"{ENV_CAP_BITS} must be an integer, got {raw!r}") from exc
    if bits <= 0:
        raise ValueError("all caps must be positive")
    return bits
