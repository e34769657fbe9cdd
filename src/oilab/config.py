"""Desk-scale limits for the brute-force and simulation paths.

Exact enumeration runs over at most 2^ENUM_BITS inputs and exact CVP over
at most 2^CVP_BITS candidates; an order-interference query takes at most
MAX_ORACLE_UNITARIES unitaries (m! orderings), and state vectors have at
most QUBIT_CAP qubits.  Only the two brute-force budgets vary: the
functions behind them take ``cap_bits``, which the CLI reads from
``--cap-bits`` alone.
"""

ENUM_BITS = 24
CVP_BITS = 20
MAX_ORACLE_UNITARIES = 8
QUBIT_CAP = 14
