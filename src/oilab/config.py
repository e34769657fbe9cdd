"""Desk-scale limits for the brute-force and simulation paths.

Exact enumeration runs over at most 2^ENUM_BITS inputs and exact CVP over
at most 2^CVP_BITS candidates; an order-interference query takes at most
MAX_ORACLE_UNITARIES unitaries (m! orderings), and state vectors have at
most QUBIT_CAP qubits.  Only the two brute-force budgets vary: the
functions behind them take ``cap_bits``, which the CLI reads from
``--cap-bits`` alone.

The decision's four counts (``solver.SolverConfig``'s defaults, which the
``decide`` flags share) and the gap experiment's calibrated NO-side factor
are set here too, so the CLI parser reads them without loading the modules
that use them.
"""

ENUM_BITS = 24
CVP_BITS = 20
MAX_ORACLE_UNITARIES = 8
QUBIT_CAP = 14

LAMBDA = 100            # oracle patience parameter
RETRY_BUDGET = 50       # attempts per choice-interference call
SWAP_SHOTS = 4096
TRIAL_COUNT = 25
CALIBRATED_FACTOR = 3.0  # the NO side of the gap experiment lies beyond this many times d
