"""Exact state-vector simulation of order and choice interference.

Conventions
-----------
* Basis index ``i`` of an ``n``-qubit vector corresponds to the bitstring
  ``format(i, f"0{n}b")`` (leftmost character = most significant bit),
  matching the circuit layer.
* The order-interference vector of m unitaries is the unnormalized sum,
  over all m! application orders, of the composed unitaries applied to the
  input state.  Its norm lies in [0, m!] and can vanish outright (X and Z
  anticommute, so their two orders cancel on every state).
* The choice-interference vector is the same sum over the m one-element
  choices.  One kernel serves both oracles: it adds each ordering's
  amplitudes into one vector as they are made, so a query holds O(2^n)
  amplitudes, never a block of m! or m rows.
* Oracle queries are probabilistic: the success probability is the product
  of the phase-alignment factor (how coherently the different orders
  contribute to each basis amplitude) and a norm factor penalizing small
  interference norms, tempered by the patience parameter lambda.  A failed
  query returns a structured failure rather than raising, so callers can
  retry under a budget.  A retry is a new coin on the same query
  (``oracle_draw``, the one place the coin rule is stated): the outcome
  carries its normalized interference state whether or not it succeeded.
* Unitaries coming from circuits are permutations: index tables, or XOR
  masks x -> x ^ flip, which reverse the flipped bits' axes of the
  amplitudes viewed as a (2,) * n array and need no table.  Dense matrices
  are for hand-built examples.  Keeping permutations out of matrix form
  makes an order-interference query cost O(m! * m * 2^n) instead of paying
  for matrix products.  A table is evaluated from its circuit on every
  basis state, except that a step (x, y) -> (x, y XOR g(x)) is evaluated
  on the 2^p rows (x, 0) of its p-bit prefix only and expanded by XOR.
* Amplitudes are float64 unless a value needs complex128: a state built
  from real input, and every permutation of it, stays real, while complex
  input (a state read from JSON) or a dense matrix (always complex)
  promotes the result by numpy's type promotion.
* Over permutations on a real non-negative state (every counting state
  of the decision pipeline) no amplitude can cancel, so the phase
  alignment is exactly 1 without a per-ordering pass.  Dense matrices,
  complex states and mixed-sign states pay that pass.
* The inner products and norms a report reads are numpy's own pairwise
  sums, which add in one fixed order; a BLAS dot adds in an order that
  follows its thread count.
* One ``swap_test`` call runs any number of trials on one overlap, one
  generator per trial.  Its estimates come from one process-wide table
  keyed by (accepts, shots), so equal estimates are one float object.

All operations are pure given an explicit generator; concurrent tasks
should each derive their own stream via ``seeding.derive_rng``.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .circuits import eval_circuit_batch
from .config import MAX_ORACLE_UNITARIES, QUBIT_CAP
from .errors import InvalidPairError, PreconditionError, ResourceError, WidthError
from .invseq import InvPair, xor_shift_prefix
from .jsonio import int_array, require_field, require_int, require_real, typed_fields

NORMALIZATION_TOLERANCE = 1e-10
UNITARITY_TOLERANCE = 1e-9


def _complex(re, im) -> complex:
    return complex(require_real(re, "real part"), require_real(im, "imaginary part"))


def _inner(a: np.ndarray, b: np.ndarray):
    """<a|b> by numpy's own pairwise sum, which adds in one fixed order; a
    BLAS dot's order follows its thread count, and a report must not."""
    return np.add.reduce(a.conj() * b)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Amplitudes over n qubits; index i <-> n-bit string of i.  Real input
    is kept as float64, complex input as complex128."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps)
        amps = amps.astype(np.complex128 if np.iscomplexobj(amps) else np.float64, copy=False)
        if amps.shape != (1 << self.n,):
            raise WidthError(f"amplitude vector must have length 2^{self.n}")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def zero(cls, n: int) -> "StateVector":
        amps = np.zeros(1 << n)
        amps[0] = 1.0
        return cls(n, amps)

    def is_normalized(self) -> bool:
        return abs(float(np.linalg.norm(self.amps)) - 1.0) <= NORMALIZATION_TOLERANCE

    def inner(self, other: "StateVector") -> complex:
        if self.n != other.n:
            raise WidthError("qubit counts differ")
        return complex(_inner(self.amps, other.amps))

    def to_json_list(self) -> list:
        return [[float(a.real), float(a.imag)] for a in self.amps]

    @classmethod
    def from_json_list(cls, pairs: list) -> "StateVector":
        with typed_fields("state vector"):
            amps = np.array([_complex(re, im) for re, im in pairs], dtype=np.complex128)
            n = len(amps).bit_length() - 1
            if n < 0 or 1 << n != len(amps):
                raise WidthError(f"psi has {len(amps)} amplitudes, not a power of two")
            return cls(n, amps)


@dataclass(frozen=True, eq=False)
class SimUnitary:
    """A permutation of basis states, as an index table or as the XOR mask
    x -> x ^ flip, or a dense matrix."""

    n: int
    table: np.ndarray | None = None
    matrix: np.ndarray | None = None
    flip: int | None = None

    def __post_init__(self):
        if not 0 <= require_int(self.n, "n") <= QUBIT_CAP:
            raise WidthError(f"unitary n must lie in [0, {QUBIT_CAP}] qubits, got n = {self.n}")
        dim = 1 << self.n
        if sum(form is not None for form in (self.table, self.matrix, self.flip)) != 1:
            raise ValueError("exactly one of table/matrix/flip must be given")
        if self.flip is not None:
            if not 0 <= require_int(self.flip, "flip mask") < dim:
                raise InvalidPairError(f"flip mask {self.flip} does not fit {self.n} qubits")
        elif self.table is not None:
            table = int_array(self.table, "permutation table")
            seen = np.zeros(dim, dtype=bool)
            # range-checked first: a negative entry would wrap in the scatter
            if table.shape == (dim,) and table.min() >= 0 and table.max() < dim:
                seen[table] = True
            if not seen.all():
                raise InvalidPairError("permutation table is not a bijection on the basis")
            object.__setattr__(self, "table", table)
        else:
            matrix = np.asarray(self.matrix, dtype=np.complex128)
            if matrix.shape != (dim, dim):
                raise WidthError(f"matrix must be {dim}x{dim}")
            defect = np.abs(matrix.conj().T @ matrix - np.eye(dim)).max()
            if defect > UNITARITY_TOLERANCE:
                raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
            object.__setattr__(self, "matrix", matrix)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The amplitudes after the unitary, in a new array; only the
        identity mask (flip 0) hands back its input."""
        if self.flip is not None:
            if not self.flip:
                return amps
            # bit j of the mask, counted from the most significant, is axis j
            axes = [j for j in range(self.n) if self.flip >> (self.n - 1 - j) & 1]
            return np.flip(amps.reshape((2,) * self.n), axes).flatten()
        if self.table is not None:
            out = np.empty_like(amps)
            out[self.table] = amps
            return out
        return self.matrix @ amps

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimUnitary":
        with typed_fields("unitary object"):
            kind = require_field(obj, "kind", "unitary object")
            n = require_field(obj, "n", "unitary object")
            if kind == "permutation":
                return cls(n, table=require_field(obj, "table", "unitary object"))
            if kind == "dense":
                rows = require_field(obj, "matrix", "unitary object")
                matrix = np.array([[_complex(re, im) for re, im in row] for row in rows])
                return cls(n, matrix=matrix)
            raise ValueError(f"unknown unitary kind {kind!r}")


def permutation_unitary_from_circuit(pair: InvPair, z: int) -> SimUnitary:
    """Basis permutation x -> forward(x; z) for one hard-wired randomness,
    packed MSB first like the state bits.

    The table is the forward circuit's value on every basis state.  A step
    (x, y) -> (x, y XOR g(x)) over a p-bit prefix x (``invseq.xor_shift_prefix``,
    read from the circuit alone) is evaluated on the 2^p rows (x, 0) only:
    row (x, y) of the table is head x XOR y.  Either table is checked to be
    a bijection by SimUnitary; a non-invertible forward map surfaces as
    InvalidPairError.
    """
    if not 0 <= z < 1 << pair.r:
        raise WidthError(f"randomness {z!r} does not fit {pair.r} bits")
    prefix = xor_shift_prefix(pair)
    if prefix is None:
        table = eval_circuit_batch(pair.forward, (np.arange(1 << pair.k) << pair.r) | z)
    else:
        tail = pair.k - prefix
        heads = eval_circuit_batch(pair.forward, np.arange(1 << prefix) << tail)
        table = (heads[:, None] ^ np.arange(1 << tail)).reshape(-1)
    try:
        return SimUnitary(pair.k, table=table)
    except InvalidPairError as exc:
        raise InvalidPairError(
            f"forward circuit is not a permutation for randomness {z!r}"
        ) from exc


# ---------------------------------------------------------------------------
# order and choice interference

def _check_query(
    unitaries: tuple[SimUnitary, ...], psi: StateVector, lam: int, ordered: bool
) -> None:
    """Validation shared by the two oracles.  The unitary count is capped
    before any ordering is enumerated: order interference has m! of them,
    choice interference m one-element choices."""
    m = len(unitaries)
    if m < 1:
        raise ValueError("need at least one unitary")
    if m > MAX_ORACLE_UNITARIES:
        count = f"{m}! orderings" if ordered else f"{m} choices"
        raise ResourceError(f"{m} unitaries means {count}; cap is {MAX_ORACLE_UNITARIES}")
    if any(u.n != psi.n for u in unitaries):
        raise WidthError("all unitaries must act on the state's qubit count")
    if not 1 <= lam <= sys.float_info.max:  # 1/lambda is a float
        raise ValueError("lambda must be a positive integer within the float range")
    if not psi.is_normalized():
        raise PreconditionError("query state must be normalized")


def _interference(
    unitaries: tuple[SimUnitary, ...], psi: StateVector, orderings: Iterable[tuple[int, ...]]
) -> tuple[np.ndarray, float]:
    """The unnormalized interference vector and its phase alignment.

    Ordering (i, j, ...) applies unitary i first; each ordering's amplitudes
    are added into one vector as they are made, in place while the dtypes
    agree (the row-by-row additions of a block's column sums), so only
    O(2^n) amplitudes are held.  The vector is never psi's own array,
    which the identity mask hands back.  The alignment, sum |vector| /
    sum |rows| capped at 1, says how coherently the orderings add; it is
    exactly 1 when no term is negative or imaginary, as on permutations
    over a real non-negative state, which need no per-ordering pass.
    """
    aligned = (
        all(u.matrix is None for u in unitaries)
        and not np.iscomplexobj(psi.amps)
        and psi.amps.min() >= 0
    )
    vector, mass, cancels = None, 0.0, False
    for ordering in orderings:
        amps = psi.amps
        for index in ordering:
            amps = unitaries[index].apply(amps)
        if not aligned:
            mass += float(np.abs(amps).sum())
            cancels = cancels or amps.real.min() < 0 or np.iscomplexobj(amps) and amps.imag.any()
        if vector is None:
            vector = amps
        elif vector.dtype == amps.dtype and vector is not psi.amps:
            vector += amps
        else:
            vector = vector + amps
    if aligned or not cancels:
        return vector, 1.0
    return vector, min(float(np.abs(vector).sum()) / mass, 1.0)


@dataclass(frozen=True, eq=False)
class OIOutcome:
    """Result of one probabilistic oracle query.

    ``interference_norm`` is the norm of the raw (unnormalized)
    interference vector; ``norm_factor`` the patience-tempered factor it
    contributes to the success probability.  ``candidate`` is the
    normalized interference state (None for a zero vector), which
    ``state`` returns on success only.  Another attempt on the same query
    needs only a new coin (``oracle_draw``) and, on success, the candidate.
    """

    success: bool
    candidate: StateVector | None
    interference_norm: float
    phase_alignment: float
    norm_factor: float
    success_probability: float

    @property
    def state(self) -> StateVector | None:
        return self.candidate if self.success else None

    def diagnostics_dict(self) -> dict:
        return {
            "oi_norm": self.interference_norm,
            "phase_alignment": self.phase_alignment,
            "success_probability": self.success_probability,
        }


def oracle_draw(norm: float, probability: float, rng: np.random.Generator) -> bool:
    """One attempt's coin: success with ``probability``.  A zero
    interference vector has no state to return, so it fails without a
    draw."""
    return norm > 0 and bool(rng.random() < probability)


def _oracle_outcome(
    vector: np.ndarray, alignment: float, rows: int, lam: int, n: int, rng: np.random.Generator
) -> OIOutcome:
    """One attempt, one draw, on an interference vector and its phase
    alignment; the norm is scaled by the row count (m! orderings or m
    choices)."""
    norm = math.sqrt(_inner(vector, vector).real)
    scaled = norm / rows
    norm_factor = scaled / (scaled + 1.0 / lam)
    probability = alignment * norm_factor
    candidate = StateVector(n, vector / norm) if norm > 0 else None
    success = oracle_draw(norm, probability, rng)
    return OIOutcome(success, candidate, norm, alignment, norm_factor, probability)


def oi_oracle_query(
    unitaries: tuple[SimUnitary, ...],
    psi: StateVector,
    lam: int,
    rng: np.random.Generator,
) -> OIOutcome:
    """Draw one oracle attempt: with probability
    alignment * (||OI||/m!) / (||OI||/m! + 1/lambda)
    the outcome carries the normalized order-interference state.

    A zero interference vector yields success probability 0, never an
    exception; diagnostics are populated either way.
    """
    unitaries = tuple(unitaries)
    _check_query(unitaries, psi, lam, ordered=True)
    m = len(unitaries)
    vector, alignment = _interference(unitaries, psi, itertools.permutations(range(m)))
    return _oracle_outcome(vector, alignment, math.factorial(m), lam, psi.n, rng)


def ci_oracle_query(
    unitaries: tuple[SimUnitary, ...],
    psi: StateVector,
    lam: int,
    rng: np.random.Generator,
) -> OIOutcome:
    """Choice-interference oracle, simulated at the contract level: success
    probability alignment * (||CI||/m) / (||CI||/m + 1/lambda), success
    state CI/||CI||.
    """
    unitaries = tuple(unitaries)
    _check_query(unitaries, psi, lam, ordered=False)
    vector, alignment = _interference(unitaries, psi, ((i,) for i in range(len(unitaries))))
    return _oracle_outcome(vector, alignment, len(unitaries), lam, psi.n, rng)


# ---------------------------------------------------------------------------
# swap test

@dataclass(frozen=True)
class SwapTestResult:
    estimate: float        # 2 * accept fraction - 1
    exact_overlap: float   # |<phi|psi>|^2, for oracle checks
    accepts: int
    shots: int


# every estimate a swap test has returned, by (accepts, shots), so equal
# estimates are one float: at most shots + 1 entries per shot count
_ESTIMATES: dict[tuple[int, int], float] = {}


def swap_test(
    phi: StateVector, psi: StateVector, shots: int, rngs: Iterable[np.random.Generator]
) -> tuple[SwapTestResult, ...]:
    """Simulate swap-test trials estimating |<phi|psi>|^2, one trial of
    ``shots`` shots per generator, in order.

    Each shot accepts with probability 1/2 + |<phi|psi>|^2 / 2; a trial's
    estimate is 2 * (accept fraction) - 1 and may dip below zero by shot
    noise.  The overlap and the normalization checks are computed once for
    all trials.
    """
    if phi.n != psi.n:
        raise WidthError("states must have the same qubit count")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    for state in (phi, psi):
        if not state.is_normalized():
            raise PreconditionError("swap test inputs must be normalized")
    overlap = min(abs(phi.inner(psi)) ** 2, 1.0)
    accept_probability = 0.5 + overlap / 2.0
    results = []
    for rng in rngs:
        accepts = int(np.count_nonzero(rng.random(shots) < accept_probability))
        estimate = _ESTIMATES.setdefault((accepts, shots), 2.0 * accepts / shots - 1.0)
        results.append(SwapTestResult(estimate, float(overlap), accepts, shots))
    return tuple(results)
