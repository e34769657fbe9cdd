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
* Oracle queries are probabilistic: the success probability is the product
  of the phase-alignment factor (how coherently the different orders
  contribute to each basis amplitude) and a norm factor penalizing small
  interference norms, tempered by the patience parameter lambda.  A failed
  query returns a structured failure rather than raising, so callers can
  retry under a budget.
* Unitaries coming from circuits are permutation tables; dense matrices
  are for hand-built examples.  Keeping permutations as index tables makes
  an order-interference query cost O(m! * m * 2^n) instead of paying for
  matrix products.
* Amplitudes are float64 unless a value needs complex128: a state built
  from real input, and every permutation of it, stays real, while complex
  input (a state read from JSON) or a dense matrix (always complex)
  promotes the result by numpy's type promotion.
* A choice-interference query over permutation tables on a real
  non-negative state (every counting state of the decision pipeline) adds
  the permuted states into one vector, without the per-choice block: no
  amplitude can cancel, so the phase alignment is exactly 1.  Dense
  matrices, complex states and mixed-sign states take the block path.
* The inner products and norms a report reads are numpy's own pairwise
  sums, which add in one fixed order; a BLAS dot adds in an order that
  follows its thread count.

All operations are pure given an explicit generator; concurrent tasks
should each derive their own stream via ``seeding.derive_rng``.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .circuits import eval_circuit_batch
from .config import MAX_ORACLE_UNITARIES, QUBIT_CAP
from .errors import (
    DegenerateInputError,
    InvalidPairError,
    PreconditionError,
    ResourceError,
    WidthError,
)
from .invseq import InvPair
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
    """Either a permutation of basis states (index table) or a dense matrix."""

    n: int
    table: np.ndarray | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if not 0 <= require_int(self.n, "n") <= QUBIT_CAP:
            raise WidthError(f"unitary n must lie in [0, {QUBIT_CAP}] qubits, got n = {self.n}")
        dim = 1 << self.n
        if (self.table is None) == (self.matrix is None):
            raise ValueError("exactly one of table/matrix must be given")
        if self.table is not None:
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

    The full table is built by evaluating the forward circuit on every
    basis state, and checked to be a bijection by SimUnitary; a
    non-invertible forward map surfaces as InvalidPairError.
    """
    if not 0 <= z < 1 << pair.r:
        raise WidthError(f"randomness {z!r} does not fit {pair.r} bits")
    table = eval_circuit_batch(pair.forward, (np.arange(1 << pair.k) << pair.r) | z)
    try:
        return SimUnitary(pair.k, table=table)
    except InvalidPairError as exc:
        raise InvalidPairError(
            f"forward circuit is not a permutation for randomness {z!r}"
        ) from exc


# ---------------------------------------------------------------------------
# order interference

def _check_query(
    unitaries: tuple[SimUnitary, ...], psi: StateVector, lam: int | None = None
) -> None:
    """Validation shared by the two oracles and by oi_vector, which takes no
    lambda; the order-interference oracle checks its query with lambda
    before it reads oi_vector.  The unitary count is capped before any of
    the m! orderings is enumerated."""
    m = len(unitaries)
    if m < 1:
        raise ValueError("need at least one unitary")
    if m > MAX_ORACLE_UNITARIES:
        raise ResourceError(
            f"{m} unitaries means {math.factorial(m)} orderings; "
            f"cap is {MAX_ORACLE_UNITARIES}"
        )
    if any(u.n != psi.n for u in unitaries):
        raise WidthError("all unitaries must act on the state's qubit count")
    if lam is not None and not 1 <= lam <= sys.float_info.max:  # 1/lambda is a float
        raise ValueError("lambda must be a positive integer within the float range")
    if not psi.is_normalized():
        raise PreconditionError("query state must be normalized")


@dataclass(frozen=True, eq=False)
class OIVectorResult:
    vector: np.ndarray                 # unnormalized sum over orderings
    alphas: np.ndarray                 # (orderings, 2^n) per-ordering amplitudes


def _alphas(
    unitaries: tuple[SimUnitary, ...],
    psi: StateVector,
    orderings: tuple[tuple[int, ...], ...],
) -> np.ndarray:
    """Per-ordering amplitudes, shape (orderings, 2^n): row j applies the
    unitaries of orderings[j] in turn.  Order interference takes the m!
    permutations, choice interference the m one-element orderings.  Rows
    are real unless the state or a dense matrix is complex."""
    dtype = np.result_type(psi.amps, *(u.matrix for u in unitaries if u.matrix is not None))
    alphas = np.empty((len(orderings), 1 << psi.n), dtype=dtype)
    for row, ordering in enumerate(orderings):
        amps = psi.amps
        for index in ordering:
            amps = unitaries[index].apply(amps)
        alphas[row] = amps
    return alphas


def oi_vector(unitaries: tuple[SimUnitary, ...], psi: StateVector) -> OIVectorResult:
    """Sum over all m! application orders; ordering (i, j, ...) applies
    unitary i first."""
    unitaries = tuple(unitaries)
    _check_query(unitaries, psi)
    orderings = tuple(itertools.permutations(range(len(unitaries))))
    alphas = _alphas(unitaries, psi, orderings)
    return OIVectorResult(alphas.sum(axis=0), alphas)


def phase_alignment(alphas: np.ndarray) -> float:
    """How coherently the per-ordering amplitudes add, in [0, 1]; exactly 1
    when every amplitude is real and non-negative, since none can cancel."""
    denominator = float(np.abs(alphas).sum())
    if denominator == 0.0:
        raise DegenerateInputError("all per-ordering amplitudes are zero")
    if alphas.real.min() >= 0 and not (np.iscomplexobj(alphas) and alphas.imag.any()):
        return 1.0
    numerator = float(np.abs(alphas.sum(axis=0)).sum())
    return min(numerator / denominator, 1.0)


@dataclass(frozen=True, eq=False)
class OIOutcome:
    """Result of one probabilistic oracle query.

    ``interference_norm`` is the norm of the raw (unnormalized)
    interference vector; ``norm_factor`` the patience-tempered factor it
    contributes to the success probability.  The state is present only on
    success.
    """

    success: bool
    state: StateVector | None
    interference_norm: float
    phase_alignment: float
    norm_factor: float
    success_probability: float

    def diagnostics_dict(self) -> dict:
        return {
            "oi_norm": self.interference_norm,
            "phase_alignment": self.phase_alignment,
            "success_probability": self.success_probability,
        }


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
    success = norm > 0 and bool(rng.random() < probability)
    state = StateVector(n, vector / norm) if success else None
    return OIOutcome(success, state, norm, alignment, norm_factor, probability)


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
    _check_query(unitaries, psi, lam)
    result = oi_vector(unitaries, psi)
    return _oracle_outcome(
        result.vector, phase_alignment(result.alphas), len(result.alphas), lam, psi.n, rng
    )


# ---------------------------------------------------------------------------
# choice interference

def ci_oracle_query(
    unitaries: tuple[SimUnitary, ...],
    psi: StateVector,
    lam: int,
    rng: np.random.Generator,
) -> OIOutcome:
    """Choice-interference oracle, simulated at the contract level: success
    probability alignment * (||CI||/m) / (||CI||/m + 1/lambda), success
    state CI/||CI||.

    When every unitary is a permutation table and psi is real and
    non-negative, CI is summed in place, choice by choice in order (the
    additions the block's column sums make), and the alignment is exactly
    1.  Otherwise the per-choice block is built and its alignment taken.
    """
    unitaries = tuple(unitaries)
    _check_query(unitaries, psi, lam)
    if (
        all(u.table is not None for u in unitaries)
        and not np.iscomplexobj(psi.amps)
        and psi.amps.min() >= 0
    ):
        vector = unitaries[0].apply(psi.amps)
        for unitary in unitaries[1:]:
            vector += unitary.apply(psi.amps)
        alignment = 1.0
    else:
        alphas = _alphas(unitaries, psi, tuple((i,) for i in range(len(unitaries))))
        vector, alignment = alphas.sum(axis=0), phase_alignment(alphas)
    return _oracle_outcome(vector, alignment, len(unitaries), lam, psi.n, rng)


# ---------------------------------------------------------------------------
# swap test

@dataclass(frozen=True)
class SwapTestResult:
    estimate: float        # 2 * accept fraction - 1
    exact_overlap: float   # |<phi|psi>|^2, for oracle checks
    accepts: int
    shots: int


def swap_test(
    phi: StateVector, psi: StateVector, shots: int, rng: np.random.Generator
) -> SwapTestResult:
    """Simulate the swap-test estimator of |<phi|psi>|^2.

    Each shot accepts with probability 1/2 + |<phi|psi>|^2 / 2; the
    estimate is 2 * (accept fraction) - 1 and may dip below zero by shot
    noise.
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
    accepts = int(np.count_nonzero(rng.random(shots) < accept_probability))
    return SwapTestResult(2.0 * accepts / shots - 1.0, float(overlap), accepts, shots)
