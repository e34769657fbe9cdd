"""Decision pipeline for statistical difference over invertible sequences.

The output-distribution state of a sequence is built iteratively: starting
from the all-zero basis state, each random step is one choice-interference
oracle call over the step's per-randomness permutations (retried under a
budget, since the oracle is probabilistic), and each deterministic step is
a direct permutation application.  Each distinct step's permutations are
built once per decision (``StepTables``): a perturbation step's as two
XOR masks with no table, any other step's as tables from its circuit.  The
resulting amplitudes are proportional to the sequence's output
probabilities, so the swap test between the two states estimates the
squared cosine similarity of the two output distributions, which the
promise gap separates across a threshold.

Thresholding: a YES instance (distance <= a) keeps the squared overlap at
or above (1-a)^2 while a NO instance (distance > b) pushes it below
1 - b^2.  Those are the fidelity's bounds; for the cosine of probability
vectors, which these states measure, they hold only empirically, and the
tests keep a known YES-side counterexample.  The decision threshold is
the midpoint, and the gap (1-a)^2 - (1-b^2) = b^2 - 2a + a^2 must be
positive.  Otherwise the caller polarizes first (``invseq.polarize``);
the solver never picks an amplification itself, and raises
GapViolationError instead.  States are at most ``config.QUBIT_CAP``
qubits wide.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circuits import SdInstance
from .config import LAMBDA, QUBIT_CAP, RETRY_BUDGET, SWAP_SHOTS, TRIAL_COUNT
from .errors import GapViolationError, OracleFailureError, ResourceError
from .invseq import InvertibleSequence, InvPair, SisdInstance, decision_gap, perturbed_bit, reduce_sd_to_sisd
from .jsonio import as_exact_probability
from .qsim import SimUnitary, StateVector, ci_oracle_query, permutation_unitary_from_circuit, swap_test
from .seeding import derive_rng

AMPLITUDE_REALITY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    lam: int = LAMBDA
    retry_budget: int = RETRY_BUDGET
    swap_shots: int = SWAP_SHOTS
    trial_count: int = TRIAL_COUNT
    seed: int = 0

    def __post_init__(self):
        for name in ("lam", "retry_budget", "swap_shots", "trial_count"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ThresholdSpec:
    tau: Fraction
    gap: Fraction
    yes_bound: Fraction  # squared overlap stays >= this on the YES side
    no_bound: Fraction   # squared overlap stays <= this on the NO side


def derive_threshold(a, b) -> ThresholdSpec:
    """Exact threshold arithmetic from the promise parameters.

    yes_bound = (1-a)^2, no_bound = 1-b^2, tau their midpoint, and
    gap = b^2 - 2a + a^2 — which equals yes_bound - no_bound, so a positive
    gap is exactly what makes the two bounds separable.
    """
    a = as_exact_probability(a)
    b = as_exact_probability(b)
    gap = decision_gap(a, b)
    if gap <= 0:
        error = GapViolationError(
            f"gap b^2 - 2a + a^2 = {gap} is not positive for a={a}, b={b}; "
            "polarize the instance first"
        )
        error.gap = gap  # exact value, for callers that report it
        raise error
    yes_bound = (1 - a) * (1 - a)
    no_bound = 1 - b * b
    return ThresholdSpec((yes_bound + no_bound) / 2, gap, yes_bound, no_bound)


@dataclass(frozen=True)
class StageRecord:
    """One stage of a build; a record's stage is its index in the log."""

    r: int
    attempts: int
    success_probability: float
    min_real_amplitude: float


class StepTables(dict):
    """One decision's memo: each distinct step maps to its permutation
    unitaries, one per randomness, built on first lookup, so a
    non-bijective step fails at its own stage.

    A perturbation step (``invseq.perturbed_bit``) is the identity and
    one bit flip, two XOR masks with no table; every other step is
    evaluated through ``permutation_unitary_from_circuit``.
    """

    def __missing__(self, pair: InvPair) -> tuple[SimUnitary, ...]:
        bit = perturbed_bit(pair)
        if bit is None:
            unitaries = tuple(permutation_unitary_from_circuit(pair, z) for z in range(1 << pair.r))
        else:
            k = pair.k
            unitaries = (SimUnitary(k, flip=0), SimUnitary(k, flip=1 << (k - 1 - bit)))
        self[pair] = unitaries
        return unitaries


def build_output_state(
    seq: InvertibleSequence,
    cfg: SolverConfig,
    rng: np.random.Generator,
    stage_log: list[StageRecord] | None = None,
    tables: StepTables | None = None,
) -> StateVector:
    """Iteratively build the sequence's output-distribution state.

    Every random step queries the choice-interference oracle over its
    2^r permutation unitaries, retrying up to cfg.retry_budget times;
    exhaustion raises OracleFailureError with the stage index.  States wider
    than QUBIT_CAP qubits raise ResourceError up front.  All intermediate
    states must keep non-negative real amplitudes (they are counting
    states), which is asserted per stage.

    ``tables`` is the decision's step memo; a step equal to one already
    built reads its entry.
    """
    if seq.k > QUBIT_CAP:
        raise ResourceError(f"state width {seq.k} exceeds qubit cap {QUBIT_CAP}")
    if tables is None:
        tables = StepTables()
    state = StateVector.zero(seq.k)
    for stage, pair in enumerate(seq.pairs):
        unitaries = tables[pair]
        if pair.r == 0:
            state = StateVector(seq.k, unitaries[0].apply(state.amps))
            attempts, probability = 0, 1.0
        else:
            for attempts in range(1, cfg.retry_budget + 1):
                outcome = ci_oracle_query(unitaries, state, cfg.lam, rng)
                if outcome.success:
                    break
            else:
                raise OracleFailureError(stage, outcome.success_probability, attempts)
            state = outcome.state
            probability = outcome.success_probability
        # float64 throughout: the zero state is real and every table a permutation
        min_real = float(state.amps.real.min())
        if min_real < -AMPLITUDE_REALITY_TOLERANCE:
            raise AssertionError(f"stage {stage} produced a negative amplitude")
        if stage_log is not None:
            stage_log.append(StageRecord(pair.r, attempts, probability, min_real))
    return state


@dataclass(frozen=True)
class Decision:
    verdict: str                      # "YES" | "NO"
    estimate: float                   # median swap-test estimate
    tau: float
    gap: float
    trials: tuple[float, ...]
    exact_overlap: float
    stage_log0: tuple[StageRecord, ...] = field(repr=False)
    stage_log1: tuple[StageRecord, ...] = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "estimate": self.estimate,
            "tau": self.tau,
            "gap": self.gap,
            "trials": list(self.trials),
            "exact_overlap": self.exact_overlap,
            "oracle_attempts": [
                [record.attempts for record in log]
                for log in (self.stage_log0, self.stage_log1)
            ],
        }


def decide_sisd(inst: SisdInstance, cfg: SolverConfig) -> Decision:
    """Build both output states, estimate their squared overlap by repeated
    swap tests, and compare the median estimate against the threshold.
    Both builds share one table memo, so a step the sequences have in common
    is built once per decision."""
    spec = derive_threshold(inst.a, inst.b)
    log0: list[StageRecord] = []
    log1: list[StageRecord] = []
    tables = StepTables()
    state0 = build_output_state(inst.seq0, cfg, derive_rng(cfg.seed, "build", 0), log0, tables)
    state1 = build_output_state(inst.seq1, cfg, derive_rng(cfg.seed, "build", 1), log1, tables)
    estimates = []
    exact = 0.0
    for trial in range(cfg.trial_count):
        result = swap_test(state0, state1, cfg.swap_shots, derive_rng(cfg.seed, "trial", trial))
        estimates.append(result.estimate)
        exact = result.exact_overlap
    median = statistics.median(estimates)
    verdict = "YES" if median >= spec.tau else "NO"
    return Decision(
        verdict,
        float(median),
        float(spec.tau),
        float(spec.gap),
        tuple(estimates),
        exact,
        tuple(log0),
        tuple(log1),
    )


def decide_sd(inst: SdInstance, cfg: SolverConfig) -> Decision:
    """End-to-end decision: compile to sequences, then run the oracle
    pipeline.  The gap condition is checked before compiling; an instance
    that fails it raises GapViolationError and must be polarized first."""
    derive_threshold(inst.a, inst.b)
    return decide_sisd(reduce_sd_to_sisd(inst), cfg)
