"""Decision pipeline for statistical difference over invertible sequences.

The output-distribution state of a sequence is built iteratively: starting
from the all-zero basis state, each random step is one choice-interference
oracle query over the step's per-randomness permutations, and each
deterministic step is a direct permutation application.  The oracle is
probabilistic, so a random step draws up to a budget of coins on its one
query; the interference is computed once.  A stage takes its step's
permutations, one per randomness, from
``qsim.permutation_unitary_from_circuit``, which alone picks their form;
this module only puts the stages in order.  A success state depends only
on the input state and the step, so the second sequence's build replays
the first one's over the leading steps they share (``SharedPrefix``),
drawing its own coins against the recorded probabilities, and takes over
the state at their end.  The resulting amplitudes are proportional to the
sequence's output probabilities, so the swap test between the two states
estimates the squared cosine similarity of the two output distributions,
which the promise gap separates across a threshold; one ``swap_test``
call runs every trial on one overlap.

Thresholding: a YES instance (distance <= a) keeps the squared overlap at
or above (1-a)^2 while a NO instance (distance > b) pushes it below
1 - b^2.  Those are the fidelity's bounds; for the cosine of probability
vectors, which these states measure, they hold only empirically, and the
tests pin known wrong verdicts on both sides of the promise.  The
decision threshold is the midpoint, and the gap (1-a)^2 - (1-b^2) =
b^2 - 2a + a^2 must be positive.  Otherwise the caller polarizes first
(``invseq.polarize``); the solver never picks an amplification itself,
and raises GapViolationError instead.  States are at most ``config.QUBIT_CAP``
qubits wide.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .circuits import SdInstance
from .config import LAMBDA, QUBIT_CAP, RETRY_BUDGET, SWAP_SHOTS, TRIAL_COUNT
from .errors import GapViolationError, OracleFailureError, ResourceError
from .invseq import InvertibleSequence, SisdInstance, reduce_sd_to_sisd
from .jsonio import as_exact_probability
from .qsim import (
    StateVector,
    check_unitary_count,
    ci_oracle_query,
    oracle_draw,
    permutation_unitary_from_circuit,
    swap_test,
)
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
    gap = yes_bound - no_bound, which is b^2 - 2a + a^2, so a positive
    gap is exactly what makes the two bounds separable.
    """
    a = as_exact_probability(a)
    b = as_exact_probability(b)
    yes_bound = (1 - a) * (1 - a)
    no_bound = 1 - b * b
    gap = yes_bound - no_bound
    if gap <= 0:
        error = GapViolationError(
            f"gap b^2 - 2a + a^2 = {gap} is not positive for a={a}, b={b}; "
            "polarize the instance first"
        )
        error.gap = gap  # exact value, for callers that report it
        raise error
    return ThresholdSpec((yes_bound + no_bound) / 2, gap, yes_bound, no_bound)


@dataclass(frozen=True)
class StageRecord:
    """One stage of a build; a record's stage is its index in the log.
    ``interference_norm`` is the norm of the stage's choice-interference
    vector, 1.0 for a deterministic step (one permutation of a unit
    vector)."""

    r: int
    attempts: int
    success_probability: float
    min_real_amplitude: float
    interference_norm: float


@dataclass
class SharedPrefix:
    """The leading ``length`` steps a decision's two sequences have in
    common.  The first build fills in its stage records over them and its
    state at their end.  The second build replays them: a success state
    depends only on the input state and the step, so it draws only its own
    coins, against the recorded probabilities, and takes over the state."""

    length: int
    records: tuple[StageRecord, ...] = ()
    state: StateVector | None = None


def _attempts(norm: float, probability: float, stage: int, cfg: SolverConfig, rng, made: int = 0) -> int:
    """Draw coins on one query (``oracle_draw``) until one succeeds, within
    cfg.retry_budget attempts in all; the attempts it took, counting the
    ``made`` already failed."""
    attempts = made
    while attempts < cfg.retry_budget:
        attempts += 1
        if oracle_draw(norm, probability, rng):
            return attempts
    raise OracleFailureError(stage, probability, attempts)


def build_output_state(
    seq: InvertibleSequence,
    cfg: SolverConfig,
    rng: np.random.Generator,
    stage_log: list[StageRecord] | None = None,
    shared: SharedPrefix | None = None,
) -> StateVector:
    """Iteratively build the sequence's output-distribution state.

    Every random step queries the choice-interference oracle over its
    2^r permutation unitaries once, and draws up to cfg.retry_budget coins
    on that query; exhaustion raises OracleFailureError with the stage
    index.  States wider than QUBIT_CAP qubits, and steps whose 2^r
    unitaries exceed the oracle's cap, raise ResourceError up front, before
    any permutation is built.  All intermediate states must keep
    non-negative real amplitudes (they are counting states), which is
    asserted per stage.

    A stage builds its step's permutations in stage order, so a
    non-bijective step fails at its own stage.  ``shared`` names leading
    steps of ``seq``: a build given it empty fills it in, and a build given
    it filled in replays those steps instead of building them again.
    """
    if seq.k > QUBIT_CAP:
        raise ResourceError(f"state width {seq.k} exceeds qubit cap {QUBIT_CAP}")
    check_unitary_count(1 << seq.max_randomness, ordered=False)
    log = [] if stage_log is None else stage_log
    state, start = StateVector.zero(seq.k), 0
    if shared is not None and shared.state is not None:
        for stage, record in enumerate(shared.records):
            if record.r:
                attempts = _attempts(record.interference_norm, record.success_probability, stage, cfg, rng)
                record = replace(record, attempts=attempts)
            log.append(record)
        state, start = shared.state, shared.length
    for stage in range(start, len(seq.pairs)):
        pair = seq.pairs[stage]
        unitaries = tuple(permutation_unitary_from_circuit(pair, z) for z in range(1 << pair.r))
        if pair.r == 0:
            state = StateVector(seq.k, unitaries[0].apply(state.amps))
            attempts, probability, norm = 0, 1.0, 1.0
        else:
            outcome = ci_oracle_query(unitaries, state, cfg.lam, rng)
            probability, norm = outcome.success_probability, outcome.interference_norm
            attempts = 1 if outcome.success else _attempts(norm, probability, stage, cfg, rng, 1)
            state = outcome.candidate
        # float64 throughout: the zero state is real and every table a permutation
        min_real = float(state.amps.real.min())
        if min_real < -AMPLITUDE_REALITY_TOLERANCE:
            raise AssertionError(f"stage {stage} produced a negative amplitude")
        log.append(StageRecord(pair.r, attempts, probability, min_real, norm))
        if shared is not None and stage + 1 == shared.length:
            shared.records, shared.state = tuple(log[-shared.length:]), state
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

    The second build replays the first one over the leading steps the two
    sequences share (``SharedPrefix``), so those steps are built once per
    decision.  One ``swap_test`` call runs every trial, so the overlap is
    computed once."""
    spec = derive_threshold(inst.a, inst.b)
    log0: list[StageRecord] = []
    log1: list[StageRecord] = []
    shared = SharedPrefix(0)
    for pair0, pair1 in zip(inst.seq0.pairs, inst.seq1.pairs):
        if pair0 != pair1:
            break
        shared.length += 1
    state0 = build_output_state(inst.seq0, cfg, derive_rng(cfg.seed, "build", 0), log0, shared)
    state1 = build_output_state(inst.seq1, cfg, derive_rng(cfg.seed, "build", 1), log1, shared)
    trials = (derive_rng(cfg.seed, "trial", trial) for trial in range(cfg.trial_count))
    results = swap_test(state0, state1, cfg.swap_shots, trials)
    estimates = [result.estimate for result in results]
    median = statistics.median(estimates)
    verdict = "YES" if median >= spec.tau else "NO"
    return Decision(
        verdict,
        float(median),
        float(spec.tau),
        float(spec.gap),
        tuple(estimates),
        results[-1].exact_overlap,
        tuple(log0),
        tuple(log1),
    )


def decide_sd(inst: SdInstance, cfg: SolverConfig) -> Decision:
    """End-to-end decision: compile to sequences, then run the oracle
    pipeline.  The gap condition is checked before compiling; an instance
    that fails it raises GapViolationError and must be polarized first."""
    derive_threshold(inst.a, inst.b)
    return decide_sisd(reduce_sd_to_sisd(inst), cfg)
