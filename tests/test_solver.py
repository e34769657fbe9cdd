import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak_bytes
from helpers import (
    constant_circuit,
    cosine_similarity,
    cosine_threshold_counterexamples,
    exact_distribution,
    identity_circuit,
    identity_pair,
    sd_distance,
    uniform_distribution,
)

from oilab import solver
from oilab.circuits import BoolCircuit, CircuitBuilder, Gate, SdInstance, random_circuit
from oilab.config import QUBIT_CAP
from oilab.corpus import build_sd_corpus, polarize_corpus
from oilab.distributions import Distribution, tv_distance
from oilab.errors import (
    GapViolationError,
    InvalidPairError,
    OracleFailureError,
    ParseError,
    ResourceError,
)
from oilab.invseq import (
    InvertibleSequence,
    InvPair,
    SisdInstance,
    _xor_bit_step,
    perturbed_bit,
    polarize,
    reduce_sd_to_sisd,
    stage_counts,
)
from oilab.qsim import StateVector, permutation_unitary_from_circuit
from oilab.seeding import derive_rng, derive_seed
from oilab.solver import (
    SolverConfig,
    StageRecord,
    StepTables,
    build_output_state,
    decide_sd,
    decide_sisd,
    derive_threshold,
)


def and4_circuit() -> BoolCircuit:
    gates = (Gate("AND", (0, 1), 4), Gate("AND", (4, 2), 5), Gate("AND", (5, 3), 6))
    return BoolCircuit(4, 1, gates, (6,))


class TestDeriveThreshold:
    def test_extreme_promise(self):
        spec = derive_threshold(0, 1)
        assert spec.tau == Fraction(1, 2)
        assert spec.gap == 1
        assert (spec.yes_bound, spec.no_bound) == (1, 0)

    def test_tenth_nine_tenths_exact(self):
        spec = derive_threshold(0.1, 0.9)
        assert spec.tau == Fraction(1, 2)
        assert spec.gap == Fraction(62, 100)
        assert float(spec.gap) == 0.62

    def test_thirds_raise_with_exact_gap(self):
        with pytest.raises(GapViolationError) as err:
            derive_threshold(Fraction(1, 3), Fraction(2, 3))
        assert err.value.gap == Fraction(-1, 9)

    def test_midpoint_strictly_between_bounds(self):
        spec = derive_threshold("0.2", "0.8")
        assert spec.no_bound < spec.tau < spec.yes_bound

    def test_gap_equals_bound_difference(self):
        spec = derive_threshold("0.05", "0.95")
        assert spec.gap == spec.yes_bound - spec.no_bound

    @pytest.mark.parametrize("a, b", [(0, True), (False, 1)])
    def test_bool_bound_is_a_parse_error(self, a, b):
        with pytest.raises(ParseError, match="type bool"):
            derive_threshold(a, b)


class TestBuildOutputState:
    def test_all_identity_sequence(self):
        seq = InvertibleSequence(tuple(identity_pair(3) for _ in range(4)), 3)
        state = build_output_state(seq, SolverConfig(seed=0), derive_rng(0, "b"))
        assert np.allclose(state.amps, StateVector.zero(3).amps)

    def test_single_xor_step_gives_even_superposition(self):
        seq = InvertibleSequence((_xor_bit_step(3, 0),), 3)
        state = build_output_state(seq, SolverConfig(seed=0), derive_rng(1, "b"))
        expected = np.zeros(8)
        expected[0b000] = expected[0b100] = 1 / math.sqrt(2)
        assert np.abs(state.amps - expected).max() < 1e-12

    def test_reduced_sequence_matches_enumeration(self):
        from oilab.invseq import sequence_output_distribution

        inst = SdInstance(random_circuit(2, 1, 5, seed=31), random_circuit(2, 1, 4, seed=32), 0, 1)
        seq = reduce_sd_to_sisd(inst).seq0
        log: list[StageRecord] = []
        state = build_output_state(seq, SolverConfig(seed=3), derive_rng(3, "b"), log)
        dist = sequence_output_distribution(seq)
        expected = np.zeros(1 << seq.k)
        for key, prob in dist.probs.items():
            expected[key] = float(prob)
        expected /= np.linalg.norm(expected)
        assert np.abs(state.amps.real - expected).max() < 1e-9
        assert len(log) == len(seq)
        assert all(r.min_real_amplitude >= -1e-12 for r in log)

    def test_compiled_sequences_stay_real(self):
        # polarized as the corpus is: 14 state bits, the qubit cap
        inst = SdInstance(random_circuit(2, 1, 5, seed=35), random_circuit(2, 1, 6, seed=36), 0, 1)
        sisd = reduce_sd_to_sisd(polarize(inst, 2, 2, 2))
        for index, seq in enumerate((sisd.seq0, sisd.seq1)):
            state = build_output_state(seq, SolverConfig(seed=5), derive_rng(5, "real", index))
            assert state.amps.dtype == np.float64

    def test_stage_success_probability_bound(self):
        # with r <= 1 and lambda = 100 every stage succeeds w.p. >= 100/(100+sqrt(2))
        seq = reduce_sd_to_sisd(
            SdInstance(random_circuit(2, 1, 5, seed=33), random_circuit(2, 1, 6, seed=34), 0, 1)
        ).seq0
        log: list[StageRecord] = []
        build_output_state(seq, SolverConfig(seed=4), derive_rng(4, "b"), log)
        floor = 100 / (100 + math.sqrt(2))
        for record in log:
            if record.r > 0:
                assert record.success_probability >= floor - 1e-12

    def test_retry_budget_exhaustion(self):
        seq = InvertibleSequence((_xor_bit_step(2, 0),), 2)
        cfg = SolverConfig(lam=1, retry_budget=1, seed=1)
        with pytest.raises(OracleFailureError) as err:
            build_output_state(seq, cfg, derive_rng(1, "fail-hunt"))
        assert err.value.stage == 0
        assert err.value.attempts == 1
        assert err.value.success_probability == pytest.approx(
            (math.sqrt(2) / 2) / (math.sqrt(2) / 2 + 1), abs=1e-12
        )

    def test_qubit_cap(self):
        seq = InvertibleSequence((_xor_bit_step(16, 0),), 16)
        with pytest.raises(ResourceError):
            build_output_state(seq, SolverConfig(seed=0), derive_rng(0, "cap"))

    def test_retry_counts_match_geometric_law(self):
        # attempts per random stage are geometric with the computed p
        seq = InvertibleSequence((_xor_bit_step(2, 0),), 2)
        cfg = SolverConfig(lam=2, seed=0)
        p = (math.sqrt(2) / 2) / (math.sqrt(2) / 2 + 1 / 2)
        attempts = []
        for i in range(200):
            log: list[StageRecord] = []
            build_output_state(seq, cfg, derive_rng(18, "geo", i), log)
            attempts.append(log[0].attempts)
        mean = sum(attempts) / len(attempts)
        sigma_mean = math.sqrt((1 - p) / p ** 2) / math.sqrt(len(attempts))
        assert abs(mean - 1 / p) <= 3 * sigma_mean


def norm(counts: np.ndarray) -> float:
    """The 2-norm of a count vector, summed over Python ints."""
    return math.sqrt(sum(c * c for c in counts.tolist()))


class TestStageCounts:
    """The oracle path against the exact staged counts of invseq's fold, at
    every stage of the compiled corpus."""

    def test_every_stage_matches_the_counts(self):
        sequences = [
            seq
            for item in polarize_corpus(build_sd_corpus(4, 2026))
            for red in [reduce_sd_to_sisd(item.instance)]
            for seq in (red.seq0, red.seq1)
        ]
        assert {seq.k for seq in sequences} == {14, 10}
        cfg = SolverConfig(seed=0)
        for index, seq in enumerate(sequences):
            counts = list(stage_counts(seq))
            for t in range(1, len(counts)):
                log: list[StageRecord] = []
                prefix = InvertibleSequence(seq.pairs[:t], seq.k)
                state = build_output_state(prefix, cfg, derive_rng(0, "stage", index, t), log)
                assert np.abs(state.amps - counts[t] / norm(counts[t])).max() <= 1e-15
                r = seq.pairs[t - 1].r
                if r:
                    s = norm(counts[t]) / ((1 << r) * norm(counts[t - 1]))
                    assert abs(log[-1].success_probability - s / (s + 1 / cfg.lam)) <= 1e-15


def masked_instance() -> SdInstance:
    """A YES instance decided NO: c0 outputs input wires 2..6 of 7 (uniform
    on 5 bits), c1 the same bits ANDed with NOT(x0 AND x1), which is
    3/4 U + 1/4 delta_0.  Its TV is 31/128 under the promise (1/4, 3/4),
    and its reduced state is 12 qubits wide."""
    builder = CircuitBuilder(7)
    keep = builder.add("NOT", builder.add("AND", 0, 1))
    c1 = builder.build([builder.add("AND", j, keep) for j in range(2, 7)])
    return SdInstance(BoolCircuit(7, 5, (), tuple(range(2, 7))), c1, Fraction(1, 4), Fraction(3, 4))


class TestKnownWrongVerdict:
    """The cosine rule fails on a valid instance (ROADMAP item 3): the
    squared cosine 16/(15 + 2^k) of U and 3/4 U + 1/4 delta_0 over k = 5
    output bits is below tau."""

    def test_exact_facts(self):
        inst = masked_instance()
        assert sd_distance(inst) == Fraction(31, 128)  # by enumeration
        assert Fraction(31, 128) <= inst.a
        sisd = reduce_sd_to_sisd(inst)
        assert sisd.seq0.k == 12
        (*_, c0), (*_, c1) = stage_counts(sisd.seq0), stage_counts(sisd.seq1)
        c0, c1 = c0.tolist(), c1.tolist()
        dot = sum(a * b for a, b in zip(c0, c1))
        cos2 = Fraction(dot * dot, sum(a * a for a in c0) * sum(b * b for b in c1))
        assert cos2 == Fraction(16, 47)
        assert cos2 < derive_threshold(inst.a, inst.b).tau == Fraction(1, 2)

    @pytest.mark.xfail(
        strict=True, reason="squared cosine 16/47 < tau = 1/2 on a YES instance (ROADMAP item 3)"
    )
    @pytest.mark.parametrize("seed", [0, 99, 2026])
    def test_decided_yes(self, seed):
        assert decide_sd(masked_instance(), SolverConfig(seed=seed)).verdict == "YES"


class TestDecideSisd:
    def test_equal_sequences_yes(self):
        c = random_circuit(2, 1, 6, seed=41)
        inst = reduce_sd_to_sisd(SdInstance(c, c, "0.1", "0.9"))
        decision = decide_sisd(inst, SolverConfig(seed=7, trial_count=9, swap_shots=1024))
        assert decision.verdict == "YES"
        assert decision.exact_overlap == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_outputs_no(self):
        inst = reduce_sd_to_sisd(
            SdInstance(constant_circuit(2, "0"), constant_circuit(2, "1"), "0.1", "0.9")
        )
        decision = decide_sisd(inst, SolverConfig(seed=8, trial_count=9, swap_shots=1024))
        assert decision.verdict == "NO"
        assert decision.exact_overlap == pytest.approx(0.0, abs=1e-12)

    def test_yes_side_frequency(self):
        # distance 1/16 <= 0.1, known by brute force
        inst_raw = SdInstance(and4_circuit(), constant_circuit(4, "0"), "0.1", "0.9")
        delta = sd_distance(inst_raw)
        assert delta == Fraction(1, 16)
        inst = reduce_sd_to_sisd(inst_raw)
        yes = sum(
            decide_sisd(inst, SolverConfig(seed=derive_seed(9, "run", i))).verdict == "YES"
            for i in range(100)
        )
        assert yes >= 99

    def test_gap_checked(self):
        inst = reduce_sd_to_sisd(
            SdInstance(identity_circuit(2), identity_circuit(2), "1/3", "2/3")
        )
        with pytest.raises(GapViolationError):
            decide_sisd(inst, SolverConfig(seed=0))

    def test_verdict_matches_threshold_rule(self):
        c = random_circuit(2, 1, 3, seed=51)
        inst = reduce_sd_to_sisd(SdInstance(c, c, "0.1", "0.9"))
        decision = decide_sisd(inst, SolverConfig(seed=11, trial_count=5, swap_shots=256))
        assert (decision.verdict == "YES") == (decision.estimate >= decision.tau)
        assert len(decision.trials) == 5

    def test_estimate_equal_to_tau_is_yes(self):
        # promise (0, 1) puts tau at 1/2, and these four shots estimate the
        # squared overlap 1/2 exactly: a tie is decided YES
        seq0 = InvertibleSequence((_xor_bit_step(1, 0),), 1)
        seq1 = InvertibleSequence((identity_pair(1),), 1)
        cfg = SolverConfig(seed=1, swap_shots=4, trial_count=1)
        decision = decide_sisd(SisdInstance(seq0, seq1, 0, 1), cfg)
        assert decision.estimate == decision.tau == 0.5
        assert decision.verdict == "YES"

    def test_report_round_trips_through_json(self):
        c = random_circuit(2, 1, 3, seed=52)
        inst = reduce_sd_to_sisd(SdInstance(c, c, "0.1", "0.9"))
        decision = decide_sisd(inst, SolverConfig(seed=12, trial_count=3, swap_shots=128))
        blob = json.dumps(decision.to_json_dict(), sort_keys=True)
        assert json.loads(blob)["verdict"] == "YES"


class TestDecideSd:
    def test_identical_circuits_yes(self):
        c = random_circuit(2, 2, 5, seed=61)
        decision = decide_sd(
            SdInstance(c, c, "0.1", "0.9"),
            SolverConfig(seed=13, trial_count=9, swap_shots=1024),
        )
        assert decision.verdict == "YES"

    def test_disjoint_constants_no(self):
        decision = decide_sd(
            SdInstance(constant_circuit(2, "0"), constant_circuit(2, "1"), "0.1", "0.9"),
            SolverConfig(seed=14, trial_count=9, swap_shots=1024),
        )
        assert decision.verdict == "NO"

    def test_invalid_gap_needs_explicit_polarization(self):
        inst = SdInstance(identity_circuit(2), identity_circuit(2), "1/3", "2/3")
        with pytest.raises(GapViolationError):
            decide_sd(inst, SolverConfig(seed=15))

    def test_polarized_instance_route(self):
        c = random_circuit(1, 1, 3, seed=62)
        inst = SdInstance(c, c, "1/3", "2/3")
        cfg = SolverConfig(seed=16, trial_count=9, swap_shots=1024)
        decision = decide_sd(polarize(inst, 2, 2, 2), cfg)
        assert decision.verdict == "YES"
        assert decision.gap == pytest.approx(0.125)

    def test_labeled_corpus_subset(self):
        corpus = polarize_corpus(build_sd_corpus(10, seed=881))
        cfg = SolverConfig(seed=17, trial_count=9, swap_shots=1024)
        correct = sum(
            decide_sd(item.instance, cfg).verdict == item.label for item in corpus
        )
        assert correct == 10

    @pytest.mark.parametrize("count", [0, -1])
    def test_corpus_needs_an_instance(self, count):
        # an empty corpus has no accuracy to report
        with pytest.raises(ValueError, match="at least one instance"):
            build_sd_corpus(count, seed=881)


# SHA-256 of the canonical JSON of decide_sd over the criterion-7 corpus at
# SolverConfig(seed=99), recorded before step tables were memoized.  The
# exact_overlap float is a BLAS reduction whose last bits move with the BLAS
# thread count, so it is hashed to 12 significant digits; every other field
# is hashed as written.
CORPUS_DECISIONS_SHA256 = "f6fb32a29eed5402e2cad57b9e2363c788662487f52e26bbd489c94baa15c240"


def record_table_builds(patch: pytest.MonkeyPatch) -> list:
    """Patch the solver's table build to record each (pair, z) it builds."""
    calls = []
    build = solver.permutation_unitary_from_circuit

    def recording(pair, z):
        calls.append((pair, z))
        return build(pair, z)

    patch.setattr(solver, "permutation_unitary_from_circuit", recording)
    return calls


@pytest.fixture
def table_builds(monkeypatch):
    return record_table_builds(monkeypatch)


class TestStepTableMemo:
    """Each distinct step's tables are built once per decision, in stage
    order, perturbation steps in closed form, and the decisions are those
    of unmemoized circuit-evaluated builds."""

    @pytest.fixture(scope="class")
    def corpus_pass(self):
        corpus = polarize_corpus(build_sd_corpus(20, 2026))
        per_decision, reports = [], []
        with pytest.MonkeyPatch.context() as patch:
            builds = record_table_builds(patch)
            for item in corpus:
                before = len(builds)
                reports.append(decide_sd(item.instance, SolverConfig(seed=99)).to_json_dict())
                per_decision.append(len(builds) - before)
        widths = [reduce_sd_to_sisd(item.instance).seq0.k for item in corpus]
        return widths, per_decision, reports

    def test_corpus_pass_builds_each_distinct_step_once(self, corpus_pass):
        # the p = 10 (width 14) or 6 (width 10) perturb steps, shared by both
        # sequences, take their tables in closed form; only each sequence's
        # middle step is evaluated, against 8p + 2 builds without the memo
        widths, per_decision, _ = corpus_pass
        assert set(widths) == {14, 10}
        assert per_decision == [2] * len(widths)
        assert sum(per_decision) == 40

    def test_corpus_decisions_match_the_recorded_digest(self, corpus_pass):
        reports = [
            {**report, "exact_overlap": format(report["exact_overlap"], ".12g")}
            for report in corpus_pass[2]
        ]
        canonical = json.dumps(reports, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == CORPUS_DECISIONS_SHA256

    def test_non_bijective_step_fails_at_its_stage(self, table_builds):
        # forward(x; z) = x AND NOT z: the identity for z = 0, constant for z = 1
        gates = (Gate("NOT", (1,), 2), Gate("AND", (0, 2), 3))
        broken_circuit = BoolCircuit(2, 1, gates, (3,))
        broken = InvPair(broken_circuit, broken_circuit, 1, 1)
        flip = _xor_bit_step(1, 0)
        seq0 = InvertibleSequence((flip, broken, identity_pair(1)), 1)
        seq1 = InvertibleSequence((flip,), 1)
        with pytest.raises(InvalidPairError, match="randomness 1"):
            decide_sisd(SisdInstance(seq0, seq1, 0, 1), SolverConfig(seed=4))
        assert table_builds == [(broken, 0), (broken, 1)]

    def test_equal_steps_of_both_sequences_share_tables(self, table_builds):
        seq = reduce_sd_to_sisd(SdInstance(and4_circuit(), and4_circuit(), 0, 1)).seq0
        copy = InvertibleSequence.from_json_dict(seq.to_json_dict())
        decide_sisd(SisdInstance(seq, copy, 0, 1), SolverConfig(seed=6, trial_count=1))
        # the 4 perturb steps take closed-form tables; the equal middle steps
        # are evaluated once
        assert len(table_builds) == 1


def xor_bit_like(k: int, bit: int, kind: str = "XOR", outputs=None) -> BoolCircuit:
    """A one-gate circuit shaped like ``_xor_bit_step(k, bit).forward``."""
    if outputs is None:
        outputs = tuple(k + 1 if j == bit else j for j in range(k))
    return BoolCircuit(k + 1, k, (Gate(kind, (bit, k), k + 1),), outputs)


class TestClosedFormPerturbSteps:
    """Perturbation steps take their tables in closed form; the tables are
    exactly those of the circuit path, and any other step takes that path."""

    def test_tables_equal_the_circuit_path_at_every_width_and_bit(self, table_builds):
        for k in range(1, QUBIT_CAP + 1):
            tables = StepTables()
            for bit in range(k):
                step = _xor_bit_step(k, bit)
                assert perturbed_bit(step) == bit
                closed = tables[step]
                assert tables[step] is closed and len(closed) == 2
                for z in (0, 1):
                    circuit = permutation_unitary_from_circuit(step, z).table
                    assert closed[z].table.dtype == circuit.dtype
                    assert np.array_equal(closed[z].table, circuit)
            # one identity for every perturbation step of the memo
            assert len({id(tables[_xor_bit_step(k, bit)][0]) for bit in range(k)}) == 1
        assert table_builds == []

    @pytest.mark.parametrize(
        "pair",
        [
            # backward differs from forward: the same map, inputs swapped
            InvPair(xor_bit_like(3, 1), BoolCircuit(4, 3, (Gate("XOR", (3, 1), 4),), (0, 4, 2)), 3, 1),
            # the flipped bit is read out at another position
            InvPair(xor_bit_like(3, 1, outputs=(0, 2, 4)), xor_bit_like(3, 1, outputs=(0, 2, 4)), 3, 1),
            InvPair(xor_bit_like(3, 1, outputs=(2, 4, 0)), xor_bit_like(3, 1, outputs=(2, 4, 0)), 3, 1),
        ],
        ids=["backward-differs", "output-rewired", "outputs-swapped"],
    )
    def test_other_steps_take_the_circuit_path(self, pair, table_builds):
        assert perturbed_bit(pair) is None
        StepTables()[pair]
        assert table_builds == [(pair, 0), (pair, 1)]

    @pytest.mark.parametrize("kind, z", [("OR", 1), ("AND", 0)])
    def test_another_gate_kind_is_evaluated_and_rejected(self, kind, z, table_builds):
        # OR with z = 1 and AND with z = 0 are constant on the bit: a
        # closed-form table would hide that the step is not a bijection
        circuit = xor_bit_like(3, 1, kind)
        pair = InvPair(circuit, circuit, 3, 1)
        assert perturbed_bit(pair) is None
        with pytest.raises(InvalidPairError, match=f"randomness {z}"):
            StepTables()[pair]
        assert table_builds == [(pair, built) for built in range(z + 1)]


class TestDecisionMemory:
    def test_a_width_14_decision_peak(self):
        # one shared identity and closed-form perturbation tables: 3.6 MB
        # traced when every perturbation step was evaluated
        item = next(
            item
            for item in polarize_corpus(build_sd_corpus(20, 2026))
            if reduce_sd_to_sisd(item.instance).seq0.k == 14
        )
        cfg = SolverConfig(seed=99)
        decide_sd(item.instance, cfg)
        assert traced_peak_bytes(lambda: decide_sd(item.instance, cfg)) < 2_750_000


def test_corpus_decisions_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count at import: one fresh process per count
    script = (
        "import hashlib, json; from oilab import corpus, solver\n"
        "items = corpus.polarize_corpus(corpus.build_sd_corpus(20, 2026))\n"
        "cfg = solver.SolverConfig(seed=99)\n"
        "reports = [solver.decide_sd(item.instance, cfg).to_json_dict() for item in items]\n"
        "print(hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout)
    assert digests[0] == digests[1]


class TestSolverConfig:
    def test_counts_validated(self):
        with pytest.raises(ValueError, match="^trial_count must be >= 1, got 0$"):
            SolverConfig(trial_count=0)
        with pytest.raises(ValueError, match="^lam must be >= 1, got 0$"):
            SolverConfig(lam=0)


class TestThresholdScan:
    @staticmethod
    def _random_pairs(count: int, seed: int):
        rng = derive_rng(seed, "scan")
        pairs = []
        for _ in range(count):
            width = int(rng.integers(1, 5))
            n = 1 << width
            pair = []
            for _ in range(2):
                weights = rng.integers(0, 16, n)
                if weights.sum() == 0:
                    weights[0] = 1
                pair.append(exact_distribution(width, weights))
            pairs.append(tuple(pair))
        return pairs

    def test_seeded_corpus_clean_at_canonical_gap(self, tmp_path):
        pairs = self._random_pairs(1000, 555)
        violations = cosine_threshold_counterexamples(pairs, "0.1", "0.9")
        artifact = tmp_path / "threshold_counterexamples.json"
        artifact.write_text(
            json.dumps([v.__dict__ for v in violations], default=str, indent=2)
        )
        assert violations == []

    def test_scanner_catches_known_violation(self):
        # distance 3/4 but squared cosine 0.05 < (1 - 0.76)^2: the fidelity
        # bound does not transfer verbatim to cosine similarity
        d0 = Distribution(2, {0b00: Fraction(1, 2), 0b01: Fraction(1, 2)})
        d1 = Distribution(2, {0b00: Fraction(1, 4), 0b10: Fraction(3, 4)})
        assert tv_distance(d0, d1) == Fraction(3, 4)
        found = cosine_threshold_counterexamples([(d0, d1)], "0.76", "0.9")
        assert len(found) == 1
        assert found[0].side == "yes"
        assert found[0].squared_cosine < found[0].bound
        assert cosine_similarity(d0, d1) ** 2 == pytest.approx(0.05, abs=1e-3)

    def test_uniform_against_its_mixture_with_a_point_mass(self):
        # the known YES-side counterexample: V = 3/4 U + 1/4 delta_0000 is
        # within a = 1/4 of U, yet its squared cosine with U is 16/31, below
        # (1 - a)^2 = 9/16
        u = uniform_distribution(4)
        v = Distribution(
            4,
            {key: Fraction(3, 4) * p + (Fraction(1, 4) if key == 0 else 0)
             for key, p in u.probs.items()},
        )
        assert tv_distance(u, v) == Fraction(15, 64)
        found = cosine_threshold_counterexamples([(u, v)], "1/4", "3/4")
        assert [(c.side, c.distance, c.bound) for c in found] == [("yes", 15 / 64, 0.5625)]
        assert found[0].squared_cosine == pytest.approx(16 / 31, rel=1e-12)

    def test_distance_exactly_a_is_on_the_yes_side(self):
        # V = 59/75 U + 16/75 delta_0000 lies exactly a = 1/5 from U, and
        # float(1/5) rounds above 1/5, so only an exact comparison keeps the
        # pair on the YES side, where its squared cosine 375/631 < 16/25
        u = uniform_distribution(4)
        t = Fraction(16, 75)
        v = Distribution(
            4, {key: (1 - t) * p + (t if key == 0 else 0) for key, p in u.probs.items()}
        )
        assert tv_distance(u, v) == Fraction(1, 5)
        found = cosine_threshold_counterexamples([(u, v)], "1/5", "3/4")
        assert [(c.side, c.distance, c.bound) for c in found] == [("yes", 0.2, 0.64)]
        assert found[0].squared_cosine == pytest.approx(375 / 631, rel=1e-12)
