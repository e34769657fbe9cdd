import math
import tracemalloc

import numpy as np
import pytest
from helpers import (
    basis_state,
    block_reference,
    choices,
    ci_vector,
    constant_circuit,
    eval_circuit,
    identity_circuit,
    identity_unitary,
    oi_vector,
    orderings,
    pauli_x,
    pauli_z,
    random_state,
    unitary_to_json_dict,
)

from oilab.circuits import BoolCircuit, Gate, eval_circuit_batch, random_circuit
from oilab.corpus import build_sd_corpus, polarize_corpus
from oilab.config import MAX_ORACLE_UNITARIES
from oilab.errors import InvalidPairError, PreconditionError, ResourceError, WidthError
from oilab import qsim
from oilab.invseq import InvPair, _apply_circuit_step, _xor_bit_step, reduce_sd_to_sisd, xor_shift_prefix
from oilab.qsim import (
    SimUnitary,
    StateVector,
    ci_oracle_query,
    oi_oracle_query,
    permutation_unitary_from_circuit,
    swap_test,
)
from oilab.seeding import derive_rng


def random_nonnegative_state(n: int, rng) -> StateVector:
    amps = np.abs(rng.normal(size=1 << n)) + 1e-3
    return StateVector(n, amps / np.linalg.norm(amps))


def random_permutation_unitary(n: int, rng) -> SimUnitary:
    return SimUnitary(n, table=rng.permutation(1 << n))


def oi_alignment(unitaries: tuple[SimUnitary, ...], psi: StateVector) -> float:
    """The order-interference phase alignment, from the library kernel."""
    return qsim._interference(unitaries, psi, orderings(len(unitaries)))[1]


def haar_unitary(n: int, rng) -> SimUnitary:
    dim = 1 << n
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return SimUnitary(n, matrix=q)


class TestStateVector:
    def test_basis_layout(self):
        psi = basis_state(2, "10")
        assert psi.amps[int("10", 2)] == 1.0
        assert np.linalg.norm(psi.amps) == 1.0

    def test_length_checked(self):
        with pytest.raises(WidthError):
            StateVector(2, np.ones(3))

    def test_inner_needs_equal_widths(self):
        with pytest.raises(WidthError, match="^qubit counts differ$"):
            basis_state(1, "0").inner(basis_state(2, "00"))

    def test_json_round_trip(self):
        psi = random_state(2, derive_rng(0, "sv"))
        again = StateVector.from_json_list(psi.to_json_list())
        assert np.allclose(psi.amps, again.amps)


class TestSimUnitary:
    def test_permutation_must_be_bijective(self):
        # -1 would wrap to the last index in an unchecked scatter, 4 would
        # fall outside it
        for n, table in ((1, [0, 0]), (2, [0, 0, 1, 2]), (2, [0, 1, 2, -1]), (2, [0, 1, 2, 4])):
            with pytest.raises(InvalidPairError):
                SimUnitary(n, table=np.array(table))

    def test_exactly_one_form(self):
        for forms in (
            {},
            {"table": np.array([1, 0]), "matrix": np.eye(2)},
            {"table": np.array([1, 0]), "flip": 1},
            {"matrix": np.eye(2), "flip": 0},
        ):
            with pytest.raises(ValueError, match="^exactly one of table/matrix/flip must be given$"):
                SimUnitary(1, **forms)

    def test_flip_mask_must_fit_and_be_an_int(self):
        # each mask fails as the table of the same map would
        for n, mask in ((0, 1), (1, 2), (2, 4), (2, -1)):
            with pytest.raises(InvalidPairError, match=f"^flip mask {mask} does not fit {n} qubits$"):
                SimUnitary(n, flip=mask)
        with pytest.raises(InvalidPairError):
            SimUnitary(1, table=[0, 2])
        for mask in (1.0, True, "1", np.int64(1)):
            with pytest.raises(TypeError, match="^flip mask must be an int"):
                SimUnitary(2, flip=mask)
            with pytest.raises(TypeError, match="^permutation table entry must be an int"):
                SimUnitary(1, table=[mask, 0])

    def test_dense_must_be_unitary(self):
        with pytest.raises(ValueError):
            SimUnitary(1, matrix=np.array([[1, 0], [1, 1]], dtype=complex))

    def test_permutation_apply_moves_basis(self):
        u = SimUnitary(1, table=np.array([1, 0]))  # bit flip
        psi = basis_state(1, "0")
        assert np.allclose(u.apply(psi.amps), basis_state(1, "1").amps)

    def test_json_round_trip(self):
        u = random_permutation_unitary(2, derive_rng(0, "perm"))
        assert np.array_equal(SimUnitary.from_json_dict(unitary_to_json_dict(u)).table, u.table)
        d = haar_unitary(1, derive_rng(0, "dense"))
        assert np.allclose(SimUnitary.from_json_dict(unitary_to_json_dict(d)).matrix, d.matrix)


class TestPermutationFromCircuit:
    def test_identity_circuit(self):
        pair = InvPair(identity_circuit(3), identity_circuit(3))
        u = permutation_unitary_from_circuit(pair, 0)
        assert np.array_equal(u.table, np.arange(8))

    def test_xor_step_is_involution(self):
        pair = _xor_bit_step(3, 1)
        u = permutation_unitary_from_circuit(pair, 1)
        assert np.array_equal(u.table[u.table], np.arange(8))
        assert u.table[0] == int("010", 2)
        assert np.array_equal(
            permutation_unitary_from_circuit(pair, 0).table, np.arange(8)
        )

    def test_random_pairs_give_bijections(self):
        for k in (2, 4, 6):
            pair = _xor_bit_step(k, k - 1)
            for z in (0, 1):
                table = permutation_unitary_from_circuit(pair, z).table
                assert len(np.unique(table)) == 1 << k

    def test_non_bijective_forward_rejected(self):
        broken = InvPair(constant_circuit(3, "00"), constant_circuit(3, "00"))
        with pytest.raises(InvalidPairError, match="randomness 0"):
            permutation_unitary_from_circuit(broken, 0)

    def test_tables_match_scalar_evaluation(self):
        pairs = [(_xor_bit_step(k, bit), z) for k, bit in ((2, 0), (5, 3), (7, 6)) for z in "01"]
        for seed in range(4):
            circuit = random_circuit(3, 2, 12, seed=seed)
            pairs.append((_apply_circuit_step(circuit, 4), ""))
        for pair, z in pairs:
            expected = [
                int(eval_circuit(pair.forward, format(x, f"0{pair.k}b") + z), 2)
                for x in range(1 << pair.k)
            ]
            table = permutation_unitary_from_circuit(pair, int(z or "0", 2)).table
            assert table.tolist() == expected

    def test_randomness_width_checked(self):
        pair = _xor_bit_step(2, 0)
        for z in (-1, 1 << pair.r):
            with pytest.raises(WidthError):
                permutation_unitary_from_circuit(pair, z)


def structured_step(k: int, gates, outputs, r: int = 0) -> InvPair:
    circuit = BoolCircuit(k + r, tuple(Gate(kind, inputs) for kind, inputs in gates), outputs)
    return InvPair(circuit, circuit)


class TestStructuredStep:
    """A step (x, y) -> (x, y XOR g(x)) is evaluated on its 2^p prefix rows
    only; its table equals the full evaluation on every basis state, and a
    step of any other shape takes the full evaluation."""

    def test_corpus_middle_steps_match_full_evaluation(self):
        prefixes = []
        for item in polarize_corpus(build_sd_corpus(40, 7)):
            sisd = reduce_sd_to_sisd(item.instance)
            for seq in (sisd.seq0, sisd.seq1):
                middle = seq.pairs[len(seq) // 2]
                prefixes.append(xor_shift_prefix(middle))
                full = eval_circuit_batch(middle.forward, np.arange(1 << middle.k))
                assert np.array_equal(permutation_unitary_from_circuit(middle, 0).table, full)
        assert None not in prefixes and max(prefixes) == 10

    def test_a_file_copy_is_recognized(self):
        step = _apply_circuit_step(random_circuit(3, 2, 12, seed=5), 4)
        loaded = InvPair(*(BoolCircuit.from_json_dict(c.to_json_dict()) for c in (step.forward, step.backward)))
        assert loaded.forward is not step.forward
        assert xor_shift_prefix(loaded) == xor_shift_prefix(step) is not None

    @pytest.mark.parametrize(
        "pair, prefix",
        [
            # y_1 negated, y_2 kept and y_3 XORed with a constant: a mask, p = 0
            (structured_step(4, [("NOT", (1,)), ("CONST1", ()), ("XOR", (3, 5))], (0, 4, 2, 6)), 0),
            # y_1 kept and y_2 XOR NOT x_0, the XOR's inputs in either order
            (structured_step(3, [("NOT", (0,)), ("XOR", (2, 3))], (0, 1, 4)), 1),
            (structured_step(3, [("NOT", (0,)), ("XOR", (3, 2))], (0, 1, 4)), 1),
            # y_2 XOR (x_0 AND y_1): y_1 is an output in place, so x takes it
            (structured_step(3, [("AND", (0, 1)), ("XOR", (2, 3))], (0, 1, 4)), 2),
            (structured_step(2, [], (0, 1)), 0),
        ],
        ids=["masks", "xor-y-first", "xor-y-second", "prefix-grows", "identity"],
    )
    def test_recognized_steps_match_full_evaluation(self, pair, prefix):
        assert xor_shift_prefix(pair) == prefix
        full = eval_circuit_batch(pair.forward, np.arange(1 << pair.k))
        assert np.array_equal(permutation_unitary_from_circuit(pair, 0).table, full)

    @pytest.mark.parametrize(
        "pair, bijective",
        [
            # y wires permuted: (x0, y1, y2) -> (x0, y2 ^ x0, y1 ^ x0)
            (structured_step(3, [("XOR", (2, 0)), ("XOR", (1, 0))], (0, 3, 4)), True),
            # y_2's XOR reads y_1, which is not an output in place
            (structured_step(3, [("XOR", (1, 0)), ("AND", (0, 1)), ("XOR", (2, 4))], (0, 3, 5)), True),
            # a step that reads a random bit
            (_xor_bit_step(3, 1), True),
            # y_1 is ORed with x_0, not XORed: not a bijection
            (structured_step(2, [("OR", (1, 0))], (0, 2)), False),
            # y_1 XOR y_1 is a constant
            (structured_step(2, [("XOR", (1, 1))], (0, 2)), False),
        ],
        ids=["permuted-y", "xor-reads-y", "random-bit", "or-not-xor", "xor-itself"],
    )
    def test_other_steps_take_full_evaluation(self, pair, bijective):
        assert xor_shift_prefix(pair) is None
        z = (1 << pair.r) - 1
        if bijective:
            full = eval_circuit_batch(pair.forward, (np.arange(1 << pair.k) << pair.r) | z)
            assert np.array_equal(permutation_unitary_from_circuit(pair, z).table, full)
        else:
            with pytest.raises(InvalidPairError):
                permutation_unitary_from_circuit(pair, z)


class TestOiVector:
    def test_single_unitary(self):
        rng = derive_rng(1, "oi-m1")
        psi = random_state(1, rng)
        u = haar_unitary(1, rng)
        vector = oi_vector((u,), psi)
        assert np.allclose(vector, u.apply(psi.amps))
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-12)

    def test_three_identities(self):
        psi = random_state(1, derive_rng(2, "oi-id"))
        vector = oi_vector((identity_unitary(1),) * 3, psi)
        assert np.allclose(vector, 6 * psi.amps)
        assert np.linalg.norm(vector) == pytest.approx(6.0, abs=1e-12)

    def test_x_and_z_cancel_exactly(self):
        for i in range(5):
            psi = random_state(1, derive_rng(3, "oi-xz", i))
            assert np.all(oi_vector((pauli_x(), pauli_z()), psi) == 0)

    def test_matches_direct_two_unitary_formula(self):
        rng = derive_rng(4, "oi-direct")
        for _ in range(10):
            psi = random_state(2, rng)
            u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
            direct = (u1.matrix @ u2.matrix + u2.matrix @ u1.matrix) @ psi.amps
            assert np.abs(oi_vector((u1, u2), psi) - direct).max() < 1e-10

    def test_norm_within_factorial_bound(self):
        rng = derive_rng(5, "oi-bound")
        for m in (2, 3, 4):
            psi = random_state(2, rng)
            us = tuple(haar_unitary(2, rng) for _ in range(m))
            assert 0.0 <= np.linalg.norm(oi_vector(us, psi)) <= math.factorial(m) + 1e-9

    def test_factorial_cap(self):
        psi = basis_state(1, "0")
        unitaries = (identity_unitary(1),) * (MAX_ORACLE_UNITARIES + 1)
        with pytest.raises(ResourceError, match=r"^9 unitaries means 9! orderings; cap is 8$"):
            oi_oracle_query(unitaries, psi, 10, derive_rng(5, "cap"))

    def test_cap_message_does_not_print_the_factorial(self):
        # 2000! has 5,736 digits, past Python's int-to-str limit, which
        # would raise ValueError in place of ResourceError
        unitaries = (SimUnitary(1, table=[0, 1]),) * 2000
        with pytest.raises(ResourceError, match=r"^2000 unitaries means 2000! orderings"):
            oi_oracle_query(unitaries, basis_state(1, "0"), 10, derive_rng(5, "cap"))


class TestPhaseAlignment:
    def test_identical_orderings(self):
        psi = random_state(2, derive_rng(6, "pa"))
        assert oi_alignment((identity_unitary(2),) * 3, psi) == pytest.approx(1.0, abs=1e-12)

    def test_x_z_cancellation_gives_zero(self):
        psi = basis_state(1, "0")
        # both orderings land on |1>, with amplitudes +1 and -1
        amps_at_one = sorted(
            (second.apply(first.apply(psi.amps))[1].real
             for first, second in ((pauli_x(), pauli_z()), (pauli_z(), pauli_x())))
        )
        assert amps_at_one == [-1.0, 1.0]
        assert oi_alignment((pauli_x(), pauli_z()), psi) == 0.0

    def test_single_ordering(self):
        psi = random_state(1, derive_rng(7, "pa1"))
        alignment = oi_alignment((haar_unitary(1, derive_rng(8, "u")),), psi)
        assert alignment == pytest.approx(1.0, abs=1e-12)


class TestOiOracle:
    def test_identity_success_probability(self):
        psi = random_state(1, derive_rng(9, "oo"))
        query = ((identity_unitary(1),) * 2, psi, 999)
        outcome = oi_oracle_query(*query, derive_rng(9, "draw"))
        assert outcome.success_probability == pytest.approx(999 / 1000, abs=1e-12)
        assert outcome.interference_norm == pytest.approx(2.0, abs=1e-12)

    def test_zero_vector_always_fails_without_exception(self):
        query = ((pauli_x(), pauli_z()), basis_state(1, "0"), 50)
        for i in range(5):
            outcome = oi_oracle_query(*query, derive_rng(10, i))
            assert not outcome.success
            assert outcome.success_probability == 0.0
            assert outcome.state is None

    def test_single_unitary_lambda_one(self):
        psi = basis_state(1, "0")
        u = pauli_x()
        outcome = oi_oracle_query((u,), psi, 1, derive_rng(11, "m1"))
        assert outcome.success_probability == pytest.approx(0.5, abs=1e-12)
        if outcome.success:
            assert np.allclose(outcome.state.amps, basis_state(1, "1").amps)

    def test_success_state_is_normalized_oi(self):
        rng = derive_rng(12, "succ")
        psi = random_nonnegative_state(2, rng)
        us = tuple(random_permutation_unitary(2, rng) for _ in range(3))
        query = (us, psi, 1000)
        for i in range(20):
            outcome = oi_oracle_query(*query, derive_rng(12, "draw", i))
            if outcome.success:
                reference = oi_vector(us, psi)
                assert np.allclose(outcome.state.amps, reference / np.linalg.norm(reference))
                break
        else:
            pytest.fail("no success in 20 attempts at lambda=1000")

    def test_empirical_frequency_three_sigma(self):
        psi = basis_state(1, "0")
        query = ((identity_unitary(1), pauli_x()), psi, 7)
        p = oi_oracle_query(*query, derive_rng(0, "probe")).success_probability
        trials = 2000
        hits = sum(
            oi_oracle_query(*query, derive_rng(13, "freq", i)).success
            for i in range(trials)
        )
        sigma = math.sqrt(p * (1 - p) * trials)
        assert abs(hits - p * trials) <= 3 * sigma

    def test_deterministic_given_seed(self):
        psi = random_state(1, derive_rng(14, "det"))
        query = ((identity_unitary(1), pauli_x()), psi, 3)
        a = oi_oracle_query(*query, derive_rng(15, "x"))
        b = oi_oracle_query(*query, derive_rng(15, "x"))
        assert a.success == b.success

    def test_permutation_query_holds_one_vector(self):
        # a block of the 720 orderings' amplitudes would take 5.9 MB; the
        # kernel holds the sum, a few 8 KB vectors and the orderings iterator
        rng = derive_rng(15, "memory")
        psi = random_nonnegative_state(10, rng)
        unitaries = tuple(random_permutation_unitary(10, rng) for _ in range(6))
        tracemalloc.start()
        try:
            oi_oracle_query(unitaries, psi, 100, derive_rng(15, "draw"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCiVector:
    def test_two_identities(self):
        psi = random_state(1, derive_rng(16, "ci"))
        assert np.allclose(ci_vector((identity_unitary(1),) * 2, psi), 2 * psi.amps)

    def test_x_z_on_zero(self):
        total = ci_vector((pauli_x(), pauli_z()), basis_state(1, "0"))
        assert np.allclose(total, np.array([1.0, 1.0]))
        assert np.linalg.norm(total) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_permutations_on_nonnegative_state_norm_bound(self):
        rng = derive_rng(17, "ci-bound")
        for trial in range(100):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, 6))
            psi = random_nonnegative_state(n, rng)
            us = tuple(random_permutation_unitary(n, rng) for _ in range(m))
            norm = ci_oracle_query(us, psi, 1, derive_rng(17, "draw", trial)).interference_norm
            assert norm >= math.sqrt(m) * (1 - 1e-12)


class TestCiOracle:
    def test_identity_success_probability(self):
        psi = random_state(1, derive_rng(18, "cio"))
        outcome = ci_oracle_query(
            (identity_unitary(1),) * 2, psi, 999, derive_rng(18, "draw")
        )
        assert outcome.success_probability == pytest.approx(999 / 1000, abs=1e-12)

    def test_x_z_probability_value(self):
        outcome = ci_oracle_query(
            (pauli_x(), pauli_z()), basis_state(1, "0"), 10, derive_rng(19, "d")
        )
        assert outcome.phase_alignment == pytest.approx(1.0, abs=1e-12)
        assert outcome.interference_norm == pytest.approx(math.sqrt(2), abs=1e-12)
        expected = (math.sqrt(2) / 2) / (math.sqrt(2) / 2 + 1 / 10)
        assert outcome.success_probability == pytest.approx(expected, abs=1e-9)
        assert outcome.success_probability == pytest.approx(0.87610, abs=5e-6)

    def test_single_choice(self):
        psi = basis_state(1, "0")
        for lam in (1, 10, 100):
            outcome = ci_oracle_query((pauli_x(),), psi, lam, derive_rng(20, lam))
            assert outcome.success_probability == pytest.approx(
                1 / (1 + 1 / lam), abs=1e-12
            )
            if outcome.success:
                assert np.allclose(outcome.state.amps, basis_state(1, "1").amps)

    def test_empirical_frequency_three_sigma(self):
        psi = basis_state(1, "0")
        us = (pauli_x(), pauli_z())
        p = ci_oracle_query(us, psi, 10, derive_rng(0, "probe")).success_probability
        trials = 2000
        hits = sum(
            ci_oracle_query(us, psi, 10, derive_rng(21, "freq", i)).success
            for i in range(trials)
        )
        sigma = math.sqrt(p * (1 - p) * trials)
        assert abs(hits - p * trials) <= 3 * sigma

    def test_choice_cap(self):
        psi = basis_state(1, "0")
        unitaries = (identity_unitary(1),) * (MAX_ORACLE_UNITARIES + 1)
        with pytest.raises(ResourceError, match=r"^9 unitaries means 9 choices; cap is 8$"):
            ci_oracle_query(unitaries, psi, 10, derive_rng(21, "cap"))


class TestCiFastPath:
    """The interference kernel against the naive per-ordering block of
    ``helpers.block_reference``.  Over permutation tables on a real
    non-negative state it adds the block's rows in the block's order and
    takes the alignment as exactly 1 without a per-row pass; on queries
    whose terms can cancel it measures the block's alignment."""

    @staticmethod
    def choice_groups():
        """Tables of r = 1, 2 and 3 random bits: XOR-bit steps and random
        permutations, each with a random non-negative state or a basis state."""
        rng = derive_rng(50, "ci-fast")
        for k, bit in ((2, 0), (5, 3), (9, 8)):
            unitaries = tuple(
                permutation_unitary_from_circuit(_xor_bit_step(k, bit), z) for z in (0, 1)
            )
            yield unitaries, random_nonnegative_state(k, rng)
            yield unitaries, basis_state(k, format(bit, f"0{k}b"))
        for trial in range(60):
            n = int(rng.integers(1, 9))
            unitaries = tuple(random_permutation_unitary(n, rng) for _ in range(2 << trial % 3))
            yield unitaries, random_nonnegative_state(n, rng)

    @staticmethod
    def oracles(m: int):
        """Each oracle with its sequences and row count; order interference
        only up to 4! orderings, to keep the reference block small."""
        yield ci_oracle_query, choices(m), m
        if m <= 4:
            yield oi_oracle_query, orderings(m), math.factorial(m)

    def test_fast_path_matches_the_block_path(self):
        for index, (unitaries, psi) in enumerate(self.choice_groups()):
            for query, sequences, rows in self.oracles(len(unitaries)):
                vector, alignment = block_reference(unitaries, psi, sequences)
                got = qsim._interference(unitaries, psi, sequences)
                assert got[0].tobytes() == vector.tobytes()
                assert got[1] == 1.0
                assert alignment == pytest.approx(1.0, abs=1e-12)
                for lam in (1, 10 ** 6):
                    rngs = derive_rng(51, index, lam), derive_rng(51, index, lam)
                    got = query(unitaries, psi, lam, rngs[0])
                    want = qsim._oracle_outcome(vector, 1.0, rows, lam, psi.n, rngs[1])
                    assert got.phase_alignment == 1.0
                    assert got.interference_norm == want.interference_norm
                    assert got.norm_factor == want.norm_factor == got.success_probability
                    assert got.success == want.success
                    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
                    if got.success:
                        assert got.state.amps.tobytes() == want.state.amps.tobytes()

    def test_order_interference_on_counting_states_aligns_exactly(self):
        # |alpha| and |sum alpha| sum in other orders, so a ratio could read below 1
        rng = derive_rng(53, "oi-counting")
        for trial in range(200):
            n, m = int(rng.integers(1, 7)), int(rng.integers(2, 5))
            counts = rng.integers(0, 9, size=1 << n) + (np.arange(1 << n) == 0)
            psi = StateVector(n, counts / np.linalg.norm(counts))
            unitaries = tuple(random_permutation_unitary(n, rng) for _ in range(m))
            for state in (psi, as_complex(psi)):
                outcome = oi_oracle_query(unitaries, state, 100, derive_rng(53, trial))
                assert outcome.phase_alignment == 1.0

    def test_other_queries_match_the_block_path(self):
        # a mixed-sign real state under I and X: (0.6, -0.8) + (-0.8, 0.6)
        mixed = StateVector(1, [0.6, -0.8])
        tables = (identity_unitary(1), SimUnitary(1, table=[1, 0]))
        # dense X and Z on |+>: X|+> + Z|+> = (sqrt 2, 0)
        plus = StateVector(1, np.array([1.0, 1.0]) / math.sqrt(2))
        for unitaries, psi, ci_alignment in (
            (tables, mixed, 1 / 7),
            ((pauli_x(), pauli_z()), plus, 0.5),
            (tables, as_complex(random_nonnegative_state(1, derive_rng(52, "c"))), 1.0),
        ):
            for query, sequences, _ in self.oracles(len(unitaries)):
                vector, alignment = block_reference(unitaries, psi, sequences)
                got = qsim._interference(unitaries, psi, sequences)
                assert got[0].tobytes() == vector.tobytes()
                assert got[1] == pytest.approx(alignment, abs=1e-15)
                outcome = query(unitaries, psi, 10, derive_rng(52, "draw"))
                assert outcome.phase_alignment == got[1]
            ci = ci_oracle_query(unitaries, psi, 10, derive_rng(52, "draw"))
            assert ci.phase_alignment == pytest.approx(ci_alignment, abs=1e-12)


def flip_table(n: int, mask: int) -> SimUnitary:
    """The XOR mask as an index table."""
    return SimUnitary(n, table=np.arange(1 << n) ^ mask)


class TestFlipForm:
    """XOR masks are permutations with no table: queries that mix them with
    tables and dense matrices equal the same queries with each mask as its
    table, and the identity mask, which hands back its input, never lets a
    query add into the query state's array."""

    @staticmethod
    def mixed_queries():
        """(unitaries, the same with every mask as its table, state): masks
        (the identity among them), random tables and Haar matrices, on
        non-negative, mixed-sign and complex states."""
        rng = derive_rng(60, "flip-mix")
        for trial in range(90):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            mixed, tables = [], []
            for slot in range(m):
                form = 0 if slot == 0 and trial % 3 == 0 else int(rng.integers(4))
                if form <= 1:  # the identity first in every third query
                    mask = 0 if form == 0 else int(rng.integers(1, 1 << n))
                    mixed.append(SimUnitary(n, flip=mask))
                    tables.append(flip_table(n, mask))
                else:
                    u = random_permutation_unitary(n, rng) if form == 2 else haar_unitary(n, rng)
                    mixed.append(u)
                    tables.append(u)
            nonnegative = random_nonnegative_state(n, rng)
            signs = np.where(rng.random(1 << n) < 0.3, -1.0, 1.0)
            mixed_sign = StateVector(n, signs * nonnegative.amps)
            psi = (nonnegative, mixed_sign, random_state(n, rng))[trial % 3]
            yield tuple(mixed), tuple(tables), psi

    @pytest.mark.parametrize("query", [ci_oracle_query, oi_oracle_query], ids=["ci", "oi"])
    def test_mixed_forms_equal_the_table_query(self, query):
        successes = 0
        for index, (mixed, tables, psi) in enumerate(self.mixed_queries()):
            rngs = derive_rng(61, index), derive_rng(61, index)
            got = query(mixed, psi, 10, rngs[0])
            want = query(tables, psi, 10, rngs[1])
            # a matrix product may add in another order on another buffer
            tol = 0 if all(u.matrix is None for u in mixed) else 1e-14
            assert got.success == want.success
            for name in ("success_probability", "interference_norm", "phase_alignment"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=tol, abs=tol)
            if got.success:
                successes += 1
                assert got.state.amps.dtype == want.state.amps.dtype
                assert np.allclose(got.state.amps, want.state.amps, rtol=0, atol=tol)
        assert successes > 30

    @pytest.mark.parametrize("query", [ci_oracle_query, oi_oracle_query], ids=["ci", "oi"])
    def test_identity_first_query_leaves_the_state_unchanged(self, query):
        rng = derive_rng(62, "identity-first")
        identity = SimUnitary(3, flip=0)
        for psi in (random_nonnegative_state(3, rng), random_state(3, rng)):
            before = psi.amps.copy()
            for second in (SimUnitary(3, flip=0b010), identity, identity_unitary(3)):
                vector = qsim._interference((identity, second), psi, choices(2))[0]
                assert vector is not psi.amps
                assert np.array_equal(vector, before + second.apply(before))
                query((identity, second), psi, 10, derive_rng(62, "draw"))
                assert np.array_equal(psi.amps, before)


class TestSwapTest:
    def test_equal_states_always_accept(self):
        psi = random_state(2, derive_rng(22, "st"))
        (result,) = swap_test(psi, psi, 500, [derive_rng(22, "draw")])
        assert result.exact_overlap == pytest.approx(1.0, abs=1e-12)
        assert result.accepts == 500
        assert result.estimate == 1.0

    def test_orthogonal_states_center_on_zero(self):
        phi = basis_state(1, "0")
        psi = basis_state(1, "1")
        (result,) = swap_test(phi, psi, 20000, [derive_rng(23, "orth")])
        assert result.exact_overlap == 0.0
        assert abs(result.estimate) < 0.05

    def test_known_overlap_accept_probability(self):
        phi = basis_state(1, "0")
        psi = StateVector(1, np.array([0.6, 0.8]))
        (result,) = swap_test(phi, psi, 50000, [derive_rng(24, "known")])
        assert result.exact_overlap == pytest.approx(0.36, abs=1e-12)
        # accept probability 1/2 + 0.36/2 = 0.68
        assert result.accepts / result.shots == pytest.approx(0.68, abs=0.01)

    def test_unnormalized_rejected(self):
        bad = StateVector(1, np.array([1.0, 1.0]))
        with pytest.raises(PreconditionError):
            swap_test(bad, basis_state(1, "0"), 10, [derive_rng(25, "bad")])

    def test_states_need_equal_widths(self):
        with pytest.raises(WidthError, match="^states must have the same qubit count$"):
            swap_test(basis_state(1, "0"), basis_state(2, "00"), 10, [derive_rng(25, "widths")])

    def test_shot_validation(self):
        psi = basis_state(1, "0")
        with pytest.raises(ValueError):
            swap_test(psi, psi, 0, [derive_rng(26, "z")])

    def test_one_call_equals_a_trial_at_a_time(self):
        # the overlap once for all trials, against each trial drawn alone
        # from the exact accept probability
        phi = random_nonnegative_state(6, derive_rng(27, "phi"))
        psi = random_nonnegative_state(6, derive_rng(27, "psi"))
        overlap = min(abs(np.add.reduce(phi.amps * psi.amps)) ** 2, 1.0)
        results = swap_test(phi, psi, 333, [derive_rng(28, trial) for trial in range(9)])
        assert len(results) == 9
        for trial, result in enumerate(results):
            accepts = int(np.count_nonzero(derive_rng(28, trial).random(333) < 0.5 + overlap / 2))
            (alone,) = swap_test(phi, psi, 333, [derive_rng(28, trial)])
            assert result == alone
            assert (result.accepts, result.shots, result.exact_overlap) == (accepts, 333, overlap)
            assert result.estimate == 2 * accepts / 333 - 1
            assert result.estimate is alone.estimate  # one float per (accepts, shots)
        assert swap_test(phi, psi, 333, []) == ()


def step_table_groups() -> list[tuple[SimUnitary, ...]]:
    """Unitary tuples built from circuit tables, as the solver queries them:
    the two randomness choices of XOR-bit steps, and deterministic
    circuit-application steps of equal width side by side."""
    groups = [
        tuple(permutation_unitary_from_circuit(_xor_bit_step(k, bit), z) for z in (0, 1))
        for k, bit in ((2, 0), (4, 3), (6, 1))
    ]
    for count in (2, 3):
        groups.append(tuple(
            permutation_unitary_from_circuit(
                _apply_circuit_step(random_circuit(3, 2, 12, seed=seed), 4), 0
            )
            for seed in range(count)
        ))
    return groups


def as_complex(psi: StateVector) -> StateVector:
    return StateVector(psi.n, psi.amps.astype(np.complex128))


class TestRealAmplitudes:
    """Real states and permutation tables stay float64; each result agrees
    with the same computation on the state cast to complex128."""

    def test_dtype_follows_the_values(self):
        assert StateVector(1, [1, 0]).amps.dtype == np.float64
        assert StateVector(1, np.array([0.6, 0.8], dtype=np.float32)).amps.dtype == np.float64
        assert StateVector(1, np.array([0.6, 0.8j])).amps.dtype == np.complex128
        assert basis_state(2, "01").amps.dtype == np.float64
        assert StateVector.zero(2).amps.dtype == np.float64
        assert StateVector.from_json_list([[1.0, 0.0], [0.0, 0.0]]).amps.dtype == np.complex128
        real = basis_state(1, "0")
        assert oi_vector((identity_unitary(1),), real).dtype == np.float64
        assert ci_vector((identity_unitary(1), pauli_z()), real).dtype == np.complex128

    @pytest.mark.parametrize("query", [ci_oracle_query, oi_oracle_query], ids=["ci", "oi"])
    def test_oracle_matches_complex_path(self, query):
        for index, unitaries in enumerate(step_table_groups()):
            n = unitaries[0].n
            real = random_nonnegative_state(n, derive_rng(40, index))
            for lam in (1, 100):
                rngs = derive_rng(41, index, lam), derive_rng(41, index, lam)
                got = query(unitaries, real, lam, rngs[0])
                want = query(unitaries, as_complex(real), lam, rngs[1])
                assert got.success == want.success
                for name in ("success_probability", "interference_norm", "phase_alignment"):
                    assert getattr(got, name) == pytest.approx(
                        getattr(want, name), rel=1e-15, abs=1e-15
                    )
                if got.success:
                    assert got.state.amps.dtype == np.float64
                    assert np.allclose(got.state.amps, want.state.amps)
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_swap_test_matches_complex_path(self):
        for index in range(20):
            n = 1 + index % 4
            phi = random_nonnegative_state(n, derive_rng(42, index, "phi"))
            psi = random_nonnegative_state(n, derive_rng(42, index, "psi"))
            (got,) = swap_test(phi, psi, 4096, [derive_rng(43, index)])
            (want,) = swap_test(as_complex(phi), as_complex(psi), 4096, [derive_rng(43, index)])
            assert got.accepts == want.accepts
            assert got.exact_overlap == pytest.approx(want.exact_overlap, rel=1e-13)
