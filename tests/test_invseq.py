import hashlib
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_kept_bytes, traced_peak_bytes
from helpers import (
    constant_circuit,
    edited,
    eval_circuit,
    identity_circuit,
    identity_pair,
    marginal,
    point_mass,
    random_sd_instance,
    sd_distance,
    sisd_distance,
    uniform_distribution,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from oilab import circuits
from oilab.circuits import (
    GATE_ARITY,
    BoolCircuit,
    CircuitBuilder,
    Gate,
    SdInstance,
    enumerate_distribution,
    eval_circuit_batch,
    random_circuit,
)
from oilab.corpus import build_sd_corpus, polarize_corpus
from oilab.distributions import Distribution, tv_distance
from oilab.errors import MalformedSequenceError, ParseError, PreconditionError, ResourceError
from oilab.invseq import (
    SAMPLED_POINTS,
    InvPair,
    InvertibleSequence,
    PairCheck,
    SisdInstance,
    _apply_circuit_step,
    _xor_bit_step,
    direct_product,
    polarize,
    reduce_sd_to_sisd,
    sequence_output_distribution,
    stage_counts,
    validate_sequence,
    xor_combine,
)
from oilab.jsonio import canonical_dumps
from oilab.seeding import derive_rng, derive_seed


def involution(k: int, r: int, seed: int) -> BoolCircuit:
    """Random step (x, z) -> x XOR g(z), or (x, y) -> (x, y XOR g(x)) when
    r = 0; either way its own inverse."""
    if r == 0:
        return _apply_circuit_step(random_circuit(k // 2, k - k // 2, 6, seed), k // 2).forward
    builder = CircuitBuilder(k + r)
    values = builder.inline(random_circuit(r, k, 6, seed), list(range(k, k + r)))
    return builder.build([builder.add("XOR", j, w) for j, w in enumerate(values)])


def with_rare_flip(circuit: BoolCircuit, seed: int) -> BoolCircuit:
    """The same circuit with one output flipped where three seeded input
    bits are all 1."""
    rng = derive_rng(seed, "rare-flip")
    a, b, c = (int(w) for w in rng.choice(circuit.k_in, 3, replace=False))
    builder = CircuitBuilder(circuit.k_in)
    outputs = builder.inline(circuit, list(range(circuit.k_in)))
    rare = builder.add("AND", builder.add("AND", a, b), c)
    j = int(rng.integers(circuit.k_out))
    outputs[j] = builder.add("XOR", outputs[j], rare)
    return builder.build(outputs)


def assert_matches_scalar(pairs: list[InvPair], seed: int) -> None:
    """validate_sequence agrees with a per-row eval_circuit round trip over
    the same points: every (x, z) in order, or the same seeded bit draw."""
    checks = []
    for index, pair in enumerate(pairs):
        width = pair.k + pair.r
        if 1 << width <= 2 ** 20:
            rows = [format(p, f"0{width}b") for p in range(1 << width)]
        else:
            bits = derive_rng(seed, "validate", index).integers(0, 2, size=(SAMPLED_POINTS, width))
            rows = ["".join(map(str, row)) for row in bits.tolist()]
        bad = next(
            (
                (row[: pair.k], row[pair.k :])
                for row in rows
                if eval_circuit(pair.backward, eval_circuit(pair.forward, row) + row[pair.k :])
                != row[: pair.k]
            ),
            None,
        )
        checks.append((len(rows), bad is None, bad))
    report = validate_sequence(InvertibleSequence(tuple(pairs), pairs[0].k), seed=seed)
    assert [(c.points_checked, c.ok, c.counterexample) for c in report.checks] == checks


class TestValidation:
    def test_xor_steps_are_involutions(self):
        seq = InvertibleSequence(tuple(_xor_bit_step(3, i) for i in range(3)), 3)
        report = validate_sequence(seq)
        assert report.ok
        assert all(c.exhaustive for c in report.checks)

    def test_constant_backward_fails_with_counterexample(self):
        forward = _xor_bit_step(2, 0).forward
        broken = InvPair(forward, constant_circuit(3, "00"))
        report = validate_sequence(InvertibleSequence((broken,), 2))
        assert not report.ok
        x, z = report.checks[0].counterexample
        assert len(x) == 2 and len(z) == 1
        # the recorded point really is a violation
        assert eval_circuit(broken.backward, eval_circuit(forward, x + z) + z) != x

    def test_sampled_path_for_wide_pairs(self):
        seq = InvertibleSequence((_xor_bit_step(24, 3),), 24)
        report = validate_sequence(seq)
        assert report.ok
        assert not report.checks[0].exhaustive
        assert report.checks[0].points_checked == SAMPLED_POINTS

    @pytest.mark.parametrize("case", ["distinct", "shared"])
    def test_exhaustive_matches_scalar_round_trip(self, case):
        # seeded involutions, broken on about 1/8 of the points so that
        # counterexamples fall anywhere; backward is a different circuit or
        # the same one
        pairs = []
        for index in range(8):
            r = index % 4
            step = involution(4, r, derive_seed(5, "step", index))
            flipped = with_rare_flip(step, derive_seed(5, "flip", index))
            if case == "shared":
                pairs.append(InvPair(flipped, flipped))
            else:
                pairs.append(InvPair(step, flipped))
        # an intact involution, and one whose backward is an equal function
        # but not an equal circuit
        xor = _xor_bit_step(4, 2).forward
        padded = BoolCircuit(5, xor.gates + (Gate("COPY", (0,)),), xor.outputs)
        pairs += [_xor_bit_step(4, 0), InvPair(xor, padded)]
        assert_matches_scalar(pairs, seed=0)

    def test_shared_direction_that_is_not_an_involution_fails(self):
        # x -> x + 1 mod 4 (wire 0 is the high bit) as both directions
        rotate = BoolCircuit(2, (Gate("XOR", (0, 1)), Gate("NOT", (1,))), (2, 3))
        pair = InvPair(rotate, rotate)
        check = validate_sequence(InvertibleSequence((pair,), 2)).checks[0]
        assert (check.exhaustive, check.points_checked, check.ok) == (True, 4, False)
        assert check.counterexample == ("00", "")
        assert_matches_scalar([pair], seed=0)

    def test_sampled_matches_scalar_round_trip(self):
        # k + r = 21: one bit past the exhaustive domain
        step = involution(20, 1, seed=8)
        flipped = with_rare_flip(step, seed=9)
        pairs = [
            InvPair(step, flipped),
            InvPair(flipped, flipped),
            InvPair(step, step),
            InvPair(step, random_circuit(21, 20, 30, seed=10)),
        ]
        assert_matches_scalar(pairs, seed=13)

    def test_width_contracts(self):
        # a pair reads k and r from forward; a file states them again
        assert (InvPair(identity_circuit(3), identity_circuit(3)).k, _xor_bit_step(2, 0).r) == (3, 1)
        with pytest.raises(MalformedSequenceError, match="forward circuit maps 3->3 bits, expected 2->2"):
            InvertibleSequence.from_json_dict({"k": 2, "pairs": [identity_pair(3).to_json_dict()] * 2})
        for backward in (identity_circuit(2), constant_circuit(3, "0")):
            with pytest.raises(MalformedSequenceError, match="a step needs equal widths"):
                InvPair(_xor_bit_step(2, 0).forward, backward)
        with pytest.raises(MalformedSequenceError, match="r >= 0"):
            InvPair(constant_circuit(1, "00"), constant_circuit(1, "00"))
        with pytest.raises(MalformedSequenceError):
            InvertibleSequence((identity_pair(2), identity_pair(3)), 2)


class TestSequenceDistribution:
    def test_single_xor_step_splits_evenly(self):
        seq = InvertibleSequence((_xor_bit_step(3, 0),), 3)
        dist = sequence_output_distribution(seq)
        assert dist.probs == {0b000: Fraction(1, 2), 0b100: Fraction(1, 2)}

    def test_all_identity_is_point_mass(self):
        seq = InvertibleSequence(tuple(identity_pair(2) for _ in range(3)), 2)
        assert sequence_output_distribution(seq) == point_mass(2, 0)
        assert sequence_output_distribution(InvertibleSequence((), 2)) == point_mass(2, 0)

    def test_cap(self):
        seq = InvertibleSequence(tuple(_xor_bit_step(2, 0) for _ in range(30)), 2)
        with pytest.raises(ResourceError):
            sequence_output_distribution(seq)

    def test_step_domain_cap(self):
        # one random bit in all, but a step over 24 + 1 bits
        seq = InvertibleSequence((_xor_bit_step(24, 0),), 24)
        with pytest.raises(ResourceError):
            next(stage_counts(seq))
        with pytest.raises(ResourceError):
            sequence_output_distribution(seq)


class TestReduction:
    def test_shape_for_equal_widths(self):
        inst = SdInstance(
            random_circuit(3, 2, 5, seed=1), random_circuit(3, 2, 5, seed=2), 0, 1
        )
        red = reduce_sd_to_sisd(inst)
        assert len(red.seq0) == 7
        assert red.seq0.k == 5
        assert [p.r for p in red.seq0.pairs] == [1, 1, 1, 0, 1, 1, 1]
        assert red.r == 1
        for seq in (red.seq0, red.seq1):
            for pair in seq.pairs:
                assert pair.forward == pair.backward

    def test_identical_circuits_give_zero_distance(self):
        c = random_circuit(3, 2, 6, seed=9)
        red = reduce_sd_to_sisd(SdInstance(c, c, 0, 1))
        d0 = sequence_output_distribution(red.seq0)
        d1 = sequence_output_distribution(red.seq1)
        assert tv_distance(d0, d1) == 0

    def test_distance_preserved_exactly(self):
        for index in range(30):
            inst = random_sd_instance(index)
            red = reduce_sd_to_sisd(inst)
            assert sd_distance(inst) == sisd_distance(red)  # exact rational equality

    def test_distance_preserved_at_wider_widths(self):
        # input widths up to 6 and output widths up to 4
        for index in range(6):
            inst = random_sd_instance(index, seed=314, max_k_in=6, k_out_cap=4)
            red = reduce_sd_to_sisd(inst)
            assert sd_distance(inst) == sisd_distance(red)

    def test_output_is_product_of_uniform_and_circuit_distribution(self):
        inst = random_sd_instance(5)
        prefix = max(inst.c0.k_in, inst.c1.k_in)
        k_out = inst.c0.k_out
        dist = sequence_output_distribution(reduce_sd_to_sisd(inst).seq0)
        assert marginal(dist, 0, prefix) == uniform_distribution(prefix)
        assert marginal(dist, prefix, prefix + k_out) == enumerate_distribution(inst.c0)
        # full product structure, not just the marginals
        circuit_dist = enumerate_distribution(inst.c0)
        for key, prob in dist.probs.items():
            assert prob == Fraction(1, 2 ** prefix) * circuit_dist.probs.get(key & ((1 << k_out) - 1), 0)

    def test_reduced_sequences_validate_exhaustively(self):
        for index in range(8):
            red = reduce_sd_to_sisd(random_sd_instance(index))
            for seq in (red.seq0, red.seq1):
                report = validate_sequence(seq)
                assert report.ok and all(c.exhaustive for c in report.checks)

    def test_mismatched_input_widths(self):
        inst = SdInstance(
            random_circuit(2, 2, 4, seed=3), random_circuit(4, 2, 4, seed=4), 0, 1
        )
        red = reduce_sd_to_sisd(inst)
        assert red.seq0.k == 4 + 2
        assert len(red.seq0) == 2 * 4 + 1
        assert sd_distance(inst) == sisd_distance(red)


def quartile_circuit(p: Fraction) -> BoolCircuit:
    """2-in/1-out circuit whose output hits 1 with probability p."""
    return {
        Fraction(0): constant_circuit(2, "0"),
        Fraction(1, 4): BoolCircuit(2, (Gate("AND", (0, 1)),), (2,)),
        Fraction(1, 2): BoolCircuit(2, (), (0,)),
        Fraction(3, 4): BoolCircuit(2, (Gate("OR", (0, 1)),), (2,)),
        Fraction(1): constant_circuit(2, "1"),
    }[p]


class TestPolarize:
    def test_xor_combine_squares_distance(self):
        c0 = quartile_circuit(Fraction(0))
        c1 = quartile_circuit(Fraction(3, 4))
        mixed0 = xor_combine(c0, c1, 2, 0)
        mixed1 = xor_combine(c0, c1, 2, 1)
        delta = tv_distance(enumerate_distribution(mixed0), enumerate_distribution(mixed1))
        assert delta == Fraction(9, 16)

    def test_direct_product_structure(self):
        c = quartile_circuit(Fraction(1, 4))
        doubled = direct_product(c, 2)
        dist = enumerate_distribution(doubled)
        assert dist.probs[0b11] == Fraction(1, 16)
        assert dist.probs[0b00] == Fraction(9, 16)

    def test_identical_circuits_stay_identical(self):
        c = random_circuit(2, 1, 5, seed=21)
        out = polarize(SdInstance(c, c, "1/3", "2/3"), k=2, xor_reps=2, product_reps=3)
        assert sd_distance(out) == 0

    def test_disjoint_supports_stay_disjoint(self):
        inst = SdInstance(constant_circuit(2, "0"), constant_circuit(2, "1"), "1/3", "2/3")
        out = polarize(inst, k=2, xor_reps=2, product_reps=3)
        assert sd_distance(out) == 1
        assert (out.a, out.b) == (Fraction(1, 4), Fraction(3, 4))

    def test_near_two_thirds_instance_lands_beyond_three_quarters(self):
        # random pair at distance 11/16 ~ 0.69 (> 2/3); product amplification
        # pushes it past 3/4, verified by exact enumeration
        c0 = random_circuit(6, 2, 7, derive_seed(1234, "p0", 688))
        c1 = random_circuit(6, 2, 11, derive_seed(1234, "p1", 688))
        raw = tv_distance(enumerate_distribution(c0), enumerate_distribution(c1))
        assert raw == Fraction(11, 16)
        out = polarize(SdInstance(c0, c1, "1/3", "2/3"), k=2, xor_reps=1, product_reps=3)
        polarized = sd_distance(out)
        assert polarized == Fraction(3971, 4096)
        assert polarized >= Fraction(3, 4)

    def test_gap_condition_precondition(self):
        inst = SdInstance(
            quartile_circuit(Fraction(0)), quartile_circuit(Fraction(1, 2)), "0.5", "0.5"
        )
        with pytest.raises(PreconditionError):
            polarize(inst, k=2, xor_reps=2, product_reps=3)  # b^2 = a = 1/2

    @pytest.mark.parametrize("product_reps", [0, -5])
    def test_product_reps_must_be_positive(self, product_reps):
        c = random_circuit(2, 1, 5, seed=21)
        with pytest.raises(ValueError, match="reps must be >= 1"):
            polarize(SdInstance(c, c, "1/3", "2/3"), k=2, xor_reps=2, product_reps=product_reps)

    @pytest.mark.parametrize("p0_idx", range(5))
    @pytest.mark.parametrize("p1_idx", range(5))
    def test_promise_valid_shapes_land_on_promised_side(self, p0_idx, p1_idx):
        quartiles = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        p0, p1 = quartiles[p0_idx], quartiles[p1_idx]
        delta = abs(p0 - p1)
        if not (delta <= Fraction(1, 3) or delta > Fraction(2, 3)):
            pytest.skip("outside the promise")
        inst = SdInstance(quartile_circuit(p0), quartile_circuit(p1), "1/3", "2/3")
        out = polarize(inst, k=2, xor_reps=2, product_reps=3)
        result = sd_distance(out)
        if delta <= Fraction(1, 3):
            assert result <= out.a
        else:
            assert result > out.b

    def test_balanced_boundary_shape_at_defaults(self):
        # distance exactly 3/4 between AND-of-3 and OR-of-3; the slowest
        # growing shape under the direct product still clears the label
        and3 = BoolCircuit(3, (Gate("AND", (0, 1)), Gate("AND", (3, 2))), (4,))
        or3 = BoolCircuit(3, (Gate("OR", (0, 1)), Gate("OR", (3, 2))), (4,))
        raw = tv_distance(enumerate_distribution(and3), enumerate_distribution(or3))
        assert raw == Fraction(3, 4)
        out = polarize(SdInstance(and3, or3, "1/3", "2/3"), k=2, xor_reps=2, product_reps=3)
        result = sd_distance(out)
        assert result == Fraction(6183, 8192)
        assert result > Fraction(3, 4)


def dead_gates(circuit: BoolCircuit) -> list[Gate]:
    """Gates whose wire no output reads, directly or through other gates."""
    live = set(circuit.outputs)
    wired = list(enumerate(circuit.gates, circuit.k_in))  # gate g writes wire k_in + g
    for wire, gate in reversed(wired):
        if wire in live:
            live.update(gate.inputs)
    return [gate for wire, gate in wired if wire not in live]


def all_inputs(width: int) -> list[str]:
    return [format(x, f"0{width}b") for x in range(1 << width)]


def foldable_gates(circuit: BoolCircuit) -> list[Gate]:
    """Gates whose value a builder already knows: a COPY, a two-input gate
    reading one wire twice, a gate reading a constant, a NOT of a NOT, or a
    gate of an earlier gate's kind on its inputs in either order (a second
    CONST gate of one value among them)."""
    wired = list(enumerate(circuit.gates, circuit.k_in))
    constants = {wire for wire, gate in wired if gate.kind in ("CONST0", "CONST1")}
    negations = {wire for wire, gate in wired if gate.kind == "NOT"}
    found, seen = [], set()
    for gate in circuit.gates:
        key = (gate.kind, tuple(sorted(gate.inputs)))
        one_wire_twice = len(gate.inputs) == 2 and gate.inputs[0] == gate.inputs[1]
        double_negation = gate.kind == "NOT" and gate.inputs[0] in negations
        if (
            gate.kind == "COPY"
            or one_wire_twice
            or double_negation
            or key in seen
            or constants.intersection(gate.inputs)
        ):
            found.append(gate)
        seen.add(key)
    return found


class TestKnownValueFolding:
    """CircuitBuilder.add folds every gate whose value it already knows, and
    what it builds computes what the unfolded gate computes."""

    # wires of a two-input builder after its two constants: x, y, 0, 1
    OPERANDS = (0, 1, 2, 3)

    @pytest.mark.parametrize("kind", sorted(GATE_ARITY))
    def test_every_rule_keeps_the_unfolded_truth_table(self, kind):
        for inputs in itertools.product(self.OPERANDS, repeat=GATE_ARITY[kind]):
            unfolded = BoolCircuit(2, (Gate("CONST0", ()), Gate("CONST1", ()), Gate(kind, inputs)), (4,))
            builder = CircuitBuilder(2)
            assert [builder.add("CONST0"), builder.add("CONST1")] == [2, 3]
            folded = builder.build([builder.add(kind, *inputs)])
            for x in all_inputs(2):
                assert eval_circuit(folded, x) == eval_circuit(unfolded, x), (kind, inputs, x)
            assert foldable_gates(folded) == []
            assert len(folded.gates) <= 1

    def test_double_negations_and_repeated_gates_are_found_and_folded(self):
        # x AND y twice (inputs swapped), and NOT NOT (x AND y); the gates
        # write wires 2 to 7
        gates = (
            Gate("AND", (0, 1)),
            Gate("AND", (1, 0)),
            Gate("NOT", (2,)),
            Gate("NOT", (4,)),
            Gate("XOR", (3, 5)),
            Gate("OR", (0, 6)),
        )
        source = BoolCircuit(2, gates, (7,))
        assert foldable_gates(source) == [gates[1], gates[3]]
        builder = CircuitBuilder(2)
        folded = builder.build(builder.inline(source, [0, 1]))
        assert foldable_gates(folded) == []
        # then XOR(w, w) is 0 and OR(x, 0) is x: no gate is left
        assert folded.gates == () and folded.outputs == (0,)
        for x in all_inputs(2):
            assert eval_circuit(folded, x) == eval_circuit(source, x)

    def test_equal_built_circuits_are_one_object_while_one_is_alive(self):
        def build():
            builder = CircuitBuilder(5)
            return builder.build([4, builder.add("OR", 3, builder.add("AND", 1, 4))])

        first = build()
        assert build() is first
        alive = len(circuits._BUILT_CIRCUITS)
        del first  # the table holds no strong reference: the entry goes with it
        assert len(circuits._BUILT_CIRCUITS) == alive - 1

    def test_constants_are_shared_and_unread_ones_dropped(self):
        builder = CircuitBuilder(1)
        assert builder.add("CONST1") == builder.add("CONST1")
        unread = builder.add("CONST0")
        assert builder.add("AND", 0, unread) == unread
        assert builder.add("OR", builder.add("CONST0"), 0) == 0
        assert builder.build([0]).gates == ()


class TestLiveInlining:
    """Compiled circuits copy only the gates their outputs read, and still
    compose their parts exactly."""

    SOURCES = [random_circuit(3, 2, 10, seed) for seed in range(4)]

    def test_sources_carry_dead_gates(self):
        assert all(dead_gates(c) for c in self.SOURCES)

    def test_compiled_circuits_have_no_dead_gates(self):
        c0, c1 = self.SOURCES[0], random_circuit(2, 2, 9, seed=5)
        assert foldable_gates(c0) and foldable_gates(c1)
        polarized = polarize(SdInstance(c0, c1, "1/3", "2/3"), 2, 2, 2)
        compiled = [
            xor_combine(c0, c1, 3, 1),  # the last selector is NOT(parity): no NOT NOT
            xor_combine(c0, c1, 1, 0),  # a constant selector
            xor_combine(c0, c0, 2, 1),  # both sides inline the same gates
            direct_product(c0, 2),
            _apply_circuit_step(c1, 3).forward,
            polarized.c0,
            polarized.c1,
        ]
        for circuit in compiled:
            assert dead_gates(circuit) == []
            assert foldable_gates(circuit) == []

    def test_polarized_circuits_share_equal_gates(self):
        c0, c1 = self.SOURCES[2], random_circuit(3, 2, 9, seed=6)
        for xor_reps in (2, 3):  # one rep pins the selector: no common gates
            out = polarize(SdInstance(c0, c1, "1/3", "2/3"), 2, xor_reps, 2)
            first = {gate: gate for gate in out.c0.gates}
            shared = [gate for gate in out.c1.gates if gate in first]
            assert shared and len(shared) < len(out.c1.gates)
            assert all(gate is first[gate] for gate in shared)

    def test_polarized_corpus_shares_equal_gates_across_instances(self):
        # and across two corpora built apart, as a stream of corpora is
        polarized = [item for seed in (2026, 7) for item in polarize_corpus(build_sd_corpus(20, seed))]
        first: dict = {}
        repeats = 0
        for item in polarized:
            for gate in item.instance.c0.gates + item.instance.c1.gates:
                repeats += gate in first
                assert first.setdefault(gate, gate) is gate
        assert repeats > len(first)

    def test_direct_product_concatenates_scalar_outputs(self):
        for c in self.SOURCES:
            doubled = direct_product(c, 2)
            for x in all_inputs(c.k_in):
                for y in all_inputs(c.k_in):
                    assert eval_circuit(doubled, x + y) == eval_circuit(c, x) + eval_circuit(c, y)

    def test_apply_circuit_step_xors_scalar_value(self):
        for c in self.SOURCES:
            step = _apply_circuit_step(c, c.k_in + 1).forward
            for x in all_inputs(c.k_in + 1):
                for y in all_inputs(c.k_out):
                    value = eval_circuit(c, x[: c.k_in])
                    flipped = "".join(str(int(u) ^ int(v)) for u, v in zip(y, value))
                    assert eval_circuit(step, x + y) == x + flipped

    def test_xor_combine_selects_scalar_outputs(self):
        c0, c1 = random_circuit(2, 2, 8, seed=11), self.SOURCES[1]
        for which in (0, 1):
            mixed = xor_combine(c0, c1, 2, which)
            for blocks in all_inputs(6):
                for selector in "01":
                    chosen = (int(selector), int(selector) ^ which)
                    expected = "".join(
                        eval_circuit((c0, c1)[pick], block[: (c0, c1)[pick].k_in])
                        for pick, block in zip(chosen, (blocks[:3], blocks[3:]))
                    )
                    assert eval_circuit(mixed, blocks + selector) == expected

    def test_polarized_corpus_distances_are_unchanged(self):
        # exact distances of build_sd_corpus(20, 2026) after polarize_corpus,
        # as compiled before dead gates were pruned
        expected = [
            "1", "45/64", "0", "0", "45/64", "45/64", "0", "45/64", "45/64", "0",
            "0", "1", "45/64", "0", "0", "0", "1", "0", "0", "1",
        ]
        polarized = polarize_corpus(build_sd_corpus(20, 2026))
        distances = [
            tv_distance(*(enumerate_distribution(c) for c in (item.instance.c0, item.instance.c1)))
            for item in polarized
        ]
        assert distances == [Fraction(d) for d in expected]


# SHA-256 over the canonical JSON of both circuits of every instance of
# polarize_corpus(build_sd_corpus(20, 2026)), each followed by its reduction
COMPILED_CORPUS_JSON_SHA256 = "74b6dbd987d3536baf3d7e55dde391bf02e4a4d1beb4cedd5f5779139a65216d"


def two_step_file() -> dict:
    """Two XOR-bit steps on 2 state bits: each pair's circuits map 3 -> 2 bits."""
    return InvertibleSequence((_xor_bit_step(2, 0), _xor_bit_step(2, 1)), 2).to_json_dict()


class TestSerialization:
    def test_compiled_corpus_files_are_pinned(self):
        digest = hashlib.sha256()
        for item in polarize_corpus(build_sd_corpus(20, 2026)):
            for obj in (item.instance.c0, item.instance.c1, reduce_sd_to_sisd(item.instance)):
                digest.update(canonical_dumps(obj.to_json_dict()).encode())
        assert digest.hexdigest() == COMPILED_CORPUS_JSON_SHA256

    @pytest.mark.parametrize(
        "path, value, error, message",
        [
            (("pairs", 0, "r"), 0, MalformedSequenceError, "forward circuit maps 3->2 bits, expected 2->2"),
            (("pairs", 0, "r"), 2, MalformedSequenceError, "forward circuit maps 3->2 bits, expected 4->2"),
            (("pairs", 1, "r"), -1, MalformedSequenceError, "need k >= 1 and r >= 0"),
            (("pairs", 1, "r"), "1", ParseError, "ill-typed field in sequence object: r must be an int, got '1'"),
            (("k",), 3, MalformedSequenceError, "forward circuit maps 3->2 bits, expected 4->3"),
            (("k",), 1, MalformedSequenceError, "forward circuit maps 3->2 bits, expected 2->1"),
            (("k",), 0, MalformedSequenceError, "need k >= 1 and r >= 0"),
            (("k",), "2", ParseError, "ill-typed field in sequence object: k must be an int, got '2'"),
            (("pairs", 1, "backward"), {"k_in": 3, "k_out": 1, "gates": [], "outputs": [0]},
             MalformedSequenceError, "backward circuit maps 3->1 bits, expected 3->2"),
            (("pairs", 0, "forward"), {"k_in": 4, "k_out": 2, "gates": [], "outputs": [0, 1]},
             MalformedSequenceError, "forward circuit maps 4->2 bits, expected 3->2"),
        ],
    )
    def test_disagreeing_widths_are_refused(self, path, value, error, message):
        # a file states each step's k and r beside its circuits' widths
        with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
            InvertibleSequence.from_json_dict(edited(two_step_file(), path, value))
        assert type(caught.value) is error

    def test_empty_sequence_needs_an_int_k(self):
        # its k has no circuit to agree with
        with pytest.raises(ParseError, match="^ill-typed field in sequence object: k must be an int, got '2'$"):
            InvertibleSequence.from_json_dict({"k": "2", "pairs": []})

    def test_sequence_round_trip(self):
        red = reduce_sd_to_sisd(random_sd_instance(3))
        blob = red.seq0.to_json_dict()
        assert InvertibleSequence.from_json_dict(blob) == red.seq0

    def test_sisd_round_trip(self):
        red = reduce_sd_to_sisd(random_sd_instance(4))
        loaded = SisdInstance.from_json_dict(red.to_json_dict())
        assert loaded.seq0 == red.seq0 and loaded.seq1 == red.seq1
        assert (loaded.a, loaded.b, loaded.r) == (red.a, red.b, red.r)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_reduction_preserves_distance_property(index):
    inst = random_sd_instance(index % 1000, seed=777, max_k_in=3, k_out_cap=2)
    red = reduce_sd_to_sisd(inst)
    assert sd_distance(inst) == sisd_distance(red)


# ---------------------------------------------------------------------------
# the block paths against the one-batch paths they replaced

def one_batch_check(pair: InvPair, index: int, points: np.ndarray, exhaustive: bool) -> PairCheck:
    """The pair check as it was before it read blocks: every point in one
    batch, with forward's whole table when backward is the same circuit."""
    r = pair.r
    states = eval_circuit_batch(pair.forward, points)
    back_points = (states << r) | (points & ((1 << r) - 1))
    if exhaustive and pair.backward == pair.forward:
        round_trip = states[back_points]
    else:
        round_trip = eval_circuit_batch(pair.backward, back_points)
    good = round_trip == points >> r
    if good.all():
        return PairCheck(index, exhaustive, len(points), True, None)
    row = format(int(points[np.argmin(good)]), f"0{pair.k + r}b")
    return PairCheck(index, exhaustive, len(points), False, (row[: pair.k], row[pair.k :]))


def one_batch_fold(seq: InvertibleSequence) -> Distribution:
    """The output distribution as it was before states were merged: every
    randomness tuple carried to the end."""
    states = np.zeros(1, dtype=np.int64)
    for pair in seq.pairs:
        states = eval_circuit_batch(
            pair.forward, ((states[:, None] << pair.r) | np.arange(1 << pair.r)).ravel()
        )
    values, counts = np.unique(states, return_counts=True)
    denom = Fraction(1, len(states))
    return Distribution(seq.k, {v: c * denom for v, c in zip(values.tolist(), counts.tolist())})


def random_step(k: int, r: int, seed: int) -> InvPair:
    """A step whose forward circuit is random, so rarely a bijection."""
    circuit = random_circuit(k + r, k, 14, seed)
    return InvPair(circuit, circuit)


def is_bijection(step: InvPair) -> bool:
    """Whether every hard-wired z makes the forward circuit a permutation."""
    return all(
        len(np.unique(eval_circuit_batch(step.forward, (np.arange(1 << step.k) << step.r) | z)))
        == 1 << step.k
        for z in range(1 << step.r)
    )


class TestBlocksMatchOneBatch:
    @pytest.mark.parametrize("case", ["distinct", "shared"])
    def test_validation(self, case, monkeypatch):
        # blocks of 7 rows put block boundaries off every power of two
        monkeypatch.setattr("oilab.circuits._CHUNK_ROWS", 7)
        pairs = []
        for index in range(12):
            r = index % 4
            step = involution(4, r, derive_seed(6, "step", index))
            flipped = with_rare_flip(step, derive_seed(6, "flip", index))
            pairs.append(InvPair(flipped if case == "shared" else step, flipped))
        pairs.append(_xor_bit_step(4, 1))
        report = validate_sequence(InvertibleSequence(tuple(pairs), 4))
        expected = [
            one_batch_check(pair, index, np.arange(1 << (pair.k + pair.r)), True)
            for index, pair in enumerate(pairs)
        ]
        assert list(report.checks) == expected
        # first failures fall mid-block and past the first block
        firsts = [int("".join(c.counterexample), 2) for c in expected if c.counterexample]
        assert any(p % 7 for p in firsts) and any(p >= 7 for p in firsts)
        assert any(c.ok for c in expected)

    def test_sampled_validation(self, monkeypatch):
        monkeypatch.setattr("oilab.circuits._CHUNK_ROWS", 7)
        step = involution(20, 1, seed=8)
        pairs = (InvPair(step, with_rare_flip(step, seed=9)), InvPair(step, step))
        report = validate_sequence(InvertibleSequence(pairs, 20), seed=4)
        expected = []
        for index, pair in enumerate(pairs):
            bits = derive_rng(4, "validate", index).integers(0, 2, size=(SAMPLED_POINTS, 21))
            expected.append(one_batch_check(pair, index, bits @ (1 << np.arange(20, -1, -1)), False))
        assert list(report.checks) == expected and not expected[0].ok

    def test_fold_on_compiled_corpus(self):
        sequences = [
            seq
            for item in polarize_corpus(build_sd_corpus(20, 2026))
            for red in [reduce_sd_to_sisd(item.instance)]
            for seq in (red.seq0, red.seq1)
        ]
        assert len(sequences) == 40
        for seq in sequences:
            assert sequence_output_distribution(seq) == one_batch_fold(seq)

    @pytest.mark.parametrize("rows", [7, 2 ** 15])
    @pytest.mark.parametrize("seed", range(6))
    def test_fold_on_non_bijective_steps(self, rows, seed, monkeypatch):
        # r = 0, r = 1 and r >= 2 steps whose random circuits merge states
        monkeypatch.setattr("oilab.circuits._CHUNK_ROWS", rows)
        steps = tuple(
            random_step(5, r, derive_seed(seed, "step", i)) for i, r in enumerate((2, 0, 3, 1, 2, 0))
        )
        seq = InvertibleSequence(steps, 5)
        assert not all(map(is_bijection, steps))
        assert sequence_output_distribution(seq) == one_batch_fold(seq)

    def test_fold_of_one_wide_step(self, monkeypatch):
        # one step of 12 random bits from one state: the rows of a step span
        # many blocks, and the states reached are merged along the way
        monkeypatch.setattr("oilab.circuits._CHUNK_ROWS", 64)
        seq = InvertibleSequence((random_step(6, 12, seed=3), random_step(6, 2, seed=4)), 6)
        assert sequence_output_distribution(seq) == one_batch_fold(seq)


class TestMemoryBounds:
    """Peak traced allocation of the brute-force paths, each of which holds
    one block (and validation one int64 table) whatever the domain, and
    the memory a kept polarized instance holds."""

    def test_kept_polarized_instances(self):
        # five corpora as the decide-corpus benchmark keeps them: 2.3 KB per
        # instance before gates were shared across a corpus and the instance
        # types had slots, 1.26 KB while gates were shared only within one
        # corpus; built gates are now one object across corpora
        def corpora():
            seeds = [derive_seed(2026, "corpus", number) for number in range(5)]
            return [polarize_corpus(build_sd_corpus(20, seed)) for seed in seeds]

        corpora()  # module-level caches are filled before tracing
        assert traced_kept_bytes(corpora) / 100 < 900

    def test_exhaustive_validation_of_a_width_20_pair(self):
        inst = SdInstance(random_circuit(16, 4, 40, seed=1), random_circuit(16, 4, 40, seed=2), 0, 1)
        seq = reduce_sd_to_sisd(inst).seq0
        assert any(c.exhaustive and c.points_checked == 2 ** 20 for c in validate_sequence(seq).checks)
        assert traced_peak_bytes(lambda: validate_sequence(seq)) < 12_000_000

    def test_fold_over_24_random_bits(self):
        inst = SdInstance(random_circuit(12, 4, 40, seed=1), random_circuit(12, 4, 40, seed=2), 0, 1)
        seq = reduce_sd_to_sisd(inst).seq0
        assert seq.total_random_bits == 24
        assert traced_peak_bytes(lambda: sequence_output_distribution(seq)) < 8_000_000
