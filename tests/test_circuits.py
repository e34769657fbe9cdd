import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import traced_peak_bytes
from helpers import constant_circuit, edited, eval_circuit, identity_circuit, uniform_distribution
from hypothesis import given, settings
from hypothesis import strategies as st

from oilab.circuits import (
    BoolCircuit,
    Gate,
    SdInstance,
    enumerate_distribution,
    eval_circuit_batch,
    last_reads,
    random_circuit,
)
from oilab.distributions import Distribution
from oilab.errors import ParseError, ResourceError, WidthError


def and_circuit():
    return BoolCircuit(2, (Gate("AND", (0, 1)),), (2,))


class TestEval:
    def test_identity_via_copy_gates(self):
        c = BoolCircuit(2, (Gate("COPY", (0,)), Gate("COPY", (1,))), (2, 3))
        assert eval_circuit(c, "01") == "01"

    def test_single_not(self):
        c = BoolCircuit(1, (Gate("NOT", (0,)),), (1,))
        assert eval_circuit(c, "0") == "1"
        assert eval_circuit(c, "1") == "0"

    def test_two_bit_and(self):
        assert eval_circuit(and_circuit(), "11") == "1"
        assert eval_circuit(and_circuit(), "10") == "0"

    def test_width_mismatch(self):
        with pytest.raises(WidthError):
            eval_circuit(and_circuit(), "111")
        with pytest.raises(WidthError):
            eval_circuit(and_circuit(), "1x")

    def test_all_gate_kinds(self):
        gates = (  # writing wires 2 to 6
            Gate("XOR", (0, 1)),
            Gate("OR", (0, 1)),
            Gate("CONST0", ()),
            Gate("CONST1", ()),
            Gate("COPY", (2,)),
        )
        c = BoolCircuit(2, gates, (2, 3, 4, 5, 6))
        assert eval_circuit(c, "10") == "11011"


class TestStructure:
    def test_gate_must_write_consecutive_wire(self):
        # gate g writes wire k_in + g; a file that names another wire is refused
        gate = {"kind": "AND", "in": [0, 1], "out": 5}
        with pytest.raises(ParseError, match="gate 0 must write wire 2, not 5"):
            BoolCircuit.from_json_dict({"k_in": 2, "k_out": 1, "gates": [gate], "outputs": [0]})

    def test_gate_cannot_read_future_wire(self):
        with pytest.raises(ValueError):
            BoolCircuit(2, (Gate("AND", (0, 3)),), (2,))

    def test_output_wire_must_exist(self):
        with pytest.raises(ValueError):
            BoolCircuit(2, (), (5,))

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            Gate("NOT", (0, 1))
        with pytest.raises(ValueError):
            Gate("FANCY", (0,))

    def test_widths_positive(self):
        with pytest.raises(WidthError):
            BoolCircuit(0, (), (0,))

    def test_widths_and_wire_indices_are_ints(self):
        # bool is an int subclass, but True is no wire index
        for bad in (0.5, 1.0, True, "1"):
            with pytest.raises(TypeError, match="must be an int"):
                Gate("NOT", (bad,))
            with pytest.raises(TypeError, match="must be an int"):
                BoolCircuit(2, (), (bad,))
            with pytest.raises(TypeError, match="must be an int"):
                BoolCircuit(bad, (), (0,))
        # a file also states each gate's wire and the output width
        for path in (("gates", 0, "out"), ("k_out",)):
            for bad in (2.0, True):
                with pytest.raises(ParseError, match="must be an int"):
                    BoolCircuit.from_json_dict(edited(NOT_AND_FILE, path, bad))


class TestEnumerate:
    def test_constant_zero(self):
        dist = enumerate_distribution(constant_circuit(2, "0"))
        assert dist.probs == {0: Fraction(1)}

    def test_identity_is_uniform(self):
        assert enumerate_distribution(identity_circuit(2)) == uniform_distribution(2)

    def test_two_bit_and(self):
        dist = enumerate_distribution(and_circuit())
        assert dist.probs == {0: Fraction(3, 4), 1: Fraction(1, 4)}
        assert sum(dist.probs.values()) == 1

    def test_cap_exceeded(self):
        with pytest.raises(ResourceError):
            enumerate_distribution(identity_circuit(8), 6)

    def test_chunks_match_scalar_count(self, monkeypatch):
        # a chunk size that divides nothing puts boundaries mid-pattern
        monkeypatch.setattr("oilab.circuits._CHUNK_ROWS", 7)
        c = random_circuit(7, 3, 24, seed=11)
        counts: dict[str, int] = {}
        for i in range(1 << 7):
            y = eval_circuit(c, format(i, "07b"))
            counts[y] = counts.get(y, 0) + 1
        expected = Distribution(3, {int(k, 2): Fraction(v, 1 << 7) for k, v in counts.items()})
        assert enumerate_distribution(c) == expected

    def test_one_block_at_a_time(self):
        circuit = random_circuit(22, 4, 64, seed=1)
        assert traced_peak_bytes(lambda: enumerate_distribution(circuit)) < 4_000_000

    def test_probabilities_are_dyadic_and_exact(self):
        dist = enumerate_distribution(random_circuit(5, 3, 12, seed=3))
        assert sum(dist.probs.values()) == 1
        for p in dist.probs.values():
            assert isinstance(p, Fraction) and (1 << 5) % p.denominator == 0


class TestRandomCircuit:
    def test_deterministic(self):
        assert random_circuit(3, 2, 10, seed=7) == random_circuit(3, 2, 10, seed=7)
        assert random_circuit(3, 2, 10, seed=7) != random_circuit(3, 2, 10, seed=8)

    def test_gateless_fallback_wires_inputs(self):
        c = random_circuit(2, 1, 0, seed=1)
        assert c.outputs == (0,)
        c2 = random_circuit(2, 3, 0, seed=1)
        assert c2.outputs == (0, 1, 0)

    def test_distribution_matches_scalar_reevaluation(self):
        # independent oracle: count outputs with the scalar evaluator
        c = random_circuit(3, 2, 10, seed=5)
        counts: dict[str, int] = {}
        for i in range(8):
            y = eval_circuit(c, format(i, "03b"))
            counts[y] = counts.get(y, 0) + 1
        expected = Distribution(2, {int(k, 2): Fraction(v, 8) for k, v in counts.items()})
        assert enumerate_distribution(c) == expected

    def test_parameter_validation(self):
        with pytest.raises(WidthError):
            random_circuit(0, 1, 3, seed=0)
        with pytest.raises(ValueError):
            random_circuit(2, 1, -1, seed=0)


@st.composite
def circuits(draw):
    k_in = draw(st.integers(1, 4))
    k_out = draw(st.integers(1, 3))
    gate_count = draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2 ** 32))
    return random_circuit(k_in, k_out, gate_count, seed)


@settings(max_examples=60, deadline=None)
@given(circuits(), st.integers(0, 2 ** 20))
def test_batch_agrees_with_scalar(circuit, raw_x):
    x = raw_x % (1 << circuit.k_in)
    batch_out = int(eval_circuit_batch(circuit, np.array([x]))[0])
    assert format(batch_out, f"0{circuit.k_out}b") == eval_circuit(
        circuit, format(x, f"0{circuit.k_in}b")
    )


@settings(max_examples=40, deadline=None)
@given(circuits())
def test_json_round_trip(circuit):
    assert BoolCircuit.from_json_dict(circuit.to_json_dict()) == circuit


@pytest.mark.parametrize("k_in", range(1, 17))
def test_batch_truth_table_matches_scalar(k_in):
    # whole truth tables: packing is MSB first on both sides, at every width
    assert_truth_table_matches_scalar(random_circuit(k_in, 1 + k_in % 5, 6, seed=k_in))


def assert_truth_table_matches_scalar(circuit):
    table = eval_circuit_batch(circuit, np.arange(1 << circuit.k_in))
    for x in range(1 << circuit.k_in):
        expected = eval_circuit(circuit, format(x, f"0{circuit.k_in}b"))
        assert format(int(table[x]), f"0{circuit.k_out}b") == expected


# Hand-built circuits for the evaluator's pass-through runs and wire
# lifetimes (gate g writes wire k_in + g).
PASS_THROUGH_CASES = {
    "ascending-runs": BoolCircuit(4, (Gate("AND", (0, 3)),), (0, 1, 2, 4, 1, 2)),
    "repeated-and-descending": BoolCircuit(4, (), (3, 3, 2)),
    "run-ends-at-last-input-then-gate-wire": BoolCircuit(4, (Gate("NOT", (1,)),), (1, 2, 3, 4)),
    "output-read-by-later-gate": BoolCircuit(
        3,
        (Gate("XOR", (0, 2)), Gate("AND", (3, 1)), Gate("NOT", (3,))),
        (3, 4, 1, 5),
    ),
    "input-output-read-by-gate": BoolCircuit(3, (Gate("OR", (1, 2)),), (1, 3, 2)),
    "xor-with-itself": BoolCircuit(2, (Gate("XOR", (1, 1)),), (2, 0)),
    "constants": BoolCircuit(2, (Gate("CONST0", ()), Gate("CONST1", ())), (3, 0, 1, 2)),
    "dead-gates": BoolCircuit(
        3,
        (Gate("NOT", (0,)), Gate("AND", (1, 2)), Gate("OR", (3, 4))),
        (4, 0),
    ),
    "no-gates": BoolCircuit(3, (), (0, 1, 2, 0, 1)),
}


@pytest.mark.parametrize("name", PASS_THROUGH_CASES)
def test_batch_pass_through_and_wire_lifetimes_match_scalar(name):
    assert_truth_table_matches_scalar(PASS_THROUGH_CASES[name])


def test_batch_moves_a_63_bit_run():
    # the run's mask is the int64 maximum
    values = [0, 1, 2 ** 62, 2 ** 63 - 1]
    assert eval_circuit_batch(identity_circuit(63), np.array(values)).tolist() == values


@st.composite
def pass_through_circuits(draw):
    """Random circuits whose outputs are drawn from the input wires alone."""
    k_in = draw(st.integers(1, 5))
    gate_count = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2 ** 32))
    outputs = draw(st.lists(st.integers(0, k_in - 1), min_size=1, max_size=8))
    gates = random_circuit(k_in, 1, gate_count, seed).gates
    return BoolCircuit(k_in, gates, tuple(outputs))


@settings(max_examples=60, deadline=None)
@given(pass_through_circuits())
def test_batch_pass_through_outputs_match_scalar(circuit):
    assert_truth_table_matches_scalar(circuit)


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_last_reads_marks_exactly_the_dead_gates(circuit):
    # independent reference: walk back from the outputs through gate inputs
    live = set(circuit.outputs)
    for wire, gate in reversed(list(enumerate(circuit.gates, circuit.k_in))):
        if wire in live:
            live.update(gate.inputs)
    last = last_reads(circuit.k_in, circuit.gates, circuit.outputs)
    wires = range(circuit.k_in, circuit.n_wires)
    assert [last[wire] < 0 for wire in wires] == [wire not in live for wire in wires]


def test_batch_packs_63_output_bits():
    # output 0 is the input bit, the other 62 are constant 0
    wide = BoolCircuit(1, (Gate("CONST0", ()),), (0,) + (1,) * 62)
    assert eval_circuit_batch(wide, np.arange(2)).tolist() == [0, 1 << 62]


def test_batch_rejects_what_int64_cannot_hold():
    for k_out in (64, 65):
        wide = BoolCircuit(1, (Gate("CONST0", ()),), (0,) + (1,) * (k_out - 1))
        with pytest.raises(WidthError, match="at most 63"):
            eval_circuit_batch(wide, np.arange(2))
        with pytest.raises(WidthError, match="at most 63"):
            enumerate_distribution(wide)
    with pytest.raises(WidthError, match="at most 63"):
        eval_circuit_batch(identity_circuit(64), np.arange(2))


def test_batch_rejects_malformed_batches():
    circuit = and_circuit()
    for bad in (np.zeros((4, 2), dtype=np.int64), np.zeros(4, dtype=bool), np.zeros(4)):
        with pytest.raises(WidthError, match="1-D int64"):
            eval_circuit_batch(circuit, bad)
    for bad in ([0, 4], [-1, 0]):
        with pytest.raises(WidthError, match="outside 2 bits"):
            eval_circuit_batch(circuit, np.array(bad))
    assert eval_circuit_batch(circuit, np.arange(0)).tolist() == []


def test_from_json_names_missing_field():
    with pytest.raises(ParseError, match="k_out"):
        BoolCircuit.from_json_dict({"k_in": 2})


# NOT(x0) AND x1 as a file: each gate's "out" and the circuit's "k_out"
# restate what the gate's position and the outputs list say
NOT_AND_FILE = {
    "k_in": 2,
    "k_out": 1,
    "gates": [{"kind": "NOT", "in": [0], "out": 2}, {"kind": "AND", "in": [2, 1], "out": 3}],
    "outputs": [3],
}


class TestFileBoundary:
    def test_written_copies_agree(self):
        assert BoolCircuit.from_json_dict(NOT_AND_FILE).to_json_dict() == NOT_AND_FILE

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("gates", 1, "out"), 4, "circuit object: gate 1 must write wire 3, not 4"),
            (("gates", 0, "out"), 3, "circuit object: gate 0 must write wire 2, not 3"),
            (("gates", 0, "out"), "2", "gate 0: wire index must be an int, got '2'"),
            (("k_out",), 2, "circuit object: outputs list must have k_out entries"),
            (("k_out",), 0, "circuit object: circuit widths must be >= 1"),
            (("k_out",), "1", "circuit object: circuit width must be an int, got '1'"),
            (("k_out",), True, "circuit object: circuit width must be an int, got True"),
        ],
    )
    def test_disagreeing_copies_are_refused(self, path, value, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            BoolCircuit.from_json_dict(edited(NOT_AND_FILE, path, value))


def test_sd_instance_contracts():
    inst = SdInstance(identity_circuit(2), identity_circuit(2), "0.1", "0.9")
    assert inst.a == Fraction(1, 10) and inst.b == Fraction(9, 10)
    with pytest.raises(WidthError):
        SdInstance(identity_circuit(2), identity_circuit(3), 0, 1)
    with pytest.raises(ValueError):
        SdInstance(identity_circuit(2), identity_circuit(2), "0.9", "0.1")
    round_trip = SdInstance.from_json_dict(inst.to_json_dict())
    assert round_trip == inst
