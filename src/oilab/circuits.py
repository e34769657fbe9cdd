"""Gate-level boolean circuit IR with exact evaluation and enumeration.

A circuit is a DAG over wires: wires ``0..k_in-1`` carry the input bits and
gate ``g`` writes wire ``k_in + g``, so a gate is its kind and inputs and
reads only wires before its own.  The outputs are a list of wire indices
(its length is ``k_out``), so an output may point straight at an input
wire.  The file form restates each gate's wire and ``k_out``;
``from_json_dict`` refuses a file whose copies disagree.

Bitstrings are python ``str`` of '0'/'1' with the leftmost character the
most significant bit; index ``i`` of any enumeration corresponds to
``format(i, f"0{width}b")``.  A batch of bitstrings is a 1-D int64 array of
such indices (packed MSB first), so at most 63 bits wide; the batch
evaluator takes and returns packed values, ``enumerate_distribution`` keys
its outcomes by them, and callers build and read batches with integer
arithmetic (``(x << r) | z`` puts state bits ``x`` before randomness bits
``z``).  The batch evaluator's cost follows the live gates (``last_reads``),
and a run of outputs that are consecutive input wires moves as one bit
field.  Brute-force passes (enumeration here, validation and the sequence
fold in ``invseq``) read their domain through ``blocks``, one cache-sized
block at a time, so their memory follows the block, not 2^width.

Compiled circuits are assembled by ``CircuitBuilder``, which folds every
gate whose value it already knows and keeps only the ``Gate``s the outputs
read, renumbered; the same ``last_reads`` rule decides what is live in a
built circuit and in a batch evaluation.  Built gates come from one
process-wide table, so equal gates of any built circuits are one object,
and a built circuit equal to one still alive is that object (a weak table).

The types are immutable after construction, so concurrent readers need no
locking; the gate table only grows, by one atomic ``dict.setdefault``, and
two threads that build one circuit at once may each keep their own copy.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import ENUM_BITS
from .distributions import Distribution
from .errors import ParseError, ResourceError, WidthError
from .jsonio import as_exact_probability, fraction_to_string, require_field, require_int, typed_fields
from .seeding import derive_rng

GATE_ARITY = {
    "NOT": 1,
    "AND": 2,
    "OR": 2,
    "XOR": 2,
    "CONST0": 0,
    "CONST1": 0,
    "COPY": 1,
}


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    inputs: tuple[int, ...]

    def __post_init__(self):
        for wire in self.inputs:
            require_int(wire, "wire index")
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.inputs) != GATE_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {GATE_ARITY[self.kind]} inputs, got {len(self.inputs)}"
            )


@dataclass(frozen=True)
class BoolCircuit:
    """Deterministic total map {0,1}^k_in -> {0,1}^k_out."""

    # the weak reference lets CircuitBuilder.build share equal circuits
    __slots__ = ("k_in", "gates", "outputs", "__weakref__")

    k_in: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        require_int(self.k_in, "circuit width")
        for wire in self.outputs:
            require_int(wire, "output wire")
        if self.k_in < 1 or not self.outputs:
            raise WidthError("circuit widths must be >= 1")
        for position, gate in enumerate(self.gates):
            for wire in gate.inputs:
                if not 0 <= wire < self.k_in + position:
                    raise ValueError(f"gate {position} reads undefined wire {wire}")
        for wire in self.outputs:
            if not 0 <= wire < self.n_wires:
                raise ValueError(f"output wire {wire} undefined")

    @property
    def k_out(self) -> int:
        return len(self.outputs)

    @property
    def n_wires(self) -> int:
        return self.k_in + len(self.gates)

    def to_json_dict(self) -> dict:
        return {
            "k_in": self.k_in,
            "k_out": self.k_out,
            "gates": [
                {"kind": g.kind, "in": list(g.inputs), "out": self.k_in + position}
                for position, g in enumerate(self.gates)
            ],
            "outputs": list(self.outputs),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BoolCircuit":
        with typed_fields("circuit object"):
            k_in = require_field(obj, "k_in", "circuit object")
            k_out = require_field(obj, "k_out", "circuit object")
            gates, outs = [], []
            for i, raw in enumerate(require_field(obj, "gates", "circuit object")):
                kind = require_field(raw, "kind", f"gate {i}")
                inputs = tuple(require_field(raw, "in", f"gate {i}"))
                outs.append(require_field(raw, "out", f"gate {i}"))
                try:
                    gates.append(Gate(kind, inputs))
                    require_int(outs[-1], "wire index")
                except (TypeError, ValueError) as exc:
                    raise ParseError(f"gate {i}: {exc}") from exc
            outputs = tuple(require_field(obj, "outputs", "circuit object"))
            try:
                for width in (k_in, k_out):
                    require_int(width, "circuit width")
                if min(k_in, k_out) < 1:
                    raise WidthError("circuit widths must be >= 1")
                for position, out in enumerate(outs):
                    if out != k_in + position:
                        raise ValueError(f"gate {position} must write wire {k_in + position}, not {out}")
                if len(outputs) != k_out:
                    raise WidthError("outputs list must have k_out entries")
                return cls(k_in, tuple(gates), outputs)
            except (TypeError, ValueError, WidthError) as exc:
                raise ParseError(f"circuit object: {exc}") from exc


_GATE_BATCH_OPS = {
    "NOT": lambda w, g: ~w[g.inputs[0]],
    "COPY": lambda w, g: w[g.inputs[0]],
    "AND": lambda w, g: w[g.inputs[0]] & w[g.inputs[1]],
    "OR": lambda w, g: w[g.inputs[0]] | w[g.inputs[1]],
    "XOR": lambda w, g: w[g.inputs[0]] ^ w[g.inputs[1]],
    # constants stay scalars and broadcast against the rows they meet
    "CONST0": lambda w, g: np.False_,
    "CONST1": lambda w, g: np.True_,
}


PACKED_BITS = 63  # widest bitstring a packed int64 holds


def last_reads(k_in: int, gates: Sequence[Gate], outputs: Sequence[int]) -> list[int]:
    """Per wire of a gate list over ``k_in`` inputs, the position of the last
    live gate reading it: ``len(gates)`` for a gate wire that is an output,
    -1 when nothing live reads it (so a gate is dead exactly when its own
    wire is -1).  A gate is live when an output reads it, directly or
    through live gates."""
    n_gates = len(gates)
    last = [-1] * (k_in + n_gates)
    for wire in outputs:
        if wire >= k_in:
            last[wire] = n_gates
    for position in range(n_gates - 1, -1, -1):
        if last[k_in + position] >= 0:
            for wire in gates[position].inputs:
                if last[wire] < 0:
                    last[wire] = position
    return last


def eval_circuit_batch(circuit: BoolCircuit, inputs: np.ndarray) -> np.ndarray:
    """Evaluate on packed inputs (a 1-D int64 array of k_in-bit values) and
    return the packed k_out-bit outputs.

    The cost follows the live gates: only the input wires a live gate reads
    become bool rows, dead gates are skipped, and every wire is dropped after
    its last read unless it is an output.  A run of outputs that are
    consecutive input wires moves from the packed inputs as one bit field.
    """
    if max(circuit.k_in, circuit.k_out) > PACKED_BITS:
        raise WidthError(
            f"circuit maps {circuit.k_in}->{circuit.k_out} bits; packed batches "
            f"hold at most {PACKED_BITS}"
        )
    if inputs.ndim != 1 or inputs.dtype != np.int64:
        raise WidthError(f"batch must be a 1-D int64 array, got {inputs.dtype} {inputs.shape}")
    if len(inputs) and (inputs.min() < 0 or int(inputs.max()) >> circuit.k_in):
        raise WidthError(f"batch holds values outside {circuit.k_in} bits")
    k_in = circuit.k_in
    last = last_reads(k_in, circuit.gates, circuit.outputs)
    wires: list[np.ndarray | None] = [None] * circuit.n_wires
    for wire in range(k_in):
        if last[wire] >= 0:
            wires[wire] = np.not_equal(inputs & (1 << (k_in - 1 - wire)), 0)
    for position, gate in enumerate(circuit.gates):
        if last[k_in + position] >= 0:
            wires[k_in + position] = _GATE_BATCH_OPS[gate.kind](wires, gate)
            for wire in gate.inputs:
                if last[wire] == position:
                    wires[wire] = None
    outputs = circuit.outputs
    packed = np.zeros(len(inputs), dtype=np.int64)
    j = 0
    while j < len(outputs):
        wire, run = outputs[j], 1
        if wire < k_in:
            while j + run < len(outputs) and outputs[j + run] == wire + run < k_in:
                run += 1
            column = (inputs >> (k_in - wire - run)) & ((1 << run) - 1)
        else:
            column = wires[wire]
        packed <<= run
        packed |= column
        j += run
    return packed


_CHUNK_ROWS = 2 ** 15  # rows per block: a block's bool wires and packed values stay in cache


def blocks(total: int) -> Iterator[np.ndarray]:
    """The packed values ``0 .. total-1`` in order, as int64 blocks of at
    most ``_CHUNK_ROWS`` rows, so a brute-force pass holds one block at a
    time whatever ``total`` is."""
    for start in range(0, total, _CHUNK_ROWS):
        yield np.arange(start, min(start + _CHUNK_ROWS, total), dtype=np.int64)


def enumerate_distribution(circuit: BoolCircuit, cap_bits: int = ENUM_BITS) -> Distribution:
    """Exact output distribution by iterating all 2^k_in inputs, block by block.

    Probabilities come out as Fractions with denominator 2^k_in.  Inputs
    wider than ``cap_bits`` raise ResourceError: brute force is infeasible
    there by definition of the budget.
    """
    if circuit.k_in > cap_bits:
        raise ResourceError(f"enumeration over {circuit.k_in} bits exceeds cap of {cap_bits}")
    total = 1 << circuit.k_in
    counts: dict[int, int] = {}
    for inputs in blocks(total):
        values, block_counts = np.unique(eval_circuit_batch(circuit, inputs), return_counts=True)
        for value, count in zip(values.tolist(), block_counts.tolist()):
            counts[value] = counts.get(value, 0) + count
    denom = Fraction(1, total)
    return Distribution(circuit.k_out, {v: c * denom for v, c in counts.items()})


_RANDOM_KINDS = ("NOT", "AND", "OR", "XOR", "COPY", "CONST0", "CONST1")


def random_circuit(k_in: int, k_out: int, gate_count: int, seed: int) -> BoolCircuit:
    """Seed-deterministic random circuit; with no gates, outputs fall back to
    input wires (output j reads input j mod k_in)."""
    if k_in < 1 or k_out < 1:
        raise WidthError("circuit widths must be >= 1")
    if gate_count < 0:
        raise ValueError("gate_count must be >= 0")
    rng = derive_rng(seed, "random-circuit", k_in, k_out, gate_count)
    gates = []
    for position in range(gate_count):
        kind = _RANDOM_KINDS[rng.integers(len(_RANDOM_KINDS))]
        available = k_in + position
        inputs = tuple(int(rng.integers(available)) for _ in range(GATE_ARITY[kind]))
        gates.append(Gate(kind, inputs))
    if gate_count == 0:
        outputs = tuple(j % k_in for j in range(k_out))
    else:
        n_wires = k_in + gate_count
        outputs = tuple(int(rng.integers(n_wires)) for _ in range(k_out))
    return BoolCircuit(k_in, tuple(gates), outputs)


# ---------------------------------------------------------------------------
# circuit assembly

_CONSTANTS = ("CONST0", "CONST1")
# every gate a builder has built, and every built circuit still alive, so
# equal ones are one object; a stream of 1,500 corpus decisions leaves about
# 1,100 gates, and a circuit's entry goes when the circuit does
_BUILT_GATES: dict[Gate, Gate] = {}
_BUILT_CIRCUITS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class CircuitBuilder:
    """Accumulates gates with the consecutive-output-wire discipline.

    A gate whose value is already known adds nothing: ``add`` returns the
    wire that holds the value.  That covers COPY, a gate reading one wire
    twice (XOR(w, w) is 0), any gate reading a constant (AND/OR with their
    absorbing value give a constant, with their identity the other input;
    XOR with 1 is NOT), a NOT of a NOT (the wire negated twice), and a
    repeat of an earlier gate, same kind on the same inputs in either order
    (the earlier wire; so each constant is one CONST wire).  ``build``
    keeps only the gates the outputs read.
    """

    def __init__(self, k_in: int):
        self.k_in = k_in
        self.gates: list[Gate] = []
        self.wires: dict[tuple[str, tuple[int, ...]], int] = {}  # (kind, sorted inputs) -> wire

    def _append(self, kind: str, inputs: tuple[int, ...]) -> int:
        key = (kind, tuple(sorted(inputs)))
        if key not in self.wires:
            self.gates.append(Gate(kind, inputs))
            self.wires[key] = self.k_in + len(self.gates) - 1
        return self.wires[key]

    def _constant(self, bit: int) -> int:
        return self._append(_CONSTANTS[bit], ())

    def _gate(self, wire: int) -> Gate | None:
        """The gate that writes the wire; None for a circuit input."""
        return self.gates[wire - self.k_in] if wire >= self.k_in else None

    def _bit(self, wire: int) -> int | None:
        gate = self._gate(wire)
        return _CONSTANTS.index(gate.kind) if gate and gate.kind in _CONSTANTS else None

    def add(self, kind: str, *inputs: int) -> int:
        if kind in _CONSTANTS:
            return self._constant(kind == "CONST1")
        if kind == "COPY":
            return inputs[0]
        if kind == "NOT":
            gate = self._gate(inputs[0])
            if gate and gate.kind == "NOT":
                return gate.inputs[0]
            bit = self._bit(inputs[0])
            return self._append(kind, inputs) if bit is None else self._constant(1 - bit)
        a, b = inputs
        if a == b:
            return self._constant(0) if kind == "XOR" else a
        if self._bit(a) is not None:  # AND, OR and XOR commute: the constant goes second
            a, b = b, a
        bit = self._bit(b)
        if bit is None:
            return self._append(kind, inputs)
        if kind == "XOR":
            return self.add("NOT", a) if bit else a
        return self._constant(bit) if bit == (kind == "OR") else a

    def inline(self, circuit: BoolCircuit, input_wires: list[int]) -> list[int]:
        """Splice in the sub-circuit, reading from the given wires."""
        mapping = list(input_wires)
        for gate in circuit.gates:
            mapping.append(self.add(gate.kind, *(mapping[w] for w in gate.inputs)))
        return [mapping[w] for w in circuit.outputs]

    def build(self, outputs: list[int]) -> BoolCircuit:
        """The circuit of the gates the outputs read, directly or through
        other gates, with their wires renumbered in order; an equal built
        circuit that is still alive is returned instead."""
        k_in = self.k_in
        last = last_reads(k_in, self.gates, outputs)
        renumbered = list(range(k_in))
        gates: list[Gate] = []
        for position, gate in enumerate(self.gates):
            renumbered.append(k_in + len(gates))
            if last[k_in + position] >= 0:
                gate = Gate(gate.kind, tuple(renumbered[w] for w in gate.inputs))
                gates.append(_BUILT_GATES.setdefault(gate, gate))
        key = (k_in, tuple(gates), tuple(renumbered[w] for w in outputs))
        circuit = _BUILT_CIRCUITS.get(key)
        if circuit is None:
            circuit = _BUILT_CIRCUITS[key] = BoolCircuit(*key)
        return circuit


@dataclass(frozen=True, slots=True)
class SdInstance:
    """A statistical-difference instance: two circuits with a promise gap.

    YES means the output distributions are at total-variation distance at
    most ``a``; NO means the distance exceeds ``b``.
    """

    c0: BoolCircuit
    c1: BoolCircuit
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_exact_probability(self.a))
        object.__setattr__(self, "b", as_exact_probability(self.b))
        if self.c0.k_out != self.c1.k_out:
            raise WidthError("the two circuits must share an output width")
        if self.a > self.b:
            raise ValueError("promise requires a <= b")

    def to_json_dict(self) -> dict:
        return {
            "c0": self.c0.to_json_dict(),
            "c1": self.c1.to_json_dict(),
            "a": fraction_to_string(self.a),
            "b": fraction_to_string(self.b),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SdInstance":
        return cls(
            BoolCircuit.from_json_dict(require_field(obj, "c0", "sd instance")),
            BoolCircuit.from_json_dict(require_field(obj, "c1", "sd instance")),
            require_field(obj, "a", "sd instance"),
            require_field(obj, "b", "sd instance"),
        )
