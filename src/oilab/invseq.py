"""Sequentially invertible circuit sequences and the reductions onto them.

A sequence step is a pair of circuits on ``k`` state bits plus ``r_i``
random bits; once the random bits are hard-wired the two directions invert
each other, so each direction acts as a permutation of {0,1}^k.  The
output distribution of a sequence is the last of its staged counts
(``stage_counts``): dense int64 vectors over the 2^k states, each the
previous one carried through a step's forward circuit for every
randomness, so each holds, unnormalized, the state the decision builds at
that stage.

``reduce_sd_to_sisd`` compiles a statistical-difference instance into two
such sequences using one random bit per step: the first block of steps
XORs fresh random bits into a scratch register (building a uniform input),
the deterministic middle step XORs the compiled circuit's value into the
output register, and the final block re-perturbs the scratch register so
its content becomes an independent uniform string.  The construction
preserves total-variation distance exactly.  A perturb step's permutation
for randomness z is the identity with one bit flipped when z is 1;
``perturbed_bit`` recognizes such a step, so the solver can write its
tables in closed form instead of evaluating the circuit.

``polarize`` is the gap amplifier used when the raw promise parameters
fail the decision gap condition: an XOR-combination drives close
distributions together (distance is raised to the power of the number of
combined copies, exactly), and a direct product drives far ones apart.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .circuits import BoolCircuit, CircuitBuilder, Gate, SdInstance, blocks, eval_circuit_batch
from .config import ENUM_BITS
from .distributions import Distribution
from .errors import MalformedSequenceError, PreconditionError, ResourceError
from .jsonio import as_exact_probability, fraction_to_string, require_field, require_int, typed_fields
from .seeding import derive_rng


@dataclass(frozen=True)
class InvPair:
    """One sequence step: forward/backward circuits over k state bits and
    r hard-wired random bits, laid out as state || randomness."""

    forward: BoolCircuit
    backward: BoolCircuit
    k: int
    r: int

    def __post_init__(self):
        require_int(self.k, "k")
        require_int(self.r, "r")
        if self.k < 1 or self.r < 0:
            raise MalformedSequenceError("need k >= 1 and r >= 0")
        for name, circ in (("forward", self.forward), ("backward", self.backward)):
            if circ.k_in != self.k + self.r or circ.k_out != self.k:
                raise MalformedSequenceError(
                    f"{name} circuit maps {circ.k_in}->{circ.k_out} bits, "
                    f"expected {self.k + self.r}->{self.k}"
                )

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "forward": self.forward.to_json_dict(),
            "backward": self.backward.to_json_dict(),
        }


@dataclass(frozen=True)
class InvertibleSequence:
    pairs: tuple[InvPair, ...]
    k: int

    def __post_init__(self):
        require_int(self.k, "k")
        for i, pair in enumerate(self.pairs):
            if pair.k != self.k:
                raise MalformedSequenceError(
                    f"pair {i} is on {pair.k} bits, sequence is on {self.k}"
                )

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def max_randomness(self) -> int:
        return max((p.r for p in self.pairs), default=0)

    @property
    def total_random_bits(self) -> int:
        return sum(p.r for p in self.pairs)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "pairs": [p.to_json_dict() for p in self.pairs]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "InvertibleSequence":
        with typed_fields("sequence object"):
            k = require_field(obj, "k", "sequence object")
            pairs = []
            for i, raw in enumerate(require_field(obj, "pairs", "sequence object")):
                pairs.append(
                    InvPair(
                        BoolCircuit.from_json_dict(require_field(raw, "forward", f"pair {i}")),
                        BoolCircuit.from_json_dict(require_field(raw, "backward", f"pair {i}")),
                        k,
                        require_field(raw, "r", f"pair {i}"),
                    )
                )
            return cls(tuple(pairs), k)


@dataclass(frozen=True)
class SisdInstance:
    """Two invertible sequences with a promise gap on their output distributions."""

    seq0: InvertibleSequence
    seq1: InvertibleSequence
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_exact_probability(self.a))
        object.__setattr__(self, "b", as_exact_probability(self.b))
        if self.seq0.k != self.seq1.k:
            raise MalformedSequenceError("sequences must share the state width")
        if self.a > self.b:
            raise ValueError("promise requires a <= b")

    @property
    def r(self) -> int:
        """The most random bits any step of either sequence reads."""
        return max(self.seq0.max_randomness, self.seq1.max_randomness)

    def to_json_dict(self) -> dict:
        return {
            "seq0": self.seq0.to_json_dict(),
            "seq1": self.seq1.to_json_dict(),
            "a": fraction_to_string(self.a),
            "b": fraction_to_string(self.b),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SisdInstance":
        seq0 = InvertibleSequence.from_json_dict(require_field(obj, "seq0", "sisd instance"))
        seq1 = InvertibleSequence.from_json_dict(require_field(obj, "seq1", "sisd instance"))
        return cls(
            seq0,
            seq1,
            require_field(obj, "a", "sisd instance"),
            require_field(obj, "b", "sisd instance"),
        )


# ---------------------------------------------------------------------------
# validation

EXHAUSTIVE_POINTS = 2 ** 20  # largest (x, z) domain checked point by point
SAMPLED_POINTS = 10 ** 4     # seeded points checked on larger domains


@dataclass(frozen=True)
class PairCheck:
    index: int
    exhaustive: bool
    points_checked: int
    ok: bool
    counterexample: tuple[str, str] | None  # (x, z) with backward(forward(x;z);z) != x


@dataclass(frozen=True)
class SequenceValidationReport:
    checks: tuple[PairCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _forward_table(circuit: BoolCircuit, points: int) -> np.ndarray:
    """The circuit's packed outputs on inputs 0 .. points-1, in order: one
    int64 array filled a block at a time, or the one block's own outputs."""
    table = None
    for block in blocks(points):
        states = eval_circuit_batch(circuit, block)
        if len(states) == points:
            return states
        if table is None:
            table = np.empty(points, dtype=np.int64)
        table[block[0] : block[0] + len(block)] = states
    return table


def _check_pair(pair: InvPair, index: int, sample: np.ndarray | None) -> PairCheck:
    """Check backward((forward(x; z) << r) | z) == x on packed (x, z) points:
    the seeded ``sample``, or with None the whole domain one block at a time.
    Every point is checked; the counterexample is the first failure in order.
    When backward is forward, round trips are read from forward's table.
    """
    r, width = pair.r, pair.k + pair.r
    exhaustive = sample is None
    points = 1 << width if exhaustive else len(sample)
    table = None
    if exhaustive and pair.backward == pair.forward:
        table = _forward_table(pair.forward, points)
    counterexample = None
    for block in blocks(points) if exhaustive else (sample,):
        if table is None:
            states = eval_circuit_batch(pair.forward, block)
        else:  # blocks are contiguous, so a block's states are a slice
            states = table[block[0] : block[0] + len(block)]
        back = (states << r) | (block & ((1 << r) - 1))
        round_trip = eval_circuit_batch(pair.backward, back) if table is None else table[back]
        good = round_trip == block >> r
        if counterexample is None and not good.all():
            row = format(int(block[np.argmin(good)]), f"0{width}b")
            counterexample = (row[: pair.k], row[pair.k :])
    return PairCheck(index, exhaustive, points, counterexample is None, counterexample)


def validate_sequence(seq: InvertibleSequence, seed: int = 0) -> SequenceValidationReport:
    """Check the inverse identity for every pair.

    Exhaustive over all (x, z) when 2^(k+r) is at most EXHAUSTIVE_POINTS,
    otherwise over SAMPLED_POINTS seeded random points.
    """
    checks = []
    for index, pair in enumerate(seq.pairs):
        width = pair.k + pair.r
        sample = _sample(seed, index, width) if (1 << width) > EXHAUSTIVE_POINTS else None
        checks.append(_check_pair(pair, index, sample))
    return SequenceValidationReport(tuple(checks))


def _sample(seed: int, index: int, width: int) -> np.ndarray:
    """SAMPLED_POINTS seeded packed points for pair ``index``; the bit
    matrix they are drawn as is freed on return, before the check runs."""
    bits = derive_rng(seed, "validate", index).integers(0, 2, size=(SAMPLED_POINTS, width))
    return bits @ (1 << np.arange(width - 1, -1, -1))


# ---------------------------------------------------------------------------
# output distribution

def stage_counts(seq: InvertibleSequence) -> Iterator[np.ndarray]:
    """The fold's exact counting states: c_0 = e_0, then after each step
    c'[forward(x; z)] += c[x] over every (x, z), as int64 vectors over the
    2^k states, so c_t is the decision's stage-t state unnormalized.

    A step reads its whole 2^(k+r) domain a block at a time and need not
    be a bijection.  Before anything is allocated, the total random bits
    (which keep the counts inside int64) and the widest step's k + r are
    checked against the enumeration cap.
    """
    total_bits = seq.total_random_bits
    if total_bits > ENUM_BITS:
        raise ResourceError(f"folding over {total_bits} random bits exceeds cap of {ENUM_BITS}")
    width = seq.k + seq.max_randomness
    if width > ENUM_BITS:
        raise ResourceError(f"a step over {width} bits exceeds cap of {ENUM_BITS}")
    counts = np.zeros(1 << seq.k, dtype=np.int64)
    counts[0] = 1
    yield counts
    for pair in seq.pairs:
        after = np.zeros_like(counts)
        for rows in blocks(1 << (pair.k + pair.r)):
            np.add.at(after, eval_circuit_batch(pair.forward, rows), counts[rows >> pair.r])
        counts = after
        yield counts


def sequence_output_distribution(seq: InvertibleSequence) -> Distribution:
    """Exact D(sequence): the last of ``stage_counts`` over 2^(total
    random bits)."""
    for counts in stage_counts(seq):
        pass
    denom = Fraction(1, 1 << seq.total_random_bits)
    states = np.flatnonzero(counts)
    return Distribution(seq.k, {v: c * denom for v, c in zip(states.tolist(), counts[states].tolist())})


# ---------------------------------------------------------------------------
# the reduction

def _xor_bit_step(state_width: int, bit: int) -> InvPair:
    """Step XORing the single random bit into state position ``bit``; its own inverse."""
    builder = CircuitBuilder(state_width + 1)
    flipped = builder.add("XOR", bit, state_width)
    outputs = list(range(state_width))
    outputs[bit] = flipped
    circuit = builder.build(outputs)
    return InvPair(circuit, circuit, state_width, 1)


def perturbed_bit(pair: InvPair) -> int | None:
    """The state bit ``pair`` XORs its random bit into when it equals
    ``_xor_bit_step(pair.k, bit)``, else None; a structural check that
    evaluates nothing."""
    circuit = pair.forward
    if pair.r != 1 or pair.backward != circuit or len(circuit.gates) != 1:
        return None
    k, (gate,) = pair.k, circuit.gates
    bit = gate.inputs[0]
    if gate.kind != "XOR" or gate.inputs[1:] != (k,) or bit >= k:
        return None
    outputs = list(range(k))
    outputs[bit] = k + 1  # the one gate's wire
    return bit if circuit.outputs == tuple(outputs) else None


def _apply_circuit_step(circuit: BoolCircuit, prefix_width: int) -> InvPair:
    """Deterministic step (x, y) -> (x, y XOR circuit(x-prefix)); an involution."""
    state_width = prefix_width + circuit.k_out
    builder = CircuitBuilder(state_width)
    value_wires = builder.inline(circuit, list(range(circuit.k_in)))
    out_wires = [builder.add("XOR", prefix_width + j, w) for j, w in enumerate(value_wires)]
    step = builder.build(list(range(prefix_width)) + out_wires)
    return InvPair(step, step, state_width, 0)


def reduce_sd_to_sisd(inst: SdInstance) -> SisdInstance:
    """Compile circuits into one-random-bit invertible sequences with the
    same promise parameters and exactly the same statistical difference.

    Each emitted sequence has length 2*max(k_in)+1 on max(k_in)+k_out state
    bits; every step equals its own inverse, so backward == forward.  The
    perturb steps are the same objects in both sequences.
    """
    prefix_width = max(inst.c0.k_in, inst.c1.k_in)
    state_width = prefix_width + inst.c0.k_out
    perturb = tuple(_xor_bit_step(state_width, i) for i in range(prefix_width))

    def compile_one(circuit: BoolCircuit) -> InvertibleSequence:
        middle = _apply_circuit_step(circuit, prefix_width)
        return InvertibleSequence(perturb + (middle,) + perturb, state_width)

    return SisdInstance(compile_one(inst.c0), compile_one(inst.c1), inst.a, inst.b)


# ---------------------------------------------------------------------------
# polarization

def xor_combine(c0: BoolCircuit, c1: BoolCircuit, reps: int, which: int) -> BoolCircuit:
    """Mix ``reps`` independent copies, each evaluating c0 or c1 according to
    selector bits whose parity is pinned to ``which``.

    The output distribution's total-variation distance is exactly the
    original distance raised to the power ``reps``.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    block_width = max(c0.k_in, c1.k_in)
    builder = CircuitBuilder(reps * block_width + (reps - 1))
    selector_base = reps * block_width

    # parity-completing selector for the last block
    if reps == 1:
        last_selector = builder.add("CONST1" if which else "CONST0")
    else:
        acc = selector_base
        for j in range(1, reps - 1):
            acc = builder.add("XOR", acc, selector_base + j)
        last_selector = builder.add("NOT", acc) if which else acc

    outputs: list[int] = []
    for block in range(reps):
        base = block * block_width
        selector = selector_base + block if block < reps - 1 else last_selector
        not_selector = builder.add("NOT", selector)
        out0 = builder.inline(c0, [base + j for j in range(c0.k_in)])
        out1 = builder.inline(c1, [base + j for j in range(c1.k_in)])
        for w0, w1 in zip(out0, out1):
            pick1 = builder.add("AND", selector, w1)
            pick0 = builder.add("AND", not_selector, w0)
            outputs.append(builder.add("OR", pick1, pick0))
    return builder.build(outputs)


def direct_product(circuit: BoolCircuit, reps: int) -> BoolCircuit:
    """Concatenate ``reps`` independent copies of the circuit."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    builder = CircuitBuilder(reps * circuit.k_in)
    outputs: list[int] = []
    for block in range(reps):
        base = block * circuit.k_in
        outputs.extend(builder.inline(circuit, [base + j for j in range(circuit.k_in)]))
    return builder.build(outputs)


def decision_gap(a: Fraction, b: Fraction) -> Fraction:
    """b^2 - 2a + a^2, the distance between the YES-side overlap bound
    (1-a)^2 and the NO-side bound 1-b^2; the swap-test decision needs it
    positive."""
    return b * b - 2 * a + a * a


def polarize(
    inst: SdInstance,
    k: int,
    xor_reps: int,
    product_reps: int,
    shared: dict[Gate, Gate] | None = None,
) -> SdInstance:
    """Amplify the promise gap to (2^-k, 1 - 2^-k).

    Applies the XOR-combination first (so a close pair lands below
    ``product_reps * a**xor_reps`` by a union bound) and the direct product
    second (driving far pairs toward distance 1).  The compiled width grows
    with ``xor_reps * product_reps``, so the caller picks both counts for
    the qubit budget at hand.  The two circuits differ only where the
    selector parity reaches, so each gate of c1 that equals a gate of c0 is
    that same (frozen) object.  ``shared`` maps each gate to the object that
    stands for it; one dict passed to many calls shares equal gates across
    all their circuits.
    """
    if inst.b * inst.b <= inst.a:
        raise PreconditionError(
            f"polarization needs b^2 > a, got a={inst.a}, b={inst.b}"
        )
    if k < 1:
        raise ValueError("k must be >= 1")

    def compile_one(which: int) -> BoolCircuit:
        return direct_product(xor_combine(inst.c0, inst.c1, xor_reps, which), product_reps)

    if shared is None:
        shared = {}
    c0, c1 = (
        replace(circuit, gates=tuple(shared.setdefault(gate, gate) for gate in circuit.gates))
        for circuit in (compile_one(0), compile_one(1))
    )
    a_out = Fraction(1, 2 ** k)
    return SdInstance(c0, c1, a_out, 1 - a_out)
