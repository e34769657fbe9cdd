"""What only the tests use: hand-built inputs, independent references such
as the scalar ``eval_circuit`` and the per-ordering interference block, the
float metrics and the cosine-rule scan."""

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from oilab.circuits import BoolCircuit, Gate, SdInstance, enumerate_distribution, random_circuit
from oilab.distributions import Distribution, tv_distance
from oilab.errors import WidthError
from oilab.invseq import InvertibleSequence, InvPair, SisdInstance, stage_counts
from oilab.jsonio import as_exact_probability
from oilab.lwe import LweParams, no_side_log2_bound
from oilab.qsim import SimUnitary, StateVector, _interference
from oilab.seeding import derive_seed

_SCALAR_GATES = {
    "NOT": lambda w, i: not w[i[0]],
    "COPY": lambda w, i: w[i[0]],
    "AND": lambda w, i: w[i[0]] and w[i[1]],
    "OR": lambda w, i: w[i[0]] or w[i[1]],
    "XOR": lambda w, i: w[i[0]] != w[i[1]],
    "CONST0": lambda w, i: False,
    "CONST1": lambda w, i: True,
}


def eval_circuit(circuit: BoolCircuit, x: str) -> str:
    """Evaluate on a single bitstring, gate by gate."""
    if len(x) != circuit.k_in or any(ch not in "01" for ch in x):
        raise WidthError(f"input {x!r} is not a {circuit.k_in}-bit string")
    wires = [ch == "1" for ch in x]
    for gate in circuit.gates:
        wires.append(_SCALAR_GATES[gate.kind](wires, gate.inputs))
    return "".join("1" if wires[w] else "0" for w in circuit.outputs)


def identity_circuit(width: int) -> BoolCircuit:
    return BoolCircuit(width, (), tuple(range(width)))


def constant_circuit(k_in: int, bits: str) -> BoolCircuit:
    """Circuit ignoring its input and emitting the fixed string ``bits``."""
    gates = tuple(Gate(f"CONST{ch}", ()) for ch in bits)
    return BoolCircuit(k_in, gates, tuple(range(k_in, k_in + len(bits))))


def identity_pair(width: int) -> InvPair:
    circuit = identity_circuit(width)
    return InvPair(circuit, circuit)


def edited(obj, path: tuple, value):
    """A copy of the JSON object obj with the leaf at path set to value."""
    obj = json.loads(json.dumps(obj))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    return obj


def random_sd_instance(index: int, seed: int = 42, max_k_in: int = 4, k_out_cap: int = 3):
    k0 = (index % max_k_in) + 1
    k1 = ((index * 7) % max_k_in) + 1
    k_out = (index % k_out_cap) + 1
    c0 = random_circuit(k0, k_out, 3 + (index % 9), derive_seed(seed, "c0", index))
    c1 = random_circuit(k1, k_out, 3 + ((index * 5) % 9), derive_seed(seed, "c1", index))
    return SdInstance(c0, c1, 0, 1)


def sd_distance(inst: SdInstance) -> Fraction:
    """The exact distance between an instance's two circuits, by enumeration."""
    return tv_distance(enumerate_distribution(inst.c0), enumerate_distribution(inst.c1))


def sisd_distance(inst: SisdInstance) -> Fraction:
    """The exact distance between an instance's two sequences, by the fold."""
    return tv_distance(fold_distribution(inst.seq0), fold_distribution(inst.seq1))


def final_counts(seq: InvertibleSequence) -> np.ndarray:
    """The last stage of ``stage_counts``: the sequence's output counts,
    summing to 2^(total random bits); no earlier stage is kept."""
    for counts in stage_counts(seq):
        pass
    return counts


def fold_distribution(seq: InvertibleSequence) -> Distribution:
    """The sequence's exact output distribution, from ``final_counts``."""
    return exact_distribution(seq.k, final_counts(seq))


def permutation_table(u: SimUnitary) -> np.ndarray:
    """The table x -> u(x) of a permutation in any form, read from its action."""
    return np.argsort(u.apply(np.arange(1 << u.n)))


def exact_distribution(width: int, weights) -> Distribution:
    """The distribution proportional to integer weights, not all zero."""
    total = int(sum(weights))
    return Distribution(width, {i: Fraction(int(w), total) for i, w in enumerate(weights) if w})


def uniform_distribution(width: int) -> Distribution:
    return Distribution(width, dict.fromkeys(range(2 ** width), Fraction(1, 2 ** width)))


def point_mass(width: int, key: int) -> Distribution:
    return Distribution(width, {key: Fraction(1)})


def marginal(d: Distribution, start: int, stop: int) -> Distribution:
    """Marginal over the bit slice [start, stop), counted from the MSB."""
    if not 0 <= start <= stop <= d.width:
        raise WidthError(f"slice [{start}, {stop}) outside width {d.width}")
    shift, mask = d.width - stop, (1 << (stop - start)) - 1
    out: dict[int, Fraction] = {}
    for key, value in d.probs.items():
        sub = (key >> shift) & mask
        out[sub] = out.get(sub, 0) + value
    return Distribution(stop - start, out)


def fidelity(d0: Distribution, d1: Distribution) -> float:
    """Sum of sqrt(p0 * p1); 1 iff identical, 0 iff disjoint supports."""
    if d0.width != d1.width:
        raise WidthError(f"domain widths differ: {d0.width} vs {d1.width}")
    acc = 0.0
    for key, p0 in d0.probs.items():
        p1 = d1.probs.get(key)
        if p1 is None:
            continue
        # exact equal masses contribute exactly, avoiding sqrt round-off
        acc += float(p0) if p0 == p1 else math.sqrt(float(p0) * float(p1))
    return min(acc, 1.0)


def cosine_similarity(d0: Distribution, d1: Distribution) -> float:
    """Inner product of the unit-normalized probability vectors: the overlap
    of the two output-distribution states, whose amplitudes are
    proportional to probabilities (not their square roots)."""
    if d0.width != d1.width:
        raise WidthError(f"domain widths differ: {d0.width} vs {d1.width}")
    if not d0.probs or not d1.probs:
        raise ValueError("cosine similarity needs nonzero mass on both sides")
    dot = sum(float(v) * float(d1.probs.get(k, 0)) for k, v in d0.probs.items())
    n0 = math.sqrt(sum(float(v) ** 2 for v in d0.probs.values()))
    n1 = math.sqrt(sum(float(v) ** 2 for v in d1.probs.values()))
    return min(dot / (n0 * n1), 1.0)


def basis_state(n: int, bits: str) -> StateVector:
    return StateVector(n, (np.arange(1 << n) == int(bits, 2)).astype(float))


def random_state(n: int, rng) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def identity_unitary(n: int) -> SimUnitary:
    return SimUnitary(n, table=np.arange(1 << n))


def pauli_x() -> SimUnitary:
    return SimUnitary(1, matrix=np.array([[0, 1], [1, 0]], dtype=np.complex128))


def pauli_z() -> SimUnitary:
    return SimUnitary(1, matrix=np.array([[1, 0], [0, -1]], dtype=np.complex128))


def orderings(m: int) -> list[tuple[int, ...]]:
    """The m! application orders of order interference."""
    return list(itertools.permutations(range(m)))


def choices(m: int) -> list[tuple[int, ...]]:
    """The m one-element choices of choice interference."""
    return [(i,) for i in range(m)]


def oi_vector(unitaries, psi: StateVector) -> np.ndarray:
    """The unnormalized order-interference vector, from the library kernel."""
    return _interference(tuple(unitaries), psi, orderings(len(unitaries)))[0]


def ci_vector(unitaries, psi: StateVector) -> np.ndarray:
    """The unnormalized choice-interference vector, from the library kernel."""
    return _interference(tuple(unitaries), psi, choices(len(unitaries)))[0]


def block_reference(unitaries, psi: StateVector, sequences) -> tuple[np.ndarray, float]:
    """The naive per-ordering block: row j composes sequences[j] on psi
    (first index first).  Returns the block's column sum and its phase
    alignment, sum |column sum| / sum |rows| capped at 1, with no shortcut."""
    rows = []
    for sequence in sequences:
        amps = psi.amps
        for index in sequence:
            amps = unitaries[index].apply(amps)
        rows.append(amps)
    block = np.stack(rows)
    vector = block.sum(axis=0)
    return vector, min(float(np.abs(vector).sum()) / float(np.abs(block).sum()), 1.0)


def unitary_to_json_dict(u: SimUnitary) -> dict:
    """The oracle-query file form that ``SimUnitary.from_json_dict`` reads."""
    if u.table is not None:
        return {"kind": "permutation", "n": u.n, "table": u.table.tolist()}
    matrix = [[[z.real, z.imag] for z in row] for row in u.matrix]
    return {"kind": "dense", "n": u.n, "matrix": matrix}


def no_side_probability_bound(params: LweParams, gamma: float) -> float:
    """Upper bound on the probability that a uniform target lands within
    gamma*d of the lattice.  May exceed 1, signaling a vacuous bound."""
    log2_bound = no_side_log2_bound(params, gamma)
    return math.inf if log2_bound > 1000 else 2.0 ** log2_bound


COUNTEREXAMPLE_TOLERANCE = 1e-12  # float slack on the squared-cosine bounds


@dataclass(frozen=True)
class ThresholdCounterexample:
    side: str            # "yes" or "no"
    distance: float
    squared_cosine: float
    bound: float
    d0: Distribution
    d1: Distribution


def cosine_threshold_counterexamples(pairs, a, b) -> list[ThresholdCounterexample]:
    """Scan distribution pairs for violations of the threshold bounds.

    The bounds transplant a fidelity fact onto the cosine similarity of
    probability vectors; that transfer is not guaranteed in general, so
    violations are possible and are reported as structured counterexamples.
    """
    a, b = as_exact_probability(a), as_exact_probability(b)
    yes_bound, no_bound = float((1 - a) * (1 - a)), float(1 - b * b)
    found = []
    for d0, d1 in pairs:
        distance = tv_distance(d0, d1)  # compared exactly: float(1/5) > 1/5
        squared = cosine_similarity(d0, d1) ** 2
        for side, violated, bound in (
            ("yes", distance <= a and squared < yes_bound - COUNTEREXAMPLE_TOLERANCE, yes_bound),
            ("no", distance > b and squared > no_bound + COUNTEREXAMPLE_TOLERANCE, no_bound),
        ):
            if violated:
                found.append(ThresholdCounterexample(side, float(distance), squared, bound, d0, d1))
    return found
