"""Seeded corpora of labeled statistical-difference instances.

Instances are random circuit pairs whose exact distance is computed by
brute force; only promise-respecting pairs (distance at most ``a`` or
beyond ``b``) are kept, labeled by the side they fall on.  The polarized
variant amplifies each instance with explicitly frugal repetition counts
so the compiled sequences stay inside the default qubit cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circuits import SdInstance, enumerate_distribution, random_circuit
from .distributions import tv_distance
from .errors import ResourceError
from .invseq import polarize
from .seeding import derive_seed

# promise (a, b) and circuit shapes of every corpus instance
PROMISE_A = Fraction(1, 3)
PROMISE_B = Fraction(2, 3)
MAX_K_IN = 2
K_OUT = 1
MAX_GATES = 8
# polarized promise (2^-K, 1 - 2^-K), and XOR-combination and
# direct-product copies per polarized instance; with the shapes above the
# compiled sequences are at most 14 qubits wide, the default cap
POLARIZE_K = 2
POLARIZE_REPS = 2


@dataclass(frozen=True, slots=True)
class LabeledInstance:
    instance: SdInstance
    delta: Fraction
    label: str  # "YES" | "NO"


def build_sd_corpus(count: int, seed: int) -> list[LabeledInstance]:
    """Rejection-sample ``count`` promise-valid instances, roughly balanced
    between the two sides."""
    if count < 1:
        raise ValueError(f"a corpus needs at least one instance, got {count}")
    want_yes = count // 2
    want_no = count - want_yes
    yes: list[LabeledInstance] = []
    no: list[LabeledInstance] = []
    attempt = 0
    while len(yes) < want_yes or len(no) < want_no:
        k0 = 1 + attempt % MAX_K_IN
        k1 = 1 + (attempt // 2) % MAX_K_IN
        c0 = random_circuit(k0, K_OUT, attempt % (MAX_GATES + 1), derive_seed(seed, "c0", attempt))
        c1 = random_circuit(k1, K_OUT, (attempt * 3) % (MAX_GATES + 1), derive_seed(seed, "c1", attempt))
        attempt += 1
        delta = tv_distance(enumerate_distribution(c0), enumerate_distribution(c1))
        inst = SdInstance(c0, c1, PROMISE_A, PROMISE_B)
        if delta <= PROMISE_A and len(yes) < want_yes:
            yes.append(LabeledInstance(inst, delta, "YES"))
        elif delta > PROMISE_B and len(no) < want_no:
            no.append(LabeledInstance(inst, delta, "NO"))
        if attempt > 200 * count:
            raise ResourceError(
                f"rejection sampling stopped after {attempt} attempts, short of {count} valid instances"
            )
    corpus = yes + no
    # deterministic shuffle so truncations stay balanced
    order = sorted(range(len(corpus)), key=lambda i: derive_seed(seed, "order", i))
    return [corpus[i] for i in order]


def polarize_corpus(corpus: list[LabeledInstance]) -> list[LabeledInstance]:
    """Amplify every instance; labels carry over (they describe the raw side)."""
    return [
        LabeledInstance(
            polarize(item.instance, POLARIZE_K, POLARIZE_REPS, POLARIZE_REPS),
            item.delta,
            item.label,
        )
        for item in corpus
    ]
