"""SD instances and the checks on one decision report, shared by
decide-corpus and cli-exact.

``CorpusStream`` hands out labelled, polarized instances that never repeat,
so a cache that outlives one call is not credited with repeats a user would
not make.  The report is ``Decision.to_json_dict()`` or the same fields printed by
``oilab decide sd``.  Verdict, threshold, swap-test accepts and oracle
attempt counts are checked exactly; the state overlap is checked against
the exact brute-force distributions of the two circuits, to a stated
float tolerance.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

from oilab import circuits, corpus, invseq, seeding, solver

CONFIG = solver.SolverConfig(lam=100, swap_shots=4096, trial_count=25, seed=99)
OVERLAP_TOLERANCE = 1e-9
WIDE_WIDTH = 14  # the widest compiled state; about 80% of a default corpus


class CorpusStream:
    """An endless run of labelled SD instances, polarized with the defaults
    (k=2, 2, 2), in corpora of ``size``.

    Corpus 0 is ``build_sd_corpus(size, seed)`` itself; corpus b > 0 is built
    from a seed derived from (seed, b).  Instance n is the n-th of the run.
    """

    def __init__(self, seed: int, size: int):
        self.seed = seed
        self.size = size
        self.instances: list = []

    def add_corpus(self) -> range:
        """Build the next corpus; return the indices of its instances."""
        number = len(self.instances) // self.size
        seed = self.seed if number == 0 else seeding.derive_seed(self.seed, "corpus", number)
        start = len(self.instances)
        self.instances += corpus.polarize_corpus(corpus.build_sd_corpus(self.size, seed))
        return range(start, len(self.instances))


def state_width(inst) -> int:
    return max(inst.c0.k_in, inst.c1.k_in) + inst.c0.k_out


def decision_record(report: dict) -> dict:
    """The fields of a decision report that checks and the reference compare."""
    return {
        "verdict": report["verdict"],
        "oracle_attempts": report["oracle_attempts"],
        "accepts": [round((t + 1) * CONFIG.swap_shots / 2) for t in report["trials"]],
        "trials": report["trials"],
        "estimate": report["estimate"],
        "tau": report["tau"],
        "exact_overlap": report["exact_overlap"],
    }


def squared_cosine(inst) -> Fraction:
    """Exact squared cosine of the two circuits' output distributions.

    The compiled sequences output (uniform prefix, circuit value), so their
    states overlap exactly as much as the circuits' own distributions.
    """
    p0 = circuits.enumerate_distribution(inst.c0).probs
    p1 = circuits.enumerate_distribution(inst.c1).probs
    dot = sum(p * p1.get(key, 0) for key, p in p0.items())
    norm0 = sum(p * p for p in p0.values())
    norm1 = sum(p * p for p in p1.values())
    return dot * dot / (norm0 * norm1)


def decision_problems(inst, record: dict) -> list[str]:
    """Everything wrong with a decision record for SD instance ``inst``."""
    problems = []
    shots = CONFIG.swap_shots
    tau = ((1 - inst.a) ** 2 + 1 - inst.b ** 2) / 2
    if record["tau"] != float(tau):
        problems.append(f"tau {record['tau']} != {float(tau)}")
    trials = record["trials"]
    if len(trials) != CONFIG.trial_count:
        problems.append(f"{len(trials)} swap-test trials, expected {CONFIG.trial_count}")
    for trial, accepts in zip(trials, record["accepts"]):
        if not 0 <= accepts <= shots or trial != 2 * accepts / shots - 1:
            problems.append(f"trial estimate {trial} is not 2*accepts/{shots} - 1")
            break
    if trials and record["estimate"] != statistics.median(trials):
        problems.append("estimate is not the median trial")
    expected = "YES" if record["estimate"] >= tau else "NO"
    if record["verdict"] != expected:
        problems.append(f"verdict {record['verdict']} but estimate vs tau gives {expected}")
    sisd = invseq.reduce_sd_to_sisd(inst)
    for seq, attempts in zip((sisd.seq0, sisd.seq1), record["oracle_attempts"]):
        stages = [pair.r for pair in seq.pairs]
        if len(attempts) != len(stages) or any(
            (a != 0) if r == 0 else not 1 <= a <= CONFIG.retry_budget
            for a, r in zip(attempts, stages)
        ):
            problems.append(f"oracle attempts {attempts} do not fit stages with r={stages}")
    overlap = float(squared_cosine(inst))
    if abs(record["exact_overlap"] - overlap) > OVERLAP_TOLERANCE:
        problems.append(f"exact_overlap {record['exact_overlap']} != brute force {overlap}")
    return problems
