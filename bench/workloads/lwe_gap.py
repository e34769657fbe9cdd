"""lwe-gap: exact CVP distances of LWE and uniform targets (the GapCVP lab).

LWE and uniform targets alternate, and two parameter sets are interleaved:
five targets of n=2, q=101, m=8 (q^n ~ 1e4, a few ms each) for every one
of n=3, q=53, m=12 (q^n ~ 1.5e5, tens of ms); both use alpha=0.02 and
gamma=3.  Time goes almost entirely to ``lwe.dist_to_lattice`` and the
workload never touches ``circuits`` or ``qsim``: it is the bypass case for
every decision-pipeline change, where the prediction is no change.  The two
sizes expose a CVP algorithm that wins on large lattices but loses on small
ones: the median operation is a small lattice, the tail a large one.
Every operation measures a different target: targets are drawn as
``gap_experiment`` draws them, trial after trial, as the timed loop needs
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oilab import lwe, seeding

PARAMS = (lwe.LweParams(2, 101, 8, 0.02), lwe.LweParams(3, 53, 12, 0.02))
GAMMA = 3.0
ORIGINS = ("lwe", "uniform")
# A small target right after a large one runs about 1.5x slower than one
# after another small target.  At 5:1 the median falls well inside the
# after-small group; at 2:1 it sat on the edge between the two groups.
SMALL_PER_LARGE = 5
BLOCK = 2 * (SMALL_PER_LARGE + 1)  # operations that take both origins evenly
# Targets drawn at set-up, which are also the traced pass.
SETUP_OPS = {"full": 6 * BLOCK, "smoke": BLOCK}
# The first operations are checked against a brute-force scan and against
# gap_experiment, which cost about what the operations do; later ones get
# only the cheap checks, so checking time stays bounded however fast
# dist_to_lattice becomes.  A 30 s run makes about 2,200 operations today.
CHECKED_OPS = {"full": 30 * BLOCK, "smoke": BLOCK}
REFERENCE_OPS = 2400  # operations recorded at the seed of record

DECLARED_SITES = (
    "oilab.lwe.sample_lwe",
    "oilab.lwe.sample_uniform",
    "oilab.lwe.dist_to_lattice",
)


@dataclass(frozen=True)
class Target:
    params_index: int
    origin: str
    trial: int
    instance: lwe.LweInstance


def target_key(i: int) -> tuple[int, str, int]:
    """(parameter set, origin, trial) of the i-th operation: five small
    targets, then one large; within each set the origins alternate."""
    block, slot = divmod(i, SMALL_PER_LARGE + 1)
    if slot < SMALL_PER_LARGE:
        index, n = 0, block * SMALL_PER_LARGE + slot
    else:
        index, n = 1, block
    trial, origin = divmod(n, len(ORIGINS))
    return index, ORIGINS[origin], trial


@dataclass
class Inputs:
    seed: int
    scale: str
    targets: dict[int, Target] = field(default_factory=dict)
    experiment_rows: dict = field(default_factory=dict)

    @property
    def trace_pass(self) -> list[int]:
        return list(range(SETUP_OPS[self.scale]))

    def item_at(self, i: int) -> int:
        """Operation i measures target i, drawn on first use."""
        if i not in self.targets:
            index, origin, trial = target_key(i)
            sample = lwe.sample_lwe if origin == "lwe" else lwe.sample_uniform
            instance = sample(PARAMS[index], seeding.derive_rng(self.seed, origin, trial))
            self.targets[i] = Target(index, origin, trial, instance)
        return i


def setup(seed: int, scale: str, workdir: Path) -> Inputs:
    """Targets drawn exactly as ``lwe.gap_experiment`` draws them."""
    inputs = Inputs(seed, scale)
    for i in range(SETUP_OPS[scale]):
        inputs.item_at(i)
    return inputs


def run(inputs: Inputs, item: int) -> dict:
    cvp = lwe.lwe_to_gapcvp(inputs.targets[item].instance, GAMMA)
    dist = lwe.dist_to_lattice(cvp)
    verdict = lwe._verdict(dist, cvp.d, GAMMA)
    return {"dist": dist, "dist_sq": round(dist * dist), "verdict": verdict}


def brute_force_sq_distance(instance: lwe.LweInstance) -> int:
    """Squared distance from b to {As mod q} + qZ^m over all q^n secrets,
    written apart from ``lwe.dist_to_lattice`` so it can check it."""
    q, n = instance.params.q, instance.params.n
    secrets = np.indices((q,) * n).reshape(n, -1).T
    residual = (instance.b[None, :] - secrets @ instance.A.T) % q
    residual = np.minimum(residual, q - residual)
    return int((residual * residual).sum(axis=1).min())


def _experiment_row(inputs: Inputs, target: Target):
    """The row ``gap_experiment`` reports for the target, over the trials
    that the checked operations reach."""
    index = target.params_index
    if index not in inputs.experiment_rows:
        checked = [target_key(i) for i in range(CHECKED_OPS[inputs.scale])]
        trials = 1 + max(trial for k, _, trial in checked if k == index)
        report = lwe.gap_experiment(PARAMS[index], GAMMA, trials, inputs.seed, calibrated_factor=GAMMA)
        inputs.experiment_rows[index] = {(row.origin, row.trial): row for row in report.rows}
    return inputs.experiment_rows[index][(target.origin, target.trial)]


def check(inputs: Inputs, item: int, record: dict) -> list[str]:
    target = inputs.targets[item]
    problems = []
    dist_sq = record["dist_sq"]
    if abs(record["dist"] ** 2 - dist_sq) > 1e-9 * max(1, dist_sq):
        problems.append(f"distance {record['dist']} is not the root of an integer")
    if target.origin == "lwe":
        error = lwe.centered_mod(target.instance.secret.e, target.instance.params.q)
        if dist_sq > int((error * error).sum()):
            problems.append("LWE target is farther than its own error vector")
    if item < CHECKED_OPS[inputs.scale]:
        exact = brute_force_sq_distance(target.instance)
        if dist_sq != exact:
            problems.append(f"squared distance {dist_sq} != brute force {exact}")
        row = _experiment_row(inputs, target)
        if (row.dist, row.verdict) != (record["dist"], record["verdict"]):
            problems.append(f"gap_experiment reports {row.dist} {row.verdict}")
    return problems


def verdict_correct(inputs: Inputs, item: int, record: dict) -> bool:
    expected = "YES" if inputs.targets[item].origin == "lwe" else "NO"
    return record["verdict"] == expected
