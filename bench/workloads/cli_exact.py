"""cli-exact: a sequential run of ``oilab`` subprocess calls.

The calls repeat ``circuit stats`` on random circuits of 20 and 22 input
bits (every circuit distinct), ``validate`` on compiled SISD instances and
``decide sd`` on pre-polarized ones, in the fixed order of ``PATTERN``.  It
uses ``circuits`` unlike decide-corpus: enumeration runs over wide inputs
that never repeat and every call starts cold, so a cache shows here only as
cost.  It also carries the import and JSON I/O that users pay on every
shell call.  The traced run calls ``oilab.cli.main`` in-process instead.
No call repeats: each stats call reads its own circuit, and each width-14
instance is validated once and decided once.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oilab
from oilab import circuits, invseq, jsonio, seeding

from .decisions import (
    CONFIG,
    WIDE_WIDTH,
    CorpusStream,
    decision_problems,
    decision_record,
    state_width,
)

# Sorted by time the calls fall into two groups: validate and stats20
# (about 0.4 s here) and decide and stats22 (about 0.7 to 1.2 s, which
# overlap).  Five fast calls in eight keep the median well inside the fast
# group and the tail percentile (about p75 to p85 at this run length) inside
# the slow one, instead of on the edge between groups.  validate and decide
# use only the widest (width-14) instances, which are most of each corpus,
# so op times do not move with one seed's mix.
PATTERN = ("stats20", "validate", "decide", "stats20", "validate", "stats22", "stats20", "decide")
STATS_GATES = 64
STATS_OUTPUTS = 4
CORPUS_SIZE = {"full": 20, "smoke": 4}
# calls written at set-up; later ones are written as the timed loop needs
# them, with its clock stopped, so no circuit or instance repeats
SETUP_OPS = {"full": 64, "smoke": 8}
REFERENCE_OPS = 80  # operations recorded at the seed of record
CALL_TIMEOUT_S = 120
RSS_FROM_CHILDREN = True  # peak_rss_mb is the largest CLI process

DECLARED_SITES = (
    "oilab.cli.main",
    "oilab.cli.enumerate_distribution",
    "oilab.cli.validate_sequence",
    "oilab.cli.decide_sd",
    "oilab.circuits.eval_circuit_batch",
    "oilab.invseq.eval_circuit_batch",
    "oilab.qsim.eval_circuit_batch",
    "oilab.solver.reduce_sd_to_sisd",
    "oilab.solver.build_output_state",
    "oilab.solver.permutation_unitary_from_circuit",
    "oilab.solver.ci_oracle_query",
    "oilab.solver.swap_test",
)


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    subject: object  # the circuit, SISD instance or labelled SD instance


@dataclass
class Inputs:
    seed: int
    workdir: Path
    stream: CorpusStream
    env: dict  # for the CLI children: this checkout's oilab first on the path
    wide: list[int] = field(default_factory=list)  # width-14 instances of the stream
    ops: list[Op] = field(default_factory=list)

    @property
    def trace_pass(self) -> list[int]:
        return list(range(len(PATTERN)))

    def item_at(self, i: int) -> int:
        """Call i, written on first use."""
        while len(self.ops) <= i:
            self.ops.append(self._make_op(len(self.ops)))
        return i

    def _wide_instance(self, k: int):
        while len(self.wide) <= k:
            added = self.stream.add_corpus()
            widths = {n: state_width(self.stream.instances[n].instance) for n in added}
            self.wide += [n for n in added if widths[n] >= WIDE_WIDTH]
        return self.stream.instances[self.wide[k]]

    def _make_op(self, j: int) -> Op:
        cycle, slot = divmod(j, len(PATTERN))
        kind = PATTERN[slot]
        path = str(self.workdir / f"op{j}.json")
        if kind.startswith("stats"):
            circuit = circuits.random_circuit(
                int(kind[5:]), STATS_OUTPUTS, STATS_GATES, seeding.derive_seed(self.seed, "stats", j)
            )
            jsonio.write_json(path, circuit.to_json_dict())
            return Op(kind, ("circuit", "stats", "--instance", path), circuit)
        # the k-th validate and the k-th decide take the k-th wide instance
        k = cycle * PATTERN.count(kind) + PATTERN[:slot].count(kind)
        item = self._wide_instance(k)
        if kind == "validate":
            sisd = invseq.reduce_sd_to_sisd(item.instance)
            jsonio.write_json(path, sisd.to_json_dict())
            return Op(kind, ("validate", "--instance", path), sisd)
        jsonio.write_json(path, item.instance.to_json_dict())
        argv = (
            "decide", "sd", "--instance", path, "--seed", str(CONFIG.seed),
            "--lambda", str(CONFIG.lam), "--shots", str(CONFIG.swap_shots),
            "--trials", str(CONFIG.trial_count), "--retry-budget", str(CONFIG.retry_budget),
        )
        return Op(kind, argv, item)


def setup(seed: int, scale: str, workdir: Path) -> Inputs:
    src = str(Path(oilab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    inputs = Inputs(seed, workdir, CorpusStream(seed, CORPUS_SIZE[scale]), env)
    inputs.item_at(SETUP_OPS[scale] - 1)
    return inputs


def _record(op: Op, exit_code: int, stdout: str, stderr: str) -> dict:
    """The fields of one call's result that checks and the reference compare."""
    if exit_code not in (0, 1):
        return {"exit": exit_code, "error": stderr.strip()}
    report = json.loads(stdout)
    if op.kind == "validate":
        return {"exit": exit_code, "ok": report["ok"], "sequences": report["sequences"]}
    if op.kind == "decide":
        return {"exit": exit_code, **decision_record(report)}
    keys = ("k_in", "k_out", "gate_count", "wire_count")
    return {"exit": exit_code, **{key: report[key] for key in keys}, **report["distribution"]}


def run(inputs: Inputs, item: int) -> dict:
    op = inputs.ops[item]
    done = subprocess.run(
        [sys.executable, "-m", "oilab.cli", *op.argv],
        capture_output=True,
        text=True,
        env=inputs.env,
        timeout=CALL_TIMEOUT_S,
    )
    return _record(op, done.returncode, done.stdout, done.stderr)


def run_traced(inputs: Inputs, item: int) -> dict:
    """The same call through ``oilab.cli.main`` in this process."""
    from oilab import cli  # the timed loop never imports the CLI in-process

    op = inputs.ops[item]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        exit_code = cli.main(list(op.argv))
    return _record(op, exit_code, out.getvalue(), err.getvalue())


def _stats_problems(circuit, record: dict) -> list[str]:
    problems = []
    shape = (circuit.k_in, circuit.k_out, len(circuit.gates), circuit.n_wires)
    if tuple(record[key] for key in ("k_in", "k_out", "gate_count", "wire_count")) != shape:
        problems.append("circuit shape differs from the instance written")
    support = record["support_size"]
    high, low = Fraction(record["max_prob"]), Fraction(record["min_prob"])
    if not 1 <= support <= 2 ** circuit.k_out:
        problems.append(f"support size {support} outside [1, 2^{circuit.k_out}]")
    if any((2 ** circuit.k_in) % p.denominator for p in (high, low)):
        problems.append("probabilities are not multiples of 2^-k_in")
    if not 0 < low <= high <= 1 or low * support > 1 or high * support < 1:
        problems.append(f"min {low} and max {high} do not fit support size {support}")
    return problems


def _validate_problems(sisd, record: dict) -> list[str]:
    expected = [
        [1 << (pair.k + pair.r) for pair in seq.pairs] for seq in (sisd.seq0, sisd.seq1)
    ]
    points = [[check["points"] for check in seq] for seq in record["sequences"]]
    exhaustive = all(check["exhaustive"] for seq in record["sequences"] for check in seq)
    if record["ok"] is not True or record["exit"] != 0:
        return ["validate did not return ok"]
    if points != expected or not exhaustive:
        return [f"validate checked {points} points, expected exhaustive {expected}"]
    return []


def check(inputs: Inputs, item: int, record: dict) -> list[str]:
    op = inputs.ops[item]
    if "error" in record:
        return [f"exit code {record['exit']}: {record['error']}"]
    if op.kind == "validate":
        return _validate_problems(op.subject, record)
    if op.kind == "decide":
        problems = decision_problems(op.subject.instance, record)
        if record["exit"] != (0 if record["verdict"] == "YES" else 1):
            problems.append(f"exit code {record['exit']} for verdict {record['verdict']}")
        return problems
    if record["exit"] != 0:
        return [f"circuit stats exited {record['exit']}"]
    return _stats_problems(op.subject, record)


def verdict_correct(inputs: Inputs, item: int, record: dict) -> bool | None:
    """validate must return ok and decide must match the exact label;
    circuit stats carries no verdict."""
    op = inputs.ops[item]
    if op.kind == "validate":
        return record.get("ok") is True
    if op.kind == "decide":
        return record.get("verdict") == op.subject.label
    return None
