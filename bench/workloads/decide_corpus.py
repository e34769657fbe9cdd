"""decide-corpus: the labelled-corpus decision (acceptance criterion 7) as
users run it.

``build_sd_corpus(N, seed)`` -> ``polarize_corpus`` (k=2, 2, 2) -> one
``decide_sd`` per instance with ``decisions.CONFIG``.  Permutation-table
builds take about nine tenths of the time, and tables repeat heavily
across instances, so caching and table-build work shows here.  Every
operation decides a different instance: when the corpora built at set-up
run out, the timed loop builds the next one with its clock stopped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from oilab import solver

from .decisions import (
    CONFIG,
    WIDE_WIDTH,
    CorpusStream,
    decision_problems,
    decision_record,
    state_width,
)

CORPUS_SIZE = {"full": 20, "smoke": 4}
# Corpora built at set-up: about what one 30 s run decides today, and
# enough that set-up time does not hang on one corpus's rejection sampling.
SETUP_CORPORA = {"full": 3, "smoke": 1}
# Width-14 and width-10 instances differ about 25x in cost and their share
# moves with the seed.  The timed loop takes them 4:1, near the corpus's
# own share, so ops_per_s measures the code rather than one seed's mix.
WIDE_PER_NARROW = 4
REFERENCE_OPS = 100  # operations recorded at the seed of record

DECLARED_SITES = (
    "oilab.corpus.enumerate_distribution",
    "oilab.corpus.tv_distance",
    "oilab.corpus.polarize",
    "oilab.circuits.eval_circuit_batch",
    "oilab.qsim.eval_circuit_batch",
    "oilab.solver.decide_sd",
    "oilab.solver.reduce_sd_to_sisd",
    "oilab.solver.build_output_state",
    "oilab.solver.permutation_unitary_from_circuit",
    "oilab.solver.ci_oracle_query",
    "oilab.solver.swap_test",
)


@dataclass
class Inputs:
    stream: CorpusStream
    wide: deque = field(default_factory=deque)  # instances not yet scheduled
    narrow: deque = field(default_factory=deque)
    schedule: list[int] = field(default_factory=list)

    def add_corpus(self) -> None:
        for n in self.stream.add_corpus():
            width = state_width(self.stream.instances[n].instance)
            (self.wide if width >= WIDE_WIDTH else self.narrow).append(n)

    @property
    def trace_pass(self) -> list[int]:
        """Corpus 0, decided once in corpus order."""
        return list(range(self.stream.size))

    def item_at(self, i: int) -> int:
        """The instance the i-th operation decides; no instance comes twice."""
        while len(self.schedule) <= i:
            slot_is_narrow = len(self.schedule) % (WIDE_PER_NARROW + 1) == WIDE_PER_NARROW
            pools = (self.narrow, self.wide) if slot_is_narrow else (self.wide, self.narrow)
            if not pools[0]:
                self.add_corpus()
            self.schedule.append((pools[0] or pools[1]).popleft())
        return self.schedule[i]

    def instance(self, item: int):
        return self.stream.instances[item]


def setup(seed: int, scale: str, workdir: Path) -> Inputs:
    inputs = Inputs(CorpusStream(seed, CORPUS_SIZE[scale]))
    for _ in range(SETUP_CORPORA[scale]):
        inputs.add_corpus()
    return inputs


def run(inputs: Inputs, item: int) -> dict:
    decision = solver.decide_sd(inputs.instance(item).instance, CONFIG)
    return decision_record(decision.to_json_dict())


def check(inputs: Inputs, item: int, record: dict) -> list[str]:
    return decision_problems(inputs.instance(item).instance, record)


def verdict_correct(inputs: Inputs, item: int, record: dict) -> bool:
    return record["verdict"] == inputs.instance(item).label
