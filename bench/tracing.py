"""Spans around oilab's public functions, installed from outside the library.

A probe replaces a function at the name its caller looks it up by.
``solver.py`` does ``from .qsim import permutation_unitary_from_circuit``,
so the call it makes goes through ``oilab.solver.permutation_unitary_from_circuit``;
patching ``oilab.qsim`` would record nothing for it.  ``SITES`` therefore
lists, for every layer, each module attribute through which the library
(or the benchmark) reaches it.  Installing a probe checks that the site
still holds the layer's function, and ``require_calls`` fails loudly when
a site a workload declares recorded no call, so a refactor that bypasses a
layer cannot quietly report zero.

Each call becomes a span: layer name, start, end, parent span and the
operation it belongs to.  Spans stay in memory; counts are taken at the
same boundary so ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# layer -> the "module.attribute" names it is called through
SITES: dict[str, tuple[str, ...]] = {
    "circuits.eval_circuit_batch": (
        "oilab.circuits.eval_circuit_batch",
        "oilab.qsim.eval_circuit_batch",
        "oilab.invseq.eval_circuit_batch",
    ),
    "circuits.enumerate_distribution": (
        "oilab.corpus.enumerate_distribution",
        "oilab.cli.enumerate_distribution",
    ),
    "distributions.tv_distance": ("oilab.corpus.tv_distance",),
    "invseq.polarize": ("oilab.corpus.polarize",),
    "invseq.reduce_sd_to_sisd": ("oilab.solver.reduce_sd_to_sisd",),
    "invseq.validate_sequence": ("oilab.cli.validate_sequence",),
    "qsim.permutation_unitary_from_circuit": ("oilab.solver.permutation_unitary_from_circuit",),
    "qsim.ci_oracle_query": ("oilab.solver.ci_oracle_query",),
    "qsim.swap_test": ("oilab.solver.swap_test",),
    "solver.decide_sd": ("oilab.solver.decide_sd", "oilab.cli.decide_sd"),
    "solver.build_output_state": ("oilab.solver.build_output_state",),
    "lwe.dist_to_lattice": ("oilab.lwe.dist_to_lattice",),
    "lwe.sample": ("oilab.lwe.sample_lwe", "oilab.lwe.sample_uniform"),
    "cli.main": ("oilab.cli.main",),
}

# counts each layer reports besides calls, busy_s and self_s
COUNT_KEYS = {
    "circuits.eval_circuit_batch": ("rows",),
    "invseq.validate_sequence": ("points",),
    "qsim.ci_oracle_query": ("successes",),
    "qsim.swap_test": ("shots",),
    "lwe.dist_to_lattice": ("candidates",),
}


def import_site_modules() -> None:
    for sites in SITES.values():
        for site in sites:
            importlib.import_module(site.rsplit(".", 1)[0])


def _counts(layer: str, args: dict, result) -> dict[str, int]:
    """Work done by one call, read from its arguments and result."""
    if layer == "circuits.eval_circuit_batch":
        return {"rows": len(args["inputs"])}
    if layer == "invseq.validate_sequence":
        return {"points": sum(check.points_checked for check in result.checks)}
    if layer == "qsim.ci_oracle_query":
        return {"successes": int(result.success)}
    if layer == "qsim.swap_test":
        return {"shots": args["shots"]}
    if layer == "lwe.dist_to_lattice":
        inst = args["inst"]
        return {"candidates": inst.q ** inst.n}
    return {}


@dataclass
class Span:
    span_id: int
    name: str
    site: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; ``layer_metrics`` aggregates them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.table_keys: set = set()
        self._stack: list[int] = []
        self._op = "setup"

    @contextmanager
    def operation(self, op_id: str):
        self._op = op_id
        span = self._open("op", "bench")
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def installed(self):
        originals = []
        try:
            for layer, sites in SITES.items():
                for site in sites:
                    module_name, attr = site.rsplit(".", 1)
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    # the site must still hold the layer's own function, or
                    # the probe would time something else
                    home = "oilab." + layer.split(".")[0]
                    if (original.__module__, original.__name__) != (home, attr):
                        raise RuntimeError(f"{site} no longer refers to {home}.{attr}")
                    originals.append((module, attr, original))
                    setattr(module, attr, self._wrap(layer, site, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def _open(self, name: str, site: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, site, self._op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, site: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span = self._open(layer, site)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            bound = signature.bind(*args, **kwargs).arguments
            span.counts = _counts(layer, bound, result)
            if layer == "qsim.permutation_unitary_from_circuit":
                self.table_keys.add((bound["pair"], bound["z"]))
            return result

        return probe

    def require_calls(self, sites) -> None:
        """Raise unless every named site recorded at least one call."""
        called = {span.site for span in self.spans}
        missing = [site for site in sites if site not in called]
        if missing:
            raise RuntimeError(
                "declared probe sites recorded no calls (the workload no longer "
                f"reaches these layers through these names): {', '.join(missing)}"
            )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, busy and self seconds and counts, over all spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, dict[str, int]] = {}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
            busy[span.name] = busy.get(span.name, 0.0) + span.duration
            self_s[span.name] = self_s.get(span.name, 0.0) + span.duration - child_time[span.span_id]
            for key, value in span.counts.items():
                layer_counts = counts.setdefault(span.name, {})
                layer_counts[key] = layer_counts.get(key, 0) + value
        out: dict[str, float] = {}
        for layer in list(SITES) + ["op"]:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            for key in COUNT_KEYS.get(layer, ()):
                out[f"{layer}.{key}"] = counts.get(layer, {}).get(key, 0)
        tables = out["qsim.permutation_unitary_from_circuit.calls"]
        out["qsim.permutation_unitary_from_circuit.distinct"] = len(self.table_keys)
        out["qsim.table_distinct_ratio"] = len(self.table_keys) / tables if tables else 0.0
        queries = out["qsim.ci_oracle_query.calls"]
        out["qsim.ci_success_ratio"] = (
            out["qsim.ci_oracle_query.successes"] / queries if queries else 0.0
        )
        out["solver.oracle_failures"] = sum(
            span.name == "solver.build_output_state" and span.error == "OracleFailureError"
            for span in self.spans
        )
        return out
