"""The benchmark's probe sites still name the library's functions.

``bench/tracing.py`` wraps each layer at the module attributes its callers
look it up by (``SITES``), and refuses to install when a site no longer
holds its layer's function.  Installing and removing the probes here, with
the file loaded on its own, turns a refactor that drops or renames a site
into a test failure instead of a failure of the traced benchmark run.  One
decide-corpus operation run with the probes installed must reach every site
that workload declares, so a refactor that routes around a declared site
fails here too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("oilab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def resolve(site: str):
    module_name, attr = site.rsplit(".", 1)
    return getattr(importlib.import_module(module_name), attr)


def test_every_probe_site_installs_and_restores():
    tracing = load_tracing()
    sites = [site for layer_sites in tracing.SITES.values() for site in layer_sites]
    before = {site: resolve(site) for site in sites}
    with tracing.Tracer().installed():
        assert all(resolve(site) is not before[site] for site in sites)
    assert {site: resolve(site) for site in sites} == before


def test_one_decision_reaches_every_declared_site(monkeypatch, tmp_path):
    tracing = load_tracing()
    monkeypatch.syspath_prepend(str(BENCH))
    decide_corpus = importlib.import_module("workloads.decide_corpus")
    tracer = tracing.Tracer()
    with tracer.installed():
        inputs = decide_corpus.setup(2026, "smoke", tmp_path)
        record = decide_corpus.run(inputs, 0)
    tracer.require_calls(decide_corpus.DECLARED_SITES)
    assert decide_corpus.check(inputs, 0, record) == []
