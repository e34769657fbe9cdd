"""The benchmark's probe sites still name the library's functions.

``bench/tracing.py`` wraps each layer at the module attributes its callers
look it up by (``SITES``), and refuses to install when a site no longer
holds its layer's function.  Installing and removing the probes here, with
the file loaded on its own, turns a refactor that drops or renames a site
into a test failure instead of a failure of the traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
