"""Test-wide settings and helpers.

Hypothesis draws its examples from a seed derived from each test, not from
a fresh random seed, so every run of the suite tries the same examples and
a failure reproduces on rerun.  ``traced_peak_bytes`` and
``traced_kept_bytes`` are the one way the memory bounds measure a call.
"""

import tracemalloc

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def traced_peak_bytes(fn) -> int:
    """The peak of the memory Python allocates while ``fn()`` runs, numpy
    arrays included, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_kept_bytes(fn) -> int:
    """The memory Python allocated while ``fn()`` ran that is still held once
    it returns, with its result kept, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        kept = fn()  # noqa: F841 -- held while the memory is read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
