"""Test-wide settings.

Hypothesis draws its examples from a seed derived from each test, not from
a fresh random seed, so every run of the suite tries the same examples and
a failure reproduces on rerun.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
