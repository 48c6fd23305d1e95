"""Tier-1 test settings: every @given test draws the same examples on every run.

derandomize draws each test's examples from a seed fixed by the test itself,
and no example database carries failures over from an earlier run.
"""
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
