"""Shared test settings.

The `hypothesis` property tests draw the same examples on every run and
time none of them, so the suite gives the same result on a slow or busy
host."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
