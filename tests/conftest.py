"""Shared test settings.

Hypothesis runs derandomized, with no per-example deadline (exact rational
arithmetic has no stable per-example time), few examples and no example
database, so every run of the suite draws the same cases.
"""

from hypothesis import settings

settings.register_profile("betheforge", derandomize=True, deadline=None,
                          max_examples=15, database=None)
settings.load_profile("betheforge")
