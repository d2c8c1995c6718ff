"""Shared test settings and helpers.

Hypothesis runs derandomized, with no per-example deadline (exact rational
arithmetic has no stable per-example time), few examples and no example
database, so every run of the suite draws the same cases.
"""

from fractions import Fraction as Fr

from hypothesis import settings

from betheforge.linalg import EXACT, Mat

settings.register_profile("betheforge", derandomize=True, deadline=None,
                          max_examples=15, database=None)
settings.load_profile("betheforge")


def block(mat, i, j, rows, cols):
    """Block of `mat` of size rows x cols starting at (i*rows, j*cols)."""
    sub = mat.num[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols].copy()
    return Mat(mat.backend, sub, mat.den)


def rational_mat(rng, rows, cols):
    """Exact matrix of small random rationals (numerators -3..3, denominators
    1..3) drawn from the numpy generator `rng`."""
    num = rng.integers(-3, 4, size=(rows, cols))
    return Mat.from_scalars([[Fr(int(v), int(rng.choice([1, 2, 3])))
                              for v in row] for row in num], EXACT)
