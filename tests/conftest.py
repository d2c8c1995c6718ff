"""Shared test settings, helpers and dense oracles.

Hypothesis runs derandomized, with no per-example deadline (exact rational
arithmetic has no stable per-example time), few examples and no example
database, so every run of the suite draws the same cases.

The dense oracles write operators out as full matrices: `lifted_product`
and `hatted_matrix` as products of `lift`s, which no package path uses,
and `swap_matrix` entry by entry.  The leg-by-leg applications are held to them.
`grid_weights` reads the weight functions off the monodromy grid, the
oracle of the per-site weights.
`mat_from_scalars` and `format_scalar` write test data in and out, and
`transposed` turns an operator around.
"""

from fractions import Fraction as Fr
from math import lcm

import numpy as np
from hypothesis import settings

from betheforge.linalg import EXACT, FLOAT, Mat, lift, residual
from betheforge.nested_sp4 import hatted_factors

settings.register_profile("betheforge", derandomize=True, deadline=None,
                          max_examples=15, database=None)
settings.load_profile("betheforge")


def mat_from_scalars(rows, backend):
    """A Mat from nested rows of Fractions/ints (exact) or numbers (float)."""
    if backend == FLOAT:
        return Mat(FLOAT, np.array(rows, dtype=np.complex128))
    fr = [[Fr(x) for x in row] for row in rows]
    den = lcm(*(x.denominator for row in fr for x in row))
    num = np.array([[int(x * den) for x in row] for row in fr], dtype=object)
    return Mat(EXACT, num, den)._reduced()


def format_scalar(x):
    """Serialize: Fractions and ints as "p/q" strings, complex as [re, im]."""
    if isinstance(x, (Fr, int)):
        return str(x)
    z = complex(x)
    return [z.real, z.imag]


def transposed(mat):
    """The transpose of a Mat, as a new Mat."""
    return Mat(mat.backend, mat.num.T.copy(), mat.den)


def block(mat, i, j, rows, cols):
    """Block of `mat` of size rows x cols starting at (i*rows, j*cols)."""
    sub = mat.num[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols].copy()
    return Mat(mat.backend, sub, mat.den)


def rational_mat(rng, rows, cols):
    """Exact matrix of small random rationals (numerators -3..3, denominators
    1..3) drawn from the numpy generator `rng`."""
    num = rng.integers(-3, 4, size=(rows, cols))
    return mat_from_scalars([[Fr(int(v), int(rng.choice([1, 2, 3])))
                              for v in row] for row in num], EXACT)


def swap_matrix(d1, d2, backend=EXACT):
    """Exchange operator V1 (x) V2 -> V2 (x) V1."""
    num = np.zeros((d1 * d2, d1 * d2), dtype=np.int64)
    for a in range(d1):
        for b in range(d2):
            num[b * d1 + a, a * d2 + b] = 1
    return Mat(backend, num)


def lifted_product(factors, dims):
    """A factor string as one dense matrix: the product of its lifts."""
    out = lift(*factors[0], dims)
    for op, legs in factors[1:]:
        out = out @ lift(op, legs, dims)
    return out


def hatted_matrix(chain, sign, x, uvec, coincident_slot=None, monic=False,
                  minus_roots=None):
    """That(sign)(x; u) as one dense matrix: the lifted `hatted_factors`."""
    return lifted_product(*hatted_factors(chain, sign, x, uvec,
                                          coincident_slot, monic, minus_roots))


def grid_weights(chain, x):
    """Every lam_i(x), in space order, read off the monodromy grid: the
    vacuum entry of T^i_i(x) applied to the vacuum, after checking that the
    application is that entry times the vacuum (literally on exact, within
    1e-10 on float)."""
    omega = chain.vacuum().omega
    slot = int(np.argmax(np.abs(omega.to_complex()[:, 0])))
    out = []
    for i in chain.space:
        v = chain.t(i, i, x) @ omega
        coeff = v.entry(slot, 0)
        if chain.backend == EXACT:
            assert residual(v, omega.scale(coeff)) == 0
        else:
            assert np.abs(v.num[:, 0] - coeff * omega.num[:, 0]).max() < 1e-10
        out.append(coeff)
    return out
