"""Exact/float matrix kernel: arithmetic, overflow fallback, leg embedding,
the three-leg braid residual."""

from fractions import Fraction as Fr
from math import prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from betheforge.linalg import EXACT, FLOAT, Mat, braid_residual, hstack, \
    lift, residual, rref_basis, swap_mat


def test_exact_construction_and_entries():
    m = Mat.from_scalars([[Fr(1, 2), Fr(1, 3)], [0, Fr(-5, 6)]], EXACT)
    assert m.den == 6
    assert m.entry(0, 0) == Fr(1, 2)
    assert m.entry(1, 1) == Fr(-5, 6)
    assert m.max_abs() == Fr(5, 6)


def test_exact_matmul_reduces():
    a = Mat.from_scalars([[Fr(1, 2), 0], [0, Fr(1, 2)]], EXACT)
    b = Mat.from_scalars([[2, 0], [0, 2]], EXACT)
    c = a @ b
    assert c.den == 1
    assert c.entry(0, 0) == 1


def test_bigint_fallback_is_exact():
    big = 2 ** 40
    a = Mat.from_scalars([[big, 1], [0, big]], EXACT)
    c = a @ a @ a  # entries ~ 2^120, far beyond int64
    assert c.entry(0, 0) == Fr(big) ** 3
    assert c.entry(0, 1) == 3 * Fr(big) ** 2


def test_add_aligns_denominators():
    a = Mat.from_scalars([[Fr(1, 2)]], EXACT)
    b = Mat.from_scalars([[Fr(1, 3)]], EXACT)
    assert (a + b).entry(0, 0) == Fr(5, 6)
    assert (a - b).entry(0, 0) == Fr(1, 6)


def test_scale_and_kron():
    a = Mat.from_scalars([[1, 2], [3, 4]], EXACT)
    assert a.scale(Fr(1, 2)).entry(1, 0) == Fr(3, 2)
    k = a.kron(Mat.identity(2, EXACT))
    assert k.shape == (4, 4)
    assert k.entry(2, 0) == 3


def test_lift_places_operator_on_legs():
    x = Mat.from_scalars([[0, 1], [1, 0]], EXACT)
    dims = [2, 2, 2]
    full = lift(x, [1], dims)
    v = Mat.basis_vector(8, 0, EXACT)       # |000>
    w = full @ v
    assert w.entry(2, 0) == 1                # |010>
    # two-leg placement in swapped order
    cnotish = Mat.from_scalars(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], EXACT)
    f01 = lift(cnotish, [0, 1], dims)
    f10 = lift(cnotish, [1, 0], dims)
    s = swap_mat(2, 2, EXACT)
    swapped = lift(s @ cnotish @ s, [0, 1], dims)
    assert residual(f10, swapped) == 0
    assert residual(f01, f10) != 0


def test_swap_mat():
    s = swap_mat(2, 3, EXACT)
    a = Mat.from_scalars([[1], [2]], EXACT)
    b = Mat.from_scalars([[5], [6], [7]], EXACT)
    assert residual(s @ a.kron(b), b.kron(a)) == 0


def test_float_backend_matmul():
    a = Mat.from_scalars([[1 + 1j, 0], [0, 2]], FLOAT)
    c = a @ a
    assert abs(c.entry(0, 0) - (1 + 1j) ** 2) < 1e-15
    assert a.norm() == pytest.approx(np.sqrt(abs(1 + 1j) ** 2 + 4))


def test_rref_basis_exact_and_float():
    v1 = Mat.from_scalars([[1], [0], [1]], EXACT)
    v2 = Mat.from_scalars([[2], [0], [2]], EXACT)
    v3 = Mat.from_scalars([[0], [1], [0]], EXACT)
    assert rref_basis([v1, v2, v3]) == [0, 2]
    f1 = Mat.from_scalars([[1], [0]], FLOAT)
    f2 = Mat.from_scalars([[1], [1e-12]], FLOAT)
    f3 = Mat.from_scalars([[0], [1]], FLOAT)
    assert rref_basis([f1, f2, f3]) == [0, 2]


def test_hstack():
    a = Mat.from_scalars([[Fr(1, 2)], [0]], EXACT)
    b = Mat.from_scalars([[0], [Fr(1, 3)]], EXACT)
    h = hstack([a, b])
    assert h.shape == (2, 2)
    assert h.entry(0, 0) == Fr(1, 2)
    assert h.entry(1, 1) == Fr(1, 3)


def _rational_mat(rng, rows, cols):
    num = rng.integers(-3, 4, size=(rows, cols))
    return Mat.from_scalars([[Fr(int(v), int(rng.choice([1, 2, 3])))
                              for v in row] for row in num], EXACT)


@st.composite
def braid_cases(draw):
    """Random legs and dims, three rational operators on random leg
    subsets (in random order), and optionally a block of columns."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)
                .filter(lambda d: prod(d) <= 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ops = []
    for _ in range(3):
        legs = draw(st.permutations(range(len(dims))))
        legs = legs[:draw(st.integers(1, len(legs)))]
        size = prod(dims[i] for i in legs)
        ops.append((_rational_mat(rng, size, size), legs))
    cols = None
    if draw(st.booleans()):
        cols = _rational_mat(rng, prod(dims), draw(st.integers(1, 3)))
    return dims, ops, cols


@given(braid_cases())
def test_braid_residual_matches_written_out_lift_products(case):
    dims, ops, cols = case
    a, b, c = (lift(op, legs, dims) for op, legs in ops)
    lhs, rhs = a @ b @ c, c @ b @ a
    if cols is None:
        expect = residual(lhs, rhs)
    else:
        expect = residual(lhs @ cols, rhs @ cols)
    assert braid_residual(dims, *ops, cols=cols) == expect


def test_braid_residual_of_non_commuting_factors_is_nonzero():
    # A B C - C B A = [s, t] (x) 1 on two qubits, with [s, t] = diag(1, -1)
    s = (Mat.from_scalars([[0, 1], [0, 0]], EXACT), [0])
    t = (Mat.from_scalars([[0, 0], [1, 0]], EXACT), [0])
    one = (Mat.identity(2, EXACT), [1])
    assert braid_residual([2, 2], s, t, one) == 1
    assert braid_residual([2, 2], s, t, one,
                          cols=Mat.basis_vector(4, 2, EXACT)) == 1
    assert braid_residual([2, 2], s, s, one) == 0
