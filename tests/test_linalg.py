"""Exact/float matrix kernel: arithmetic, overflow fallback, leg embedding,
the leg-by-leg apply, the three-leg braid residual."""

from fractions import Fraction as Fr
from math import prod

import numpy as np
import pytest
from hypothesis import given, strategies as st

from betheforge.linalg import EXACT, FLOAT, Mat, apply_on_legs, \
    braid_residual, hstack, lift, residual, rref_basis, swap_mat
from conftest import rational_mat


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
        ops.append((rational_mat(rng, size, size), legs))
    cols = None
    if draw(st.booleans()):
        cols = rational_mat(rng, prod(dims), draw(st.integers(1, 3)))
    return dims, ops, cols


@st.composite
def leg_cases(draw):
    """Random legs and dims, one rational operator on a random ordered leg
    subset (non-adjacent and reversed ones included), a column block, and
    whether the numerators are scaled past the int64 bound."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    legs = draw(st.permutations(range(len(dims))))
    legs = legs[:draw(st.integers(1, len(legs)))]
    size = prod(dims[i] for i in legs)
    op = rational_mat(rng, size, size)
    cols = rational_mat(rng, prod(dims), draw(st.integers(1, 3)))
    big = draw(st.booleans())
    if big:
        # 5**30 > 2**62 and shares no factor with the denominators
        op = Mat(EXACT, op.num * 5 ** 30, op.den)._reduced()
    return dims, list(legs), op, cols, big


def _same_exact(a, b):
    return (a.den == b.den and a.shape == b.shape
            and all(int(x) == int(y) for x, y in zip(a.num.flat, b.num.flat)))


@given(leg_cases())
def test_apply_on_legs_matches_lift(case):
    dims, legs, op, cols, big = case
    got = apply_on_legs(op, legs, dims, cols)
    assert _same_exact(got, lift(op, legs, dims) @ cols)
    if big:
        return
    fop, fcols = (Mat(FLOAT, m.to_complex()) for m in (op, cols))
    got = apply_on_legs(fop, legs, dims, fcols)
    want = lift(fop, legs, dims) @ fcols
    assert got.shape == want.shape and residual(got, want) <= 1e-12


def test_apply_on_legs_takes_the_bigint_path_exactly():
    # numerators past 2**62 force object-dtype products on both sides
    rng = np.random.default_rng(5)
    dims = [2, 3, 2]
    op = rational_mat(rng, 4, 4)
    op = Mat(EXACT, op.num * 2 ** 70 + 1, op.den)
    cols = rational_mat(rng, 12, 2)
    got = apply_on_legs(op, [2, 0], dims, cols)
    assert got.amax() >= 2 ** 63
    assert _same_exact(got, lift(op, [2, 0], dims) @ cols)


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
