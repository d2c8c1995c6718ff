"""Exact/float matrix kernel: arithmetic, overflow fallback, the cached
largest numerator, leg embedding, the leg-by-leg apply of factor strings,
the three-operand braid residual, and that no package path lifts."""

import ast
from fractions import Fraction as Fr
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import betheforge
from betheforge.linalg import EXACT, FLOAT, Mat, apply_on_legs, \
    braid_residual, hstack, lift, residual, rref_basis
from conftest import lifted_product, mat_from_scalars, rational_mat, \
    swap_matrix, transposed


def test_exact_construction_and_entries():
    m = mat_from_scalars([[Fr(1, 2), Fr(1, 3)], [0, Fr(-5, 6)]], EXACT)
    assert m.den == 6
    assert m.entry(0, 0) == Fr(1, 2)
    assert m.entry(1, 1) == Fr(-5, 6)
    assert m.max_abs() == Fr(5, 6)


def test_exact_matmul_reduces():
    a = mat_from_scalars([[Fr(1, 2), 0], [0, Fr(1, 2)]], EXACT)
    b = mat_from_scalars([[2, 0], [0, 2]], EXACT)
    c = a @ b
    assert c.den == 1
    assert c.entry(0, 0) == 1


def test_bigint_fallback_is_exact():
    big = 2 ** 40
    a = mat_from_scalars([[big, 1], [0, big]], EXACT)
    c = a @ a @ a  # entries ~ 2^120, far beyond int64
    assert c.entry(0, 0) == Fr(big) ** 3
    assert c.entry(0, 1) == 3 * Fr(big) ** 2


@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_cached_amax_of_a_product_is_its_largest_numerator(seed, big):
    # the int64 path caches amax from its int64 product, the bigint path
    # from the object array; both must equal the recomputed max |entry|
    rng = np.random.default_rng(seed)
    a = rational_mat(rng, 3, 4)
    b = rational_mat(rng, 4, 2)
    if big:
        a = Mat(EXACT, a.num * 5 ** 30, a.den)._reduced()
    c = a @ b
    assert c._amax is not None
    assert c.amax() == max(abs(int(x)) for x in c.num.flat)
    assert (c.amax() >= 2 ** 62) == (big and not c.is_zero())


def test_zero_operand_times_bigint_is_zero():
    # the product bound is 0, but the partner does not fit in int64
    big = mat_from_scalars([[5 ** 30, 1], [2, 3]], EXACT)
    zero = Mat.zeros((2, 3), EXACT)
    for c in (big @ zero, transposed(zero) @ big):
        assert c.is_zero() and c.amax() == 0 and c.den == 1


def test_add_aligns_denominators():
    a = mat_from_scalars([[Fr(1, 2)]], EXACT)
    b = mat_from_scalars([[Fr(1, 3)]], EXACT)
    assert (a + b).entry(0, 0) == Fr(5, 6)
    assert (a - b).entry(0, 0) == Fr(1, 6)


def test_scale_and_kron():
    a = mat_from_scalars([[1, 2], [3, 4]], EXACT)
    assert a.scale(Fr(1, 2)).entry(1, 0) == Fr(3, 2)
    k = a.kron(Mat.identity(2, EXACT))
    assert k.shape == (4, 4)
    assert k.entry(2, 0) == 3


def test_lift_places_operator_on_legs():
    x = mat_from_scalars([[0, 1], [1, 0]], EXACT)
    dims = [2, 2, 2]
    full = lift(x, [1], dims)
    v = Mat.basis_vector(8, 0, EXACT)       # |000>
    w = full @ v
    assert w.entry(2, 0) == 1                # |010>
    # two-leg placement in swapped order
    cnotish = mat_from_scalars(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], EXACT)
    f01 = lift(cnotish, [0, 1], dims)
    f10 = lift(cnotish, [1, 0], dims)
    s = swap_matrix(2, 2)
    swapped = lift(s @ cnotish @ s, [0, 1], dims)
    assert residual(f10, swapped) == 0
    assert residual(f01, f10) != 0


def test_swap_mat():
    # the exchange oracle of the tests
    s = swap_matrix(2, 3)
    a = mat_from_scalars([[1], [2]], EXACT)
    b = mat_from_scalars([[5], [6], [7]], EXACT)
    assert residual(s @ a.kron(b), b.kron(a)) == 0


def test_float_backend_matmul():
    a = mat_from_scalars([[1 + 1j, 0], [0, 2]], FLOAT)
    c = a @ a
    assert abs(c.entry(0, 0) - (1 + 1j) ** 2) < 1e-15
    assert a.norm() == pytest.approx(np.sqrt(abs(1 + 1j) ** 2 + 4))


def test_rref_basis_exact_and_float():
    v1 = mat_from_scalars([[1], [0], [1]], EXACT)
    v2 = mat_from_scalars([[2], [0], [2]], EXACT)
    v3 = mat_from_scalars([[0], [1], [0]], EXACT)
    assert rref_basis([v1, v2, v3]) == [0, 2]
    f1 = mat_from_scalars([[1], [0]], FLOAT)
    f2 = mat_from_scalars([[1], [1e-12]], FLOAT)
    f3 = mat_from_scalars([[0], [1]], FLOAT)
    assert rref_basis([f1, f2, f3]) == [0, 2]


def test_hstack():
    a = mat_from_scalars([[Fr(1, 2)], [0]], EXACT)
    b = mat_from_scalars([[0], [Fr(1, 3)]], EXACT)
    h = hstack([a, b])
    assert h.shape == (2, 2)
    assert h.entry(0, 0) == Fr(1, 2)
    assert h.entry(1, 1) == Fr(1, 3)


def _draw_string(draw, rng, dims, big=False):
    """1-3 rational factors, each on a random ordered leg subset
    (non-adjacent and reversed ones included); `big` scales every
    numerator past the int64 bound (5**30 > 2**62 and shares no factor
    with the denominators)."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        legs = draw(st.permutations(range(len(dims))))
        legs = list(legs[:draw(st.integers(1, len(legs)))])
        size = prod(dims[i] for i in legs)
        op = rational_mat(rng, size, size)
        if big:
            op = Mat(EXACT, op.num * 5 ** 30, op.den)._reduced()
        out.append((op, legs))
    return out


@st.composite
def braid_cases(draw):
    """Random dims, three factor strings, and optionally a column block."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)
                .filter(lambda d: prod(d) <= 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    strings = [_draw_string(draw, rng, dims) for _ in range(3)]
    cols = None
    if draw(st.booleans()):
        cols = rational_mat(rng, prod(dims), draw(st.integers(1, 3)))
    return dims, strings, cols


@st.composite
def leg_cases(draw):
    """Random dims, one factor string, a column block, and whether the
    numerators are scaled past the int64 bound."""
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    big = draw(st.booleans())
    factors = _draw_string(draw, rng, dims, big)
    cols = rational_mat(rng, prod(dims), draw(st.integers(1, 3)))
    return dims, factors, cols, big


def _same_exact(a, b):
    return (a.den == b.den and a.shape == b.shape
            and all(int(x) == int(y) for x, y in zip(a.num.flat, b.num.flat)))


def _floated(factors):
    return [(Mat(FLOAT, op.to_complex()), legs) for op, legs in factors]


@given(leg_cases())
def test_apply_on_legs_matches_lift(case):
    dims, factors, cols, big = case
    got = apply_on_legs(factors, dims, cols)
    assert _same_exact(got, lifted_product(factors, dims) @ cols)
    if big:
        return
    fcols = Mat(FLOAT, cols.to_complex())
    got = apply_on_legs(_floated(factors), dims, fcols)
    want = lifted_product(_floated(factors), dims) @ fcols
    assert got.shape == want.shape and residual(got, want) <= 1e-12


def test_apply_on_legs_takes_the_bigint_path_exactly():
    # numerators past 2**62 force object-dtype products on both sides
    rng = np.random.default_rng(5)
    dims = [2, 3, 2]
    op = rational_mat(rng, 4, 4)
    op = Mat(EXACT, op.num * 2 ** 70 + 1, op.den)
    cols = rational_mat(rng, 12, 2)
    got = apply_on_legs([(op, [2, 0])], dims, cols)
    assert got.amax() >= 2 ** 63
    assert _same_exact(got, lift(op, [2, 0], dims) @ cols)


@given(braid_cases())
def test_braid_residual_matches_written_out_lift_products(case):
    dims, strings, cols = case
    for backend in (EXACT, FLOAT):
        if backend == FLOAT:
            strings = [_floated(s) for s in strings]
            if cols is not None:
                cols = Mat(FLOAT, cols.to_complex())
        a, b, c = (lifted_product(s, dims) for s in strings)
        lhs, rhs = a @ b @ c, c @ b @ a
        if cols is not None:
            lhs, rhs = lhs @ cols, rhs @ cols
        got = braid_residual(dims, *strings, cols=cols)
        if backend == EXACT:
            want = residual(lhs, rhs)
            assert (got.numerator, got.denominator) == (want.numerator,
                                                       want.denominator)
        else:
            # rounding grows with the entries of up to nine-factor products
            scale = max(1.0, lhs.max_abs(), rhs.max_abs())
            assert abs(got - residual(lhs, rhs)) <= 1e-12 * scale


def test_braid_residual_of_non_commuting_factors_is_nonzero():
    # A B C - C B A = [s, t] (x) 1 on two qubits, with [s, t] = diag(1, -1)
    s = [(mat_from_scalars([[0, 1], [0, 0]], EXACT), [0])]
    t = [(mat_from_scalars([[0, 0], [1, 0]], EXACT), [0])]
    one = [(Mat.identity(2, EXACT), [1])]
    assert braid_residual([2, 2], s, t, one) == 1
    assert braid_residual([2, 2], s, t, one,
                          cols=Mat.basis_vector(4, 2, EXACT)) == 1
    assert braid_residual([2, 2], s, s, one) == 0


def test_lift_is_referenced_only_by_linalg():
    # every package path applies operators leg by leg; the dense lift is
    # the tests' oracle, and the retired dense helpers are gone
    src = Path(betheforge.__file__).parent
    retired = {"hatted_matrix", "_reorder_chain", "swap_mat"}
    for path in sorted(src.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.alias)):
                names.add(node.name)
        if path.name != "linalg.py":
            assert "lift" not in names, path.name
        assert not names & retired, (path.name, names & retired)
