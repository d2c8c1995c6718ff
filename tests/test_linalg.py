"""Exact/float matrix kernel: arithmetic, overflow fallback, the cached
largest numerator, int64 storage below 2**62 (each exact operation held to
a Fraction oracle at the boundary), leg embedding, the leg-by-leg apply of
factor strings, the three-operand braid residual, and that no package path
lifts or does arithmetic on numerator arrays."""

import ast
import random
from fractions import Fraction as Fr
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import betheforge
from betheforge import harness
from betheforge.chain import Chain, ChainSpec
from betheforge.linalg import _INT64_SAFE, EXACT, FLOAT, Mat, apply_on_legs, \
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
        a = a.scale(5 ** 30)
        assert a.is_zero() or a.num.dtype == object
    c = a @ b
    assert c._amax is not None
    assert c.amax() == max(abs(int(x)) for x in c.num.flat)
    assert (c.amax() >= 2 ** 62) == (big and not c.is_zero())
    assert (c.num.dtype == object) == (c.amax() >= 2 ** 62)


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
            op = op.scale(5 ** 30)
            assert op.is_zero() or op.num.dtype == object
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
    op = Mat(EXACT, op.num.astype(object) * 2 ** 70 + 1, op.den)
    assert op.num.dtype == object
    cols = rational_mat(rng, 12, 2)
    got = apply_on_legs([(op, [2, 0])], dims, cols)
    assert got.amax() >= 2 ** 63 and got.num.dtype == object
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


def _num_operand(node):
    """Whether `node` is a numerator array: `.num`, or an index, a slice
    or a method result of one (reads of its shape or dtype are not)."""
    while True:
        if isinstance(node, ast.Attribute):
            if node.attr == "num":
                return True
            if node.attr in ("shape", "dtype", "size", "ndim", "nbytes"):
                return False
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return False


def test_numerator_arithmetic_is_done_only_by_linalg():
    # int64 numerators wrap silently past 2**63, so only the kernel, which
    # bounds every result before it picks a dtype, may compute with them
    src = Path(betheforge.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp):
                operands = [node.left, node.right]
            elif isinstance(node, ast.AugAssign):
                operands = [node.target, node.value]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "sum"):
                operands = [a.elt if isinstance(a, ast.GeneratorExp) else a
                            for a in node.args]
            else:
                continue
            assert not any(map(_num_operand, operands)), \
                (path.name, node.lineno)


# -- int64 storage at the 2**62 boundary -----------------------------------

_NEAR = (2 ** 31, 2 ** 53, 2 ** 62)
_DENS = (1, 2, 3, 4, 6, 8, 9, 16)


def _storage_ok(m):
    """The storage rule, read off the entries: int64 exactly when every
    |numerator| is below 2**62, object from there up."""
    if m.num.dtype == np.int64:
        return not m.num.size or max(int(m.num.max()),
                                     -int(m.num.min())) < _INT64_SAFE
    return (m.num.dtype == object
            and max(abs(int(x)) for x in m.num.flat) >= _INT64_SAFE)


def _fracs(m):
    return np.array([Fr(int(x), m.den) for x in m.num.flat],
                    dtype=object).reshape(m.shape)


def _assert_exact(m, want):
    """`m` holds the Fraction array `want`, reduced, stored by the rule,
    with its cached amax the largest |numerator|."""
    assert m.shape == want.shape
    assert all(a == b for a, b in zip(_fracs(m).flat, want.flat))
    assert _storage_ok(m), (m.num.dtype, m.amax())
    nums = [abs(int(x)) for x in m.num.flat]
    assert m.amax() == max(nums, default=0)
    assert gcd(m.den, *nums) == 1


@st.composite
def boundary_mats(draw, rows, cols):
    """An exact rows x cols Mat over a small denominator whose numerators
    reach 1/4 to 2 times 2**31, 2**53 or 2**62, one of them at the top."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    top = draw(st.sampled_from(_NEAR)) * 2 ** draw(st.integers(0, 3)) // 4
    num = np.array([rng.randint(-top, top) for _ in range(rows * cols)],
                   dtype=object).reshape(rows, cols)
    num[0, 0] = rng.choice((top, -top))
    m = Mat(EXACT, num, draw(st.sampled_from(_DENS)))
    assert _storage_ok(m)
    return m


_scalars = st.builds(Fr, st.one_of(st.integers(-9, 9),
                                   st.sampled_from((3, 5, -7, 2 ** 31 + 1,
                                                    -(2 ** 53) + 1, 2 ** 62))),
                     st.sampled_from(_DENS))


def _frac_lift(op, legs, dims):
    """`op` (Fractions, on `legs`) embedded entry by entry in prod(dims),
    identity on the other legs."""
    states = list(np.ndindex(*dims))
    sub = [dims[i] for i in legs]
    out = np.full((len(states), len(states)), Fr(0), dtype=object)
    for r, s in enumerate(states):
        for c, t in enumerate(states):
            if all(s[i] == t[i] for i in range(len(dims)) if i not in legs):
                out[r, c] = op[np.ravel_multi_index([s[i] for i in legs], sub),
                               np.ravel_multi_index([t[i] for i in legs], sub)]
    return out


@settings(max_examples=60)
@given(a=boundary_mats(2, 3), b=boundary_mats(2, 3), c=boundary_mats(3, 2),
       op2=boundary_mats(2, 2), op4=boundary_mats(4, 4),
       cols=boundary_mats(4, 2), s=_scalars,
       g=st.sampled_from((2, 3, 2 ** 40 + 1)),
       legs=st.sampled_from(([0], [1], [1, 0], [0, 1])))
def test_exact_operations_are_exact_at_the_int64_boundary(a, b, c, op2, op4,
                                                          cols, s, g, legs):
    fa, fb, fc = _fracs(a), _fracs(b), _fracs(c)
    _assert_exact(a + b, fa + fb)
    _assert_exact(a - b, fa - fb)
    _assert_exact(a.scale(s), fa * s)
    _assert_exact(a.kron(c), np.kron(fa, fc))
    _assert_exact(a @ c, fa @ fc)
    _assert_exact(hstack([a, b, a.scale(s)]), np.hstack([fa, fb, fa * s]))
    op = op2 if len(legs) == 1 else op4
    _assert_exact(apply_on_legs([(op, legs)], [2, 2], cols),
                  _frac_lift(_fracs(op), legs, [2, 2]) @ _fracs(cols))
    unreduced = Mat(EXACT, a.num.astype(object) * g, a.den * g)
    _assert_exact(unreduced._reduced(), fa)


def _one(n, den=1):
    return Mat(EXACT, np.array([[n]], dtype=object), den)


def test_results_between_2_62_and_2_63_are_exact_and_bigint():
    # int64 holds these values, so a wrong bound would not raise: the
    # result would be stored as int64, or wrap past 2**63, silently
    h = 2 ** 61 + 1
    cases = [
        (_one(h) + _one(h + 2), Fr(2 * h + 2)),
        (_one(h) - _one(-h), Fr(2 * h)),
        # the lcm multiplier 8 carries a 2**59 numerator past 2**62
        (_one(2 ** 59 + 1) + _one(1, 8), Fr(2 ** 59 + 1) + Fr(1, 8)),
        (_one(h).scale(3), Fr(3 * h)),
        (_one(2 ** 31 + 1).kron(_one(2 ** 31 + 3)),
         Fr((2 ** 31 + 1) * (2 ** 31 + 3))),
        (Mat(EXACT, np.array([[h, h]], dtype=object)) @ Mat.identity(2, EXACT)
         @ Mat(EXACT, np.array([[1], [1]], dtype=object)), Fr(2 * h)),
        # over the common denominator 3, the first block reads 3h
        (hstack([_one(h), _one(1, 3)]), Fr(h)),
        (apply_on_legs([(Mat(EXACT, np.array([[h, 0], [0, 1]], dtype=object)),
                         [1])], [1, 2], Mat(EXACT, np.array([[3], [0]]))),
         Fr(3 * h)),
        (Mat(EXACT, np.array([[2 * (2 ** 62 + 1)]], dtype=object), 2)._reduced(),
         Fr(2 ** 62 + 1)),
    ]
    for m, want in cases:
        assert 2 ** 62 <= m.amax() < 2 ** 63 and m.num.dtype == object
        assert m.entry(0, 0) == want
    assert cases[6][0].entry(0, 1) == Fr(1, 3)
    # past 2**63 int64 would wrap: the multiplier 8 on 2**60, |p| = 5
    assert (_one(2 ** 60 + 1) + _one(1, 8)).entry(0, 0) == \
        Fr(2 ** 60 + 1) + Fr(1, 8)
    assert _one(h).scale(5).entry(0, 0) == 5 * h
    # and a reduction below the bound stores int64 again
    back = Mat(EXACT, np.array([[3 * 2 ** 63]], dtype=object), 2 ** 63)
    assert back._reduced().num.dtype == np.int64 and back.entry(0, 0) == 3


@settings(max_examples=20)
@given(model=st.sampled_from(("gl2", "gl3")), bits=st.integers(8, 26),
       seed=st.integers(0, 2 ** 32 - 1))
def test_transfer_is_exact_at_the_int64_boundary(model, bits, seed):
    # denominators of `bits` bits put the grid's numerators on either
    # side of 2**62 (about 3 bits of numerator per bit of denominator)
    rng = random.Random(seed)
    q = 2 ** bits + rng.randrange(1, 64)
    zs = (Fr(0), Fr(rng.randrange(1, q), q + 2))
    ch = Chain(ChainSpec(model, 2, zs))
    x = Fr(rng.randrange(1, q), q)
    grid = ch.monodromy(x)
    _assert_exact(ch.transfer(x),
                  sum(_fracs(Mat(EXACT, grid.num[a, a], grid.den))
                      for a in range(ch.d)))


def test_exact_mats_hold_int64_below_the_bound(monkeypatch):
    # every exact Mat that identity checks make, in its final form (after
    # construction and after reduction), holds int64 exactly below 2**62
    dtypes, init, reduced = [], Mat.__init__, Mat._reduced

    def check(m):
        if m.backend == EXACT:
            assert _storage_ok(m), (m.num.dtype, m.shape)
            dtypes.append(m.num.dtype)

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        check(self)

    def spy_reduced(self):
        check(reduced(self))
        return self

    monkeypatch.setattr(Mat, "__init__", spy_init)
    monkeypatch.setattr(Mat, "_reduced", spy_reduced)
    for case in ("ybe.sp4tilde", "rtt.gl3.L2", "sp4.b_exchange.N2",
                 "sp4.reduced_vacuum.N1", "commuting.sp4.L2"):
        assert harness.run_case(case, 1, EXACT).status == "pass"
    # denominators near 1e6 push the monodromy past the bound
    ch = Chain(ChainSpec("gl3", 3, (Fr(0), Fr(1, 1000003), Fr(2, 1000033))))
    ch.transfer(Fr(7, 999983))
    assert object in dtypes and np.int64 in dtypes
