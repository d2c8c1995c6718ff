"""R-matrix families: frozen entries, Yang-Baxter, unitarity, block
structure, dual-leg machinery, the auxiliary reordering identities, and the
structure-tensor builders held to their Kronecker-sum oracles."""

from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, strategies as st

from betheforge import rmatrix
from betheforge.linalg import EXACT, FLOAT, Mat, residual
from betheforge.rmatrix import (MINUS, PLUS, build_block_r,
                                build_dual_pp, build_gl_r, build_hatted_r,
                                build_sp4_r, build_tilde_r, check_unitarity,
                                check_ybe, coincident_block_r,
                                coincident_hatted_r,
                                dual_reorder_residuals, mixed_ybe_residual,
                                unit_E, unit_F)
from betheforge.scalars import PoleError, f, g, h, k
from conftest import (kron_sum_block_r, kron_sum_coincident_block_r,
                      kron_sum_coincident_hatted_r, kron_sum_dual_pp,
                      kron_sum_hatted_r, kron_sum_sp4_r, kron_sum_tilde_r,
                      mat_from_scalars, swap_matrix, transposed)


def _rand_points(rng, n, taken=()):
    pts = list(taken)
    out = []
    while len(out) < n:
        c = Fr(int(rng.integers(-9, 10)), int(rng.choice([1, 2, 3])))
        if all(c - p not in (0, 1, -1, 2, -2, 3, -3) for p in pts):
            out.append(c)
            pts.append(c)
    return out


def test_gl2_r_frozen_matrix():
    # at (x, y) = (5, 3): f = 3/2, g = 1/2; blocks [[2/3, 1/3], [1/3, 2/3]]
    r = build_gl_r(2, Fr(5), Fr(3))
    expect = [[1, 0, 0, 0],
              [0, Fr(2, 3), Fr(1, 3), 0],
              [0, Fr(1, 3), Fr(2, 3), 0],
              [0, 0, 0, 1]]
    assert residual(r.mat, mat_from_scalars(expect, EXACT)) == 0
    with pytest.raises(PoleError):
        build_gl_r(2, Fr(1), Fr(1))


def test_sp4_r_pair_coupling_entry():
    # slot order (-2,-1,1,2); the (1,-1) pair coupling at (5,1) carries
    # g/f + h/f = (1/4 + 1/7)/(5/4) = 11/35 (the h-part alone is 4/35)
    r = build_sp4_r(Fr(5), Fr(1))
    row = 1 * 4 + 2   # e_{-1} (x) e_{1}
    col = 2 * 4 + 1   # e_{1} (x) e_{-1}
    assert r.mat.entry(row, col) == Fr(11, 35)
    assert (g(Fr(5), Fr(1)) + h(Fr(5), Fr(1))) / f(Fr(5), Fr(1)) == Fr(11, 35)
    assert h(Fr(5), Fr(1)) / f(Fr(5), Fr(1)) == Fr(4, 35)
    with pytest.raises(PoleError):
        build_sp4_r(Fr(1), Fr(4))   # x - y = -3


def test_block_r_scalar_factors():
    # (+,-) carries k(5,3) = 1, (-,+) carries h(5,3) = 1/5
    rpm = build_block_r("+", "-", Fr(5), Fr(3)).mat
    assert rpm.entry(1 * 2 + 1, 0 * 2 + 0) == -1  # the -k(5,3) coefficient
    rmp = build_block_r("-", "+", Fr(5), Fr(3)).mat
    assert rmp.entry(1 * 2 + 1, 0 * 2 + 0) == Fr(-1, 5)
    with pytest.raises(PoleError):
        build_block_r("+", "+", Fr(2), Fr(2))
    with pytest.raises(PoleError):
        build_block_r("+", "-", Fr(4), Fr(3))  # k-pole at x - y = 1


def test_sp4_and_tilde_ybe_pinned_points():
    assert check_ybe("sp4", Fr(9), Fr(4), Fr(1)) == 0
    assert check_ybe("gl3", Fr(11), Fr(6), Fr(2)) == 0
    assert check_ybe("sp4tilde", Fr(8), Fr(5), Fr(1)) == 0
    # (8, 5) itself sits on the h-pole of R21(y, x); shift the second point
    assert check_unitarity("sp4tilde", Fr(8), Fr(5, 2)) == 0
    with pytest.raises(PoleError):
        check_unitarity("sp4tilde", Fr(8), Fr(5))
    assert check_unitarity("gl2", Fr(7), Fr(2)) == 0
    with pytest.raises(PoleError):
        check_ybe("sp4", Fr(4), Fr(4), Fr(1))
    with pytest.raises(PoleError):
        build_tilde_r(Fr(3), Fr(2))    # k-pole at x - y = 1


@pytest.mark.parametrize("kind", ["gl2", "gl3", "sp4", "sp4tilde"])
def test_ybe_and_unitarity_random(kind):
    rng = np.random.default_rng(hash(kind) % 2 ** 32)
    for _ in range(25):
        x, y, z = _rand_points(rng, 3)
        assert check_ybe(kind, x, y, z) == 0
        assert check_unitarity(kind, x, y) == 0


@pytest.mark.parametrize("kind", ["gl2", "gl3", "sp4", "sp4tilde"])
def test_ybe_float_agreement(kind):
    rng = np.random.default_rng(hash(kind) % 2 ** 31)
    for _ in range(5):
        x, y, z = [complex(p) for p in _rand_points(rng, 3)]
        assert float(check_ybe(kind, x, y, z)) <= 1e-12
        assert float(check_unitarity(kind, x, y)) <= 1e-12


def test_tilde_equals_block_embedding():
    from betheforge.rmatrix import SP4_SPACE
    x, y = Fr(17, 3), Fr(5, 2)
    big = build_tilde_r(x, y).mat
    spaces = {"+": PLUS, "-": MINUS}
    for e1 in "+-":
        for e2 in "+-":
            blk = build_block_r(e1, e2, x, y).mat
            sub = Mat.zeros((4, 4), EXACT)
            sub.den = big.den
            for a in range(2):
                for b in range(2):
                    for c in range(2):
                        for d in range(2):
                            row = SP4_SPACE.index(spaces[e1][a]) * 4 \
                                + SP4_SPACE.index(spaces[e2][b])
                            col = SP4_SPACE.index(spaces[e1][c]) * 4 \
                                + SP4_SPACE.index(spaces[e2][d])
                            sub.num[a * 2 + b, c * 2 + d] = big.num[row, col]
            sub._amax = None
            assert residual(sub, blk) == 0


def test_dual_leg_composition_rule():
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                for d in (1, 2):
                    lhs = unit_F(PLUS, a, b, EXACT) @ unit_F(PLUS, c, d, EXACT)
                    rhs = unit_F(PLUS, a, d, EXACT).scale(1 if b == c else 0)
                    assert residual(lhs, rhs) == 0


def test_dual_pairing_definition():
    # <E^a_b e_c, f^d> = <e_c, F^a_b f^d> as a matrix identity: F = E^T
    for a in (1, 2):
        for b in (1, 2):
            e = unit_E(PLUS, a, b, EXACT)
            fm = unit_F(PLUS, a, b, EXACT)
            assert residual(transposed(e), fm) == 0


def test_hatted_r_prefactor_example():
    # at (x, u) = (5, 3): f(3,5) = 1/2, so the "+" prefactor is 2
    m = build_hatted_r("+", Fr(5), Fr(3)).mat
    # identity part carries the prefactor on the (e1 f^1, e1 f^1) entry,
    # which also receives g(3,5) = -1/2 from the exchange term
    assert m.entry(0, 0) == 2 * (1 + Fr(-1, 2))
    assert m.entry(1, 1) == 2   # (e1 f^2, e1 f^2): identity part only
    with pytest.raises(PoleError):
        build_hatted_r("-", Fr(3), Fr(4))  # k(u, x) pole at u - x = 1
    with pytest.raises(PoleError):
        build_hatted_r("+", Fr(3), Fr(2))  # prefactor pole at u - x = -1


def test_monic_forms_regular_at_collisions():
    # monic "+" drops the diverging prefactor at u = x - 1
    m = build_hatted_r("+", Fr(3), Fr(2), monic=True).mat
    assert m.entry(1, 1) == 1
    # monic (+,-) equals (x-y-1) R^{(+,-)} and stays finite at the k-pole
    m = build_block_r("+", "-", Fr(4), Fr(3), monic=True).mat
    direct = Mat.identity(4, EXACT).scale(Fr(4) - Fr(3) - 1)
    for i in (1, 2):
        for kk in (1, 2):
            direct = direct + unit_E(PLUS, i, kk, EXACT).kron(
                unit_E(MINUS, -i, -kk, EXACT)).scale(-1)
    assert residual(m, direct) == 0
    # at a generic point the monic form is the scalar multiple
    x, y = Fr(7), Fr(3)
    gen = build_block_r("+", "-", x, y).mat.scale(x - y - 1)
    assert residual(build_block_r("+", "-", x, y, monic=True).mat, gen) == 0


def test_coincident_forms_match_explicit_sums():
    hp = coincident_hatted_r("+", EXACT).mat
    expect = Mat.zeros((4, 4), EXACT)
    for r in (1, 2):
        for s in (1, 2):
            expect = expect + unit_E(PLUS, r, s, EXACT).kron(
                unit_F(PLUS, s, r, EXACT))
    assert residual(hp, expect) == 0
    hm = coincident_hatted_r("-", EXACT).mat
    expect = Mat.identity(4, EXACT)
    for r in (1, 2):
        for s in (1, 2):
            expect = expect + unit_E(MINUS, -r, -s, EXACT).kron(
                unit_F(PLUS, r, s, EXACT))
    assert residual(hm, expect) == 0
    # same-sign coincident blocks are the exchange operators
    pp = coincident_block_r("+", "+", EXACT).mat
    assert residual(pp, swap_matrix(2, 2)) == 0
    # the coincident dual-dual matrix sum F^i_k (x) F^k_i is the exchange
    # operator and the equal-argument residue of R*: (x-y) f R* = (x-y) I + it
    dp = Mat.zeros((4, 4), EXACT)
    for i in (1, 2):
        for kk in (1, 2):
            dp = dp + unit_F(PLUS, i, kk, EXACT).kron(
                unit_F(PLUS, kk, i, EXACT))
    assert residual(dp, swap_matrix(2, 2)) == 0
    x, y = Fr(9, 2), Fr(5, 3)
    assert residual(build_dual_pp(x, y).mat.scale((x - y) * f(x, y)),
                    Mat.identity(4, EXACT).scale(x - y) + dp) == 0


def test_mixed_ybe_all_sign_pairs():
    rng = np.random.default_rng(77)
    for _ in range(5):
        x, y, z = _rand_points(rng, 3)
        for e1 in "+-":
            for e2 in "+-":
                assert mixed_ybe_residual(e1, e2, x, y, z) == 0


def test_dual_reorder_identities():
    rng = np.random.default_rng(78)
    for _ in range(5):
        u1, u2 = _rand_points(rng, 2)
        assert all(r == 0 for r in dual_reorder_residuals(u1, u2))


def test_dual_pp_is_dual_of_block_pp():
    # <R^{(+,+)}(e (x) e), f (x) f> = <e (x) e, (R*)^{(+,+)} (f (x) f)>
    x, y = Fr(9, 2), Fr(5, 3)
    rpp = build_block_r("+", "+", x, y).mat
    rs = build_dual_pp(x, y).mat
    assert residual(transposed(rpp), rs) == 0


# every structure-tensor builder with arguments (x, y), and its oracle
_SIGNS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
_TENSOR_BUILT = {
    "sp4": (build_sp4_r, kron_sum_sp4_r),
    "tilde": (build_tilde_r, kron_sum_tilde_r),
    "dual_pp": (build_dual_pp, kron_sum_dual_pp),
    **{f"block{e1}{e2}{'.monic' * monic}": (
        lambda x, y, e1=e1, e2=e2, monic=monic:
            build_block_r(e1, e2, x, y, monic),
        lambda x, y, e1=e1, e2=e2, monic=monic:
            kron_sum_block_r(e1, e2, x, y, monic))
       for e1, e2 in _SIGNS for monic in (False, True)},
    **{f"hatted{sign}{'.monic' * monic}": (
        lambda x, u, sign=sign, monic=monic: build_hatted_r(sign, x, u, monic),
        lambda x, u, sign=sign, monic=monic:
            kron_sum_hatted_r(sign, x, u, monic))
       for sign in "+-" for monic in (False, True)},
}
_COINCIDENT = {
    **{f"block{e1}{e2}": (lambda b, e1=e1, e2=e2: coincident_block_r(e1, e2, b),
                          lambda b, e1=e1, e2=e2:
                              kron_sum_coincident_block_r(e1, e2, b))
       for e1, e2 in _SIGNS},
    **{f"hatted{sign}": (lambda b, sign=sign: coincident_hatted_r(sign, b),
                         lambda b, sign=sign:
                             kron_sum_coincident_hatted_r(sign, b))
       for sign in "+-"},
}


def _literal(build, *args):
    """What a builder returns, written out so that equality is literal:
    exact num/den with its storage dtype, float bytes, or the PoleError."""
    try:
        m = build(*args)
    except PoleError as exc:
        return ("pole", str(exc))
    m = getattr(m, "mat", m)
    if m.backend == FLOAT:
        return (FLOAT, m.num.dtype, m.num.tobytes())
    return (EXACT, m.den, m.num.dtype, m.amax(), m.num.tolist())


@st.composite
def _point_pairs(draw):
    """(x, y) as rationals whose numerators reach 2^4 to 2^70, y - x often
    on a pole offset, and as complex points whose imaginary parts include
    +0.0 and -0.0."""
    bits = draw(st.sampled_from((4, 31, 62, 70)))

    def rational():
        return Fr(draw(st.integers(-2 ** bits, 2 ** bits)),
                  draw(st.integers(1, 2 ** min(bits, 40))))

    y = rational()
    if draw(st.booleans()):
        x = y + draw(st.sampled_from((0, 1, -1, 2, -2, 3, -3)))
    else:
        x = rational()
    imag = st.sampled_from((0.0, -0.0, 0.25, -1.5))
    fx = complex(complex(x).real, draw(imag))
    fy = complex(complex(y).real, draw(imag))
    return (x, y), (fx, fy)


@pytest.mark.parametrize("name", sorted(_TENSOR_BUILT))
@given(points=_point_pairs())
def test_tensor_builders_match_kron_sums(name, points):
    built, oracle = _TENSOR_BUILT[name]
    for x, y in points:
        assert _literal(built, x, y) == _literal(oracle, x, y), (name, x, y)


@pytest.mark.parametrize("name", sorted(_COINCIDENT))
@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_coincident_tensor_forms_match_kron_sums(name, backend):
    built, oracle = _COINCIDENT[name]
    assert _literal(built, backend) == _literal(oracle, backend)


def test_tensor_builders_make_no_kron_and_share_no_memory(monkeypatch):
    # results are marked read-only once cached (`Chain.site_r`); one that
    # shared memory with a module tensor would freeze or change it
    tensors = [v for obj in vars(rmatrix).values()
               for v in (obj.values() if isinstance(obj, dict) else (obj,))
               if isinstance(v, np.ndarray)]
    assert len(tensors) >= 10

    def no_kron(self, other):
        raise AssertionError("Mat.kron called")

    monkeypatch.setattr(Mat, "kron", no_kron)
    x, y = Fr(17, 3), Fr(5, 2)
    for px, py, backend in ((x, y, EXACT), (complex(x), complex(y), FLOAT)):
        mats = [build(px, py) for build, _ in _TENSOR_BUILT.values()]
        mats += [build(backend) for build, _ in _COINCIDENT.values()]
        for m in mats:
            assert m.mat.backend == backend
            for t in tensors:
                assert not np.shares_memory(m.mat.num, t)
    for t in tensors:
        assert t.dtype == np.int64
        with pytest.raises(ValueError):
            t[0, 0] = 7
