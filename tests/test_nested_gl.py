"""gl(2) ansatz and gl(3) nesting: exchange identities, reduced vacuum,
dressed RTT, null configurations, and exact eigenvectors at rational roots."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from betheforge.chain import (Chain, ChainSpec, aux_matrix,
                              default_inhomogeneities)
from betheforge.linalg import EXACT, Mat, ZeroVectorError, lift, residual
from betheforge.nested_gl import (gl2_exchange_residuals, gl2_vector,
                                  gl3_hatted_rtt_residual, gl3_inner_state,
                                  gl3_mu, gl3_vacuum_relation_residuals,
                                  gl3_vector)
from betheforge.nested_sp4 import omega_hat, pairing_matrix
from conftest import fixed_roots, hatted_matrix, rational_mat


@pytest.fixture(scope="module")
def gl2_chain():
    return Chain(ChainSpec("gl2", 2, default_inhomogeneities(2)))


@pytest.fixture(scope="module")
def gl3_chain():
    return Chain(ChainSpec("gl3", 2, default_inhomogeneities(2)))


def test_gl2_empty_configuration(gl2_chain):
    st = gl2_vector(gl2_chain, [])
    assert residual(st, gl2_chain.vacuum().omega) == 0
    x = Fr(3)
    eigenvalue, res = fixed_roots(gl2_chain)
    assert eigenvalue(x) == gl2_chain.lam(1, x) + gl2_chain.lam(2, x)
    assert res == {"u": []}


def test_gl2_creation_order_independence(gl2_chain):
    u1, u2 = Fr(9, 2), Fr(23, 3)
    assert residual(gl2_vector(gl2_chain, [u1, u2]),
                    gl2_vector(gl2_chain, [u2, u1])) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_gl2_exchange_identities(gl2_chain, n):
    rng = np.random.default_rng(21 + n)
    for _ in range(3):
        pts = _clear_points(rng, n + 1)
        r1, r2 = gl2_exchange_residuals(gl2_chain, pts[:n], pts[-1])
        assert r1 == 0 and r2 == 0


def _clear_points(rng, n, taken=(Fr(0), Fr(1, 2))):
    pts = list(taken)
    out = []
    while len(out) < n:
        c = Fr(int(rng.integers(-9, 10)), int(rng.choice([2, 3, 5])))
        if all(c - p not in (0, 1, -1, 2, -2, 3, -3) for p in pts):
            out.append(c)
            pts.append(c)
    return out


def test_gl2_exact_root_gives_exact_eigenvector(gl2_chain):
    # lam1(u) = lam2(u) linearizes to u = (z1 + z2 - 1)/2 = -1/4 here
    u = Fr(-1, 4)
    eigenvalue, res = fixed_roots(gl2_chain, u=[u])
    (raw, rel), = res["u"]
    assert raw == 0 and rel == 0
    psi = gl2_vector(gl2_chain, [u])
    for x in (Fr(3), Fr(17, 4), Fr(-7, 3)):
        e = eigenvalue(x)
        assert residual(gl2_chain.transfer(x) @ psi, psi.scale(e)) == 0


def test_gl3_reduced_vacuum_relations(gl3_chain):
    rng = np.random.default_rng(4)
    for _ in range(3):
        pts = _clear_points(rng, 3)
        r21, r11, r22 = gl3_vacuum_relation_residuals(gl3_chain, pts[:2],
                                                      pts[2])
        assert r21 == 0 and r11 == 0 and r22 == 0
    x, v = Fr(19, 4), Fr(7, 3)
    from betheforge.scalars import f as sf
    assert gl3_mu(gl3_chain, 1, x, (v,)) == gl3_chain.lam(1, x) / sf(v, x)
    assert gl3_mu(gl3_chain, 2, x, (v,)) == gl3_chain.lam(2, x)


@pytest.mark.parametrize("M", [0, 1, 2])
def test_gl3_dressed_monodromy_is_the_plus_wing(gl3_chain, M):
    # That(x; v) = Rhat(+)(x, v_1) ... Rhat(+)(x, v_M) T(+)(x), written out
    from betheforge.rmatrix import build_hatted_r
    rng = np.random.default_rng(20 + M)
    *vvec, x, u = _clear_points(rng, M + 2)
    dims = [2] + [2] * M + [gl3_chain.dim]

    def written_out(z):
        out = lift(aux_matrix(gl3_chain, z, ((1, 2),)), [0, M + 1], dims)
        for j in reversed(range(M)):
            out = lift(build_hatted_r("+", z, vvec[j]).mat, [0, j + 1],
                       dims) @ out
        return out

    got = hatted_matrix(gl3_chain, "+", x, tuple(vvec), minus_roots=())
    assert residual(got, written_out(x)) == 0
    # the inner gl(3) state is That^1_2(u; v) on the reduced vacuum
    n = (2 ** M) * gl3_chain.dim
    that = written_out(u)
    t12 = Mat(EXACT, that.num[:n, n:], that.den)
    phi = gl3_inner_state(gl3_chain, [u], tuple(vvec))
    assert residual(phi, t12 @ omega_hat(gl3_chain, (1,) * M)) == 0


@pytest.mark.parametrize("M", [1, 2])
def test_gl3_hatted_apply_is_the_dense_product(gl3_chain, M):
    from betheforge.nested_sp4 import hatted_apply
    rng = np.random.default_rng(30 + M)
    *vvec, x = _clear_points(rng, M + 1)
    vec = rational_mat(rng, 2 * 2 ** M * gl3_chain.dim, 2)
    args = (gl3_chain, "+", x, tuple(vvec))
    assert residual(hatted_apply(*args, vec, minus_roots=()),
                    hatted_matrix(*args, minus_roots=()) @ vec) == 0


def test_gl3_dressed_rtt():
    ch = Chain(ChainSpec("gl3", 1, (Fr(0),)))
    assert gl3_hatted_rtt_residual(ch, (Fr(7, 3),), Fr(19, 4), Fr(3, 2)) == 0
    assert gl3_hatted_rtt_residual(ch, (Fr(7, 3), Fr(-5, 2)),
                                   Fr(19, 4), Fr(3, 2)) == 0


def test_gl3_trivial_and_null_configurations(gl3_chain):
    # empty configuration: the state is the vacuum itself
    st = gl3_vector(gl3_chain, [], [])
    assert residual(st, gl3_chain.vacuum().omega) == 0
    x = Fr(3)
    vac_e = fixed_roots(gl3_chain)[0](x)
    assert vac_e == sum(gl3_chain.lam(i, x) for i in (1, 2, 3))
    # one outer root with no inner roots pairs onto the vanishing entry
    with pytest.raises(ZeroVectorError):
        gl3_vector(gl3_chain, [], [Fr(7, 3)])
    # its condition holds identically and its eigenvalue collapses to the
    # vacuum one (f(v,x) + f(x,v) = 2 with equal middle weights)
    eigenvalue, res = fixed_roots(gl3_chain, v=[Fr(7, 3)])
    assert res["v"][0][0] == 0
    assert eigenvalue(x) == vac_e


def test_gl3_inner_state_structure(gl3_chain):
    # the dressed creation seeds one gl2-block magnon on the f^2 leg and an
    # exchange term proportional to the vacuum on the f^1 leg:
    # Phi = (1/f(v,u)) f^2 (x) T^1_2(u) w + (g(v,u)/f(v,u)) lam2(u) f^1 (x) w
    u, v = Fr(-9, 4), Fr(7, 3)
    phi = gl3_inner_state(gl3_chain, [u], (v,))
    from betheforge.scalars import f as sf, g as sg
    from betheforge.linalg import Mat
    D = gl3_chain.dim
    omega = gl3_chain.vacuum().omega
    magnon = gl3_chain.t(1, 2, u) @ omega
    f1 = Mat(EXACT, phi.num[:D, :].copy(), phi.den)
    f2 = Mat(EXACT, phi.num[D:, :].copy(), phi.den)
    assert residual(f2, magnon.scale(1 / sf(v, u))) == 0
    coeff = sg(v, u) / sf(v, u) * gl3_chain.lam(2, u)
    assert residual(f1, omega.scale(coeff)) == 0


def test_gl3_exact_inner_eigenvector(gl3_chain):
    # M = 0 reduces to the gl2-block ansatz inside gl3
    u = Fr(-1, 4)
    eigenvalue, res = fixed_roots(gl3_chain, u=[u])
    assert res["u"][0][0] == 0
    psi = gl3_vector(gl3_chain, [u], [])
    for x in (Fr(3), Fr(17, 4)):
        e = eigenvalue(x)
        assert residual(gl3_chain.transfer(x) @ psi, psi.scale(e)) == 0


def test_gl3_pairing_contracts_components(gl3_chain):
    # pairing must apply T^{a}_3(v) against the matching dual component
    v = Fr(7, 3)
    om = omega_hat(gl3_chain, (1,))
    paired = pairing_matrix(gl3_chain, [(0, v)], lower=(3,)) @ om
    direct = gl3_chain.t(2, 3, v) @ gl3_chain.vacuum().omega
    assert residual(paired, direct) == 0
