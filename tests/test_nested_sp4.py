"""Symplectic nesting: block monodromies on W0, B-string pairing and
exchange, dressed monodromies and their RTT, reduced vacuum, second-level
ansatz, and the final eigenvector/eigenvalue pipeline."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from betheforge.chain import Chain, ChainSpec, aux_matrix, default_inhomogeneities
from betheforge.linalg import EXACT, Mat, ZeroVectorError, residual
from betheforge.nested_sp4 import (BLOCK_SECTORS, Sp4BetheConfig,
                                   b_reorder_residual,
                                   block_commutativity_residuals,
                                   block_rtt_residual,
                                   dressed_rtt_residual, hatted_apply,
                                   hatted_block_apply, mu_weight,
                                   multi_exchange_residual,
                                   offblock_annihilation_residual, omega_hat,
                                   pairing_matrix, prop_eigenvalue,
                                   reduced_vacuum_residuals,
                                   sp4_bethe_vector, tilde_creation_residuals,
                                   tilde_eigen_residuals,
                                   tilde_offshell_residuals,
                                   tilde_rtt_residual, tilde_state,
                                   w0_basis)
from betheforge.scalars import F_left, F_right, PoleError, RootSet
from conftest import block, fixed_roots, hatted_matrix, rational_mat


@pytest.fixture(scope="module")
def sp1():
    return Chain(ChainSpec("sp4", 1, (Fr(0),)))


@pytest.fixture(scope="module")
def sp2():
    return Chain(ChainSpec("sp4", 2, default_inhomogeneities(2)))


def _pts(rng, n, taken=(Fr(0), Fr(1, 2))):
    pool = list(taken)
    out = []
    while len(out) < n:
        c = Fr(int(rng.integers(-9, 10)), int(rng.choice([2, 3, 5])))
        if all(c - p not in (0, 1, -1, 2, -2, 3, -3) for p in pool):
            out.append(c)
            pool.append(c)
    return out


# -- block level -------------------------------------------------------


def test_w0_is_the_plus_sector(sp1, sp2):
    assert len(w0_basis(sp1)) == 2
    assert len(w0_basis(sp2)) == 4
    # every basis vector is supported on plus-valued local states
    for v in w0_basis(sp2):
        for idx, x in enumerate(v.num[:, 0]):
            if x != 0:
                assert idx // 4 in (2, 3) and idx % 4 in (2, 3)


def test_offblock_annihilation(sp1, sp2):
    rng = np.random.default_rng(31)
    for ch in (sp1, sp2):
        for _ in range(3):
            (x,) = _pts(rng, 1)
            assert offblock_annihilation_residual(ch, x) == 0


def test_block_rtt_on_w0(sp1, sp2):
    rng = np.random.default_rng(32)
    for ch in (sp1, sp2):
        x, y = _pts(rng, 2)
        for e1 in "+-":
            for e2 in "+-":
                assert block_rtt_residual(ch, e1, e2, x, y) == 0


def test_sector_rtt_and_commutativity(sp1, sp2):
    rng = np.random.default_rng(33)
    for ch in (sp1, sp2):
        x, y = _pts(rng, 2)
        assert tilde_rtt_residual(ch, x, y) == 0
    x, y = _pts(rng, 2)
    assert all(r == 0 for r in block_commutativity_residuals(sp1, x, y))


def test_block_monodromy_entries(sp2):
    x = Fr(17, 5)
    D = sp2.dim
    plus = aux_matrix(sp2, x, BLOCK_SECTORS["+"])
    assert residual(block(plus, 0, 1, D, D), sp2.t(1, 2, x)) == 0
    minus = aux_matrix(sp2, x, BLOCK_SECTORS["-"])
    assert residual(block(minus, 1, 0, D, D), sp2.t(-2, -1, x)) == 0


# -- B-string ----------------------------------------------------------


def test_single_root_pairing_and_distinct_roots(sp1):
    u = Fr(9, 4)
    D = sp1.dim
    p = pairing_matrix(sp1, [(0, u)])
    for n, (i, k) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
        assert residual(Mat(EXACT, p.num[:, n * D:(n + 1) * D], p.den),
                        sp1.t(i, -k, u)) == 0
    # pairing the reduced vacuum picks the (1,-1) entry
    paired = p @ omega_hat(sp1, (0, 0))
    direct = sp1.t(1, -1, u) @ sp1.vacuum().omega
    assert residual(paired, direct) == 0
    with pytest.raises(ValueError):
        Sp4BetheConfig((u, u), (), ())


def test_empty_pairing_is_identity(sp1):
    p = pairing_matrix(sp1, [])
    assert residual(p, Mat.identity(sp1.dim, EXACT)) == 0


def test_b_reorder_rule(sp1):
    rng = np.random.default_rng(34)
    x, y = _pts(rng, 2, taken=(Fr(0),))
    assert b_reorder_residual(sp1, x, y) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_b_exchange_identities(sp1, n):
    rng = np.random.default_rng(35 + n)
    pts = _pts(rng, n + 1, taken=(Fr(0),))
    for sign in "+-":
        assert multi_exchange_residual(sp1, sign, pts[-1],
                                       tuple(pts[:n])) == 0


def test_b_string_reorderings_act_on_two_sites(sp2, monkeypatch):
    # on one site both rules read 0 even with the R* and R(--) reorderings
    # replaced by the identity; on two sites they hold, and fail without them
    import betheforge.nested_sp4 as nested
    rng = np.random.default_rng(39)
    x, y, z = _pts(rng, 3)

    def residuals():
        return [b_reorder_residual(sp2, x, y),
                multi_exchange_residual(sp2, "+", z, (x, y))]

    assert residuals() == [0, 0]
    bare = type("Bare", (), {"mat": Mat.identity(4, EXACT)})()
    monkeypatch.setattr(nested, "build_dual_pp", lambda *a: bare)
    assert all(r != 0 for r in residuals())


# -- dressed level -------------------------------------------------------


def test_dressing_is_trivial_for_empty_roots(sp1):
    x = Fr(17, 5)
    for sign in "+-":
        assert residual(hatted_matrix(sp1, sign, x, ()),
                        aux_matrix(sp1, x, BLOCK_SECTORS[sign])) == 0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("coincident_slot", [None, 0])
@pytest.mark.parametrize("monic", [False, True])
def test_hatted_apply_is_the_dense_product(sp1, n, coincident_slot, monic):
    rng = np.random.default_rng(50 + n)
    *uvec, x = _pts(rng, n + 1, taken=(Fr(0),))
    vec = rational_mat(rng, 2 * 4 ** n * sp1.dim, 2)
    for sign in "+-":
        args = (sp1, sign, x, tuple(uvec))
        kw = dict(coincident_slot=coincident_slot, monic=monic)
        assert residual(hatted_apply(*args, vec, **kw),
                        hatted_matrix(*args, **kw) @ vec) == 0


# the exact registry rows whose checks multiplied dense lifts before every
# operator string went through apply_on_legs
_ONCE_LIFTED = ("ybe.*", "unitarity.*", "mixed_ybe", "dual_reorder",
                "rtt.*.L1", "gl3.dressed_rtt", "sp4.dressed_rtt.N1",
                "sp4.b_exchange.N1", "sp4.b_reorder")


def test_hatted_apply_path_builds_no_lift(sp1, monkeypatch):
    import sys
    from fnmatch import fnmatch

    from betheforge.harness import registry, run_case

    def no_lift(*args):
        raise AssertionError("dense lift on a package path")

    for name, mod in list(sys.modules.items()):
        if name.startswith("betheforge") and hasattr(mod, "lift"):
            monkeypatch.setattr(mod, "lift", no_lift)
    rng = np.random.default_rng(49)
    *uvec, x = _pts(rng, 3, taken=(Fr(0),))
    rs = reduced_vacuum_residuals(sp1, tuple(uvec), x)
    assert all(r == 0 for r in rs)
    om = omega_hat(sp1, (0,) * 4)
    v = hatted_block_apply(sp1, "-", (1, 1), x, tuple(uvec), om)
    assert residual(v, om.scale(mu_weight(sp1, -1, x, uvec))) == 0
    ids = [i for i in registry() if any(fnmatch(i, p) for p in _ONCE_LIFTED)]
    assert len(ids) == 17
    for ident in ids:
        case = run_case(ident, 7, EXACT)
        assert (case.status, case.residual) == ("pass", 0.0), ident


@pytest.mark.parametrize("n", [1, 2])
def test_dressed_rtt(sp1, n):
    rng = np.random.default_rng(37 + n)
    pts = _pts(rng, n + 2, taken=(Fr(0),))
    for e0 in "+-":
        for e0p in "+-":
            assert dressed_rtt_residual(sp1, e0, e0p, pts[-2], pts[-1],
                                        tuple(pts[:n])) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reduced_vacuum_relations(sp1, n):
    rng = np.random.default_rng(40 + n)
    for _ in range(2):
        pts = _pts(rng, n + 1, taken=(Fr(0),))
        rs = reduced_vacuum_residuals(sp1, tuple(pts[:n]), pts[-1])
        assert all(r == 0 for r in rs)


def test_reduced_vacuum_weights_formulas(sp1):
    uvec = (Fr(9, 4), Fr(31, 6))
    x = Fr(41, 8)
    u = RootSet(uvec)
    assert mu_weight(sp1, 2, x, uvec) * F_left(u, x) == sp1.lam(2, x)
    assert mu_weight(sp1, 1, x, uvec) == sp1.lam(1, x) * F_left(u, x - 1)
    assert mu_weight(sp1, -1, x, uvec) == sp1.lam(-1, x) * F_right(x + 1, u)
    assert mu_weight(sp1, -2, x, uvec) * F_right(x, u) == sp1.lam(-2, x)
    # trivial dressing reduces to the chain weights
    for i in (1, 2, -1, -2):
        assert mu_weight(sp1, i, x, ()) == sp1.lam(i, x)


# -- second level --------------------------------------------------------


def test_second_level_exchange_relations(sp1):
    rng = np.random.default_rng(50)
    pts = _pts(rng, 6, taken=(Fr(0),))
    rs = tilde_creation_residuals(sp1, (pts[0],), pts[1],
                                  (pts[2], pts[3]), (pts[4], pts[5]))
    assert all(r == 0 for r in rs)


@pytest.mark.parametrize("pq", [(1, 1), (2, 2)])
def test_second_level_offshell_action(request, pq):
    # on one site the (2, 2) second-level state vanishes identically, so
    # that case runs on two sites
    p, q = pq
    ch = request.getfixturevalue("sp2" if pq == (2, 2) else "sp1")
    rng = np.random.default_rng(51 + p + q)
    pts = _pts(rng, p + q + 2, taken=ch.spec.inhomogeneities)
    rs = tilde_offshell_residuals(ch, (pts[0],), pts[1],
                                  tuple(pts[2:2 + p]), tuple(pts[2 + p:]))
    assert all(r == 0 for r in rs)


def test_offshell_action_rejects_a_vanishing_state(sp1):
    # the one-site (2, 2) state is identically zero: no residual is read
    pts = _pts(np.random.default_rng(55), 6, taken=(Fr(0),))
    with pytest.raises(ZeroVectorError):
        tilde_offshell_residuals(sp1, (pts[0],), pts[1],
                                 (pts[2], pts[3]), (pts[4], pts[5]))


def test_second_level_state_symmetry(sp2):
    # exact invariance under permutations inside v-bar and inside w-bar
    u = (Fr(9, 4),)
    v1, v2 = Fr(-7, 3), Fr(41, 8)
    w1, w2 = Fr(19, 6), Fr(-13, 5)
    a = tilde_state(sp2, u, (v1, v2), (w1, w2))
    b = tilde_state(sp2, u, (v2, v1), (w2, w1))
    assert residual(a, b) == 0


# -- final pipeline -------------------------------------------------------


def _ansatz(chain, cfg):
    """The package's eigenvalue x -> E(x) and Bethe residuals at `cfg`."""
    return fixed_roots(chain, u=cfg.uvec, v=cfg.vbar, w=cfg.wbar)


def test_trivial_configuration(sp2):
    cfg = Sp4BetheConfig((), (), ())
    psi = sp4_bethe_vector(sp2, cfg)
    assert residual(psi, sp2.vacuum().omega) == 0
    x = Fr(13, 3)
    eigenvalue, res = _ansatz(sp2, cfg)
    assert eigenvalue(x) == sum(sp2.lam(i, x) for i in (-2, -1, 1, 2))
    assert res == {"u": [], "v": [], "w": []}


def test_single_outer_root_contracts_to_zero(sp1, sp2):
    # the (1,0,0) pairing hits T^1_{-1}(u) omega, which vanishes identically
    for ch in (sp1, sp2):
        with pytest.raises(ZeroVectorError):
            sp4_bethe_vector(ch, Sp4BetheConfig((Fr(9, 4),), (), ()))
    # while its condition is identically satisfied (equal edge weights)
    _, res = _ansatz(sp1, Sp4BetheConfig((Fr(9, 4),), (), ()))
    assert res["u"][0] == (0, 0)


def test_single_outer_root_eigenvalue_is_the_scalar_transfer(sp1):
    # on one site H(x) is scalar and the ansatz eigenvalue is root-free
    for u in (Fr(9, 4), Fr(-13, 5)):
        eigenvalue, _ = _ansatz(sp1, Sp4BetheConfig((u,), (), ()))
        for x in (Fr(13, 3), Fr(-9, 2)):
            assert sp1.transfer(x).entry(0, 0) == eigenvalue(x)


def test_plus_wing_exact_eigenvector(sp2):
    # lam1(v) = lam2(v) = 1 linearizes to v = -1/4 on the default chain
    cfg = Sp4BetheConfig((), (Fr(-1, 4),), ())
    eigenvalue, res = _ansatz(sp2, cfg)
    assert res["v"][0] == (0, 0)
    psi = sp4_bethe_vector(sp2, cfg)
    for x in (Fr(13, 3), Fr(-9, 2), Fr(7, 6)):
        e = eigenvalue(x)
        assert residual(sp2.transfer(x) @ psi, psi.scale(e)) == 0
    # second-level eigen relations hold for the same configuration
    assert all(r == 0 for r in tilde_eigen_residuals(sp2, cfg, Fr(13, 3)))


def test_minus_wing_exact_eigenvector(sp2):
    # lam-1(w) = lam-2(w) gives w = -9/4 on the default chain
    cfg = Sp4BetheConfig((), (), (Fr(-9, 4),))
    eigenvalue, res = _ansatz(sp2, cfg)
    assert res["w"][0] == (0, 0)
    psi = sp4_bethe_vector(sp2, cfg)
    for x in (Fr(13, 3), Fr(-9, 2)):
        e = eigenvalue(x)
        assert residual(sp2.transfer(x) @ psi, psi.scale(e)) == 0
    # the two wing descriptions produce the same physical state
    psi_v = sp4_bethe_vector(sp2, Sp4BetheConfig((), (Fr(-1, 4),), ()))
    a, b = psi.to_complex()[:, 0], psi_v.to_complex()[:, 0]
    overlap = abs(np.vdot(a, b)) / np.linalg.norm(a) / np.linalg.norm(b)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_wing_states_are_level_merge_consistent(sp2):
    cfg = Sp4BetheConfig((), (Fr(-1, 4),), ())
    x = Fr(13, 3)
    # with no outer roots the eigenvalue is the plain sum of the two halves
    e = prop_eigenvalue(sp2, "+", x, cfg) + prop_eigenvalue(sp2, "-", x, cfg)
    assert e == _ansatz(sp2, cfg)[0](x)


def test_bare_set_product_still_raises_on_collision():
    # the displayed conditions never evaluate F(u-bar, u_k) with u_k inside;
    # the building block itself must refuse the collision
    roots = RootSet((Fr(1), Fr(3)))
    with pytest.raises(PoleError):
        F_left(roots, Fr(3))


def test_collision_configuration_null_and_off_spectrum():
    # the (1,1,0) family forces u = v - 1; the paired state contracts to
    # float noise and is reported as a null vector
    ch = Chain(ChainSpec("sp4", 2, (0j, 0.5 + 0j), backend="float"))
    v = (-1 + 1j * np.sqrt(3)) / 4
    cfg = Sp4BetheConfig((v - 1,), (v,), ())
    _, res = _ansatz(ch, cfg)
    assert abs(res["u"][0][1]) < 1e-12 and abs(res["v"][0][1]) < 1e-12
    with pytest.raises(ZeroVectorError):
        sp4_bethe_vector(ch, cfg)


def test_singlet_configuration_full_pipeline():
    # honest three-family configuration on two sites (found by the solver,
    # frozen here): u = -5/4 with a (v, w) pair symmetric about it
    ch = Chain(ChainSpec("sp4", 2, (0j, 0.5 + 0j), backend="float"))
    u, v, w = -1.25 + 0j, -0.7704165 + 0j, -1.7295835 + 0j
    cfg = Sp4BetheConfig((u,), (v,), (w,))
    eigenvalue, res = _ansatz(ch, cfg)
    worst = max(abs(r) for fam in res.values() for _, r in fam)
    assert worst < 1e-6  # frozen digits; the solver refines further
    psi = sp4_bethe_vector(ch, cfg)
    x = 4.3 + 0j
    e = complex(eigenvalue(x))
    pv = psi.to_complex()[:, 0]
    hm = ch.transfer(x).to_complex()
    assert np.linalg.norm(hm @ pv - e * pv) / np.linalg.norm(pv) < 1e-5


def test_outer_root_permutation_behaviour_reported(sp2):
    # the ordered string makes no symmetry promise for the outer roots:
    # measured and reported, not asserted
    u1, u2 = Fr(9, 4), Fr(31, 6)
    vb, wb = (Fr(-7, 3),), (Fr(19, 6),)
    a = sp4_bethe_vector(sp2, Sp4BetheConfig((u1, u2), vb, wb))
    b = sp4_bethe_vector(sp2, Sp4BetheConfig((u2, u1), vb, wb))
    diff = residual(a, b)
    print(f"outer-root permutation residual (informational): {diff}")


def test_mu_weight_requires_known_index(sp1):
    with pytest.raises(ValueError):
        mu_weight(sp1, 3, Fr(1), ())
