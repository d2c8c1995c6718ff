"""Algebraic Bethe ansatz for the gl(2) chain and the nested ansatz for
gl(3), with the dual-space machinery realized on concrete coordinate legs.

gl(2): states T^1_2(u_1)...T^1_2(u_N) omega, eigenvalue
lam1(x) F(u-bar, x) + lam2(x) F(x, u-bar), one Bethe family.

gl(3): the outer level applies T^a_3(v_j) (a = 1, 2); coefficients live in
(V*)^(x)M (x) W and are produced by the dressed 2x2 monodromy

    That(x; v) = Rhat_{0,1*}(x, v_1) ... Rhat_{0,M*}(x, v_M) T(+)_0(x),

which is the plus wing of the symplectic dressed monodromy with no minus
legs (`nested_sp4.hatted_factors` with `minus_roots=()`): the same
Rhat(+) dual-leg dressing and the same T^a_b (a, b = 1, 2) block.  Its
reduced vacuum is f^2 (x) ... (x) f^2 (x) omega with weights
mu1 = lam1/F(v-bar, x), mu2 = lam2.  The inner level is a plain gl(2)
ansatz in the dressed generators, creation operator That^1_2.
"""

from __future__ import annotations

from .chain import Chain
from .linalg import Mat, braid_residual, check_nonzero, residual
from .nested_sp4 import (hatted_block_apply, hatted_braid_factors, omega_hat,
                         pairing_matrix)
from .rmatrix import build_gl_r
from .scalars import F_left, F_right, RootSet, _residual_pair, _roots, g


# ---------------------------------------------------------------------
# gl(2)
# ---------------------------------------------------------------------


def gl2_vector(chain: Chain, roots):
    """T^1_2(u_1) ... T^1_2(u_N) omega."""
    roots = _roots(roots)
    vec = chain.vacuum().omega
    for u in reversed(roots.values):
        vec = chain.t(1, 2, u) @ vec
    return check_nonzero(vec, "gl2 Bethe vector")


def gl2_eigenvalue(chain: Chain, x, roots):
    roots = _roots(roots)
    return chain.lam(1, x) * F_left(roots, x) + chain.lam(2, x) * F_right(x, roots)


def gl2_residuals(chain: Chain, roots):
    """Per-root Bethe residuals, (raw, relative) pairs."""
    roots = _roots(roots)
    out = []
    for i, u in enumerate(roots):
        rest = roots.removing(i)
        lhs = chain.lam(1, u) * F_left(rest, u)
        rhs = chain.lam(2, u) * F_right(u, rest)
        out.append(_residual_pair(lhs, rhs))
    return out


def _ordered_creation(chain: Chain, values):
    """T^1_2(s_1) @ ... @ T^1_2(s_n) as one chain operator."""
    out = Mat.identity(chain.dim, chain.backend)
    for s in values:
        out = out @ chain.t(1, 2, s)
    return out


def gl2_exchange_residuals(chain: Chain, roots, x):
    """Both diagonal-entry exchange relations through the creation string.

    Returns max-abs residuals of the T^1_1 and T^2_2 identities as full
    operator equations on the chain space.
    """
    roots = _roots(roots)
    b = _ordered_creation(chain, roots.values)
    lhs1 = chain.t(1, 1, x) @ b
    rhs1 = (b @ chain.t(1, 1, x)).scale(F_left(roots, x))
    lhs2 = chain.t(2, 2, x) @ b
    rhs2 = (b @ chain.t(2, 2, x)).scale(F_right(x, roots))
    for i, u in enumerate(roots):
        rest = roots.removing(i)
        swapped = _ordered_creation(chain, rest.appending(x).values)
        rhs1 = rhs1 - (swapped @ chain.t(1, 1, u)).scale(g(u, x) * F_left(rest, u))
        rhs2 = rhs2 - (swapped @ chain.t(2, 2, u)).scale(g(x, u) * F_right(u, rest))
    return residual(lhs1, rhs1), residual(lhs2, rhs2)


# ---------------------------------------------------------------------
# gl(3): the plus-wing dressed monodromy on dual legs
# ---------------------------------------------------------------------


def _dressed_apply(chain: Chain, ab, x, vvec, vec):
    """That^a_b(x; v) applied to a vector on [duals, chain]."""
    return hatted_block_apply(chain, "+", ab, x, vvec, vec, minus_roots=())


def gl3_mu(chain: Chain, i, x, vvec):
    """Reduced vacuum weights mu1 = lam1/F(v-bar, x), mu2 = lam2."""
    if i == 1:
        return chain.lam(1, x) / F_left(RootSet(tuple(vvec)), x)
    return chain.lam(2, x)


def gl3_vacuum_relation_residuals(chain: Chain, vvec, x):
    """Annihilation and the two weight relations on the reduced vacuum."""
    om = omega_hat(chain, (1,) * len(vvec))
    r21 = _dressed_apply(chain, (2, 1), x, vvec, om).max_abs()
    r11 = (_dressed_apply(chain, (1, 1), x, vvec, om)
           - om.scale(gl3_mu(chain, 1, x, vvec))).max_abs()
    r22 = (_dressed_apply(chain, (2, 2), x, vvec, om)
           - om.scale(gl3_mu(chain, 2, x, vvec))).max_abs()
    return r21, r11, r22


def gl3_inner_state(chain: Chain, uroots, vvec):
    """Phi(u-bar; v) = That^1_2(u_1; v) ... That^1_2(u_N; v) OmegaHat."""
    uroots = _roots(uroots)
    phi = omega_hat(chain, (1,) * len(vvec))
    for u in reversed(uroots.values):
        phi = _dressed_apply(chain, (1, 2), u, vvec, phi)
    return phi


def gl3_vector(chain: Chain, uroots, vvec):
    """Full nested state <b(v), Phi(u-bar; v)>: the M dual legs contracted
    against T^a_3(v_j)."""
    phi = gl3_inner_state(chain, uroots, vvec)
    pairing = pairing_matrix(chain, list(enumerate(vvec)), lower=(3,))
    return check_nonzero(pairing @ phi, "gl3 Bethe vector")


def gl3_eigenvalue(chain: Chain, x, uroots, vroots):
    u, v = _roots(uroots), _roots(vroots)
    return (chain.lam(1, x) * F_left(u, x)
            + chain.lam(2, x) * F_right(x, u) * F_left(v, x)
            + chain.lam(3, x) * F_right(x, v))


def gl3_residuals(chain: Chain, uroots, vroots):
    """Both Bethe families, (raw, relative) pairs keyed "u" and "v"."""
    u, v = _roots(uroots), _roots(vroots)
    fam_u, fam_v = [], []
    for i, uk in enumerate(u):
        rest = u.removing(i)
        lhs = chain.lam(1, uk) * F_left(rest, uk)
        rhs = chain.lam(2, uk) * F_left(v, uk) * F_right(uk, rest)
        fam_u.append(_residual_pair(lhs, rhs))
    for r, vr in enumerate(v):
        rest = v.removing(r)
        lhs = chain.lam(3, vr) * F_right(vr, rest)
        rhs = chain.lam(2, vr) * F_left(rest, vr) * F_right(vr, u)
        fam_v.append(_residual_pair(lhs, rhs))
    return {"u": fam_u, "v": fam_v}


def gl3_hatted_rtt_residual(chain: Chain, vvec, x, y):
    """RTT residual of the dressed monodromies against the gl(2) R-matrix."""
    return braid_residual(
        [2, 2] + [2] * len(vvec) + [chain.dim],
        [(build_gl_r(2, x, y).mat, [0, 1])],
        hatted_braid_factors(chain, 0, "+", x, vvec, minus_roots=()),
        hatted_braid_factors(chain, 1, "+", y, vvec, minus_roots=()))
