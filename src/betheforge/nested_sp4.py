"""Nested Bethe ansatz for the symplectic rank-two chain.

The 4x4 monodromy splits into two 2x2 sign-block monodromies T(+), T(-)
which satisfy block RTT relations on the subspace W0 (the part of the
module generated by the two block subalgebras).  Eigenvectors are sought
through the B-operator string

    B(u) = sum e_i (x) f^{-k} (x) T^i_{-k}(u),

whose coefficients live in Vhat = (V+*)^(x)N (x) (V-)^(x)N (x) W0.  Acting
with T(+-) through the string produces the dressed monodromies

    That(eps)(x; u) = Rhat(eps,+)(x,u_1)...Rhat(eps,+)(x,u_N) T(eps)(x)
                      R(eps,-)(x,u_N)...R(eps,-)(x,u_1)

which realize a two-sector auxiliary RTT algebra on Vhat.  The minus-leg
roots are passed as data: the plus wing with no minus legs is the gl(3)
nesting's dressed monodromy, which `nested_gl` builds through the same
functions.  The reduced vacuum is f^1...f^1 (x) e_{-1}...e_{-1} (x) omega,
with weights

    mu_1  = lam_1(x) F(u-bar, x-1)      mu_2  = lam_2(x)/F(u-bar, x)
    mu_-1 = lam_-1(x) F(x+1, u-bar)     mu_-2 = lam_-2(x)/F(x, u-bar).

The second-level states are That^2_1(v-bar) That^{-1}_{-2}(w-bar) OmegaHat;
pairing them back through B gives the final eigenvectors.  Their eigenvalue
and three root-family conditions, with pole-safe double-step products where
one root set enters at two arguments a unit apart, are a term table in
`bethe_solver.MODELS`.

Equal-argument dressing factors are always taken from their explicit
summed specializations, never from the generic formulas at the pole.
State construction uses "monic" dressing (each prefactored R multiplied
by its scalar f), which rescales states but keeps them finite at the
collision points the middle-family condition forces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .chain import Chain, aux_matrix
from .linalg import (EXACT, Mat, ZeroVectorError, apply_on_legs,
                     braid_residual, check_nonzero, hstack, residual,
                     rref_basis)
from .rmatrix import (MINUS, PLUS, build_block_r, build_dual_pp, build_hatted_r,
                      build_tilde_r, coincident_block_r, coincident_hatted_r)
from .scalars import F_left, F_right, RootSet, _roots, g


# ---------------------------------------------------------------------
# block monodromies and W0
# ---------------------------------------------------------------------


# auxiliary-leg index groups of T(+), T(-) (entry (i, k) of the minus grid
# is T^{-i}_{-k}; both use slots (i-1, k-1)) and of their direct sum, whose
# leg keeps the SP4_SPACE slot order of the two-sector R-matrix
BLOCK_SECTORS = {"+": (PLUS,), "-": (MINUS,)}
TILDE_SECTORS = ((-2, -1), (1, 2))


def w0_basis(chain: Chain):
    """Exact basis of W0: closure of omega under T(-) then T(+) generators."""
    if getattr(chain, "_w0_cache", None) is not None:
        return chain._w0_cache
    pts = chain._scan_points(2)
    basis = [chain.vacuum().omega]

    def close_under(signs):
        nonlocal basis
        while True:
            cand = list(basis)
            for v in basis:
                for sgn in signs:
                    for i in (1, 2):
                        for k in (1, 2):
                            for p in pts:
                                w = chain.t(sgn * i, sgn * k, p) @ v
                                if not w.is_zero():
                                    cand.append(w)
            keep = rref_basis(cand)
            new_basis = [cand[i] for i in keep]
            if len(new_basis) == len(basis):
                return
            basis = new_basis

    close_under((-1,))
    close_under(( 1,))
    chain._w0_cache = basis
    return basis


def w0_columns(chain: Chain) -> Mat:
    return hstack(w0_basis(chain))


def offblock_annihilation_residual(chain: Chain, x):
    """max over i,k of |T^{-i}_k(x) w| on a spanning set of W0."""
    cols = w0_columns(chain)
    worst = None
    for i in (1, 2):
        for k in (1, 2):
            r = (chain.t(-i, k, x) @ cols).max_abs()
            worst = r if worst is None else max(worst, r)
    return worst


def block_rtt_residual(chain: Chain, eps1, eps2, x, y):
    """Block RTT relation residual, restricted to W0."""
    return braid_residual(
        [2, 2, chain.dim], [(build_block_r(eps1, eps2, x, y).mat, [0, 1])],
        [(aux_matrix(chain, x, BLOCK_SECTORS[eps1]), [0, 2])],
        [(aux_matrix(chain, y, BLOCK_SECTORS[eps2]), [1, 2])],
        Mat.identity(4, chain.backend).kron(w0_columns(chain)))


def tilde_rtt_residual(chain: Chain, x, y):
    """RTT of T(+) + T(-) against the two-sector 16x16 R-matrix, on W0."""
    return braid_residual(
        [4, 4, chain.dim], [(build_tilde_r(x, y).mat, [0, 1])],
        [(aux_matrix(chain, x, TILDE_SECTORS), [0, 2])],
        [(aux_matrix(chain, y, TILDE_SECTORS), [1, 2])],
        Mat.identity(16, chain.backend).kron(w0_columns(chain)))


def block_commutativity_residuals(chain: Chain, x, y):
    """Same-entry commutativity, opposite-corner commutativity (i != k),
    and the three block-trace commutators, all on W0."""
    cols = w0_columns(chain)
    out = []
    for sgn in (1, -1):
        for i in (1, 2):
            for k in (1, 2):
                a = chain.t(sgn * i, sgn * k, x)
                b = chain.t(sgn * i, sgn * k, y)
                out.append(((a @ b - b @ a) @ cols).max_abs())
    for i in (1, 2):
        for k in (1, 2):
            if i == k:
                continue
            a = chain.t(i, k, x)
            b = chain.t(-k, -i, y)
            out.append(((a @ b - b @ a) @ cols).max_abs())
    hp = lambda z: chain.t(1, 1, z) + chain.t(2, 2, z)
    hm = lambda z: chain.t(-1, -1, z) + chain.t(-2, -2, z)
    for a, b in ((hp(x), hp(y)), (hm(x), hm(y)), (hp(x), hm(y))):
        out.append(((a @ b - b @ a) @ cols).max_abs())
    return out


# ---------------------------------------------------------------------
# B-operator pairing
# ---------------------------------------------------------------------


def pairing_matrix(chain: Chain, args, lower=MINUS, n_aux=0) -> Mat:
    """Contraction against the ordered B-string, as an explicit matrix.

    `args` is the ordered list of (slot, value) pairs; slot j populates the
    j-th plus-dual leg and, for each value in `lower`, a coordinate of the
    j-th lower-index leg, while the operator factors multiply in list
    order.  Maps [aux^n (x) duals (x) lower legs (x) W] -> [aux^n (x) W];
    its column blocks are the products of T^{i_j}_{k_j}(value), one block
    per pair of multi-indices (i, k) in lexicographic order, i over (1, 2)
    and k over `lower`.  The symplectic B-string has lower = (-1, -2);
    the gl(3) one has lower = (3,), a one-dimensional leg, i.e. none.
    """
    N = len(args)
    ops = []
    for ii in product((1, 2), repeat=N):
        for kk in product(lower, repeat=N):
            op = Mat.identity(chain.dim, chain.backend)
            for slot, val in args:
                op = op @ chain.t(ii[slot], kk[slot], val)
            ops.append(op)
    p = hstack(ops)
    if n_aux:
        return Mat.identity(2 ** n_aux, chain.backend).kron(p)
    return p


def b_reorder_residual(chain: Chain, x, y):
    """Two-root exchange through the B-string:

    <B_1(x) B_2(y), .> = <B_2(y) B_1(x), (R*)_{2+,1+}(y,x) R(--)_{1-,2-}(x,y) .>.
    """
    dims = [2, 2, 2, 2, chain.dim]  # dual1, dual2, minus1, minus2, W
    lhs = pairing_matrix(chain, [(0, x), (1, y)])
    rhs = pairing_matrix(chain, [(1, y), (0, x)])
    reorder = apply_on_legs([(build_dual_pp(y, x).mat, [1, 0]),
                             (build_block_r("-", "-", x, y).mat, [2, 3])],
                            dims, Mat.identity(prod(dims), chain.backend))
    return residual(lhs, rhs @ reorder)


# ---------------------------------------------------------------------
# dressed monodromies
# ---------------------------------------------------------------------


def _hat_dims(chain: Chain, n_legs):
    return [2] + [2] * n_legs + [chain.dim]


def hatted_factors(chain: Chain, sign, x, uvec, coincident_slot=None,
                   monic=False, minus_roots=None):
    """Left-to-right factors of That(sign)(x; u) on [aux, duals, minuses, W].

    Returns `(factors, dims)`: `factors` is the list of (Mat, legs) pairs,
    each a two-leg operator (the auxiliary leg and one dressing leg, or the
    auxiliary leg and W), and `dims` the leg dimensions of Vhat with the
    auxiliary leg in front.  The dual legs carry the roots `uvec` and the
    minus legs `minus_roots`, which default to `uvec` as in the B-string.
    The gl(3) nesting passes no minus roots: its dressed monodromy is the
    plus wing on dual legs only.
    """
    minus = tuple(uvec) if minus_roots is None else tuple(minus_roots)
    N, n_minus = len(uvec), len(minus)
    dims = _hat_dims(chain, N + n_minus)
    backend = chain.backend
    facs = []
    for j in range(N):
        if coincident_slot is not None and j == coincident_slot:
            m = coincident_hatted_r(sign, backend).mat
        else:
            m = build_hatted_r(sign, x, uvec[j], monic=monic).mat
        facs.append((m, [0, 1 + j]))
    facs.append((aux_matrix(chain, x, BLOCK_SECTORS[sign]),
                 [0, 1 + N + n_minus]))
    for j in reversed(range(n_minus)):
        if coincident_slot is not None and j == coincident_slot:
            m = coincident_block_r(sign, "-", backend).mat
        else:
            m = build_block_r(sign, "-", x, minus[j], monic=monic).mat
        facs.append((m, [0, 1 + N + j]))
    return facs, dims


def hatted_braid_factors(chain: Chain, aux, sign, x, uvec, minus_roots=None):
    """The factors of That(sign)(x; u) for a braid on [aux 0, aux 1, duals,
    minuses, W]: the auxiliary leg goes to `aux`, the Vhat legs shift by
    one."""
    facs, _ = hatted_factors(chain, sign, x, uvec, minus_roots=minus_roots)
    return [(op, [aux if leg == 0 else leg + 1 for leg in legs])
            for op, legs in facs]


def hatted_apply(chain: Chain, sign, x, uvec, vec, coincident_slot=None,
                 monic=False, minus_roots=None) -> Mat:
    """Apply That(sign)(x; u) to a vector carrying the auxiliary leg, one
    factor at a time, right to left."""
    facs, dims = hatted_factors(chain, sign, x, uvec, coincident_slot, monic,
                                minus_roots)
    return apply_on_legs(facs, dims, vec)


def hatted_block_apply(chain: Chain, sign, ik, x, uvec, vec,
                       coincident_slot=None, monic=False,
                       minus_roots=None) -> Mat:
    """Apply the grid entry That^{si}_{sk} to a vector on [duals, minuses, W].

    For sign "+" the entry is That^i_k, for sign "-" it is That^{-i}_{-k};
    both live at auxiliary slots (i-1, k-1).
    """
    i, k = ik
    aux = Mat.basis_vector(2, k - 1, chain.backend)
    big = aux.kron(vec)
    big = hatted_apply(chain, sign, x, uvec, big, coincident_slot, monic,
                       minus_roots)
    n = vec.shape[0]
    return Mat(chain.backend, big.num[(i - 1) * n:i * n, :].copy(), big.den)


# ---------------------------------------------------------------------
# reduced vacuum
# ---------------------------------------------------------------------


def omega_hat(chain: Chain, slots) -> Mat:
    """The reduced vacuum: the basis (co)vector at each slot in `slots` on
    the dressing legs, then omega.  The symplectic one is f^1 ... f^1 (x)
    e_{-1} ... e_{-1} (x) omega (all slots 0), the gl(3) one f^2 ... f^2
    (x) omega (all slots 1)."""
    out = chain.vacuum().omega
    for slot in reversed(slots):
        out = Mat.basis_vector(2, slot, chain.backend).kron(out)
    return out


def mu_weight(chain: Chain, i, x, uroots):
    """Reduced-vacuum weights of the dressed two-sector algebra."""
    u = _roots(uroots)
    if i == 1:
        return chain.lam(1, x) * F_left(u, x - 1)
    if i == 2:
        return chain.lam(2, x) / F_left(u, x)
    if i == -1:
        return chain.lam(-1, x) * F_right(x + 1, u)
    if i == -2:
        return chain.lam(-2, x) / F_right(x, u)
    raise ValueError(f"no weight index {i}")


def reduced_vacuum_residuals(chain: Chain, uvec, x):
    """All six reduced-vacuum relations at the point x."""
    vals = tuple(uvec)
    om = omega_hat(chain, (0,) * 2 * len(vals))
    out = []
    out.append(hatted_block_apply(chain, "+", (1, 2), x, vals, om).max_abs())
    out.append(hatted_block_apply(chain, "-", (2, 1), x, vals, om).max_abs())
    for sign, ik, w in (("+", (1, 1), 1), ("+", (2, 2), 2),
                        ("-", (1, 1), -1), ("-", (2, 2), -2)):
        v = hatted_block_apply(chain, sign, ik, x, vals, om)
        out.append((v - om.scale(mu_weight(chain, w, x, vals))).max_abs())
    return out


# ---------------------------------------------------------------------
# single and multi-root exchange through the B-string
# ---------------------------------------------------------------------


def multi_exchange_residual(chain: Chain, sign, x, uvec):
    """Residual of the exchange of T(sign)(x) through B_1..N(u), as one
    matrix identity over all insertions (the N = 1 case is the single-root
    relation)."""
    vals = tuple(uvec)
    N = len(vals)
    u = RootSet(vals)
    dims = _hat_dims(chain, 2 * N)
    one = Mat.identity(prod(dims), chain.backend)
    std_args = [(j, vals[j]) for j in range(N)]
    p_std = pairing_matrix(chain, std_args, n_aux=1)
    lhs = aux_matrix(chain, x, BLOCK_SECTORS[sign]) @ p_std
    coeff = F_left(u, x) if sign == "+" else F_right(x, u)
    rhs = (p_std @ hatted_apply(chain, sign, x, vals, one)).scale(coeff)
    for k in range(N):
        rest = u.removing(k)
        if sign == "+":
            c = g(vals[k], x) * F_left(rest, vals[k])
        else:
            c = g(x, vals[k]) * F_right(vals[k], rest)
        args_k = [(k, x)] + [(j, vals[j]) for j in range(N) if j != k]
        p_k = pairing_matrix(chain, args_k, n_aux=1)
        # (R*)(u_k,u_1)...(R*)(u_k,u_{k-1}) R(--)(u_1,u_k)...R(--)(u_{k-1},u_k)
        reorder = ([(build_dual_pp(vals[k], vals[j]).mat, [1 + k, 1 + j])
                    for j in range(k)]
                   + [(build_block_r("-", "-", vals[j], vals[k]).mat,
                       [1 + N + j, 1 + N + k]) for j in range(k)])
        chain_op = apply_on_legs(reorder, dims, hatted_apply(
            chain, sign, vals[k], vals, one, coincident_slot=k))
        rhs = rhs - (p_k @ chain_op).scale(c)
    return residual(lhs, rhs)


# ---------------------------------------------------------------------
# dressed RTT
# ---------------------------------------------------------------------


def w0hat_columns(chain: Chain, N) -> Mat:
    """Spanning columns of Vhat: full dual/minus legs (x) W0 basis."""
    return Mat.identity(4 ** N, chain.backend).kron(w0_columns(chain))


def dressed_rtt_residual(chain: Chain, eps0, eps0p, x, y, uvec):
    """RTT of the dressed monodromies against the sign-block R, on Vhat."""
    vals = tuple(uvec)
    N = len(vals)
    return braid_residual(
        [2, 2] + [2] * (2 * N) + [chain.dim],
        [(build_block_r(eps0, eps0p, x, y).mat, [0, 1])],
        hatted_braid_factors(chain, 0, eps0, x, vals),
        hatted_braid_factors(chain, 1, eps0p, y, vals),
        Mat.identity(4, chain.backend).kron(w0hat_columns(chain, N)))


# ---------------------------------------------------------------------
# second-level (tilde) ansatz
# ---------------------------------------------------------------------


# creation entries of the two second-level strings, and the string that
# belongs to each sector
_CREATION = {"v": ("+", (2, 1)), "w": ("-", (1, 2))}
_STRING_OF = {"+": "v", "-": "w"}

# The diagonal dressed entries (sign, i), i.e. That^i_i resp.
# That^{-i}_{-i}: weight index, whether their structure functions read
# f(x, .) ("right") or f(., x) ("left"), and the shift of x in the v-bar and
# w-bar factors of their second-level eigenvalue.  Entries (+, i) and
# (-, 3-i) are partners: they share a side, and exchanging either through
# the other sector's string brings in the partner at the exchanged root.
_DIAGONAL = {
    ("+", 1): (1, "right", {"v": 0, "w": -2}),
    ("+", 2): (2, "left", {"v": 0, "w": -2}),
    ("-", 1): (-1, "left", {"v": 2, "w": 0}),
    ("-", 2): (-2, "right", {"v": 2, "w": 0}),
}

# the eight exchange relations: a diagonal entry through one creation
# string, its own sector's string first, then the other sector's
_CREATION_RELATIONS = (
    (("+", 1), "v"), (("+", 2), "v"), (("-", 1), "w"), (("-", 2), "w"),
    (("+", 1), "w"), (("+", 2), "w"), (("-", 1), "v"), (("-", 2), "v"))


def _partner(entry):
    sign, i = entry
    return ("-" if sign == "+" else "+", 3 - i)


def _F(side, x, roots):
    return F_right(x, roots) if side == "right" else F_left(roots, x)


def _g(side, x, root):
    return g(x, root) if side == "right" else g(root, x)


def _apply_diagonal(chain: Chain, entry, x, vals, m):
    sign, i = entry
    return hatted_block_apply(chain, sign, (i, i), x, vals, m)


def _created(chain: Chain, vals, roots, m, monic=False):
    """That^2_1(v-bar) That^{-1}_{-2}(w-bar) m, roots = {"v": v-bar, "w": w-bar}."""
    for string in ("w", "v"):
        sign, ik = _CREATION[string]
        for z in reversed(tuple(roots[string])):
            m = hatted_block_apply(chain, sign, ik, z, vals, m, monic=monic)
    return m


def _exchanged(roots, string, r, entry, x):
    """The root sets with root r of `string` dropped and x appended to the
    string of `entry`'s sector."""
    out = dict(roots)
    out[string] = roots[string].removing(r)
    own = _STRING_OF[entry[0]]
    out[own] = out[own].appending(x)
    return out


def tilde_state(chain: Chain, uvec, vbar, wbar, monic=True) -> Mat:
    """That^2_1(v_1)...That^2_1(v_P) That^{-1}_{-2}(w_1)...(w_Q) OmegaHat."""
    vals = tuple(uvec)
    return _created(chain, vals, {"v": vbar, "w": wbar},
                    omega_hat(chain, (0,) * 2 * len(vals)), monic)


def tilde_creation_residuals(chain: Chain, uvec, x, vbar, wbar):
    """The eight exchange relations of the second-level creation strings
    (`_CREATION_RELATIONS`), applied to a spanning set of Vhat.  Returns a
    list of residuals."""
    vals = tuple(uvec)
    roots = {"v": RootSet(tuple(vbar)), "w": RootSet(tuple(wbar))}
    cols = w0hat_columns(chain, len(vals))
    out = []
    for entry, string in _CREATION_RELATIONS:
        _, side, shift = _DIAGONAL[entry]
        own = string == _STRING_OF[entry[0]]
        at_root, sgn = (entry, -1) if own else (_partner(entry), 1)
        alone = {"v": RootSet(), "w": RootSet(), string: roots[string]}
        y = x + shift[string]
        lhs = _apply_diagonal(chain, entry, x, vals,
                              _created(chain, vals, alone, cols))
        rhs = _created(chain, vals, alone,
                       _apply_diagonal(chain, entry, x, vals, cols)).scale(
            _F(side, y, roots[string]))
        for r, z in enumerate(roots[string]):
            rest = roots[string].removing(r)
            term = _created(chain, vals, _exchanged(alone, string, r, entry, x),
                            _apply_diagonal(chain, at_root, z, vals, cols))
            rhs = rhs + term.scale(sgn * _g(side, y, z) * _F(side, z, rest))
        out.append(residual(lhs, rhs))
    return out


def tilde_offshell_residuals(chain: Chain, uvec, x, vbar, wbar):
    """Off-shell action of the four diagonal dressed entries (`_DIAGONAL`)
    on the second-level state, against the explicit weight expansion."""
    vals = tuple(uvec)
    roots = {"v": RootSet(tuple(vbar)), "w": RootSet(tuple(wbar))}
    omega = omega_hat(chain, (0,) * 2 * len(vals))

    def eigen_factor(entry, z, rs):
        i, side, shift = _DIAGONAL[entry]
        return (mu_weight(chain, i, z, vals) * _F(side, z + shift["v"], rs["v"])
                * _F(side, z + shift["w"], rs["w"]))

    base = check_nonzero(_created(chain, vals, roots, omega),
                         "second-level state")
    out = []
    for entry, (_, side, shift) in _DIAGONAL.items():
        lhs = _apply_diagonal(chain, entry, x, vals, base)
        rhs = base.scale(eigen_factor(entry, x, roots))
        for string in ("v", "w"):
            own = string == _STRING_OF[entry[0]]
            at_root, sgn = (entry, -1) if own else (_partner(entry), 1)
            for r, z in enumerate(roots[string]):
                rest = dict(roots, **{string: roots[string].removing(r)})
                state = _created(chain, vals,
                                 _exchanged(roots, string, r, entry, x), omega)
                rhs = rhs + state.scale(sgn * _g(side, x + shift[string], z)
                                        * eigen_factor(at_root, z, rest))
        out.append(residual(lhs, rhs))
    return out


# ---------------------------------------------------------------------
# final eigenvectors and the second-level eigenvalues
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Sp4BetheConfig:
    """Root data (u-vec; v-bar; w-bar) for the three-family ansatz."""

    uvec: tuple
    vbar: tuple
    wbar: tuple

    def __post_init__(self):
        RootSet(self.uvec)
        RootSet(self.vbar)
        RootSet(self.wbar)


def sp4_bethe_vector(chain: Chain, cfg: Sp4BetheConfig) -> Mat:
    """<B_1..N(u), Phi(u; v-bar; w-bar)> on the chain space."""
    phi = tilde_state(chain, cfg.uvec, cfg.vbar, cfg.wbar, monic=True)
    args = [(j, u) for j, u in enumerate(cfg.uvec)]
    psi = pairing_matrix(chain, args) @ phi
    if chain.backend != EXACT and psi.norm() < 1e-10 * max(1.0, phi.norm()):
        # contraction cancels to float noise: treat as a vanishing state
        raise ZeroVectorError(
            f"sp4 Bethe vector contracts to norm {psi.norm():.3e}")
    return check_nonzero(psi, "sp4 Bethe vector")


def prop_eigenvalue(chain: Chain, sign, x, cfg: Sp4BetheConfig):
    """Second-level eigenvalues of the dressed traces (the two halves that
    merge into the final eigenvalue)."""
    u, v, w = RootSet(cfg.uvec), RootSet(cfg.vbar), RootSet(cfg.wbar)
    if sign == "+":
        return (chain.lam(1, x) * F_left(u, x - 1) * F_right(x, v) * F_right(x - 2, w)
                + chain.lam(2, x) * F_left(v, x) * F_left(w, x - 2) / F_left(u, x))
    return (chain.lam(-1, x) * F_right(x + 1, u) * F_left(v, x + 2) * F_left(w, x)
            + chain.lam(-2, x) * F_right(x + 2, v) * F_right(x, w) / F_right(x, u))


def tilde_eigen_residuals(chain: Chain, cfg: Sp4BetheConfig, x):
    """|Hhat(+-)(x) Phi - E(+-)(x) Phi| for the second-level state."""
    phi = tilde_state(chain, cfg.uvec, cfg.vbar, cfg.wbar, monic=True)
    out = []
    for sign in ("+", "-"):
        hphi = (hatted_block_apply(chain, sign, (1, 1), x, cfg.uvec, phi)
                + hatted_block_apply(chain, sign, (2, 2), x, cfg.uvec, phi))
        e = prop_eigenvalue(chain, sign, x, cfg)
        out.append(residual(hphi, phi.scale(e)))
    return out
