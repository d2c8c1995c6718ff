"""R-matrix families on concrete tensor legs.

Index conventions (the single canonical table for the whole package):

* the 4-dimensional symplectic local space carries index values
  (-2, -1, 1, 2) mapped to slots (0, 1, 2, 3);
* gl(n) local spaces carry values (1..n) mapped to slots (0..n-1);
* 2-dimensional sign-block legs carry values (1, 2) resp. (-1, -2), both
  mapped to slots (0, 1);
* ``E(a, b)`` is the matrix unit with E^a_b e_c = delta^a_c e_b, i.e. a 1 in
  row slot(b), column slot(a);
* dual legs are 2-dimensional coordinate spaces on which
  ``F(a, b)`` acts by F^a_b f^d = delta^d_b f^a (1 in row slot(a),
  column slot(b)); these satisfy F^a_b F^c_d = delta^c_b F^a_d.

Builders produce `ROperator`s, each holding its matrix on two tensor legs;
the two-sector matrix places the four sign blocks through one slot map
(`TILDE_SLOTS`).  The checkers verify the Yang-Baxter equation, unitarity,
and the auxiliary reordering identities used by the dressed-monodromy
constructions, each braid through `linalg.braid_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .linalg import EXACT, FLOAT, Mat, apply_on_legs, braid_residual, residual
from .scalars import PoleError, f, g, h, is_exact, k


def recip(x):
    """Guarded reciprocal: raising PoleError instead of dividing by ~0."""
    if is_exact(x):
        if x == 0:
            raise PoleError("reciprocal of exact zero")
    elif abs(x) < 1e-12:
        raise PoleError(f"reciprocal of near-zero {abs(x):.3e}")
    return 1 / x

SP4_SPACE = (-2, -1, 1, 2)
PLUS = (1, 2)
MINUS = (-1, -2)


def gl_space(n):
    return tuple(range(1, n + 1))


def eps(i):
    """Sign of an index value."""
    return 1 if i > 0 else -1


def _backend_of(x):
    return EXACT if is_exact(x) else FLOAT


def unit_E(space, upper, lower, backend):
    """Matrix unit E^upper_lower on the given space."""
    d = len(space)
    m = Mat.zeros((d, d), backend)
    m.num[space.index(lower), space.index(upper)] = 1 if backend == EXACT else 1.0
    if backend == EXACT:
        m._amax = 1
    return m


def unit_F(space, upper, lower, backend):
    """Dual-leg mapping F^upper_lower (acts on covector coordinates)."""
    d = len(space)
    m = Mat.zeros((d, d), backend)
    m.num[space.index(upper), space.index(lower)] = 1 if backend == EXACT else 1.0
    if backend == EXACT:
        m._amax = 1
    return m


@dataclass(frozen=True)
class ROperator:
    """A built R-matrix (or dressing matrix) on its two tensor legs."""

    mat: Mat


def build_gl_r(n, x, y):
    """gl(n) R-matrix (1/f)(I (x) I + g P) on n (x) n."""
    backend = _backend_of(x)
    fv, gv = f(x, y), g(x, y)
    sp = gl_space(n)
    m = Mat.identity(n * n, backend)
    for i in sp:
        for kk in sp:
            m = m + unit_E(sp, i, kk, backend).kron(unit_E(sp, kk, i, backend)).scale(gv)
    m = m.scale(recip(fv))
    return ROperator(m)


def build_sp4_r(x, y):
    """Symplectic 16x16 R-matrix with the extra rank-one h-term."""
    backend = _backend_of(x)
    fv, gv, hv = f(x, y), g(x, y), h(x, y)
    sp = SP4_SPACE
    m = Mat.identity(16, backend)
    for i in sp:
        for kk in sp:
            m = m + unit_E(sp, i, kk, backend).kron(unit_E(sp, kk, i, backend)).scale(gv)
            m = m + unit_E(sp, i, kk, backend).kron(
                unit_E(sp, -i, -kk, backend)).scale(-hv * eps(i) * eps(kk))
    m = m.scale(recip(fv))
    return ROperator(m)


def build_block_r(eps1, eps2, x, y, monic=False):
    """Sign-block R-matrices on the 2 (x) 2 block legs.

    (+,+) and (-,-) are gl(2)-type with the 1/f prefactor; (+,-) carries
    k(x,y) and (-,+) carries h(x,y), both without prefactor.  `monic`
    drops the 1/f prefactor of the same-sign ones (used where Bethe
    vectors are built up to scale at collision points of the prefactor).
    """
    backend = _backend_of(x)
    if eps1 == eps2:
        gv = g(x, y)
        sp = PLUS if eps1 == "+" else MINUS
        m = Mat.identity(4, backend)
        sgn = 1 if eps1 == "+" else -1
        for i in (1, 2):
            for kk in (1, 2):
                m = m + unit_E(sp, sgn * i, sgn * kk, backend).kron(
                    unit_E(sp, sgn * kk, sgn * i, backend)).scale(gv)
        if not monic:
            m = m.scale(recip(f(x, y)))
    elif eps1 == "+":
        if monic:
            # (x-y-1) R^(+,-)(x,y): regular at the k-pole, where it becomes
            # minus the rank-one pair coupling
            m = Mat.identity(4, backend).scale(x - y - 1)
            kv = 1
        else:
            kv = k(x, y)
            m = Mat.identity(4, backend)
        for i in (1, 2):
            for kk in (1, 2):
                m = m + unit_E(PLUS, i, kk, backend).kron(
                    unit_E(MINUS, -i, -kk, backend)).scale(-kv)
    else:
        hv = h(x, y)
        m = Mat.identity(4, backend)
        for i in (1, 2):
            for kk in (1, 2):
                m = m + unit_E(MINUS, -i, -kk, backend).kron(
                    unit_E(PLUS, i, kk, backend)).scale(-hv)
    return ROperator(m)


def coincident_block_r(eps1, eps2, backend):
    """Equal-argument specializations of the block R-matrices.

    Built from their explicit summed forms, never by evaluating the generic
    formulas at the pole: (+,-) and (-,+) become I + sum E (x) E,
    (+,+) and (-,-) become the plain exchange operator.
    """
    m = Mat.zeros((4, 4), backend)
    if eps1 == eps2:
        sgn = 1 if eps1 == "+" else -1
        sp = PLUS if eps1 == "+" else MINUS
        for r in (1, 2):
            for s in (1, 2):
                m = m + unit_E(sp, sgn * r, sgn * s, backend).kron(
                    unit_E(sp, sgn * s, sgn * r, backend))
    elif eps1 == "+":
        m = Mat.identity(4, backend)
        for r in (1, 2):
            for s in (1, 2):
                m = m + unit_E(PLUS, r, s, backend).kron(unit_E(MINUS, -r, -s, backend))
    else:
        m = Mat.identity(4, backend)
        for r in (1, 2):
            for s in (1, 2):
                m = m + unit_E(MINUS, -r, -s, backend).kron(unit_E(PLUS, r, s, backend))
    return ROperator(m)


# rows and columns of the two-sector 16x16 matrix that hold each sign block:
# block entry (a b, c d) sits at (slot(s1[a]) slot(s2[b]), slot(s1[c]) slot(s2[d]))
TILDE_SLOTS = {
    (e1, e2): [SP4_SPACE.index(a) * 4 + SP4_SPACE.index(b) for a in s1 for b in s2]
    for e1, s1 in (("+", PLUS), ("-", MINUS))
    for e2, s2 in (("+", PLUS), ("-", MINUS))}


def build_tilde_r(x, y):
    """Two-sector 16x16 R-matrix: direct sum of the four sign blocks."""
    backend = _backend_of(x)
    blocks = {signs: build_block_r(*signs, x, y).mat for signs in TILDE_SLOTS}
    den = lcm(*(blk.den for blk in blocks.values()))
    parts = {signs: blk.over(den).num for signs, blk in blocks.items()}
    num = np.zeros((16, 16), dtype=np.result_type(*parts.values()))
    for signs, part in parts.items():
        num[np.ix_(TILDE_SLOTS[signs], TILDE_SLOTS[signs])] = part
    return ROperator(Mat(backend, num, den)._reduced())


def build_dual_pp(x, y):
    """Dual-dual gl(2)-type matrix (1/f)(I* (x) I* + g sum F^i_k (x) F^k_i)."""
    backend = _backend_of(x)
    fv, gv = f(x, y), g(x, y)
    m = Mat.identity(4, backend)
    for i in (1, 2):
        for kk in (1, 2):
            m = m + unit_F(PLUS, i, kk, backend).kron(unit_F(PLUS, kk, i, backend)).scale(gv)
    m = m.scale(recip(fv))
    return ROperator(m)


def build_hatted_r(sign, x, u, monic=False):
    """Block-leg/dual-leg dressing matrices.

    sign "+": (1/f(u,x)) (I_+ (x) I* + g(u,x) sum E^r_s (x) F^s_r);
    sign "-": I_- (x) I* - k(u,x) sum E^{-r}_{-s} (x) F^r_s.
    `monic` drops the "+" prefactor (Bethe vectors are scale-free and the
    prefactor diverges at u - x = -1, a collision the middle Bethe family
    forces).
    """
    backend = _backend_of(x)
    if sign == "+":
        gv = g(u, x)
        m = Mat.identity(4, backend)
        for r in (1, 2):
            for s in (1, 2):
                m = m + unit_E(PLUS, r, s, backend).kron(
                    unit_F(PLUS, s, r, backend)).scale(gv)
        if not monic:
            m = m.scale(recip(f(u, x)))
        return ROperator(m)
    if monic:
        # (u-x-1) Rhat^(-,+)(x,u), regular at the k-pole
        m = Mat.identity(4, backend).scale(u - x - 1)
        kv = 1
    else:
        kv = k(u, x)
        m = Mat.identity(4, backend)
    for r in (1, 2):
        for s in (1, 2):
            m = m + unit_E(MINUS, -r, -s, backend).kron(
                unit_F(PLUS, r, s, backend)).scale(-kv)
    return ROperator(m)


def coincident_hatted_r(sign, backend):
    """Equal-argument dressing matrices: "+" -> sum E^r_s (x) F^s_r,
    "-" -> I (x) I* + sum E^{-r}_{-s} (x) F^r_s."""
    if sign == "+":
        m = Mat.zeros((4, 4), backend)
        for r in (1, 2):
            for s in (1, 2):
                m = m + unit_E(PLUS, r, s, backend).kron(unit_F(PLUS, s, r, backend))
        return ROperator(m)
    m = Mat.identity(4, backend)
    for r in (1, 2):
        for s in (1, 2):
            m = m + unit_E(MINUS, -r, -s, backend).kron(unit_F(PLUS, r, s, backend))
    return ROperator(m)


_BUILDERS = {
    "gl2": (lambda x, y: build_gl_r(2, x, y), 2),
    "gl3": (lambda x, y: build_gl_r(3, x, y), 3),
    "sp4": (build_sp4_r, 4),
    "sp4tilde": (build_tilde_r, 4),
}


def check_ybe(kind, x, y, z):
    """Max-abs residual of R12(x,y) R13(x,z) R23(y,z) - R23 R13 R12."""
    build, d = _BUILDERS[kind]
    return braid_residual([d, d, d], [(build(x, y).mat, [0, 1])],
                          [(build(x, z).mat, [0, 2])],
                          [(build(y, z).mat, [1, 2])])


def check_unitarity(kind, x, y):
    """Max-abs residual of R12(x,y) R21(y,x) - I, with R21 the R-matrix on
    the legs in reverse order."""
    build, d = _BUILDERS[kind]
    one = Mat.identity(d * d, _backend_of(x))
    prod = apply_on_legs([(build(x, y).mat, [0, 1]), (build(y, x).mat, [1, 0])],
                         [d, d], one)
    return residual(prod, one)


def mixed_ybe_residual(eps1, eps2, x, y, z):
    """Compatibility of the sign-block R with the dual-leg dressings:

    R^(e1,e2)_12(x,y) Rhat^(e1,+)_13*(x,z) Rhat^(e2,+)_23*(y,z)
      = Rhat^(e2,+)_23*(y,z) Rhat^(e1,+)_13*(x,z) R^(e1,e2)_12(x,y).
    """
    return braid_residual([2, 2, 2],
                          [(build_block_r(eps1, eps2, x, y).mat, [0, 1])],
                          [(build_hatted_r(eps1, x, z).mat, [0, 2])],
                          [(build_hatted_r(eps2, y, z).mat, [1, 2])])


def dual_reorder_residuals(u1, u2):
    """The four reordering identities behind the multi-root exchange proof.

    Returns the list of max-abs residuals: the four braids, then the two
    triple products that also collapse to a bare equal-argument matrix.
    """
    backend = _backend_of(u1)
    dims = [2, 2, 2]
    rs = [(build_dual_pp(u2, u1).mat, [2, 1])]
    rmm = [(build_block_r("-", "-", u1, u2).mat, [1, 2])]
    triples = (
        # plus-aux against two dual legs
        (rs, [(build_hatted_r("+", u2, u1).mat, [0, 1])],
         [(coincident_hatted_r("+", backend).mat, [0, 2])]),
        # plus-aux against two minus legs
        (rmm, [(coincident_block_r("+", "-", backend).mat, [0, 2])],
         [(build_block_r("+", "-", u2, u1).mat, [0, 1])]),
        # minus-aux against two dual legs
        (rs, [(build_hatted_r("-", u2, u1).mat, [0, 1])],
         [(coincident_hatted_r("-", backend).mat, [0, 2])]),
        # minus-aux against two minus legs
        (rmm, [(coincident_block_r("-", "-", backend).mat, [0, 2])],
         [(build_block_r("-", "-", u2, u1).mat, [0, 1])]))
    out = [braid_residual(dims, *ops) for ops in triples]
    # the first and last triple products collapse to their equal-argument factor
    one = Mat.identity(8, backend)
    for ops, bare in ((triples[0], 2), (triples[3], 1)):
        out.append(residual(apply_on_legs(sum(ops, []), dims, one),
                            apply_on_legs(ops[bare], dims, one)))
    return out
