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
(`TILDE_SLOTS`).  Every family but gl(n) is the identity plus scalars times
fixed integer structure tensors, combined by `Mat.tensor_sum`:

* sp(4) is (1/f)(I + g P - h K), with P the exchange and K the eps-signed
  pair coupling sum eps(i) eps(k) E^i_k (x) E^{-i}_{-k};
* the same-sign blocks carry the exchange, the mixed-sign blocks the pair
  coupling of the two sign spaces;
* the dual-leg dressings carry the same two shapes with their second leg
  dual, and the dual-dual matrix the exchange on two dual legs.

The tensors are made once, at import, by index placement over a pair of
spaces (`_structure`), and are read-only; no builder returns memory that
shares them.  gl(n) still sums Kronecker products of matrix units
(`unit_E`), though `_exchange(gl_space(n), gl_space(n))` is its P: built
that way, solve-small runs about 7 times as many tasks in its timed pass,
and perfbench's traced pass, which collects garbage over every span
recorded so far after each task, then took 712 s instead of about 100 s.
The switch waits on that collection (ROADMAP item 7).

The checkers verify the Yang-Baxter equation, unitarity,
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


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _structure(s1, s2, terms, dual=()):
    """The tensor sum v E^a_b (x) E^c_d over the (a, b, c, d, v) terms, on
    s1 (x) s2, as a read-only int64 array made by index placement.  The legs
    listed in `dual` (1, 2) are dual legs, whose F^a_b is the matrix E^b_a."""
    d2 = len(s2)
    t = np.zeros((len(s1) * d2,) * 2, dtype=np.int64)
    for a, b, c, d, v in terms:
        if 1 in dual:
            a, b = b, a
        if 2 in dual:
            c, d = d, c
        t[s1.index(b) * d2 + s2.index(d), s1.index(a) * d2 + s2.index(c)] += v
    return _frozen(t)


def _exchange(s1, s2, dual=()):
    """sum_{a,b in s1} E^a_b (x) E^b_a: on s1 (x) s1, the exchange P."""
    return _structure(s1, s2, [(a, b, b, a, 1) for a in s1 for b in s1], dual)


def _pair_coupling(s1, s2, dual=()):
    """sum_{a,b in s1} eps(a) eps(b) E^a_b (x) E^{-a}_{-b}: on the sp(4)
    space, the rank-one coupling K of each index to its negative."""
    return _structure(s1, s2, [(a, b, -a, -b, eps(a) * eps(b))
                               for a in s1 for b in s1], dual)


_ID4 = _frozen(np.eye(4, dtype=np.int64))
_ID16 = _frozen(np.eye(16, dtype=np.int64))
_SP4_P = _exchange(SP4_SPACE, SP4_SPACE)
_SP4_K = _pair_coupling(SP4_SPACE, SP4_SPACE)
# the sign-block couplings: the exchange on equal signs, the pair coupling
# of the two sign spaces on mixed ones
_BLOCK = {("+", "+"): _exchange(PLUS, PLUS),
          ("-", "-"): _exchange(MINUS, MINUS),
          ("+", "-"): _pair_coupling(PLUS, MINUS),
          ("-", "+"): _pair_coupling(MINUS, PLUS)}
# sum F^i_k (x) F^k_i on two dual legs
_DUAL_PP = _exchange(PLUS, PLUS, dual=(1, 2))
# "+": sum E^r_s (x) F^s_r; "-": sum E^{-r}_{-s} (x) F^r_s
_HATTED = {"+": _exchange(PLUS, PLUS, dual=(2,)),
           "-": _pair_coupling(MINUS, PLUS, dual=(2,))}


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
    """Symplectic 16x16 R-matrix (1/f)(I + g P - h K)."""
    fv, gv, hv = f(x, y), g(x, y), h(x, y)
    m = Mat.tensor_sum([(_ID16, 1), (_SP4_P, gv), (_SP4_K, -hv)],
                       _backend_of(x))
    return ROperator(m.scale(recip(fv)))


def build_block_r(eps1, eps2, x, y, monic=False):
    """Sign-block R-matrices on the 2 (x) 2 block legs.

    (+,+) and (-,-) are gl(2)-type with the 1/f prefactor; (+,-) carries
    k(x,y) and (-,+) carries h(x,y), both without prefactor.  `monic`
    drops the 1/f prefactor of the same-sign ones (used where Bethe
    vectors are built up to scale at collision points of the prefactor).
    """
    backend = _backend_of(x)
    coupling = _BLOCK[eps1, eps2]
    if eps1 == eps2:
        m = Mat.tensor_sum([(_ID4, 1), (coupling, g(x, y))], backend)
        if not monic:
            m = m.scale(recip(f(x, y)))
    elif eps1 == "+" and monic:
        # (x-y-1) R^(+,-)(x,y): regular at the k-pole, where it becomes
        # minus the rank-one pair coupling
        m = Mat.tensor_sum([(_ID4, x - y - 1), (coupling, -1)], backend)
    else:
        sv = k(x, y) if eps1 == "+" else h(x, y)
        m = Mat.tensor_sum([(_ID4, 1), (coupling, -sv)], backend)
    return ROperator(m)


def coincident_block_r(eps1, eps2, backend):
    """Equal-argument specializations of the block R-matrices.

    Built from their explicit summed forms, never by evaluating the generic
    formulas at the pole: (+,-) and (-,+) become I + their pair coupling,
    (+,+) and (-,-) become the plain exchange operator.
    """
    coupling = _BLOCK[eps1, eps2]
    terms = [(coupling, 1)] if eps1 == eps2 else [(_ID4, 1), (coupling, 1)]
    return ROperator(Mat.tensor_sum(terms, backend))


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
    fv, gv = f(x, y), g(x, y)
    m = Mat.tensor_sum([(_ID4, 1), (_DUAL_PP, gv)], _backend_of(x))
    return ROperator(m.scale(recip(fv)))


def build_hatted_r(sign, x, u, monic=False):
    """Block-leg/dual-leg dressing matrices.

    sign "+": (1/f(u,x)) (I_+ (x) I* + g(u,x) sum E^r_s (x) F^s_r);
    sign "-": I_- (x) I* - k(u,x) sum E^{-r}_{-s} (x) F^r_s.
    `monic` drops the "+" prefactor (Bethe vectors are scale-free and the
    prefactor diverges at u - x = -1, a collision the middle Bethe family
    forces).
    """
    backend = _backend_of(x)
    coupling = _HATTED[sign]
    if sign == "+":
        m = Mat.tensor_sum([(_ID4, 1), (coupling, g(u, x))], backend)
        if not monic:
            m = m.scale(recip(f(u, x)))
    elif monic:
        # (u-x-1) Rhat^(-,+)(x,u), regular at the k-pole
        m = Mat.tensor_sum([(_ID4, u - x - 1), (coupling, -1)], backend)
    else:
        m = Mat.tensor_sum([(_ID4, 1), (coupling, -k(u, x))], backend)
    return ROperator(m)


def coincident_hatted_r(sign, backend):
    """Equal-argument dressing matrices: "+" -> sum E^r_s (x) F^s_r,
    "-" -> I (x) I* + sum E^{-r}_{-s} (x) F^r_s."""
    coupling = _HATTED[sign]
    terms = [(coupling, 1)] if sign == "+" else [(_ID4, 1), (coupling, 1)]
    return ROperator(Mat.tensor_sum(terms, backend))


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
