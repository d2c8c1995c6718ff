"""Shared test settings, helpers and dense oracles.

Hypothesis runs derandomized, with no per-example deadline (exact rational
arithmetic has no stable per-example time), few examples and no example
database, so every run of the suite draws the same cases.

The dense oracles write operators out as full matrices: `lifted_product`
and `hatted_matrix` as products of `lift`s, which no package path uses,
and `swap_matrix` entry by entry.  The leg-by-leg applications are held to them.
`grid_weights` reads the weight functions off the monodromy grid, the
oracle of the per-site weights.
`mat_from_scalars` and `format_scalar` write test data in and out, and
`transposed` turns an operator around.
The `kron_sum_*` builders write the sp(4), sign-block, two-sector, dual
and dressing R-matrices out as sums of Kronecker products of matrix units,
one term per index pair, the oracle of the structure-tensor builders.
`written_out_split_roots`, `written_out_raw_rel` and
`written_out_clearing_factors` are the solver's per-model root split,
residual order and pole-clearing products written out model by model, and
the `written_out_*_eigenvalue` / `written_out_*_residuals` functions each
model's eigenvalue and Bethe conditions as explicit products: together the
oracle of the solver's `MODELS` table.  `fixed_roots` evaluates that table
at given roots.
"""

from fractions import Fraction as Fr
from math import lcm

import numpy as np
from hypothesis import settings

from betheforge import bethe_solver
from betheforge.linalg import EXACT, FLOAT, Mat, lift, residual
from betheforge.nested_sp4 import hatted_factors
from betheforge.rmatrix import (MINUS, PLUS, SP4_SPACE, TILDE_SLOTS, eps,
                                recip, unit_E, unit_F)
from betheforge.scalars import (F2_left, F2_right, F_left, F_right, RootSet,
                                _residual_pair, _roots, f, g, h, is_exact, k)

settings.register_profile("betheforge", derandomize=True, deadline=None,
                          max_examples=15, database=None)
settings.load_profile("betheforge")


def mat_from_scalars(rows, backend):
    """A Mat from nested rows of Fractions/ints (exact) or numbers (float)."""
    if backend == FLOAT:
        return Mat(FLOAT, np.array(rows, dtype=np.complex128))
    fr = [[Fr(x) for x in row] for row in rows]
    den = lcm(*(x.denominator for row in fr for x in row))
    num = np.array([[int(x * den) for x in row] for row in fr], dtype=object)
    return Mat(EXACT, num, den)._reduced()


def format_scalar(x):
    """Serialize: Fractions and ints as "p/q" strings, complex as [re, im]."""
    if isinstance(x, (Fr, int)):
        return str(x)
    z = complex(x)
    return [z.real, z.imag]


def transposed(mat):
    """The transpose of a Mat, as a new Mat."""
    return Mat(mat.backend, mat.num.T.copy(), mat.den)


def block(mat, i, j, rows, cols):
    """Block of `mat` of size rows x cols starting at (i*rows, j*cols)."""
    sub = mat.num[i * rows:(i + 1) * rows, j * cols:(j + 1) * cols].copy()
    return Mat(mat.backend, sub, mat.den)


def rational_mat(rng, rows, cols):
    """Exact matrix of small random rationals (numerators -3..3, denominators
    1..3) drawn from the numpy generator `rng`."""
    num = rng.integers(-3, 4, size=(rows, cols))
    return mat_from_scalars([[Fr(int(v), int(rng.choice([1, 2, 3])))
                              for v in row] for row in num], EXACT)


def swap_matrix(d1, d2, backend=EXACT):
    """Exchange operator V1 (x) V2 -> V2 (x) V1."""
    num = np.zeros((d1 * d2, d1 * d2), dtype=np.int64)
    for a in range(d1):
        for b in range(d2):
            num[b * d1 + a, a * d2 + b] = 1
    return Mat(backend, num)


def lifted_product(factors, dims):
    """A factor string as one dense matrix: the product of its lifts."""
    out = lift(*factors[0], dims)
    for op, legs in factors[1:]:
        out = out @ lift(op, legs, dims)
    return out


def hatted_matrix(chain, sign, x, uvec, coincident_slot=None, monic=False,
                  minus_roots=None):
    """That(sign)(x; u) as one dense matrix: the lifted `hatted_factors`."""
    return lifted_product(*hatted_factors(chain, sign, x, uvec,
                                          coincident_slot, monic, minus_roots))


def grid_weights(chain, x):
    """Every lam_i(x), in space order, read off the monodromy grid: the
    vacuum entry of T^i_i(x) applied to the vacuum, after checking that the
    application is that entry times the vacuum (literally on exact, within
    1e-10 on float)."""
    omega = chain.vacuum().omega
    slot = int(np.argmax(np.abs(omega.to_complex()[:, 0])))
    out = []
    for i in chain.space:
        v = chain.t(i, i, x) @ omega
        coeff = v.entry(slot, 0)
        if chain.backend == EXACT:
            assert residual(v, omega.scale(coeff)) == 0
        else:
            assert np.abs(v.num[:, 0] - coeff * omega.num[:, 0]).max() < 1e-10
        out.append(coeff)
    return out


def fixed_roots(chain, **roots):
    """The eigenvalue x -> E(x) and the Bethe residuals {family: [(raw,
    relative)]} of the package's term table on `chain` at `roots` (one
    keyword per root family; families not given are empty)."""
    unknowns = bethe_solver.MODELS[chain.spec.model]["unknowns"]
    roots = {fam: tuple(roots.get(fam, ())) for fam in unknowns}
    prob = bethe_solver.SolveProblem(chain, chain.spec.model,
                                     tuple(len(roots[fam]) for fam in unknowns))
    return (lambda x: bethe_solver.eigenvalue(prob, x, roots),
            bethe_solver._residuals(prob, roots))


def written_out_gl2_eigenvalue(chain, x, roots):
    roots = _roots(roots)
    return chain.lam(1, x) * F_left(roots, x) + chain.lam(2, x) * F_right(x, roots)


def written_out_gl2_residuals(chain, roots):
    """Per-root Bethe residuals, (raw, relative) pairs."""
    roots = _roots(roots)
    out = []
    for i, u in enumerate(roots):
        rest = roots.removing(i)
        lhs = chain.lam(1, u) * F_left(rest, u)
        rhs = chain.lam(2, u) * F_right(u, rest)
        out.append(_residual_pair(lhs, rhs))
    return out


def written_out_gl3_eigenvalue(chain, x, uroots, vroots):
    u, v = _roots(uroots), _roots(vroots)
    return (chain.lam(1, x) * F_left(u, x)
            + chain.lam(2, x) * F_right(x, u) * F_left(v, x)
            + chain.lam(3, x) * F_right(x, v))


def written_out_gl3_residuals(chain, uroots, vroots):
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


def written_out_sp4_eigenvalue(chain, x, uvec, vbar, wbar):
    """E(x) = lam1 FF(u,x) F(x,v) F(x-2,w) + lam2 F(v,x) F(w,x-2)
            + lam-1 FF(x,u) F(v,x+2) F(w,x) + lam-2 F(x+2,v) F(x,w),
    with FF the pole-safe double-step products."""
    u, v, w = RootSet(uvec), RootSet(vbar), RootSet(wbar)
    return (chain.lam(1, x) * F2_left(u, x) * F_right(x, v) * F_right(x - 2, w)
            + chain.lam(2, x) * F_left(v, x) * F_left(w, x - 2)
            + chain.lam(-1, x) * F2_right(x, u) * F_left(v, x + 2) * F_left(w, x)
            + chain.lam(-2, x) * F_right(x + 2, v) * F_right(x, w))


def written_out_sp4_residuals(chain, uvec, vbar, wbar):
    """The three Bethe families, (raw, relative) pairs keyed "u", "v", "w"."""
    u, v, w = RootSet(uvec), RootSet(vbar), RootSet(wbar)
    fam_u, fam_v, fam_w = [], [], []
    for kk, uk in enumerate(u):
        rest = u.removing(kk)
        lhs = (chain.lam(1, uk) * F2_left(rest, uk)
               * F_right(uk, v) * F_right(uk - 2, w))
        rhs = (chain.lam(-1, uk) * F2_right(uk, rest)
               * F_left(v, uk + 2) * F_left(w, uk))
        fam_u.append(_residual_pair(lhs, rhs))
    for r, vr in enumerate(v):
        rest = v.removing(r)
        lhs = (chain.lam(1, vr) * F2_left(u, vr)
               * F_right(vr, rest) * F_right(vr - 2, w))
        rhs = chain.lam(2, vr) * F_left(rest, vr) * F_left(w, vr - 2)
        fam_v.append(_residual_pair(lhs, rhs))
    for s, ws in enumerate(w):
        rest = w.removing(s)
        lhs = (chain.lam(-1, ws) * F2_right(ws, u)
               * F_left(v, ws + 2) * F_left(rest, ws))
        rhs = chain.lam(-2, ws) * F_right(ws + 2, v) * F_right(ws, rest)
        fam_w.append(_residual_pair(lhs, rhs))
    return {"u": fam_u, "v": fam_v, "w": fam_w}


def written_out_eigenvalue(problem, x, roots):
    """The model's written-out eigenvalue at x."""
    ch = problem.chain
    if problem.model == "gl2":
        return written_out_gl2_eigenvalue(ch, x, roots["u"])
    if problem.model == "gl3":
        return written_out_gl3_eigenvalue(ch, x, roots["u"], roots["v"])
    return written_out_sp4_eigenvalue(ch, x, roots["u"], roots["v"],
                                      roots["w"])


def written_out_residuals(problem, roots):
    """The model's written-out residuals, {family: [(raw, relative)]}."""
    ch = problem.chain
    if problem.model == "gl2":
        return {"u": written_out_gl2_residuals(ch, roots["u"])}
    if problem.model == "gl3":
        return written_out_gl3_residuals(ch, roots["u"], roots["v"])
    return written_out_sp4_residuals(ch, roots["u"], roots["v"], roots["w"])


def written_out_split_roots(problem, vec):
    """Flat complex vector -> per-family root tuples."""
    counts = problem.counts
    if problem.model == "gl2":
        return {"u": tuple(vec[:counts[0]])}
    if problem.model == "gl3":
        m, nu = counts
        return {"v": tuple(vec[:m]), "u": tuple(vec[m:m + nu])}
    n, p, q = counts
    return {"u": tuple(vec[:n]), "v": tuple(vec[n:n + p]),
            "w": tuple(vec[n + p:n + p + q])}


def written_out_raw_rel(problem, roots):
    """Raw and relative residuals, families in the solver's order."""
    pairs = [p for fam in written_out_residuals(problem, roots).values()
             for p in fam]
    return ([complex(a) for a, _ in pairs], [complex(b) for _, b in pairs])


def written_out_clearing_factors(problem, roots):
    """Pole-clearing multiplier of each condition at its own root: the
    denominator polynomial, divided by prod_j (root - z_j) for gl3's v and
    sp4's u and w families."""
    zs = [complex(z) for z in problem.chain.spec.inhomogeneities]
    u = [complex(z) for z in roots.get("u", ())]
    v = [complex(z) for z in roots.get("v", ())]
    w = [complex(z) for z in roots.get("w", ())]
    out = []

    def zdiv(root, d):
        for z in zs:
            d = d / (root - z)
        return d

    if problem.model == "gl2":
        for k, uk in enumerate(u):
            d = 1.0 + 0j
            for z in zs:
                d *= uk - z + 1
            for l, ul in enumerate(u):
                if l != k:
                    d *= uk - ul
            out.append(d)
    elif problem.model == "gl3":
        for k, uk in enumerate(u):
            d = 1.0 + 0j
            for z in zs:
                d *= uk - z + 1
            for vr in v:
                d *= uk - vr
            for l, ul in enumerate(u):
                if l != k:
                    d *= uk - ul
            out.append(d)
        for r, vr in enumerate(v):
            d = 1.0 + 0j
            for z in zs:
                d *= vr - z + 1
            for l, vl in enumerate(v):
                if l != r:
                    d *= vr - vl
            for ul in u:
                d *= vr - ul
            out.append(zdiv(vr, d))
    else:
        for k, uk in enumerate(u):
            d = 1.0 + 0j
            for z in zs:
                d *= uk - z + 1
            for l, ul in enumerate(u):
                if l != k:
                    d *= uk - ul
            for vr in v:
                d *= (uk - vr) * (uk + 2 - vr)
            for ws in w:
                d *= (uk - 2 - ws) * (uk - ws)
            out.append(zdiv(uk, d))
        for r, vr in enumerate(v):
            d = 1.0 + 0j
            for z in zs:
                d *= vr - z + 1
            for ul in u:
                d *= vr - ul
            for l, vl in enumerate(v):
                if l != r:
                    d *= vr - vl
            for ws in w:
                d *= vr - 2 - ws
            out.append(d)
        for s, ws in enumerate(w):
            d = 1.0 + 0j
            for z in zs:
                d *= (ws - z + 1) * (ws - z + 3)
            for ul in u:
                d *= ws - ul
            for vr in v:
                d *= ws + 2 - vr
            for l, wl in enumerate(w):
                if l != s:
                    d *= ws - wl
            out.append(zdiv(ws, d))
    return out


def _backend(x):
    return EXACT if is_exact(x) else FLOAT


def kron_sum_sp4_r(x, y):
    """Symplectic 16x16 R-matrix with the extra rank-one h-term."""
    backend = _backend(x)
    fv, gv, hv = f(x, y), g(x, y), h(x, y)
    sp = SP4_SPACE
    m = Mat.identity(16, backend)
    for i in sp:
        for kk in sp:
            m = m + unit_E(sp, i, kk, backend).kron(
                unit_E(sp, kk, i, backend)).scale(gv)
            m = m + unit_E(sp, i, kk, backend).kron(
                unit_E(sp, -i, -kk, backend)).scale(-hv * eps(i) * eps(kk))
    return m.scale(recip(fv))


def kron_sum_block_r(eps1, eps2, x, y, monic=False):
    """Sign-block R-matrices on the 2 (x) 2 block legs."""
    backend = _backend(x)
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
    return m


def kron_sum_coincident_block_r(eps1, eps2, backend):
    """Equal-argument block R-matrices: I + sum E (x) E on mixed signs, the
    exchange operator on equal ones."""
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
                m = m + unit_E(PLUS, r, s, backend).kron(
                    unit_E(MINUS, -r, -s, backend))
    else:
        m = Mat.identity(4, backend)
        for r in (1, 2):
            for s in (1, 2):
                m = m + unit_E(MINUS, -r, -s, backend).kron(
                    unit_E(PLUS, r, s, backend))
    return m


def kron_sum_tilde_r(x, y):
    """Two-sector 16x16 R-matrix from the kron-sum sign blocks."""
    backend = _backend(x)
    blocks = {signs: kron_sum_block_r(*signs, x, y) for signs in TILDE_SLOTS}
    den = lcm(*(blk.den for blk in blocks.values()))
    parts = {signs: blk.over(den).num for signs, blk in blocks.items()}
    num = np.zeros((16, 16), dtype=np.result_type(*parts.values()))
    for signs, part in parts.items():
        num[np.ix_(TILDE_SLOTS[signs], TILDE_SLOTS[signs])] = part
    return Mat(backend, num, den)._reduced()


def kron_sum_dual_pp(x, y):
    """(1/f)(I* (x) I* + g sum F^i_k (x) F^k_i)."""
    backend = _backend(x)
    fv, gv = f(x, y), g(x, y)
    m = Mat.identity(4, backend)
    for i in (1, 2):
        for kk in (1, 2):
            m = m + unit_F(PLUS, i, kk, backend).kron(
                unit_F(PLUS, kk, i, backend)).scale(gv)
    return m.scale(recip(fv))


def kron_sum_hatted_r(sign, x, u, monic=False):
    """Block-leg/dual-leg dressing matrices."""
    backend = _backend(x)
    if sign == "+":
        gv = g(u, x)
        m = Mat.identity(4, backend)
        for r in (1, 2):
            for s in (1, 2):
                m = m + unit_E(PLUS, r, s, backend).kron(
                    unit_F(PLUS, s, r, backend)).scale(gv)
        if not monic:
            m = m.scale(recip(f(u, x)))
        return m
    if monic:
        m = Mat.identity(4, backend).scale(u - x - 1)
        kv = 1
    else:
        kv = k(u, x)
        m = Mat.identity(4, backend)
    for r in (1, 2):
        for s in (1, 2):
            m = m + unit_E(MINUS, -r, -s, backend).kron(
                unit_F(PLUS, r, s, backend)).scale(-kv)
    return m


def kron_sum_coincident_hatted_r(sign, backend):
    """Equal-argument dressings: sum E^r_s (x) F^s_r, and
    I (x) I* + sum E^{-r}_{-s} (x) F^r_s."""
    if sign == "+":
        m = Mat.zeros((4, 4), backend)
        for r in (1, 2):
            for s in (1, 2):
                m = m + unit_E(PLUS, r, s, backend).kron(
                    unit_F(PLUS, s, r, backend))
        return m
    m = Mat.identity(4, backend)
    for r in (1, 2):
        for s in (1, 2):
            m = m + unit_E(MINUS, -r, -s, backend).kron(
                unit_F(PLUS, r, s, backend))
    return m
