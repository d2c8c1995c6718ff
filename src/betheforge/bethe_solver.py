"""Numerical solution of the Bethe-condition systems on the float backend.

Damped Newton iteration with a finite-difference Jacobian, treated as a
real system in the real/imaginary parts (the residuals are not kept
holomorphic, so no complex step).  The iteration drives the pole-cleared
form of the conditions: each raw residual is multiplied by its family's
denominator polynomial, which removes both the pole walls between basins
and the spurious root at infinity that the bare rational form possesses
(all weight-function ratios tend to 1 there).  Convergence is always
judged on the scale-free relative residuals.

Multiple random starts are drawn from a disc around the mean
inhomogeneity, offset into the upper half plane; converged roots are
deduplicated, each family compared as a multiset, and solutions with
near-colliding roots inside one family or runaway magnitudes are rejected.

A solution is verified against dense diagonalization of the transfer
matrix restricted to the weight sector of its Bethe vector: the vector
must stay in one sector, the transfer matrix must not couple that sector
to the rest, and the ansatz eigenvalue must lie in the sector's spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import Chain, check_dense_capacity
from .linalg import ZeroVectorError
from .nested_gl import gl2_eigenvalue, gl2_residuals, gl2_vector, \
    gl3_eigenvalue, gl3_residuals, gl3_vector
from .nested_sp4 import Sp4BetheConfig, sp4_bethe_vector, sp4_eigenvalue, \
    sp4_residuals
from .scalars import PoleError

FD_STEP = 1e-7
DEDUP_TOL = 1e-6
COLLISION_TOL = 1e-8
RUNAWAY_RADIUS = 1e3
# relative weight-sector leak of a state or a transfer matrix that still passes
LEAK_TOL = 1e-10


@dataclass
class SolveProblem:
    """Model, chain and excitation counts, plus solver options."""

    chain: Chain
    model: str
    counts: tuple                  # gl2: (N,); gl3: (M, Nu); sp4: (N, P, Q)
    tol: float = 1e-12
    max_iter: int = 60
    max_damping: int = 12
    starts: int = 20
    seed: int = 0
    guesses: list = field(default_factory=list)

    def n_unknowns(self):
        return sum(self.counts)


@dataclass
class SolveResult:
    """One converged (or failed) root configuration."""

    roots: dict
    residual: float
    iterations: int
    converged: bool
    condition: float

    def to_dict(self):
        return {
            "roots": {k: [[z.real, z.imag] for z in v]
                      for k, v in self.roots.items()},
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "condition": self.condition,
        }


def _split_roots(problem: SolveProblem, vec):
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


def _raw_rel(problem: SolveProblem, roots):
    ch = problem.chain
    if problem.model == "gl2":
        pairs = gl2_residuals(ch, roots["u"])
    elif problem.model == "gl3":
        res = gl3_residuals(ch, roots["u"], roots["v"])
        pairs = res["u"] + res["v"]
    else:
        res = sp4_residuals(ch, Sp4BetheConfig(roots["u"], roots["v"],
                                               roots["w"]))
        pairs = res["u"] + res["v"] + res["w"]
    return ([complex(a) for a, _ in pairs], [complex(b) for _, b in pairs])


def _clearing_factors(problem: SolveProblem, roots):
    """Pole-clearing multipliers for each family's condition at its own root.

    Multiplying the raw residual by its denominator polynomial clears every
    finite pole, so Newton sees no pole walls and no flat tail toward
    infinity.  Each multiplier is additionally divided by prod_j (root-z_j):
    on fundamental chains several weight functions vanish on the
    inhomogeneities, making every z_j a spurious zero of the raw difference;
    the division removes those sinks (and where no shared zero exists it
    merely repels iterates from the z_j, which are non-roots anyway).
    """
    zs = [complex(z) for z in problem.chain.spec.inhomogeneities]
    u = [complex(z) for z in roots.get("u", ())]
    v = [complex(z) for z in roots.get("v", ())]
    w = [complex(z) for z in roots.get("w", ())]
    out = []

    def zdiv(root, d):
        # only for families whose two sides share the prod (root - z_j) zero
        # (the fundamental-chain weight profiles): dividing removes those
        # spurious sinks while keeping polynomial growth at infinity
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
            for ul in u:
                d *= vr - ul
            for l, vl in enumerate(v):
                if l != r:
                    d *= vr - vl
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


def _stack(values):
    out = np.empty(2 * len(values))
    for i, z in enumerate(values):
        out[2 * i], out[2 * i + 1] = z.real, z.imag
    return out


def residual_vector(problem: SolveProblem, vec, form="relative"):
    """Stacked Bethe residuals ("relative", "raw" or pole-"cleared")."""
    roots = _split_roots(problem, vec)
    raw, rel = _raw_rel(problem, roots)
    if form == "relative":
        return _stack(rel)
    if form == "raw":
        return _stack(raw)
    fac = _clearing_factors(problem, roots)
    return _stack([a * d for a, d in zip(raw, fac)])


def _eval(problem, p, form="cleared"):
    vec = p[0::2] + 1j * p[1::2]
    try:
        return residual_vector(problem, vec, form=form)
    except (PoleError, ValueError, ZeroDivisionError):
        return None


def _rel_err(problem, p):
    r = _eval(problem, p, form="relative")
    if r is None:
        return float("inf")
    return float(np.max(np.abs(r))) if r.size else 0.0


def _newton(problem: SolveProblem, p0):
    n2 = p0.size
    p = p0.copy()
    cond = float("inf")
    for it in range(problem.max_iter):
        rel = _rel_err(problem, p)
        if rel <= problem.tol:
            return p, rel, it, cond
        r = _eval(problem, p)
        if r is None:
            # pole during evaluation: nudge once, then give up on this start
            p = p + FD_STEP * 100
            r = _eval(problem, p)
            if r is None:
                return p, float("inf"), it, cond
        err = float(np.max(np.abs(r)))
        jac = np.zeros((r.size, n2))
        ok = True
        for j in range(n2):
            dp = p.copy()
            dp[j] += FD_STEP
            rj = _eval(problem, dp)
            if rj is None:
                ok = False
                break
            jac[:, j] = (rj - r) / FD_STEP
        if not ok:
            return p, _rel_err(problem, p), it, cond
        try:
            cond = float(np.linalg.cond(jac))
            step = np.linalg.lstsq(jac, r, rcond=None)[0]
        except np.linalg.LinAlgError:
            return p, _rel_err(problem, p), it, cond
        lam = 1.0
        improved = False
        for _ in range(problem.max_damping):
            cand = p - lam * step
            rn = _eval(problem, cand)
            if rn is not None and np.max(np.abs(rn)) < err:
                p = cand
                improved = True
                break
            lam /= 2
        if not improved:
            return p, _rel_err(problem, p), it, cond
    return p, _rel_err(problem, p), problem.max_iter, cond


def solve(problem: SolveProblem):
    """Multi-start damped Newton; deduplicated results sorted by residual."""
    n = problem.n_unknowns()
    if n == 0:
        return [SolveResult(_split_roots(problem, np.array([], complex)),
                            0.0, 0, True, 1.0)]
    rng = np.random.default_rng(problem.seed)
    zs = problem.chain.spec.inhomogeneities
    center = complex(sum(complex(z) for z in zs) / len(zs))
    starts = [np.asarray(gu, dtype=complex) for gu in problem.guesses]
    while len(starts) < problem.starts:
        radii = rng.uniform(0, 2, n)
        angles = rng.uniform(0, 2 * np.pi, n)
        starts.append(center + radii * np.exp(1j * angles) + 0.1j)
    results = []
    for s in starts:
        p0 = np.empty(2 * n)
        p0[0::2], p0[1::2] = s.real, s.imag
        p, err, its, cond = _newton(problem, p0)
        vec = p[0::2] + 1j * p[1::2]
        roots = _split_roots(problem, vec)
        conv = bool(err <= problem.tol)
        if conv and _family_collision(roots):
            conv = False
        if conv and vec.size and max(abs(z - center) for z in vec) > RUNAWAY_RADIUS:
            conv = False
        if conv and _touches_inhomogeneity(problem, vec):
            # both sides of a condition vanish on an inhomogeneity; the
            # ansatz preconditions require roots pole-free against the z_j
            conv = False
        results.append(SolveResult(roots, err, its, conv, cond))
    converged = [r for r in results if r.converged]
    deduped = []
    for r in sorted(converged, key=lambda r: (r.residual,
                                              _sort_key(r.roots))):
        if any(_same_roots(r.roots, d.roots) for d in deduped):
            continue
        deduped.append(r)
    return deduped


def _sort_key(roots):
    """Each family's roots as sorted (real, imag) pairs, families in order."""
    return tuple(sorted((z.real, z.imag) for z in roots.get(fam, ()))
                 for fam in ("u", "v", "w"))


def _touches_inhomogeneity(problem, vec):
    zs = [complex(z) for z in problem.chain.spec.inhomogeneities]
    return any(abs(z - zj) < 1e-6 for z in vec for zj in zs)


def _family_collision(roots):
    for fam, vals in roots.items():
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if abs(vals[i] - vals[j]) < COLLISION_TOL:
                    return True
    return False


def _same_roots(a, b):
    """Whether every family of `a` equals that of `b` as a multiset."""
    return all(_pair_off(a.get(fam, ()), b.get(fam, ()))
               for fam in ("u", "v", "w"))


def _pair_off(va, vb):
    """Whether the roots of `va` and `vb` pair off one to one, each pair
    within DEDUP_TOL.  Sorting cannot decide this: the two roots of a
    conjugate pair have equal real parts up to rounding, so two copies of
    one configuration can sort in opposite orders."""
    if len(va) != len(vb):
        return False
    return not va or any(abs(va[0] - y) <= DEDUP_TOL
                         and _pair_off(va[1:], vb[:j] + vb[j + 1:])
                         for j, y in enumerate(vb))


def build_state(problem: SolveProblem, roots):
    ch = problem.chain
    if problem.model == "gl2":
        return gl2_vector(ch, roots["u"])
    if problem.model == "gl3":
        return gl3_vector(ch, roots["u"], roots["v"])
    return sp4_bethe_vector(ch, Sp4BetheConfig(roots["u"], roots["v"],
                                               roots["w"]))


def eigenvalue(problem: SolveProblem, x, roots):
    ch = problem.chain
    if problem.model == "gl2":
        return gl2_eigenvalue(ch, x, roots["u"])
    if problem.model == "gl3":
        return gl3_eigenvalue(ch, x, roots["u"], roots["v"])
    return sp4_eigenvalue(ch, x, Sp4BetheConfig(roots["u"], roots["v"],
                                                roots["w"]))


def verify_solution(problem: SolveProblem, result: SolveResult, samples):
    """Check the constructed state against dense diagonalization of its
    weight sector.

    The state psi is a weight vector, and its sector is the Cartan weight of
    its largest entry; `state_leak` = |psi outside the sector| / |psi|.  Per
    sample x: `sector_leak` = max|H[outside, sector]| / max|H| on the full
    H(x); the relative eigen-residual |H psi - E psi| / |psi|, also on the
    full H; the gap from E(x) to the nearest eigenvalue of the sector block
    H[sector, sector], so E must be an eigenvalue in psi's own sector; and
    the overlap of psi with that eigenvalue's eigenspace, spanned by the
    block's eigenvectors (zero outside the sector).  Either leak above
    LEAK_TOL gives the verdict "sector_leak".  A vanishing state is the
    verdict "null_vector"; it has no sector, so its gaps are taken to the
    full spectrum.  Raises CapacityError, before any monodromy is built,
    where `spectrum` would.
    """
    ch = problem.chain
    check_dense_capacity(ch)
    report = {"verdict": "ok", "samples": [], "roots": result.roots}
    pv = None
    try:
        pv = build_state(problem, result.roots).to_complex()[:, 0]
    except ZeroVectorError:
        report["verdict"] = "null_vector"
    if pv is not None:
        weights = ch.cartan_weights
        inside = (weights == weights[np.argmax(np.abs(pv))]).all(axis=1)
        sector = np.flatnonzero(inside)
        norm = np.linalg.norm(pv)
        report["sector"] = weights[sector[0]].tolist()
        report["state_leak"] = float(np.linalg.norm(pv[~inside]) / norm)
        if not report["state_leak"] <= LEAK_TOL:
            report["verdict"] = "sector_leak"
    for x in samples:
        entry = {"x": [x.real, x.imag]}
        report["samples"].append(entry)
        try:
            e_val = complex(eigenvalue(problem, x, result.roots))
            hmat = ch.transfer(x).to_complex()
        except PoleError as exc:
            entry["skipped"] = f"pole: {exc}"
            continue
        entry["eigenvalue"] = [e_val.real, e_val.imag]
        if pv is None:
            vals = np.linalg.eigvals(hmat)
            entry["spectrum_gap"] = float(min(abs(vals - e_val)))
            continue
        leak = np.abs(hmat[np.ix_(~inside, inside)]).max() / np.abs(hmat).max()
        entry["sector_leak"] = float(leak)
        if not leak <= LEAK_TOL:
            report["verdict"] = "sector_leak"
        vals, vecs = np.linalg.eig(hmat[np.ix_(sector, sector)])
        gap = float(min(abs(vals - e_val)))
        entry["spectrum_gap"] = gap
        entry["eigen_residual"] = float(
            np.linalg.norm(hmat @ pv - e_val * pv) / norm)
        near = np.abs(vals - e_val) < max(1e-6, 10 * gap + 1e-12)
        basis, _ = np.linalg.qr(vecs[:, near])
        entry["eigenspace_overlap"] = float(
            np.linalg.norm(basis.conj().T @ pv[sector]) / norm)
    return report
