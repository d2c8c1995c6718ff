"""Eigenvalues and Bethe conditions, and their numerical solution on the
float backend.

Each model's eigenvalue is written once, as a table of terms in `MODELS`:
a weight lam_i(x) times set products of the root families at shifted
arguments.  Each family's Bethe condition equates two of those terms at
each of its roots (the cancellation of E's poles there), and the factors
of its pole-clearing multiplier are derived from the same two terms, so
the eigenvalue, the conditions and the clearing cannot drift apart.

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
from .nested_gl import gl2_vector, gl3_vector
from .nested_sp4 import Sp4BetheConfig, sp4_bethe_vector
from .scalars import F2_left, F2_right, F_left, F_right, PoleError, \
    _residual_pair, _roots

FD_STEP = 1e-7
DEDUP_TOL = 1e-6
COLLISION_TOL = 1e-8
RUNAWAY_RADIUS = 1e3
# relative weight-sector leak of a state or a transfer matrix that still passes
LEAK_TOL = 1e-10


# One entry per solved model.  `unknowns` are the root families in
# flat-vector order, one count each in `SolveProblem.counts`: gl2 (N,),
# gl3 (M, Nu) for M outer roots v and Nu inner roots u, sp4 (N, P, Q).
# `terms` is E(x): a sum of terms (i, factors), each lam_i(x) times its
# factors in the order listed, a factor (product, family, s) being that
# set product (`scalars`) of the family's roots at x + s.  `conditions`
# holds each family's condition, in residual order, as (lhs, rhs, z-shifts,
# divide): at each root r those two terms agree at x = r with r dropped
# from its family.  `clearing` is derived from them (`_derived_clearing`);
# the z-shifts and `divide` give its factors in the inhomogeneities, which
# come from the weights and so from no set product (`_clearing_factors`).
# `vector` is a lambda over module-level names, so a patch of those names
# (as the benchmark's tracer makes) is seen.
MODELS = {
    "gl2": dict(
        unknowns=("u",),
        vector=lambda ch, r: gl2_vector(ch, r["u"]),
        terms=((1, (("F_left", "u", 0),)),
               (2, (("F_right", "u", 0),))),
        conditions={"u": (0, 1, (1,), False)}),
    "gl3": dict(
        unknowns=("v", "u"),
        vector=lambda ch, r: gl3_vector(ch, r["u"], r["v"]),
        terms=((1, (("F_left", "u", 0),)),
               (2, (("F_left", "v", 0), ("F_right", "u", 0))),
               (3, (("F_right", "v", 0),))),
        conditions={"u": (0, 1, (1,), False), "v": (2, 1, (1,), True)}),
    "sp4": dict(
        unknowns=("u", "v", "w"),
        vector=lambda ch, r: sp4_bethe_vector(
            ch, Sp4BetheConfig(r["u"], r["v"], r["w"])),
        terms=((1, (("F2_left", "u", 0), ("F_right", "v", 0),
                    ("F_right", "w", -2))),
               (2, (("F_left", "v", 0), ("F_left", "w", -2))),
               (-1, (("F2_right", "u", 0), ("F_left", "v", 2),
                     ("F_left", "w", 0))),
               (-2, (("F_right", "v", 2), ("F_right", "w", 0)))),
        conditions={"u": (0, 2, (1,), True), "v": (0, 1, (1,), False),
                    "w": (2, 3, (1, 3), True)}),
}

# The set products a term may name, each with whether it takes the root set
# first.  A module-level table, so the tracer's patch of the functions is
# seen.
_SET_PRODUCTS = {"F_left": (F_left, True), "F_right": (F_right, False),
                 "F2_left": (F2_left, True), "F2_right": (F2_right, False)}


def _derived_clearing(model):
    """The `clearing` spec of `_clearing_factors`: per condition, in residual
    order, (family, divide, ("z", *z-shifts), (other, *shifts), ...).

    A factor of either term on family `other` at shift s has its poles at
    r + s = o for the roots o of `other`, so it contributes (r + s) - o;
    each family enters once, in `unknowns` order, with its distinct shifts
    in increasing order.
    """
    out = []
    for fam, (lhs, rhs, z_shifts, divide) in model["conditions"].items():
        shifts = {}
        for _, factors in (model["terms"][lhs], model["terms"][rhs]):
            for _, other, s in factors:
                shifts.setdefault(other, set()).add(s)
        out.append((fam, divide, ("z", *z_shifts),
                    *((other, *sorted(shifts[other]))
                      for other in model["unknowns"] if other in shifts)))
    return tuple(out)


for _entry in MODELS.values():
    _entry["clearing"] = _derived_clearing(_entry)
del _entry


@dataclass
class SolveProblem:
    """Model, chain and excitation counts, plus solver options."""

    chain: Chain
    model: str
    counts: tuple
    tol: float = 1e-12
    max_iter: int = 60
    max_damping: int = 12
    starts: int = 20
    seed: int = 0
    guesses: list = field(default_factory=list)

    def __post_init__(self):
        if self.model != self.chain.spec.model:
            raise ValueError(f"model {self.model!r} does not match the "
                             f"chain's model {self.chain.spec.model!r}")

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
    roots, start = {}, 0
    for fam, n in zip(MODELS[problem.model]["unknowns"], problem.counts):
        roots[fam] = tuple(vec[start:start + n])
        start += n
    return roots


def _root_sets(problem: SolveProblem, roots):
    """Each family's roots as a RootSet, which refuses coincident roots."""
    unknowns = MODELS[problem.model]["unknowns"]
    return {fam: _roots(roots[fam]) for fam in unknowns}


def _term(chain: Chain, term, x, sets):
    """One eigenvalue term at x: lam_i(x) times its set products."""
    i, factors = term
    out = chain.lam(i, x)
    for product, fam, s in factors:
        fn, roots_first = _SET_PRODUCTS[product]
        y = _shifted(x, s)
        out = out * (fn(sets[fam], y) if roots_first else fn(y, sets[fam]))
    return out


def _residuals(problem: SolveProblem, roots):
    """{family: [(raw, relative)]}: each family's condition at each of its
    roots r, the lhs term against the rhs term at x = r with r dropped from
    its family, families in residual order."""
    model = MODELS[problem.model]
    terms = model["terms"]
    sets = _root_sets(problem, roots)
    out = {}
    for fam, (lhs, rhs, *_) in model["conditions"].items():
        out[fam] = []
        for k, r in enumerate(sets[fam]):
            rest = {**sets, fam: sets[fam].removing(k)}
            out[fam].append(_residual_pair(
                _term(problem.chain, terms[lhs], r, rest),
                _term(problem.chain, terms[rhs], r, rest)))
    return out


def _raw_rel(problem: SolveProblem, roots):
    pairs = [p for fam in _residuals(problem, roots).values() for p in fam]
    return ([complex(a) for a, _ in pairs], [complex(b) for _, b in pairs])


def _shifted(r, s):
    """r + s, written r - |s| for s < 0 and r for s = 0: adding an int turns
    an imaginary part of -0.0 into +0.0."""
    return r + s if s > 0 else r - -s if s < 0 else r


def _clearing_factors(problem: SolveProblem, roots):
    """Pole-clearing multipliers for each family's condition at its own root.

    Multiplying the raw residual by its denominator polynomial clears every
    finite pole, so Newton sees no pole walls and no flat tail toward
    infinity.  A family's `clearing` entry (family, divide, *factors) gives
    that polynomial at root r: a factor (other, *shifts) multiplies in, for
    each root o of `other` but r itself, the product over the shifts s of
    (r + s) - o; `other` "z" stands for the inhomogeneities, each giving
    (r - z_j) + s.  The grouping is fixed so that float results are
    bit-identical to the written-out products (the test oracle): the terms
    are computed as just written, the terms of one factor's shifts are
    multiplied together before their product enters the running one, and
    factors and shifts enter in table order.

    With `divide` the multiplier is also divided by prod_j (r - z_j): on
    fundamental chains several weight functions vanish on the z_j, making
    each a spurious zero of the raw difference; the division removes those
    sinks (where no shared zero exists it merely repels iterates from the
    z_j, which are non-roots anyway).
    """
    zs = [complex(z) for z in problem.chain.spec.inhomogeneities]
    vals = {fam: [complex(z) for z in rs] for fam, rs in roots.items()}
    out = []
    for fam, divide, *factors in MODELS[problem.model]["clearing"]:
        for k, r in enumerate(vals[fam]):
            d = 1.0 + 0j
            for other, *shifts in factors:
                at_z = other == "z"
                for l, o in enumerate(zs if at_z else vals[other]):
                    if other == fam and l == k:
                        continue
                    f = None
                    for s in shifts:
                        t = _shifted(r - o, s) if at_z else _shifted(r, s) - o
                        f = t if f is None else f * t
                    d *= f
            if divide:
                for z in zs:
                    d = d / (r - z)
            out.append(d)
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
    return MODELS[problem.model]["vector"](problem.chain, roots)


def eigenvalue(problem: SolveProblem, x, roots):
    """E(x) at `roots`: the model's terms summed in table order."""
    sets = _root_sets(problem, roots)
    first, *rest = (_term(problem.chain, term, x, sets)
                    for term in MODELS[problem.model]["terms"])
    return sum(rest, first)


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
