"""Property-check orchestration: every algebraic identity the package
relies on, run across models, sizes and backends, with a machine-readable
report.

Each registered check draws its sample points from a per-case seeded
generator (so two runs with the same seed produce identical reports up to
timing fields), evaluates some family of identities, and reports the worst
residual.  Most checks are registry rows over one sampling policy
(`_sampled`): draw the points, clear of the chain's inhomogeneities when
the identity lives on a chain, build that chain, and keep the worst
residual over the trials.  Exact-backend cases must come out identically
zero; float cases carry explicit tolerances.  Checks whose spaces would
exceed the desk-scale capacity bound auto-skip with a reason.
"""

from __future__ import annotations

import fnmatch
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .chain import (CapacityError, Chain, ChainSpec, check_commuting,
                    check_rtt, default_inhomogeneities)
from .linalg import EXACT, FLOAT, Mat, residual
from .nested_gl import (gl2_exchange_residuals, gl2_vector,
                        gl3_hatted_rtt_residual, gl3_vacuum_relation_residuals)
from .nested_sp4 import (b_reorder_residual,
                         block_commutativity_residuals, block_rtt_residual,
                         dressed_rtt_residual, multi_exchange_residual,
                         offblock_annihilation_residual,
                         reduced_vacuum_residuals,
                         tilde_creation_residuals,
                         tilde_offshell_residuals, tilde_rtt_residual)
from .rmatrix import (PLUS, TILDE_SLOTS, build_block_r, build_tilde_r,
                      check_unitarity, check_ybe, dual_reorder_residuals,
                      mixed_ybe_residual, unit_F)
from . import bethe_solver as solver
from .scalars import RootSet, f, g, sum_identity_residuals

SCHEMA_VERSION = 1
FLOAT_TOL = 1e-12


@dataclass
class CheckCase:
    """One executed check with its verdict."""

    identifier: str
    claim: str
    backend: str
    seed: int
    status: str          # "pass" | "fail" | "skip"
    residual: float
    bound: float         # 0.0 means exact-zero requirement
    runtime: float
    note: str = ""

    def to_dict(self):
        return {
            "id": self.identifier, "claim": self.claim,
            "backend": self.backend, "seed": self.seed,
            "status": self.status, "residual": self.residual,
            "bound": self.bound, "runtime": round(self.runtime, 4),
            "note": self.note,
        }


class SkipCase(Exception):
    def __init__(self, reason):
        self.reason = reason


# -- deterministic sampling -------------------------------------------


def _case_rng(seed, identifier):
    return np.random.default_rng(zlib.crc32(f"{seed}:{identifier}".encode()))


_OFFSETS = (0, 1, -1, 2, -2, 3, -3, 4, -4)


def random_points(rng, n, taken=()):
    """Random rationals with pairwise differences clear of all pole offsets."""
    pts = []
    pool = list(taken)
    guard = 0
    while len(pts) < n:
        guard += 1
        if guard > 10000:
            raise RuntimeError("could not sample clear rational points")
        num = int(rng.integers(-9, 10))
        den = int(rng.choice([1, 2, 3, 5]))
        cand = Fraction(num, den)
        if all(cand - p not in _OFFSETS for p in pool):
            pts.append(cand)
            pool.append(cand)
    return pts


def _cast(points, backend):
    if backend == EXACT:
        return points
    return [complex(p) for p in points]


def _chain(model, length, backend):
    zs = default_inhomogeneities(length)
    if backend == FLOAT:
        zs = tuple(complex(z) for z in zs)
    return Chain(ChainSpec(model, length, zs, backend))


def _worst(values):
    """Largest |value| (0.0 for none); a NaN residual propagates and fails."""
    return float(np.max([float(abs(v)) for v in values], initial=0.0))


# -- check implementations --------------------------------------------


def _sampled(fn, n_points, trials=1, model=None, length=1):
    """A check reporting the worst residual of `fn` over `trials` draws of
    `n_points` sample points.

    With a model, `fn` receives the (model, length) chain before the points,
    which are drawn clear of its inhomogeneities.  `fn` returns one residual
    or a list (or tuple) of them.
    """
    taken = default_inhomogeneities(length) if model else ()

    def run(rng, backend):
        lead = (_chain(model, length, backend),) if model else ()
        worst = []
        for _ in range(trials):
            pts = _cast(random_points(rng, n_points, taken), backend)
            res = fn(*lead, *pts)
            worst.extend(res if isinstance(res, (list, tuple)) else [res])
        return _worst(worst)
    return run


_SIGN_PAIRS = [(e1, e2) for e1 in "+-" for e2 in "+-"]


def _tilde_sectors(x, y):
    """The two-sector matrix read back through its slot map, per sign block."""
    big = build_tilde_r(x, y).mat
    return [residual(Mat(big.backend, big.num[np.ix_(slots, slots)], big.den),
                     build_block_r(*signs, x, y).mat)
            for signs, slots in TILDE_SLOTS.items()]


def _dressed_rtt(ch, *pts):
    """Dressed RTT for the four sign pairs at roots pts[:-2], x, y = pts[-2:]."""
    *roots, x, y = pts
    return [dressed_rtt_residual(ch, *signs, x, y, tuple(roots))
            for signs in _SIGN_PAIRS]


def _second_level(residuals, p_count, ch, u, x, *roots):
    """Second-level relations at one u root; v-bar is the first `p_count`
    of `roots`, w-bar the rest."""
    return residuals(ch, (u,), x, roots[:p_count], roots[p_count:])


def _chk_dual_compose(rng, backend):
    worst = []
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                for d in (1, 2):
                    lhs = unit_F(PLUS, a, b, backend) @ unit_F(PLUS, c, d, backend)
                    rhs = unit_F(PLUS, a, d, backend).scale(1 if b == c else 0)
                    worst.append(residual(lhs, rhs))
    return _worst(worst)


def _chk_vacuum(model):
    def run(rng, backend):
        worst = []
        vac_values = []
        for length in (1, 2):
            ch = _chain(model, length, backend)
            vac = ch.vacuum()
            vac_values.append(vac.local_value)
            pairs = vac.annihilating_pairs()
            for _ in range(5):
                (x,) = _cast(random_points(rng, 1,
                                           taken=default_inhomogeneities(length)),
                             backend)
                grid = ch.monodromy(x)
                for (i, k) in pairs:
                    worst.append((grid[(i, k)] @ vac.omega).max_abs())
                for i in ch.space:
                    lam = ch.lam(i, x)
                    worst.append(residual(grid[(i, i)] @ vac.omega,
                                          vac.omega.scale(lam)))
        if vac_values[0] != vac_values[1]:
            return float("inf")
        return _worst(worst)
    return run


def _chk_sector_rtt(rng, backend):
    worst = []
    for length in (1, 2):
        ch = _chain("sp4", length, backend)
        x, y = _cast(random_points(rng, 2, taken=default_inhomogeneities(length)),
                     backend)
        worst.append(tilde_rtt_residual(ch, x, y))
    return _worst(worst)


def _chk_second_level_onshell(rng, backend):
    """At the rational plus-wing root the second-level state is an exact
    common eigenvector of both dressed traces, and the two halves sum to
    the final eigenvalue."""
    from .nested_sp4 import (Sp4BetheConfig, prop_eigenvalue,
                             tilde_eigen_residuals)
    ch = _chain("sp4", 2, backend)
    root = Fraction(-1, 4) if backend == EXACT else complex(-0.25)
    cfg = Sp4BetheConfig((), (root,), ())
    (x,) = _cast(random_points(rng, 1, taken=default_inhomogeneities(2)
                               + (Fraction(-1, 4),)), backend)
    worst = list(tilde_eigen_residuals(ch, cfg, x))
    merged = prop_eigenvalue(ch, "+", x, cfg) + prop_eigenvalue(ch, "-", x, cfg)
    final = solver.eigenvalue(solver.SolveProblem(ch, "sp4", (0, 1, 0)), x,
                              {"u": (), "v": (root,), "w": ()})
    worst.append(abs(merged - final))
    return _worst(worst)


# -- end-to-end checks (float backend) ----------------------------------


def _sample_points(rng, n=3):
    return [complex(z) for z in random_points(rng, n, taken=(Fraction(0),
                                                             Fraction(1, 2)))]


def _chk_e2e_gl2(rng, backend):
    """Solve, then verify the best root itself (no scan over roots)."""
    prob = solver.SolveProblem(_chain("gl2", 2, FLOAT), "gl2", (1,),
                               seed=int(rng.integers(0, 2 ** 31)))
    results = solver.solve(prob)
    if not results:
        return float("inf")
    best = results[0]
    report = solver.verify_solution(prob, best, _sample_points(rng))
    if report["verdict"] != "ok":
        return float("inf")
    worst = best.residual
    for s in report["samples"]:
        if "skipped" in s:
            continue
        worst = max(worst, s["eigen_residual"] / 10, s["spectrum_gap"] / 10)
    return worst


def _chk_e2e(model, length, counts, expect_null=False, starts=24, zs=None):
    """Solve, then verify; families with several converged configurations
    are scanned for one whose state verifies (null families must report the
    null-vector verdict on every configuration)."""
    def run(rng, backend):
        if zs is None:
            ch = _chain(model, length, FLOAT)
        else:
            ch = Chain(ChainSpec(model, length, zs, FLOAT))
        prob = solver.SolveProblem(ch, model, counts, starts=starts,
                                   seed=int(rng.integers(0, 2 ** 31)))
        results = solver.solve(prob)
        if not results:
            return float("inf")
        samples = _sample_points(rng)
        best_worst = float("inf")
        for res in results[:6]:
            report = solver.verify_solution(prob, res, samples)
            worst = res.residual
            if expect_null:
                if report["verdict"] != "null_vector":
                    return float("inf")
            elif report["verdict"] != "ok":
                continue
            for s in report["samples"]:
                if "skipped" in s:
                    continue
                worst = max(worst, s["spectrum_gap"] / 10)
                if not expect_null:
                    worst = max(worst, s.get("eigen_residual", 0.0) / 10)
            best_worst = min(best_worst, worst)
            if expect_null:
                break
        return best_worst
    return run


def _chk_stretch_sp4(rng, backend):
    raise SkipCase(
        "the (N,P,Q)=(1,1,0) family is weight-degenerate on fundamental "
        "chains: the outer condition forces u = v-1 for every length and "
        "the paired state vanishes identically (checked numerically); no "
        "eigenvector claim is testable")


def _chk_negcontrol(model, length, counts):
    """Shift every root by 1e-3: the dense oracle must still find the state
    in one weight sector, and both its eigen-residual and its sector gap must
    now fail by at least 1e-4 at some sample point, proving the pipeline
    cannot pass vacuously."""
    def run(rng, backend):
        ch = _chain(model, length, FLOAT)
        prob = solver.SolveProblem(ch, model, counts, starts=24,
                                   seed=int(rng.integers(0, 2 ** 31)))
        results = solver.solve(prob)
        if not results:
            return float("inf")
        roots = {k: tuple(z + 1e-3 for z in v)
                 for k, v in results[0].roots.items()}
        shifted = solver.SolveResult(roots, float("inf"), 0, False, 0.0)
        report = solver.verify_solution(prob, shifted, _sample_points(rng, 3))
        checked = [s for s in report["samples"] if "skipped" not in s]
        if report["verdict"] != "ok" or not checked:
            return float("inf")
        worst = min(max(s[key] for s in checked)
                    for key in ("eigen_residual", "spectrum_gap"))
        return 0.0 if worst >= 1e-4 else float("inf")
    return run


# -- registry -----------------------------------------------------------


@dataclass
class CheckSpec:
    claim: str
    fn: object
    backends: tuple = (EXACT, FLOAT)
    float_bound: float = FLOAT_TOL


def _registry():
    checks = {}

    def add(identifier, claim, fn, backends=(EXACT, FLOAT),
            float_bound=FLOAT_TOL):
        checks[identifier] = CheckSpec(claim, fn, backends, float_bound)

    for n in range(7):
        add(f"sum_identity.n{n}",
            "two-sided evaluation of the rational summation identities",
            _sampled(lambda *p: sum_identity_residuals(RootSet(p[:-2]), p[-2],
                                                       p[-1]), n + 2, trials=8))
    add("scalar.algebra", "antisymmetry of g and f(x,y)f(y,x) = 1 - g^2",
        _sampled(lambda x, y: [g(x, y) + g(y, x),
                               f(x, y) * f(y, x) - (1 - g(x, y) ** 2)],
                 2, trials=100))
    add("dual.compose", "dual-leg mappings compose as F^a_b F^c_d = d^c_b F^a_d",
        _chk_dual_compose)

    for kind in ("gl2", "gl3", "sp4", "sp4tilde"):
        add(f"ybe.{kind}", f"Yang-Baxter equation for the {kind} R-matrix",
            _sampled(partial(check_ybe, kind), 3, trials=25))
        add(f"unitarity.{kind}", f"unitarity R12(x,y) R21(y,x) = I for {kind}",
            _sampled(partial(check_unitarity, kind), 2, trials=25))
    add("mixed_ybe", "sign-block R compatible with the dual-leg dressings",
        _sampled(lambda x, y, z: [mixed_ybe_residual(*signs, x, y, z)
                                  for signs in _SIGN_PAIRS], 3, trials=5))
    add("dual_reorder", "equal-argument reordering identities on three legs",
        _sampled(dual_reorder_residuals, 2, trials=5))
    add("tilde.sectors", "two-sector R-matrix restricts to the four blocks",
        _sampled(_tilde_sectors, 2))

    for model in ("gl2", "gl3", "sp4"):
        for length in (1, 2):
            add(f"rtt.{model}.L{length}",
                f"monodromy RTT relation, {model} length {length}",
                _sampled(check_rtt, 2, trials=10, model=model,
                         length=length))
            add(f"commuting.{model}.L{length}",
                f"[H(x), H(y)] = 0, {model} length {length}",
                _sampled(check_commuting, 2, trials=10, model=model,
                         length=length))
        add(f"vacuum.{model}",
            f"triangular vacuum and weight relations, {model}",
            _chk_vacuum(model))

    for n in (1, 2):
        add(f"gl2.creation_exchange.N{n}",
            "diagonal entries exchange through the gl2 creation string",
            _sampled(lambda ch, *p: gl2_exchange_residuals(ch, p[:-1], p[-1]),
                     n + 1, model="gl2", length=2))
    add("gl2.root_symmetry", "gl2 Bethe vector symmetric in its roots",
        _sampled(lambda ch, u1, u2: residual(gl2_vector(ch, (u1, u2)),
                                             gl2_vector(ch, (u2, u1))),
                 2, model="gl2", length=2))
    add("gl3.reduced_vacuum", "gl3 dressed vacuum weights mu1, mu2",
        _sampled(lambda ch, v1, v2, x: gl3_vacuum_relation_residuals(
            ch, (v1, v2), x), 3, model="gl3", length=2))
    add("gl3.dressed_rtt", "gl3 dressed monodromy satisfies the gl2 RTT",
        _sampled(lambda ch, v, x, y: gl3_hatted_rtt_residual(ch, (v,), x, y),
                 3, model="gl3"))

    for length in (1, 2):
        add(f"sp4.offblock.L{length}",
            "mixed-sign entries annihilate the block-generated subspace",
            _sampled(offblock_annihilation_residual, 1, model="sp4",
                     length=length))
    add("sp4.block_rtt", "sign-block monodromies satisfy the block RTT",
        _sampled(lambda ch, x, y: [block_rtt_residual(ch, *signs, x, y)
                                   for signs in _SIGN_PAIRS],
                 2, trials=3, model="sp4"))
    add("sp4.sector_rtt", "two-sector monodromy against the 16x16 R-matrix",
        _chk_sector_rtt)
    add("sp4.block_commutativity",
        "same-entry and cross-corner commutativity, block traces commute",
        _sampled(block_commutativity_residuals, 2, model="sp4"))
    for n in (1, 2):
        add(f"sp4.b_exchange.N{n}",
            "block monodromy exchange through the B-string",
            _sampled(lambda ch, *p: [multi_exchange_residual(ch, sign, p[-1],
                                                             p[:-1])
                                     for sign in "+-"], n + 1, model="sp4"))
        add(f"sp4.dressed_rtt.N{n}",
            "dressed monodromies satisfy the sign-block RTT",
            _sampled(_dressed_rtt, n + 2, model="sp4"))
    add("sp4.b_reorder", "two-root reorder rule of the B-string pairing",
        _sampled(b_reorder_residual, 2, model="sp4"))
    for n in (1, 2, 3):
        add(f"sp4.reduced_vacuum.N{n}",
            "all six reduced-vacuum relations of the dressed algebra",
            _sampled(lambda ch, *p: reduced_vacuum_residuals(ch, p[:-1], p[-1]),
                     n + 1, trials=10, model="sp4"))
    for (p, q) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        add(f"sp4.second_level_exchange.P{p}Q{q}",
            "second-level creation-string exchange relations",
            _sampled(partial(_second_level, tilde_creation_residuals, p),
                     p + q + 2, model="sp4"))
        # on one site the (2, 2) second-level state vanishes identically
        add(f"sp4.second_level_action.P{p}Q{q}",
            "off-shell action of the dressed diagonal on second-level states",
            _sampled(partial(_second_level, tilde_offshell_residuals, p),
                     p + q + 2, model="sp4",
                     length=2 if (p, q) == (2, 2) else 1))
    add("sp4.second_level_onshell",
        "on-shell second-level state is a common eigenvector of both "
        "dressed traces; the halves merge into the final eigenvalue",
        _chk_second_level_onshell)

    add("e2e.gl2", "gl2 chain: solve, eigenvector, spectrum match",
        _chk_e2e_gl2, backends=(FLOAT,), float_bound=1e-9)
    add("e2e.gl3.null",
        "gl3 pinned one-level configuration (null state, eigenvalue in "
        "spectrum)", _chk_e2e("gl3", 2, (1, 0), expect_null=True),
        backends=(FLOAT,), float_bound=1e-9)
    add("e2e.gl3.nested", "gl3 three-site singlet through the nested pipeline",
        _chk_e2e("gl3", 3, (1, 2), starts=40,
                 zs=(0j, 0.4 + 0j, 0.7 + 0j)),
        backends=(FLOAT,), float_bound=1e-8)
    add("e2e.sp4.null",
        "sp4 pinned single-root configuration (null state, eigenvalue in "
        "spectrum)", _chk_e2e("sp4", 1, (1, 0, 0), expect_null=True),
        backends=(FLOAT,), float_bound=1e-8)
    add("e2e.sp4.plus", "sp4 plus-wing excitation on two sites",
        _chk_e2e("sp4", 2, (0, 1, 0)), backends=(FLOAT,), float_bound=1e-8)
    add("e2e.sp4.minus", "sp4 minus-wing excitation on two sites",
        _chk_e2e("sp4", 2, (0, 0, 1), starts=40),
        backends=(FLOAT,), float_bound=1e-8)
    add("e2e.sp4.singlet",
        "sp4 two-site singlet through the full three-family pipeline",
        _chk_e2e("sp4", 2, (1, 1, 1), starts=60),
        backends=(FLOAT,), float_bound=1e-8)
    add("e2e.sp4.stretch", "sp4 stretch configuration (1,1,0) on two sites",
        _chk_stretch_sp4, backends=(FLOAT,), float_bound=1e-8)
    add("negcontrol.gl2", "perturbed gl2 roots fail the eigenvector check",
        _chk_negcontrol("gl2", 2, (1,)), backends=(FLOAT,), float_bound=0.5)
    add("negcontrol.sp4", "perturbed sp4 roots fail the eigenvector check",
        _chk_negcontrol("sp4", 2, (0, 1, 0)), backends=(FLOAT,),
        float_bound=0.5)
    return checks


_CHECKS = None


def registry():
    global _CHECKS
    if _CHECKS is None:
        _CHECKS = _registry()
    return _CHECKS


def run_case(identifier, seed, backend):
    spec = registry()[identifier]
    rng = _case_rng(seed, identifier)
    start = time.perf_counter()
    bound = 0.0 if backend == EXACT else spec.float_bound
    try:
        res = spec.fn(rng, backend)
        elapsed = time.perf_counter() - start
        resf = float(res)
        if backend == EXACT:
            status = "pass" if res == 0 else "fail"
        else:
            status = "pass" if resf <= spec.float_bound else "fail"
        return CheckCase(identifier, spec.claim, backend, seed, status,
                         resf, bound, elapsed)
    except SkipCase as sk:
        return CheckCase(identifier, spec.claim, backend, seed, "skip",
                         0.0, bound, time.perf_counter() - start, sk.reason)
    except CapacityError as ce:
        return CheckCase(identifier, spec.claim, backend, seed, "skip",
                         0.0, bound, time.perf_counter() - start, str(ce))


def run_suite(pattern="*", seed=7, jobs=1):
    """Run all registered checks matching the glob pattern."""
    names = [(ident, b) for ident, spec in registry().items()
             for b in spec.backends if fnmatch.fnmatch(ident, pattern)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(run_case, ident, seed, b) for ident, b in names]
            cases = [f.result() for f in futs]
    else:
        cases = [run_case(ident, seed, b) for ident, b in names]
    return cases


def report(cases, include_runtime=True):
    """JSON-ready report dict; failing cases listed first."""
    ordered = sorted(cases, key=lambda c: (c.status != "fail",
                                           c.identifier, c.backend))
    doc = {
        "schema": SCHEMA_VERSION,
        "total": len(cases),
        "passed": sum(c.status == "pass" for c in cases),
        "failed": sum(c.status == "fail" for c in cases),
        "skipped": sum(c.status == "skip" for c in cases),
        "cases": [c.to_dict() for c in ordered],
    }
    if not include_runtime:
        for c in doc["cases"]:
            c.pop("runtime", None)
    return doc


def format_table(doc):
    lines = ["%-42s %-6s %-5s %-12s %s" % ("check", "lane", "stat", "residual",
                                           "note")]
    for c in doc["cases"]:
        lines.append("%-42s %-6s %-5s %-12.3e %s" % (
            c["id"], c["backend"], c["status"], c["residual"],
            c["note"][:48]))
    lines.append("passed %d / failed %d / skipped %d" %
                 (doc["passed"], doc["failed"], doc["skipped"]))
    return "\n".join(lines)


def exit_code(doc):
    return 1 if doc["failed"] else 0
