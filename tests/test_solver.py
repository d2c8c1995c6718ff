"""Newton solver: root finding, determinism, deduplication, rejection
filters, the verification report, and that a solve builds no monodromy."""

import ast
from fractions import Fraction as Fr
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from betheforge import bethe_solver, chain, cli
from betheforge.bethe_solver import (SolveProblem, SolveResult, eigenvalue,
                                     build_state, residual_vector, solve,
                                     verify_solution)
from betheforge.chain import CapacityError, Chain, ChainSpec, \
    default_inhomogeneities
from betheforge.linalg import Mat
from betheforge.scalars import F_left, F_right, PoleError
from conftest import (grid_weights, written_out_clearing_factors,
                      written_out_eigenvalue, written_out_raw_rel,
                      written_out_residuals, written_out_split_roots)


def _chain(model, length=2):
    zs = tuple(complex(j) / (2 * length) * 2 for j in range(length))
    return Chain(ChainSpec(model, length, zs, "float"))


@pytest.fixture(scope="module")
def gl2_chain():
    return _chain("gl2")


@pytest.fixture(scope="module")
def sp4_chain():
    return _chain("sp4")


def test_gl2_single_root(gl2_chain):
    prob = SolveProblem(gl2_chain, "gl2", (1,), starts=20, seed=7, tol=1e-12)
    res = solve(prob)
    assert len(res) == 1
    assert res[0].converged
    assert abs(res[0].roots["u"][0] - (-0.25)) < 1e-10
    assert res[0].residual <= 1e-12


def test_problem_rejects_a_chain_of_another_model(gl2_chain):
    with pytest.raises(ValueError, match="'sp4'.*'gl2'"):
        SolveProblem(gl2_chain, "sp4", (0, 1, 0))


def test_zero_unknowns_trivially_converged(gl2_chain):
    res = solve(SolveProblem(gl2_chain, "gl2", (0,)))
    assert len(res) == 1 and res[0].converged and res[0].residual == 0.0


def test_determinism(gl2_chain):
    a = solve(SolveProblem(gl2_chain, "gl2", (1,), starts=16, seed=3))
    b = solve(SolveProblem(gl2_chain, "gl2", (1,), starts=16, seed=3))
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_multiple_starts_deduplicate(gl2_chain):
    res = solve(SolveProblem(gl2_chain, "gl2", (1,), starts=40, seed=1))
    assert len(res) == 1  # many converged starts, one distinct root


def test_conjugate_pair_found_twice_is_one_result():
    # the pair -1/8 +- 0.18393i comes back from two starts with real parts
    # rounded apart, so sorting put the copies in opposite orders
    zs = tuple(complex(z) for z in default_inhomogeneities(4))
    ch = Chain(ChainSpec("gl2", 4, zs, "float"))
    res = solve(SolveProblem(ch, "gl2", (2,), starts=40, seed=1))
    assert len(res) == 2           # C(4, 2) - C(4, 1) highest-weight states
    pair = [r for r in res if abs(r.roots["u"][0].imag) > 0.1]
    assert len(pair) == 1
    assert sorted(z.imag for z in pair[0].roots["u"]) == pytest.approx(
        [-0.18393066755538, 0.18393066755538])


def _matches_by_permutation(a, b):
    """Oracle: some reordering of each family of `b` lies within the dedup
    tolerance of `a`, position by position."""
    return all(len(a[f]) == len(b[f]) and any(
        all(abs(x - y) <= bethe_solver.DEDUP_TOL for x, y in zip(a[f], perm))
        for perm in permutations(b[f])) for f in a)


_part = st.floats(-2, 2)
_noise = st.sampled_from([0.0, 1e-16, 1e-13, 3e-7, 2e-6])


@given(pairs=st.lists(st.tuples(_part, st.floats(0.01, 2)), min_size=1,
                      max_size=2),
       reals=st.lists(_part, max_size=1),
       noise=st.lists(st.tuples(_noise, st.floats(0, 2 * np.pi)), min_size=5,
                      max_size=5),
       order=st.randoms(use_true_random=False))
def test_same_roots_compares_families_as_multisets(pairs, reals, noise, order):
    fam = [complex(re, s * im) for re, im in pairs for s in (1, -1)]
    fam += [complex(re) for re in reals]
    other = [z + r * np.exp(1j * t) for z, (r, t) in zip(fam, noise)]
    order.shuffle(other)
    a, b = {"u": tuple(fam), "v": ()}, {"u": tuple(other), "v": ()}
    same = bethe_solver._same_roots(a, b)
    assert same == _matches_by_permutation(a, b)
    if max(r for r, _ in noise) <= 1e-13:      # rounding noise only
        assert same and bethe_solver._same_roots(b, a)
    assert not bethe_solver._same_roots(a, {"u": tuple(other[1:]), "v": ()})


@pytest.mark.parametrize("model,length,counts", [
    ("gl2", 2, (1,)), ("gl3", 3, (0, 1)), ("sp4", 2, (0, 1, 0))])
def test_solve_builds_no_monodromy_and_matches_grid_weights(
        model, length, counts, monkeypatch):
    def problem():
        ch = Chain(ChainSpec(model, length, tuple(
            complex(z) for z in default_inhomogeneities(length)), "float"))
        return SolveProblem(ch, model, counts, starts=8, seed=3)

    # reference: every weight read off the monodromy grid
    monkeypatch.setattr(Chain, "lam", lambda self, i, x: grid_weights(
        self, x)[self.space.index(i)])
    ref = solve(problem())
    monkeypatch.undo()

    def refuse(self, x):
        raise AssertionError("a monodromy was built")

    monkeypatch.setattr(Chain, "monodromy", refuse)
    got = solve(problem())
    assert ref and [(r.roots, r.residual) for r in got] \
        == [(r.roots, r.residual) for r in ref]


def test_seed_robustness(gl2_chain):
    for seed in range(8):
        res = solve(SolveProblem(gl2_chain, "gl2", (1,), starts=20, seed=seed))
        assert res and abs(res[0].roots["u"][0] + 0.25) < 1e-9


def test_sp4_wing_roots(sp4_chain):
    res = solve(SolveProblem(sp4_chain, "sp4", (0, 1, 0), starts=20, seed=3))
    assert res and abs(res[0].roots["v"][0] + 0.25) < 1e-9
    res = solve(SolveProblem(sp4_chain, "sp4", (0, 0, 1), starts=30, seed=3))
    assert res and abs(res[0].roots["w"][0] + 2.25) < 1e-9


@st.composite
def _flat_roots(draw, n):
    """n generic complex roots, among them conjugate pairs and real roots
    with imaginary part +0.0 or -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    while len(out) < n:
        kind = draw(st.sampled_from(["generic", "pair", "+0", "-0"]))
        re, im = rng.uniform(-2, 2), rng.uniform(0.05, 1.5)
        if kind == "pair":
            out += [complex(re, im), complex(re, -im)]
        else:
            out.append(complex(re, {"+0": 0.0, "-0": -0.0}.get(
                kind, im * rng.choice([-1, 1]))))
    return np.array(out[:n], dtype=complex)


def _hexes(values):
    return [h for z in values for h in (float(z.real).hex(),
                                        float(z.imag).hex())]


def _exact_key(value):
    """A complex value's float.hex pair, or an error name as it is."""
    return value if isinstance(value, str) else _hexes([value])


def _outcome(fn):
    """fn()'s value, or the name of the evaluation error it raised."""
    try:
        return fn()
    except (PoleError, ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__


@pytest.mark.parametrize("model,length,counts", [
    ("gl2", 2, (1,)), ("gl2", 3, (3,)), ("gl3", 2, (1, 1)),
    ("gl3", 3, (1, 2)), ("gl3", 3, (2, 1)), ("sp4", 2, (1, 1, 1)),
    ("sp4", 2, (2, 1, 2)), ("sp4", 3, (1, 2, 1))])
def test_clearing_table_matches_written_out_products(model, length, counts):
    prob = SolveProblem(_chain(model, length), model, counts)

    def written_out(vec, form):
        roots = written_out_split_roots(prob, vec)
        raw, _ = written_out_raw_rel(prob, roots)
        if form == "cleared":
            fac = written_out_clearing_factors(prob, roots)
            raw = [a * d for a, d in zip(raw, fac)]
        return _hexes(raw)

    @given(vec=_flat_roots(sum(counts)))
    @settings(max_examples=60)
    def check(vec):
        roots = bethe_solver._split_roots(prob, vec)
        want = written_out_split_roots(prob, vec)
        assert list(roots) == list(want)
        assert ({f: _hexes(r) for f, r in roots.items()}
                == {f: _hexes(r) for f, r in want.items()})
        assert _outcome(lambda: _hexes(
            bethe_solver._clearing_factors(prob, roots))) == _outcome(
            lambda: _hexes(written_out_clearing_factors(prob, want)))
        for form in ("raw", "cleared"):
            got = _outcome(lambda: [float(x).hex() for x in residual_vector(
                prob, vec, form=form)])
            assert got == _outcome(lambda: written_out(vec, form))
        for x in (4.3 + 0.2j, complex(vec[0].real, -0.0), vec[0] + 0.5):
            got = _outcome(lambda: complex(eigenvalue(prob, x, roots)))
            ref = _outcome(lambda: complex(
                written_out_eigenvalue(prob, x, want)))
            if regrouped and not isinstance(ref, str):
                # the term table multiplies gl3's middle term as
                # lam2 F(v-bar, x) F(x, u-bar), the written-out formula as
                # lam2 F(x, u-bar) F(v-bar, x): they differ by the rounding
                # of that term, which the sum may cancel down to
                middle = (prob.chain.lam(2, x) * F_right(x, roots["u"])
                          * F_left(roots["v"], x))
                assert abs(got - ref) <= 1e-15 * max(abs(ref), abs(middle))
            else:
                assert _exact_key(got) == _exact_key(ref)

    regrouped = model == "gl3" and min(counts) >= 1
    check()


_rational = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@pytest.mark.parametrize("model,length,counts", [
    ("gl2", 2, (2,)), ("gl3", 2, (2, 2)), ("sp4", 2, (2, 1, 2)),
    ("sp4", 1, (1, 2, 1))])
def test_term_table_matches_written_out_formulas_exactly(model, length,
                                                        counts):
    ch = Chain(ChainSpec(model, length, default_inhomogeneities(length)))
    prob = SolveProblem(ch, model, counts)

    @given(vals=st.lists(_rational, min_size=sum(counts) + 1,
                         max_size=sum(counts) + 1))
    @settings(max_examples=40)
    def check(vals):
        *flat, x = vals
        roots = bethe_solver._split_roots(prob, flat)
        assert _outcome(lambda: bethe_solver._residuals(prob, roots)) \
            == _outcome(lambda: written_out_residuals(prob, roots))
        assert _outcome(lambda: eigenvalue(prob, x, roots)) \
            == _outcome(lambda: written_out_eigenvalue(prob, x, roots))

    check()


@pytest.mark.parametrize("model,counts", [
    ("gl2", (2,)), ("gl3", (2, 2)), ("sp4", (2, 2, 2))])
def test_derived_clearing_removes_every_pole_it_claims(model, counts):
    # a factor (product, other, s) of either term of a condition has a pole
    # at r + s = o for each root o of `other`, and each z-shift t of the
    # condition one at r - z + t = 0.  A root eps from such a pole gives a
    # raw residual growing like 1/eps and, with the derived clearing, a
    # cleared one that stays bounded; the clearing claims exactly these
    prob = SolveProblem(_chain(model), model, counts)
    entry = bethe_solver.MODELS[model]
    rng = np.random.default_rng(5)
    base = {fam: tuple(complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
                       for _ in range(n))
            for fam, n in zip(entry["unknowns"], counts)}
    z = complex(prob.chain.spec.inhomogeneities[0])
    offset, poles = 0, []
    for fam, (lhs, rhs, z_shifts, _) in entry["conditions"].items():
        here = [("z", t) for t in z_shifts] + [
            (other, s) for term in (lhs, rhs)
            for _, other, s in entry["terms"][term][1]]
        for other, s in dict.fromkeys(here):
            # root 0 of `fam` is moved to the pole, so the other root o is
            # root 1 when `other` is `fam` itself
            o = z if other == "z" else base[other][1]
            sizes = []
            for eps in (1e-6, 1e-8):
                roots = dict(base)
                roots[fam] = (o - s + eps * np.exp(0.7j),) + base[fam][1:]
                vec = np.array([r for f in entry["unknowns"]
                                for r in roots[f]])
                sizes.append([abs(complex(*residual_vector(
                    prob, vec, form)[2 * offset:2 * offset + 2]))
                    for form in ("raw", "cleared")])
            (raw6, cleared6), (raw8, cleared8) = sizes
            assert raw8 > 30 * raw6, (fam, other, s)
            assert cleared8 < 3 * cleared6, (fam, other, s)
            poles.append((fam, other, s))
        offset += len(base[fam])
    claimed = [(fam, other, s) for fam, _, *factors in entry["clearing"]
               for other, *shifts in factors for s in shifts]
    assert sorted(claimed, key=str) == sorted(poles, key=str)


def _compares_model_to_a_name(node):
    sides = [node.left, *node.comparators]
    return (any(isinstance(s, ast.Attribute) and s.attr == "model"
                for s in sides)
            and any(isinstance(s, ast.Constant) and isinstance(s.value, str)
                    for s in sides))


def test_no_module_dispatches_on_the_model_name():
    # per-model behaviour is read from the model tables, never from a
    # comparison such as `problem.model == "gl3"`
    found = []
    for mod in (bethe_solver, chain, cli):
        with open(mod.__file__) as fh:
            tree = ast.parse(fh.read())
        found += [f"{mod.__name__}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and _compares_model_to_a_name(node)]
    assert found == []


def test_residual_vector_forms(gl2_chain):
    prob = SolveProblem(gl2_chain, "gl2", (1,))
    vec = np.array([0.3 + 0.4j])
    rel = residual_vector(prob, vec, form="relative")
    raw = residual_vector(prob, vec, form="raw")
    cleared = residual_vector(prob, vec, form="cleared")
    assert rel.shape == raw.shape == cleared.shape == (2,)
    # at the root all three vanish
    root = np.array([-0.25 + 0j])
    for form in ("relative", "raw", "cleared"):
        assert np.max(np.abs(residual_vector(prob, root, form=form))) < 1e-12


def test_verify_solution_report(gl2_chain):
    prob = SolveProblem(gl2_chain, "gl2", (1,), starts=20, seed=7)
    res = solve(prob)[0]
    rep = verify_solution(prob, res, [4.3 + 0j, 1.2 + 0.9j])
    assert rep["verdict"] == "ok"
    # one flipped site over the vacuum: one of each local value
    assert rep["sector"] == [1, 1] and rep["state_leak"] == 0.0
    for s in rep["samples"]:
        # every key the harness, the CLI and the benchmark read
        assert {"x", "eigenvalue", "spectrum_gap", "eigen_residual",
                "eigenspace_overlap", "sector_leak"} <= set(s)
        assert s["sector_leak"] == 0.0
        assert s["eigen_residual"] <= 1e-9
        assert s["spectrum_gap"] <= 1e-7
        assert s["eigenspace_overlap"] > 0.99


def _sector_of(prob, roots):
    weights = prob.chain.cartan_weights
    pv = build_state(prob, roots).to_complex()[:, 0]
    return (weights == weights[np.argmax(np.abs(pv))]).all(axis=1)


def test_sector_gap_rejects_an_eigenvalue_of_another_sector(monkeypatch):
    # gl2 L=4, one magnon: the two-magnon sector holds singlets whose
    # eigenvalues are not in the one-magnon sector
    ch = _chain("gl2", 4)
    prob = SolveProblem(ch, "gl2", (1,), starts=20, seed=7, tol=1e-12)
    res = solve(prob)[0]
    x = 1.2 + 0.9j
    hmat = ch.transfer(x).to_complex()
    mine = _sector_of(prob, res.roots)
    own = np.linalg.eigvals(hmat[np.ix_(mine, mine)])
    full = np.linalg.eigvals(hmat)
    other = full[np.argmax([min(abs(own - v)) for v in full])]
    assert min(abs(own - other)) > 1e-3
    monkeypatch.setattr(bethe_solver, "eigenvalue",
                        lambda problem, x, roots: other)
    (s,) = verify_solution(prob, res, [x])["samples"]
    assert min(abs(full - other)) < 1e-10    # the full-spectrum gap passes
    assert s["spectrum_gap"] >= 1e-6


def test_state_spread_over_two_sectors_fails(monkeypatch):
    ch = _chain("gl2")
    prob = SolveProblem(ch, "gl2", (1,), starts=20, seed=7)
    res = solve(prob)[0]
    psi = build_state(prob, res.roots)
    spread = psi + ch.vacuum().omega.scale(complex(0.1 * psi.max_abs()))
    monkeypatch.setattr(bethe_solver, "build_state", lambda problem, r: spread)
    rep = verify_solution(prob, res, [4.3 + 0j])
    assert rep["verdict"] == "sector_leak" and rep["state_leak"] > 1e-3


def test_transfer_coupling_two_sectors_fails():
    ch = _chain("gl2")
    prob = SolveProblem(ch, "gl2", (1,), starts=20, seed=7)
    res = solve(prob)[0]
    assert _sector_of(prob, res.roots).tolist() == [False, True, True, False]
    plain = ch.transfer

    def leaky(x):
        hmat = plain(x)
        num = hmat.num.copy()
        num[0, 1] += 1e-6 * np.abs(num).max()   # from psi's sector to (2, 0)
        return Mat(hmat.backend, num, hmat.den)

    ch.transfer = leaky
    rep = verify_solution(prob, res, [4.3 + 0j, 1.2 + 0.9j])
    assert rep["verdict"] == "sector_leak" and rep["state_leak"] == 0.0
    for s in rep["samples"]:
        assert 1e-7 < s["sector_leak"] < 1e-5


def test_verify_refuses_past_dense_capacity_before_building():
    ch = _chain("sp4", 5)                     # D = 1024 > SPECTRUM_CAPACITY
    calls = []
    plain = ch.site_r
    ch.site_r = lambda x, z: calls.append(z) or plain(x, z)
    prob = SolveProblem(ch, "sp4", (0, 1, 0))
    res = SolveResult({"u": (), "v": (-0.25 + 0j,), "w": ()}, 0.0, 0, True,
                      1.0)
    with pytest.raises(CapacityError):
        verify_solution(prob, res, [4.3 + 0j])
    assert calls == []


def test_verify_skips_pole_samples(gl2_chain):
    prob = SolveProblem(gl2_chain, "gl2", (1,), starts=20, seed=7)
    res = solve(prob)[0]
    rep = verify_solution(prob, res, [0j])  # sits on an inhomogeneity
    assert "skipped" in rep["samples"][0]


def test_null_vector_verdict():
    ch = Chain(ChainSpec("sp4", 1, (0j,), "float"))
    prob = SolveProblem(ch, "sp4", (1, 0, 0), starts=4, seed=1)
    res = solve(prob)
    assert res and res[0].residual == 0.0
    rep = verify_solution(prob, res[0], [4.3 + 0j, -1.7 + 0j])
    assert rep["verdict"] == "null_vector"
    for s in rep["samples"]:
        assert s["spectrum_gap"] <= 1e-12
        assert "eigen_residual" not in s


def test_perturbed_roots_fail_verification(gl2_chain):
    prob = SolveProblem(gl2_chain, "gl2", (1,), starts=20, seed=7)
    res = solve(prob)[0]
    bad = {"u": tuple(z + 1e-3 for z in res.roots["u"])}
    psi = build_state(prob, bad)
    worst = 0.0
    for x in (4.3 + 0j, -2.0 + 0j, 1.5 + 0.5j):
        e = complex(eigenvalue(prob, x, bad))
        pv = psi.to_complex()[:, 0]
        hm = gl2_chain.transfer(x).to_complex()
        worst = max(worst, float(np.linalg.norm(hm @ pv - e * pv)
                                 / np.linalg.norm(pv)))
    assert worst >= 1e-4


def test_result_serialization(gl2_chain):
    res = solve(SolveProblem(gl2_chain, "gl2", (1,), starts=12, seed=5))[0]
    d = res.to_dict()
    assert set(d) == {"roots", "residual", "iterations", "converged",
                      "condition"}
    assert d["roots"]["u"][0][0] == pytest.approx(-0.25, abs=1e-9)
