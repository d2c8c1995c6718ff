"""Fundamental chains: monodromy construction, vacuum detection and weight
functions (read off the site R-matrices, held to the monodromy grid), the
byte-bounded caches, RTT/commutation residuals and the dense-diagonalization
oracle."""

from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from betheforge import chain as chain_mod
from betheforge.chain import (CapacityError, Chain, ChainSpec, NoVacuumError,
                              aux_matrix, chain_spec_from_dict,
                              check_commuting, check_rtt,
                              default_inhomogeneities, spectrum)
from betheforge.linalg import _INT64_SAFE, EXACT, FLOAT, Mat, lift, residual
from betheforge.rmatrix import build_gl_r
from betheforge.scalars import PoleError, f, h
from conftest import block, grid_weights


def _chain(model, length, backend=EXACT):
    zs = default_inhomogeneities(length)
    if backend == "float":
        zs = tuple(complex(z) for z in zs)
    return Chain(ChainSpec(model, length, zs, backend))


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec("gl2", 0, ())
    with pytest.raises(ValueError):
        ChainSpec("gl2", 2, (Fr(0), Fr(1)))       # difference on a pole offset
    with pytest.raises(ValueError):
        ChainSpec("gl2", 2, (Fr(0), Fr(0)))
    with pytest.raises(ValueError):
        ChainSpec("nope", 1, (Fr(0),))
    spec = chain_spec_from_dict(
        {"model": "sp4", "length": 2, "inhomogeneities": ["0", "1/2"]})
    assert spec.inhomogeneities == (Fr(0), Fr(1, 2))
    assert chain_spec_from_dict({"model": "gl2", "length": 2}).inhomogeneities \
        == (Fr(0), Fr(1, 2))


def test_default_inhomogeneities():
    zs = default_inhomogeneities(4)
    assert zs == (0, Fr(1, 4), Fr(1, 2), Fr(3, 4))
    assert all(-1 < a - b < 1 for a in zs for b in zs)


def test_single_site_monodromy_is_r_matrix_blocks():
    ch = _chain("gl2", 1)
    x = Fr(3)
    grid = ch.monodromy(x)
    rmat = build_gl_r(2, x, Fr(0)).mat
    for i in (1, 2):
        for k in (1, 2):
            blk = block(rmat, i - 1, k - 1, 2, 2)
            assert residual(grid[(i, k)], blk) == 0
    with pytest.raises(PoleError):
        ch.monodromy(Fr(0))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_aux_matrix_blocks_are_monodromy_entries(backend):
    x = Fr(17, 5) if backend == EXACT else complex(3.4, 0.3)
    for model in ("gl2", "gl3", "sp4"):
        ch = _chain(model, 2, backend)
        D = ch.dim
        full = aux_matrix(ch, x)
        for a, i in enumerate(ch.space):
            for b, k in enumerate(ch.space):
                assert residual(block(full, a, b, D, D), ch.t(i, k, x)) == 0
    # two sectors on the symplectic auxiliary leg: mixed-sign blocks vanish
    sectors = ((-2, -1), (1, 2))
    tilde = aux_matrix(ch, x, sectors)
    for a, i in enumerate(sectors[0] + sectors[1]):
        for b, k in enumerate(sectors[0] + sectors[1]):
            blk = block(tilde, a, b, D, D)
            if (i > 0) == (k > 0):
                assert residual(blk, ch.t(i, k, x)) == 0
            else:
                assert blk.is_zero() and not ch.t(i, k, x).is_zero()


# -- the block recursion against the dense lift product --------------------


def _lift_product(ch, x):
    """Oracle: T(x) = R_{0,1}(x, z_1) ... R_{0,L}(x, z_L) as a product of
    dense lifts on [aux, site_1, ..., site_L]."""
    dims = [ch.d] * (ch.spec.length + 1)
    full = None
    for j, z in enumerate(ch.spec.inhomogeneities):
        fac = lift(ch.site_r(x, z), [0, j + 1], dims)
        full = fac if full is None else full @ fac
    return full


def _assert_grid_is(ch, x, full):
    """Every grid block equals the oracle's, numerator and denominator."""
    D = ch.dim
    grid = ch.monodromy(x)
    for a, i in enumerate(ch.space):
        for b, k in enumerate(ch.space):
            blk = block(full, a, b, D, D)
            assert grid[(i, k)].den == blk.den
            assert np.array_equal(grid[(i, k)].num, blk.num)
    trace = block(full, 0, 0, D, D)
    for a in range(1, ch.d):
        trace = trace + block(full, a, a, D, D)
    assert residual(ch.transfer(x), trace) == 0
    assert residual(aux_matrix(ch, x), full) == 0


_rational = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("model", ["gl2", "gl3", "sp4"])
def test_monodromy_matches_lift_product(model, length):
    @settings(max_examples=5)
    @given(x=_rational, zs=st.lists(_rational, min_size=length,
                                    max_size=length))
    def check(x, zs):
        pts = [x] + zs
        # keep every difference off the integer pole offsets
        assume(all((a - b).denominator > 1 or abs(a - b) > 3
                   for n, a in enumerate(pts) for b in pts[n + 1:]))
        ch = Chain(ChainSpec(model, length, tuple(zs)))
        _assert_grid_is(ch, x, _lift_product(ch, x))

    check()


@pytest.mark.parametrize("model", ["gl3", "sp4"])
def test_monodromy_bigint_path_matches_lift_product(model, monkeypatch):
    # denominators near 1e6 push the numerators past the int64 bound
    ch = Chain(ChainSpec(model, 3, (Fr(0), Fr(1, 1000003), Fr(2, 1000033))))
    x = Fr(7, 999983)
    bigint = []
    plain = Mat.__matmul__

    def spy(a, b):
        bigint.append(a.shape[1] * a.amax() * b.amax() >= _INT64_SAFE)
        return plain(a, b)

    monkeypatch.setattr(Mat, "__matmul__", spy)
    ch.monodromy(x)
    monkeypatch.undo()
    assert len(bigint) == 2 and bigint[-1]
    _assert_grid_is(ch, x, _lift_product(ch, x))


@pytest.mark.parametrize("model,length", [("gl2", 8), ("sp4", 4)])
def test_float_monodromy_at_capacity_matches_lift_product(model, length):
    zs = tuple(complex(z) for z in default_inhomogeneities(length))
    ch = Chain(ChainSpec(model, length, zs, FLOAT))
    assert ch.dim == chain_mod.SPECTRUM_CAPACITY
    x = complex(3.4, 0.3)
    assert residual(aux_matrix(ch, x), _lift_product(ch, x)) < 1e-12


def _counting_site_r(ch):
    calls = []
    plain = ch.site_r

    def site_r(x, z):
        calls.append(z)
        return plain(x, z)

    ch.site_r = site_r
    return calls


def test_monodromy_miss_builds_each_site_once_and_hit_builds_none():
    ch = _chain("gl3", 3)
    calls = _counting_site_r(ch)
    x = Fr(17, 5)
    ch.monodromy(x)
    assert calls == list(ch.spec.inhomogeneities)
    ch.monodromy(x)
    ch.transfer(x)
    aux_matrix(ch, x, ((1, 2),))
    assert len(calls) == 3


def test_monodromy_blocks_are_read_only_views():
    ch = _chain("sp4", 2)
    grid = ch.monodromy(Fr(17, 5))
    assert grid.num.shape == (4, 4, 16, 16)
    for (i, k), blk in grid.items():
        assert np.shares_memory(blk.num, grid.num)
        with pytest.raises(ValueError):
            blk.num[0, 0] = 1


def test_monodromy_cache_is_bounded_in_bytes(monkeypatch):
    entry = _chain("gl2", 2, FLOAT).monodromy(complex(9)).num.nbytes
    ch = _chain("gl2", 2, FLOAT)
    monkeypatch.setattr(chain_mod, "_MONO_CACHE_BYTES", 3 * entry)
    xs = [complex(4 + n) for n in range(6)]

    def held():
        total = sum(g.num.nbytes for g in ch._mono_cache.values())
        assert total == ch._mono_cache.nbytes <= 3 * entry
        return list(ch._mono_cache)

    for n, x in enumerate(xs[:5]):
        ch.monodromy(x)
        assert held() == xs[max(0, n - 2):n + 1]
    ch.monodromy(xs[2])                     # a hit makes xs[2] the newest
    assert held() == [xs[3], xs[4], xs[2]]
    ch.monodromy(xs[5])                     # so the oldest, xs[3], goes
    assert held() == [xs[4], xs[2], xs[5]]
    # an entry larger than the whole bound is returned but not kept
    monkeypatch.setattr(chain_mod, "_MONO_CACHE_BYTES", entry - 1)
    assert not ch.monodromy(complex(20)).num.flags.writeable
    assert held() == []


def test_vacuum_detection_conventions():
    # gl chains annihilate the lower wedge (i > k) on the first basis state;
    # the symplectic chain the upper wedge (i < k) on the last
    for model, value, conv in (("gl2", 1, "i>k"), ("gl3", 1, "i>k"),
                               ("sp4", 2, "i<k")):
        for length in (1, 2):
            vac = _chain(model, length).vacuum()
            assert vac.local_value == value
            assert vac.convention == conv


def test_vacuum_annihilation_and_weights():
    ch = _chain("sp4", 2)
    vac = ch.vacuum()
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = Fr(int(rng.integers(4, 30)), 3)
        grid = ch.monodromy(x)
        for (i, k) in vac.annihilating_pairs():
            assert (grid[(i, k)] @ vac.omega).is_zero()
        for i in ch.space:
            lam = ch.lam(i, x)
            assert residual(grid[(i, i)] @ vac.omega,
                            vac.omega.scale(lam)) == 0


def test_weight_functions_against_product_formulas():
    # independent oracle: per-site closed forms of the fundamental weights
    zs = default_inhomogeneities(2)
    x = Fr(13, 4)
    ch2 = _chain("gl2", 2)
    prod_inv_f = Fr(1)
    for z in zs:
        prod_inv_f /= f(x, z)
    assert ch2.lam(1, x) == 1
    assert ch2.lam(2, x) == prod_inv_f
    ch3 = _chain("gl3", 2)
    assert ch3.lam(1, x) == 1
    assert ch3.lam(2, x) == ch3.lam(3, x) == prod_inv_f
    chs = _chain("sp4", 2)
    assert chs.lam(2, x) == 1
    assert chs.lam(1, x) == chs.lam(-1, x) == prod_inv_f
    lam_m2 = Fr(1)
    for z in zs:
        lam_m2 *= (1 - h(x, z)) / f(x, z)
    assert chs.lam(-2, x) == lam_m2


# -- weights and vacuum read off the site R-matrices ------------------------


def _off_poles(x, zs):
    return all((x - z).denominator > 1 or abs(x - z) > 3 for z in zs)


def _bits(values):
    return np.array(values, dtype=np.complex128).tobytes()


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("model", ["gl2", "gl3", "sp4"])
def test_site_weights_are_the_grid_read_off(model, length):
    zs = default_inhomogeneities(length)

    @settings(max_examples=5)
    @given(x=_rational, re=st.floats(-4, 4), im=st.floats(-2, 2))
    def check(x, re, im):
        assume(_off_poles(x, zs))
        ch = _chain(model, length)
        got = [ch.lam(i, x) for i in ch.space]
        assert all(type(w) is Fr for w in got)
        assert got == grid_weights(_chain(model, length), x)
        y = complex(re, im)
        assume(all(abs(y - complex(z) - off) > 1e-6
                   for z in zs for off in chain_mod._Z_OFFSETS))
        ch = _chain(model, length, FLOAT)
        got = [ch.lam(i, y) for i in ch.space]
        assert all(type(w) is complex for w in got)
        oracle = grid_weights(_chain(model, length, FLOAT), y)
        assert _bits(got) == _bits(oracle)

    check()


@pytest.mark.parametrize("model,length", [("gl2", 8), ("gl3", 5), ("sp4", 4)])
def test_site_weights_at_capacity_are_the_grid_read_off(model, length):
    rng = np.random.default_rng(5)
    for x in [complex(3.4, 0.3)] + [complex(*rng.uniform(-2, 2, 2))
                                    for _ in range(3)]:
        ch = _chain(model, length, FLOAT)
        got = [ch.lam(i, x) for i in ch.space]
        assert _bits(got) == _bits(grid_weights(ch, x))


def _grid_candidates(ch):
    """Oracle: the (value, convention) pairs the monodromy grid accepts, in
    scan order: at the three scan points the wedge entries annihilate the
    candidate and the diagonal ones act on it by a scalar."""
    primary = chain_mod._PRIMARY_CONVENTION[ch.spec.model]
    out = []
    for conv in (primary, "i>k" if primary == "i<k" else "i<k"):
        wedge = [(i, k) for i in ch.space for k in ch.space
                 if (i < k if conv == "i<k" else i > k)]
        for c in ch.space:
            omega = ch._candidate_omega(c)
            slot = int(np.argmax(np.abs(omega.to_complex()[:, 0])))
            ok = True
            for x in ch._scan_points():
                grid = ch.monodromy(x)
                ok &= all((grid[p] @ omega).is_zero() for p in wedge)
                for i in ch.space:
                    v = (grid[(i, i)] @ omega).to_complex()[:, 0]
                    ok &= bool(np.abs(v - v[slot] * omega.to_complex()[:, 0])
                               .max() < 1e-10)
            if ok:
                out.append((c, conv))
    return out


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("model", ["gl2", "gl3", "sp4"])
def test_site_vacuum_test_agrees_with_grid_scan(model, length, backend):
    ch = _chain(model, length, backend)
    found = list(ch._vacuum_candidates())
    assert found == _grid_candidates(ch)
    # a highest-weight vacuum under one wedge, a lowest under the other
    assert len(found) == 2
    assert found[0][1] == chain_mod._PRIMARY_CONVENTION[model]
    vac = ch.vacuum()
    assert (vac.local_value, vac.convention) == found[0]


def _with_extra_entries(model, entries):
    """A two-site chain whose site R-matrices carry one extra nonzero entry
    R[(a, s), (k, t)] for each tuple of slots (a, s, k, t) given."""
    ch = _chain(model, 2)
    plain, d = ch.site_r, ch.d

    def site_r(x, z):
        r = plain(x, z)
        num = r.num.copy()
        for a, s, k, t in entries:
            num[a * d + s, k * d + t] += r.den
        return Mat(EXACT, num, r.den)

    ch.site_r = site_r
    return ch


def _wedge_entry(model, c, conv):
    """An entry in a wedge block of `conv`, applied to e_c."""
    space = chain_mod._MODEL_SPACE[model]
    t, last = space.index(c), len(space) - 1
    return (last, t, 0, t) if conv == "i>k" else (0, t, last, t)


@pytest.mark.parametrize("model", ["gl2", "gl3", "sp4"])
def test_wedge_entry_in_a_site_r_rejects_its_vacuum(model):
    first, second = _chain(model, 2)._vacuum_candidates()
    # one wedge entry on the model's own vacuum: detection falls back
    ch = _with_extra_entries(model, [_wedge_entry(model, *first)])
    assert list(ch._vacuum_candidates()) == _grid_candidates(ch) == [second]
    # one on each of the two: no vacuum
    ch = _with_extra_entries(model, [_wedge_entry(model, *first),
                                     _wedge_entry(model, *second)])
    assert _grid_candidates(ch) == []
    with pytest.raises(NoVacuumError):
        ch.vacuum()


@pytest.mark.parametrize("model", ["gl2", "gl3", "sp4"])
def test_diagonal_block_leaving_the_vacuum_rejects_it(model):
    first, second = _chain(model, 2)._vacuum_candidates()
    t = chain_mod._MODEL_SPACE[model].index(first[0])
    for a in range(len(chain_mod._MODEL_SPACE[model])):
        # R_j[a, a] e_c gains a component off e_c
        ch = _with_extra_entries(model, [(a, 1 - min(t, 1), a, t)])
        assert list(ch._vacuum_candidates()) == _grid_candidates(ch) \
            == [second]


def test_weights_and_vacuum_build_no_monodromy(monkeypatch):
    def refuse(self, x):
        raise AssertionError("a monodromy was built")

    monkeypatch.setattr(Chain, "monodromy", refuse)
    for model in ("gl2", "gl3", "sp4"):
        for backend in (EXACT, FLOAT):
            ch = _chain(model, 3, backend)
            ch.vacuum()
            x = Fr(13, 4) if backend == EXACT else complex(3.25, 0.5)
            assert len({ch.lam(i, x) for i in ch.space}) > 1


def test_weights_and_monodromy_share_site_r_builds(monkeypatch):
    built = []
    plain = chain_mod.build_sp4_r
    monkeypatch.setattr(chain_mod, "build_sp4_r",
                        lambda x, z: built.append((x, z)) or plain(x, z))
    ch = _chain("sp4", 3, FLOAT)
    ch.vacuum()
    built.clear()
    x = complex(1.3, 0.7)
    ch.lam(1, x)
    ch.transfer(x)
    ch.lam(-2, x)
    assert built == [(x, z) for z in ch.spec.inhomogeneities]


def test_site_r_cache_is_bounded_in_bytes(monkeypatch):
    r_bytes = _chain("sp4", 2, FLOAT).site_r(complex(9), 0j).num.nbytes
    monkeypatch.setattr(chain_mod, "_SITE_R_CACHE_BYTES", 5 * r_bytes)
    ch = _chain("sp4", 2, FLOAT)
    for n in range(8):
        x = complex(4 + n, 0.5)
        ch.lam(1, x)
        ch.transfer(x)
        cache = ch._site_cache
        assert cache.nbytes == sum(map(cache.size, cache.values())) \
            <= 5 * r_bytes
        assert not ch.site_r(x, 0j).num.flags.writeable
    assert len(ch._site_cache) == 5
    # the most recently used stay; the read-only check made (x, 0) the newest
    assert list(ch._site_cache)[-2:] == [(complex(11, 0.5), 0.5 + 0j),
                                         (complex(11, 0.5), 0j)]


@pytest.mark.parametrize("model,length", [("gl2", 1), ("gl2", 2), ("gl3", 1),
                                          ("gl3", 2), ("sp4", 1), ("sp4", 2)])
def test_rtt_and_commuting_random(model, length):
    ch = _chain(model, length)
    rng = np.random.default_rng(11)
    taken = list(default_inhomogeneities(length))
    for _ in range(3):
        pts = []
        while len(pts) < 2:
            c = Fr(int(rng.integers(-9, 10)), int(rng.choice([2, 3, 5])))
            if all(c - p not in (0, 1, -1, 2, -2, 3, -3)
                   for p in taken + pts):
                pts.append(c)
        assert check_rtt(ch, pts[0], pts[1]) == 0
        assert check_commuting(ch, pts[0], pts[1]) == 0
    with pytest.raises(PoleError):
        check_rtt(ch, Fr(7), Fr(7))


def test_spectrum_trace_and_capacity():
    ch = _chain("gl2", 2, backend="float")
    x = 3.0 + 0j
    sp = spectrum(ch, x)
    assert sum(m for _, m in sp) == 4
    tr = sum(v * m for v, m in sp)
    assert abs(tr - np.trace(ch.transfer(x).to_complex())) < 1e-10
    chs = _chain("sp4", 2, backend="float")
    assert sum(m for _, m in spectrum(chs, x)) == 16
    # the capacity bound d^L <= 256 admits sp4 up to L = 4 and rejects L = 5
    big = Chain(ChainSpec("sp4", 5,
                          tuple(complex(z) for z in default_inhomogeneities(5)),
                          "float"))
    with pytest.raises(CapacityError):
        spectrum(big, x)


def test_sp4_single_site_transfer_is_scalar():
    ch = _chain("sp4", 1)
    x = Fr(13, 3)
    hmat = ch.transfer(x)
    val = hmat.entry(0, 0)
    from betheforge.linalg import Mat
    assert residual(hmat, Mat.identity(4, EXACT).scale(val)) == 0


# -- weight sectors of the transfer matrix ---------------------------------


def _weight_by_digits(ch, index):
    """Oracle: the Cartan weight of one basis state, from its local values."""
    slots = np.unravel_index(index, (ch.d,) * ch.spec.length)
    vals = [ch.space[s] for s in slots]
    if ch.spec.model == "sp4":
        return (vals.count(1) - vals.count(-1), vals.count(2) - vals.count(-2))
    return tuple(vals.count(c) for c in ch.space)


@pytest.mark.parametrize("length", [1, 2, 3])
@pytest.mark.parametrize("model", ["gl2", "gl3", "sp4"])
def test_transfer_is_block_diagonal_in_weight_sectors(model, length):
    ch = _chain(model, length)
    weights = ch.cartan_weights
    assert [tuple(w) for w in weights] == [_weight_by_digits(ch, n)
                                           for n in range(ch.dim)]
    across = (weights[:, None] != weights[None]).any(axis=2)

    @settings(max_examples=5)
    @given(x=_rational)
    def check(x):
        assume(all((x - z).denominator > 1 or abs(x - z) > 3
                   for z in ch.spec.inhomogeneities))
        assert np.all(ch.transfer(x).num[across] == 0)

    check()


@pytest.mark.parametrize("model,length", [("gl2", 8), ("gl3", 5), ("sp4", 4)])
def test_sector_spectra_make_up_the_spectrum(model, length):
    from scipy.optimize import linear_sum_assignment

    ch = _chain(model, length, FLOAT)
    x = complex(3.4, 0.3)
    hmat = ch.transfer(x).to_complex()
    _, label = np.unique(ch.cartan_weights, axis=0, return_inverse=True)
    blocks = [np.linalg.eigvals(hmat[np.ix_(label == s, label == s)])
              for s in range(label.max() + 1)]
    assert max(b.size for b in blocks) < ch.dim
    union = np.concatenate(blocks)
    full = np.array([v for v, m in spectrum(ch, x) for _ in range(m)])
    assert union.size == full.size == ch.dim
    # pair the two multisets; spectrum() merges eigenvalues within 1e-8
    rows, cols = linear_sum_assignment(np.abs(union[:, None] - full[None]))
    assert np.abs(union[rows] - full[cols]).max() < 1e-7
