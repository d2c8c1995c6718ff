"""Fundamental chains: monodromy construction, vacuum detection, weight
functions, RTT/commutation residuals and the dense-diagonalization oracle."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from betheforge.chain import (CapacityError, Chain, ChainSpec, aux_matrix,
                              chain_spec_from_dict, check_commuting,
                              check_rtt, default_inhomogeneities, spectrum)
from betheforge.linalg import EXACT, FLOAT, residual
from betheforge.rmatrix import build_gl_r
from betheforge.scalars import PoleError, f, h


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
            assert residual(grid[(i, k)], rmat.block(i - 1, k - 1, 2, 2)) == 0
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
                assert residual(full.block(a, b, D, D), ch.t(i, k, x)) == 0
    # two sectors on the symplectic auxiliary leg: mixed-sign blocks vanish
    sectors = ((-2, -1), (1, 2))
    tilde = aux_matrix(ch, x, sectors)
    for a, i in enumerate(sectors[0] + sectors[1]):
        for b, k in enumerate(sectors[0] + sectors[1]):
            blk = tilde.block(a, b, D, D)
            if (i > 0) == (k > 0):
                assert residual(blk, ch.t(i, k, x)) == 0
            else:
                assert blk.is_zero() and not ch.t(i, k, x).is_zero()


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
