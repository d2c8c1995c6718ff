"""Scalar layer: structure functions, root sets, set products, the
summation identities, and exact/float backend agreement."""

from fractions import Fraction as Fr

import numpy as np
import pytest

from betheforge.scalars import (F2_left, F2_right, F_left, F_right,
                                PoleError, RootSet, f, g, h, k, parse_scalar,
                                sum_identity_residuals)
from conftest import format_scalar


def test_structure_function_values():
    assert f(Fr(3), Fr(1)) == Fr(3, 2)
    assert f(Fr(5), Fr(4)) == 2
    assert f(Fr(4), Fr(5)) == 0          # numerator x - y + 1 vanishes
    assert g(Fr(2), Fr(1)) == 1
    assert h(Fr(4), Fr(1)) == Fr(1, 6)
    assert k(Fr(4), Fr(1)) == Fr(1, 2)


def test_poles_raise():
    with pytest.raises(PoleError):
        f(Fr(1), Fr(1))
    with pytest.raises(PoleError):
        g(Fr(1), Fr(1))
    with pytest.raises(PoleError):
        h(Fr(1), Fr(4))                  # x - y = -3
    with pytest.raises(PoleError):
        k(Fr(2), Fr(1))                  # x - y = 1
    with pytest.raises(PoleError):
        f(1.0 + 0j, 1.0 + 1e-14j)        # float threshold


def test_rootset_order_and_removal():
    r = RootSet([Fr(3), Fr(1), Fr(7)])
    assert len(r) == 3
    assert r.removing(1).values == (Fr(3), Fr(7))
    assert r.appending(Fr(2)).values == (Fr(3), Fr(1), Fr(7), Fr(2))
    with pytest.raises(ValueError):
        RootSet([Fr(1), Fr(1)])


def test_set_products():
    assert F_left(RootSet([]), Fr(7)) == 1
    assert F_left(RootSet([Fr(3), Fr(5)]), Fr(1)) == Fr(15, 8)
    assert F_right(Fr(1), RootSet([Fr(3), Fr(5)])) == Fr(3, 8)
    with pytest.raises(PoleError):
        F_left(RootSet([Fr(3), Fr(5)]), Fr(3))


def test_double_step_products_match_factored_form():
    roots = RootSet([Fr(3), Fr(17, 2)])
    x = Fr(5, 3)
    assert F2_left(roots, x) == F_left(roots, x - 1) * F_left(roots, x)
    assert F2_right(x, roots) == F_right(x + 1, roots) * F_right(x, roots)


def test_double_step_regular_at_removable_point():
    # u - x = -1 is a pole of one factor and a zero of the other
    roots = RootSet([Fr(2)])
    x = Fr(3)
    assert F2_left(roots, x) == Fr(2 - 3 + 2, 2 - 3)  # (u-x+2)/(u-x) = -1
    with pytest.raises(PoleError):
        F_left(roots, x - 1)  # the factored form does hit the pole


def test_sum_identity_small_cases():
    assert sum_identity_residuals(RootSet([Fr(1), Fr(2)]), Fr(5), Fr(7)) == (0, 0)
    assert sum_identity_residuals(RootSet([]), Fr(5), Fr(7)) == (0, 0)
    assert sum_identity_residuals(
        RootSet([Fr(1), Fr(2), Fr(3), Fr(4)]), Fr(-1), Fr(10)) == (0, 0)


@pytest.mark.parametrize("n", range(7))
def test_sum_identity_random_sizes(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(8):
        pts = _distinct_rationals(rng, n + 2)
        roots = RootSet(pts[:n])
        r = sum_identity_residuals(roots, pts[-2], pts[-1])
        assert r == (0, 0)


def _distinct_rationals(rng, n):
    pts = []
    while len(pts) < n:
        c = Fr(int(rng.integers(-9, 10)), int(rng.choice([1, 2, 3, 5])))
        if all(c - p not in (0, 1, -1, 2, -2, 3, -3) for p in pts):
            pts.append(c)
    return pts


def test_antisymmetry_and_ff_identity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y = _distinct_rationals(rng, 2)
        assert g(x, y) + g(y, x) == 0
        assert f(x, y) * f(y, x) == 1 - g(x, y) ** 2


def test_float_backend_agreement():
    rng = np.random.default_rng(9)
    for _ in range(25):
        pts = _distinct_rationals(rng, 5)
        roots = RootSet(pts[:3])
        froots = RootSet([complex(p) for p in pts[:3]])
        x, y = pts[3], pts[4]
        exact = sum_identity_residuals(roots, x, y)
        approx = sum_identity_residuals(froots, complex(x), complex(y))
        assert exact == (0, 0)
        assert max(approx) <= 1e-12
        rel = abs(complex(F_left(roots, x)) - F_left(froots, complex(x)))
        assert rel <= 1e-13 * abs(complex(F_left(roots, x)))


def test_serialization_round_trip():
    assert parse_scalar("-3/2") == Fr(-3, 2)
    assert format_scalar(Fr(-3, 2)) == "-3/2"
    assert parse_scalar("1.3+0.2i", backend="float") == 1.3 + 0.2j
    assert parse_scalar([1.5, -2.0]) == 1.5 - 2.0j
    assert format_scalar(1.5 - 2.0j) == [1.5, -2.0]
    for x in (Fr(-3, 2), Fr(7)):
        assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar(format_scalar(1.5 - 2.0j)) == 1.5 - 2.0j
