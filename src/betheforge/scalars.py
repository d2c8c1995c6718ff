"""Scalar field layer: exact rationals / complex doubles and the four
rational structure functions

    f(x,y) = (x-y+1)/(x-y)      g(x,y) = 1/(x-y)
    h(x,y) = 1/(x-y+3)          k(x,y) = 1/(x-y-1)

plus the set products F(u-bar, x) = prod f(u_k, x) and F(x, u-bar), and the
pole-safe double-step variants used where the same root set enters at two
arguments one unit apart.

Exact scalars are `fractions.Fraction`; float scalars are `complex`.  Pole
detection is exact on rationals and threshold-based (|denominator| < 1e-12)
on floats.
"""

from __future__ import annotations

from fractions import Fraction

FLOAT_POLE_TOL = 1e-12


class PoleError(ArithmeticError):
    """A structure function was evaluated at (numerically) zero denominator."""


def is_exact(x) -> bool:
    return isinstance(x, (Fraction, int))


def _nonzero(d):
    """Guard a denominator; returns it unchanged or raises PoleError."""
    if is_exact(d):
        if d == 0:
            raise PoleError("exact pole: zero denominator")
    else:
        if abs(d) < FLOAT_POLE_TOL:
            raise PoleError(f"float pole: |denominator| = {abs(d):.3e}")
    return d


def one_like(x):
    return Fraction(1) if is_exact(x) else complex(1.0)


def f(x, y):
    """(x - y + 1)/(x - y)."""
    d = _nonzero(x - y)
    return (d + 1) / d


def g(x, y):
    """1/(x - y); antisymmetric."""
    return 1 / _nonzero(x - y)


def h(x, y):
    """1/(x - y + 3)."""
    return 1 / _nonzero(x - y + 3)


def k(x, y):
    """1/(x - y - 1)."""
    return 1 / _nonzero(x - y - 1)


class RootSet:
    """Ordered set of pairwise-distinct spectral parameters.

    Order is preserved by removal and by appending a new element, which is
    how replaced-argument sets {u-bar_k, x} enter the operator products.
    """

    __slots__ = ("values",)

    def __init__(self, values=()):
        vals = tuple(values)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                d = vals[i] - vals[j]
                zero = (d == 0) if is_exact(d) else abs(d) < FLOAT_POLE_TOL
                if zero:
                    raise ValueError(f"coincident roots at positions {i}, {j}")
        self.values = vals

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def removing(self, i):
        """u-bar_k: drop position i, order preserved."""
        return RootSet(self.values[:i] + self.values[i + 1:])

    def appending(self, x):
        """{u-bar, x}: new element appended at the end."""
        return RootSet(self.values + (x,))

    def __repr__(self):
        return f"RootSet({list(self.values)!r})"


def _roots(seq):
    return seq if isinstance(seq, RootSet) else RootSet(tuple(seq))


def _residual_pair(lhs, rhs):
    """(raw, relative) residual of the condition lhs = rhs."""
    raw = lhs - rhs
    scale = max(abs(lhs), abs(rhs), 1)
    return raw, raw / scale


def _vals(roots):
    return roots.values if isinstance(roots, RootSet) else tuple(roots)


def F_left(roots, x):
    """F(u-bar, x) = prod_k f(u_k, x); empty product is 1."""
    out = None
    for u in _vals(roots):
        t = f(u, x)
        out = t if out is None else out * t
    return out if out is not None else Fraction(1) if is_exact(x) else complex(1.0)


def F_right(x, roots):
    """F(x, u-bar) = prod_k f(x, u_k); empty product is 1."""
    out = None
    for u in _vals(roots):
        t = f(x, u)
        out = t if out is None else out * t
    return out if out is not None else Fraction(1) if is_exact(x) else complex(1.0)


def F2_left(roots, x):
    """F(u-bar, x-1) * F(u-bar, x) in combined form prod (u-x+2)/(u-x).

    The factor pair f(u,x-1) f(u,x) has a removable point at u = x-1; the
    combined quotient is regular there and leaves only the genuine pole u = x.
    """
    out = one_like(x)
    for u in _vals(roots):
        d = _nonzero(u - x)
        out = out * (d + 2) / d
    return out


def F2_right(x, roots):
    """F(x+1, u-bar) * F(x, u-bar) in combined form prod (x-u+2)/(x-u)."""
    out = one_like(x)
    for u in _vals(roots):
        d = _nonzero(x - u)
        out = out * (d + 2) / d
    return out


def sum_identity_residuals(roots, x, y):
    """Residuals of the two rational summation identities

        sum_k g(x,u_k) g(u_k,y) F(u_k, u-bar_k) = g(x,y) (F(x,u-bar) - F(y,u-bar))
        sum_k g(x,u_k) g(u_k,y) F(u-bar_k, u_k) = g(x,y) (F(u-bar,y) - F(u-bar,x))

    Both sides are evaluated independently; exact backend returns (0, 0).
    """
    roots = _roots(roots)
    zero = Fraction(0) if is_exact(x) else complex(0.0)
    lhs1 = lhs2 = zero
    for i, u in enumerate(roots):
        rest = roots.removing(i)
        w = g(x, u) * g(u, y)
        lhs1 = lhs1 + w * F_right(u, rest)
        lhs2 = lhs2 + w * F_left(rest, u)
    rhs1 = g(x, y) * (F_right(x, roots) - F_right(y, roots))
    rhs2 = g(x, y) * (F_left(roots, y) - F_left(roots, x))
    return abs(lhs1 - rhs1), abs(lhs2 - rhs2)


# -- parsing ------------------------------------------------------------


def parse_scalar(text, backend="exact"):
    """Parse "p/q" rationals (exact) or "a+bi" / [re, im] floats."""
    if isinstance(text, (list, tuple)) and len(text) == 2:
        return complex(float(text[0]), float(text[1]))
    s = str(text).strip().replace("−", "-")
    if backend == "exact":
        return Fraction(s)
    if s.endswith(("i", "j")):
        return complex(s[:-1] + "j")
    return complex(Fraction(s))

