"""Dense matrix kernel over exact rationals and complex doubles.

Everything downstream (R-matrices, monodromies, Bethe vectors) is built on
`Mat`, a dense matrix that exists in one of two backends:

* ``"exact"`` -- an integer numpy array together with a single positive
  denominator, so every entry is num[i,j]/den with arbitrary-precision
  integers.  The numerators are stored as int64 exactly when their largest
  absolute value (`Mat.amax`) is below ``_INT64_SAFE`` = 2**62, and as
  object-dtype Python ints from there up.  Each operation bounds its result
  entries before it runs, and `_numerators` picks its dtype from that
  bound: int64 below 2**62, object otherwise, so int64 never wraps.  The
  bounds, with k = lcm(dens) / den the multiplier that brings an operand
  to the common denominator:

  - ``a + b``, ``a - b``: amax(a) k_a + amax(b) k_b;
  - ``scale(p/q)``: amax |p|;
  - ``kron``: amax(a) amax(b);
  - ``a @ b``: inner amax(a) amax(b);
  - ``hstack`` and ``over``: amax k, per block;
  - ``zeros``, ``identity``, ``basis_vector``: int64.

  Results are gcd-normalized, so identities that hold over the rationals
  test as exact zeros; an object result whose amax falls below 2**62, by
  cancellation or reduction, is stored as int64 again.
* ``"float"`` -- a plain complex128 numpy array.

Every operator the package applies is a string of factors, each acting
on a few tensor legs of a larger space, and `apply_on_legs` is the one
primitive that applies such a string to a block of columns: per factor,
the columns are viewed as a tensor over the legs, the factor's legs are
moved to the front, and one product through `Mat.__matmul__` does the
work, as a matrix-product operator is applied (Schollwoeck,
arXiv:1008.3477).  A single operator is a one-factor string.
`braid_residual` compares two such products behind every RTT, Yang-Baxter
and reordering check.  `lift`, the dense embedding into the full Kronecker
product with identity elsewhere, is no part of any package path: it is the
oracle the tests hold `apply_on_legs` to.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

EXACT = "exact"
FLOAT = "float"

# headroom below 2**63-1 so a full inner-product bound fits in int64; an
# exact Mat stores its numerators as int64 exactly when its amax is below it
_INT64_SAFE = 1 << 62


class ZeroVectorError(Exception):
    """A constructed state vanishes identically."""


def _amax_of(num):
    return max(int(num.max()), -int(num.min())) if num.size else 0


def _stored(num, amax):
    """`num` in its storage dtype: int64 when its amax is below 2**62,
    object from there up."""
    dtype = np.int64 if amax < _INT64_SAFE else object
    return num if num.dtype == dtype else num.astype(dtype)


def _numerators(bound, *terms):
    """The arrays num * k of the exact (Mat, k) terms, in the dtype of an
    operation whose result entries are bounded by `bound`.

    Below `_INT64_SAFE` the work is int64, and every num * k fits.  A term
    can then be stored as object (amax >= 2**62), or have a k past int64,
    only when the result is zero: its bound's other factor is 0.  Such a
    term enters as int64 zeros.  From the bound up the work is Python ints
    in object arrays.
    """
    out = []
    for m, k in terms:
        if bound >= _INT64_SAFE:
            num = m.num.astype(object, copy=False)
        elif m.num.dtype == object or k * m.amax() == 0:
            num = np.zeros(m.shape, dtype=np.int64)
            k = 1
        else:
            num = m.num
        out.append(num if k == 1 else num * k)
    return out


class Mat:
    """Dense matrix; exact entries are num/den, float entries complex128."""

    __slots__ = ("backend", "num", "den", "_amax")

    def __init__(self, backend, num, den=1, amax=None):
        self.backend = backend
        if backend == FLOAT:
            self.num = np.asarray(num, dtype=np.complex128)
            self.den = 1
            self._amax = None
        else:
            if num.dtype != object:
                num = num.astype(np.int64, copy=False)
            elif amax is None:
                amax = _amax_of(num)
            self.num = num if amax is None else _stored(num, amax)
            self.den = int(den)
            if self.den < 0:
                self.num = -self.num
                self.den = -self.den
            if self.den == 0:
                raise ZeroDivisionError("zero denominator in exact matrix")
            self._amax = amax

    # -- construction -------------------------------------------------

    @staticmethod
    def zeros(shape, backend):
        if backend == FLOAT:
            return Mat(FLOAT, np.zeros(shape, dtype=np.complex128))
        return Mat(EXACT, np.zeros(shape, dtype=np.int64), 1, amax=0)

    @staticmethod
    def identity(n, backend):
        if backend == FLOAT:
            return Mat(FLOAT, np.eye(n, dtype=np.complex128))
        return Mat(EXACT, np.eye(n, dtype=np.int64), 1, amax=1)

    @staticmethod
    def basis_vector(n, i, backend):
        v = Mat.zeros((n, 1), backend)
        if backend == FLOAT:
            v.num[i, 0] = 1.0
        else:
            v.num[i, 0] = 1
            v._amax = 1
        return v

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.num.shape

    def amax(self):
        """Largest absolute numerator (exact backend only)."""
        if self._amax is None:
            self._amax = _amax_of(self.num)
            # int64 arrays handed in are trusted to stay below the bound
            # until their amax is read
            self.num = _stored(self.num, self._amax)
        return self._amax

    def _reduced(self):
        if self.backend == FLOAT:
            return self
        a = self.amax()
        if a == 0:
            self.den = 1
            return self
        if self.den == 1:
            return self
        if self.num.dtype == object:
            g = 0
            for x in self.num.flat:
                g = gcd(g, int(x))
                if g == 1:
                    break
        else:
            g = int(np.gcd.reduce(self.num.ravel()))
        g = gcd(g, self.den)
        if g > 1:
            self.den //= g
            self._amax = a // g
            self.num = _stored(self.num // g, self._amax)
        return self

    def over(self, den):
        """The same matrix written over `den`, a multiple of its own
        denominator, unreduced (float: itself)."""
        if self.backend == FLOAT or den == self.den:
            return self
        k = den // self.den
        amax = self.amax() * k
        return Mat(EXACT, _numerators(amax, (self, k))[0], den, amax=amax)

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other):
        if self.backend == FLOAT:
            return Mat(FLOAT, self.num @ other.num)
        bound = self.shape[1] * self.amax() * other.amax()
        a, b = _numerators(bound, (self, 1), (other, 1))
        return Mat(EXACT, a @ b, self.den * other.den)._reduced()

    def __add__(self, other):
        if self.backend == FLOAT:
            return Mat(FLOAT, self.num + other.num)
        d = lcm(self.den, other.den)
        ka, kb = d // self.den, d // other.den
        a, b = _numerators(self.amax() * ka + other.amax() * kb,
                           (self, ka), (other, kb))
        return Mat(EXACT, a + b, d)._reduced()

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Mat(self.backend, -self.num, self.den,
                   amax=self._amax if self.backend == EXACT else None)

    def scale(self, s):
        """Multiply by a scalar (Fraction/int for exact, complex for float)."""
        if self.backend == FLOAT:
            return Mat(FLOAT, self.num * complex(s))
        s = Fraction(s)
        p = s.numerator
        (num,) = _numerators(self.amax() * abs(p), (self, p))
        return Mat(EXACT, num, self.den * s.denominator)._reduced()

    def kron(self, other):
        if self.backend == FLOAT:
            return Mat(FLOAT, np.kron(self.num, other.num))
        amax = self.amax() * other.amax()
        a, b = _numerators(amax, (self, 1), (other, 1))
        return Mat(EXACT, np.kron(a, b), self.den * other.den,
                   amax=amax)._reduced()

    # -- inspection ----------------------------------------------------

    def entry(self, i, j):
        if self.backend == FLOAT:
            return complex(self.num[i, j])
        return Fraction(int(self.num[i, j]), self.den)

    def max_abs(self):
        """Largest |entry|, as Fraction (exact) or float."""
        if self.backend == FLOAT:
            return float(np.abs(self.num).max()) if self.num.size else 0.0
        return Fraction(self.amax(), self.den)

    def is_zero(self):
        if self.backend == FLOAT:
            return bool(np.all(self.num == 0))
        return self.amax() == 0

    def norm(self):
        """Float 2-norm of all entries (both backends)."""
        if self.backend == FLOAT:
            return float(np.linalg.norm(self.num))
        return float(np.linalg.norm(self.to_complex()))

    def to_complex(self):
        if self.backend == FLOAT:
            return self.num.copy()
        return self.num.astype(np.complex128) / self.den

    def __repr__(self):
        return f"Mat({self.backend}, shape={self.shape})"


def residual(a, b):
    """max_abs(a - b): Fraction 0 means exact equality on the exact backend."""
    return (a - b).max_abs()


def lift(op, legs, dims):
    """Embed `op` (acting on the listed legs, in that order) into prod(dims).

    `dims` is the full list of leg dimensions; identity on all other legs.
    The package applies operators through `apply_on_legs`; this dense
    embedding is kept as the oracle its tests compare against.
    """
    n = len(dims)
    rest = [i for i in range(n) if i not in legs]
    d_rest = 1
    for i in rest:
        d_rest *= dims[i]
    full = op.kron(Mat.identity(d_rest, op.backend)) if d_rest > 1 else op
    order = list(legs) + rest
    if order == list(range(n)):
        return full
    # tensor axes currently in `order`; permute rows and columns back to 0..n-1
    cur_dims = [dims[i] for i in order]
    axes = [order.index(i) for i in range(n)]
    arr = full.num.reshape(cur_dims + cur_dims)
    arr = arr.transpose(axes + [a + n for a in axes])
    d_tot = 1
    for d in dims:
        d_tot *= d
    arr = arr.reshape(d_tot, d_tot).copy()
    return Mat(op.backend, arr, full.den,
               amax=full._amax if op.backend == EXACT else None)


def apply_on_legs(factors, dims, cols):
    """The operator string A_1 A_2 ... A_n applied to `cols`, without
    forming any lift.

    `factors` lists the (Mat, legs) pairs left to right; they act right
    to left.  For each, the rows of the current columns are read as a
    tensor over `dims`, the listed legs are moved to the front in order,
    the operator multiplies the resulting (prod of their dims, rest)
    matrix, and the axes are moved back.  The products go through
    `Mat.__matmul__`, so the exact int64/bigint choice is the kernel's own.
    """
    everything = list(range(len(dims)))
    out = cols
    for op, legs in reversed(factors):
        legs = list(legs)
        if legs == everything:
            out = op @ out
            continue
        front = list(range(len(legs)))
        arr = np.moveaxis(out.num.reshape(list(dims) + [-1]), legs, front)
        moved = arr.shape
        flat = Mat(out.backend, arr.reshape(op.shape[1], -1), out.den,
                   amax=out._amax)
        acted = op @ flat
        back = np.moveaxis(acted.num.reshape(moved), front, legs)
        out = Mat(out.backend, back.reshape(out.shape), acted.den,
                  amax=acted._amax)
    return out


def braid_residual(dims, a, b, c, cols=None):
    """max|(A B C - C B A) cols|, with `cols` the identity when None.

    `a`, `b`, `c` are factor strings on the tensor legs `dims` (lists of
    (Mat, legs) pairs, left to right, as `apply_on_legs` takes them).
    Both products are applied to the columns one factor at a time.  Every
    RTT, Yang-Baxter and reordering identity of the package is this
    relation on three operands.
    """
    if cols is None:
        cols = Mat.identity(prod(dims), a[0][0].backend)
    return (apply_on_legs(a + b + c, dims, cols)
            - apply_on_legs(c + b + a, dims, cols)).max_abs()


def hstack(mats):
    """Concatenate Mats (shared backend) horizontally; exact blocks are
    brought to a common denominator."""
    if mats[0].backend == FLOAT:
        return Mat(FLOAT, np.hstack([m.num for m in mats]))
    den = lcm(*(m.den for m in mats))
    blocks = [m.over(den) for m in mats]
    return Mat(EXACT, np.hstack([b.num for b in blocks]), den,
               amax=max(b.amax() for b in blocks))._reduced()


def check_nonzero(vec: Mat, what="state"):
    """Return `vec`, or raise ZeroVectorError if it vanishes (float: norm < 1e-12)."""
    if vec.backend == EXACT:
        if vec.is_zero():
            raise ZeroVectorError(f"{what} is exactly zero")
    elif vec.norm() < 1e-12:
        raise ZeroVectorError(f"{what} has norm {vec.norm():.3e}")
    return vec


def rref_basis(vectors, float_tol=1e-9):
    """Prune a list of column vectors to an independent spanning subset.

    Gaussian elimination (exact over Fractions, tolerance-based pivoting on
    floats); returns indices of a basis among the input vectors.
    """
    if not vectors:
        return []
    exact = vectors[0].backend == EXACT
    n = vectors[0].shape[0]
    rows = []
    pivots = []
    keep = []
    for idx, v in enumerate(vectors):
        if exact:
            cur = [Fraction(int(v.num[i, 0]), v.den) for i in range(n)]
        else:
            cur = [complex(v.num[i, 0]) for i in range(n)]
            scale = max(abs(c) for c in cur) if cur else 0.0
            if scale:
                cur = [c / scale for c in cur]
        for row, p in zip(rows, pivots):
            if cur[p]:
                c = cur[p]
                cur = [a - c * b for a, b in zip(cur, row)]
        if exact:
            p = next((i for i, a in enumerate(cur) if a), None)
        else:
            p = int(np.argmax(np.abs(cur))) if cur else None
            if p is not None and abs(cur[p]) < float_tol:
                p = None
        if p is None:
            continue
        c = cur[p]
        cur = [a / c for a in cur]
        rows.append(cur)
        pivots.append(p)
        keep.append(idx)
    return keep
