"""Dense matrix kernel over exact rationals and complex doubles.

Everything downstream (R-matrices, monodromies, Bethe vectors) is built on
`Mat`, a dense matrix that exists in one of two backends:

* ``"exact"`` -- an integer numpy array together with a single positive
  denominator, so every entry is num[i,j]/den with arbitrary-precision
  integers.  Matrix products use a fast int64 path whenever a conservative
  bound guarantees no overflow, and fall back to object-dtype Python ints
  otherwise.  Results are gcd-normalized, so identities that hold over the
  rationals test as exact zeros.
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
from math import gcd, prod

import numpy as np

EXACT = "exact"
FLOAT = "float"

# headroom below 2**63-1 so a full inner-product bound fits in int64
_INT64_SAFE = 1 << 62


class ZeroVectorError(Exception):
    """A constructed state vanishes identically."""


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
            self.num = num if num.dtype == object else num.astype(object)
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
        return Mat(EXACT, np.zeros(shape, dtype=object), 1, amax=0)

    @staticmethod
    def identity(n, backend):
        if backend == FLOAT:
            return Mat(FLOAT, np.eye(n, dtype=np.complex128))
        return Mat(EXACT, np.eye(n, dtype=object), 1, amax=1)

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
            self._amax = (max(int(self.num.max()), -int(self.num.min()))
                          if self.num.size else 0)
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
        if a < _INT64_SAFE:
            g = int(np.gcd.reduce(np.abs(self.num.astype(np.int64)).ravel()))
        else:
            g = 0
            for x in self.num.flat:
                g = gcd(g, int(x))
                if g == 1:
                    break
        g = gcd(g, self.den)
        if g > 1:
            self.num = self.num // g
            self.den //= g
            self._amax = a // g
        return self

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other):
        if self.backend == FLOAT:
            return Mat(FLOAT, self.num @ other.num)
        inner = self.shape[1]
        bound = inner * self.amax() * other.amax()
        amax = None
        if bound == 0:
            # a zero operand, whose partner may not fit in int64
            c = np.zeros((self.shape[0], other.shape[1]), dtype=np.int64)
            amax = 0
        elif bound < _INT64_SAFE:
            c = self.num.astype(np.int64) @ other.num.astype(np.int64)
            amax = int(np.abs(c).max()) if c.size else 0
            c = c.astype(object)
        else:
            c = self.num.dot(other.num)
        return Mat(EXACT, c, self.den * other.den, amax=amax)._reduced()

    def __add__(self, other):
        if self.backend == FLOAT:
            return Mat(FLOAT, self.num + other.num)
        d = self.den * other.den // gcd(self.den, other.den)
        c = self.num * (d // self.den) + other.num * (d // other.den)
        return Mat(EXACT, c, d)._reduced()

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
        return Mat(EXACT, self.num * s.numerator, self.den * s.denominator)._reduced()

    def kron(self, other):
        if self.backend == FLOAT:
            return Mat(FLOAT, np.kron(self.num, other.num))
        amax = None
        if self._amax is not None and other._amax is not None:
            amax = self._amax * other._amax
        return Mat(EXACT, np.kron(self.num, other.num), self.den * other.den,
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
    den = 1
    for m in mats:
        den = den * m.den // gcd(den, m.den)
    num = np.hstack([m.num if m.den == den else m.num * (den // m.den)
                     for m in mats])
    return Mat(EXACT, num, den)._reduced()


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
