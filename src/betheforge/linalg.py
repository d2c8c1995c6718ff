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

Operators that act on a few tensor legs of a larger space are applied to
columns by `apply_on_legs`: the columns are viewed as a tensor over the
legs, the listed legs are moved to the front, and one product through
`Mat.__matmul__` does the work, as a matrix-product operator is applied
(Schollwoeck, arXiv:1008.3477).  `lift`, the dense embedding into the full
Kronecker product with identity elsewhere, remains only where the dense
operator is itself what a check claims, and as the test oracle of
`apply_on_legs`.  `braid_residual` is the one embed-and-compare step behind
every three-leg identity check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
    def from_scalars(rows, backend):
        """Build from a nested sequence of Fractions/ints (exact) or numbers (float)."""
        if backend == FLOAT:
            return Mat(FLOAT, np.array(rows, dtype=np.complex128))
        fr = [[Fraction(x) for x in row] for row in rows]
        den = 1
        for row in fr:
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
        num = np.array([[int(x * den) for x in row] for row in fr], dtype=object)
        return Mat(EXACT, num, den)._reduced()

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
            self._amax = max((abs(int(x)) for x in self.num.flat), default=0)
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

    def copy(self):
        return Mat(self.backend, self.num.copy(), self.den, amax=self._amax)

    # -- arithmetic ----------------------------------------------------

    def __matmul__(self, other):
        if self.backend == FLOAT:
            return Mat(FLOAT, self.num @ other.num)
        inner = self.shape[1]
        bound = inner * self.amax() * other.amax()
        if bound < _INT64_SAFE:
            c = self.num.astype(np.int64) @ other.num.astype(np.int64)
            c = c.astype(object)
        else:
            c = self.num.dot(other.num)
        return Mat(EXACT, c, self.den * other.den)._reduced()

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

    def transpose(self):
        return Mat(self.backend, self.num.T.copy(), self.den,
                   amax=self._amax if self.backend == EXACT else None)

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


def apply_on_legs(op, legs, dims, cols):
    """lift(op, legs, dims) @ cols, without forming the lift.

    The rows of `cols` are read as a tensor over `dims`; the listed legs
    are moved to the front in order, `op` multiplies the resulting
    (prod of their dims, rest) matrix, and the axes are moved back.  The
    product goes through `Mat.__matmul__`, so the exact int64/bigint
    choice is the kernel's own.
    """
    legs = list(legs)
    if legs == list(range(len(dims))):
        return op @ cols
    front = list(range(len(legs)))
    arr = np.moveaxis(cols.num.reshape(list(dims) + [-1]), legs, front)
    moved = arr.shape
    flat = Mat(cols.backend, arr.reshape(op.shape[1], -1), cols.den,
               amax=cols._amax)
    out = op @ flat
    back = np.moveaxis(out.num.reshape(moved), front, legs)
    return Mat(cols.backend, back.reshape(cols.shape), out.den,
               amax=out._amax)


def braid_residual(dims, a, b, c, cols=None):
    """max|(A B C - C B A) cols|, or the plain max-abs residual when `cols`
    is None.

    `a`, `b`, `c` are (Mat, legs) pairs on the tensor legs `dims`.  With
    `cols` both products are applied to the columns one operand at a time
    (`apply_on_legs`); without, the operands are lifted and multiplied out.
    Every RTT, Yang-Baxter and reordering identity of the package is this
    relation on three legs.
    """
    if cols is None:
        a, b, c = (lift(op, legs, dims) for op, legs in (a, b, c))
        return (a @ b @ c - c @ b @ a).max_abs()

    def applied(*ops):
        out = cols
        for op, legs in reversed(ops):
            out = apply_on_legs(op, legs, dims, out)
        return out

    return (applied(a, b, c) - applied(c, b, a)).max_abs()


def swap_mat(d1, d2, backend):
    """Exchange operator V1 (x) V2 -> V2 (x) V1."""
    m = Mat.zeros((d1 * d2, d1 * d2), backend)
    one = 1 if backend == EXACT else 1.0
    for a in range(d1):
        for b in range(d2):
            m.num[b * d1 + a, a * d2 + b] = one
    if backend == EXACT:
        m._amax = 1
    return m


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
