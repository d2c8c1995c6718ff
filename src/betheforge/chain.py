"""Concrete highest-weight modules: inhomogeneous fundamental spin chains.

The monodromy on a chain of length L is the ordered product of R-matrices
on an auxiliary leg, T(x) = R_{0,1}(x, z_1) ... R_{0,L}(x, z_L); the entries
T^i_k(x) are the auxiliary-leg blocks, the transfer matrix is their trace,
and the vacuum is the unique repeated product basis vector annihilated by
one triangular half of the entries.  Which half is model-dependent: the
gl chains annihilate T^i_k for i > k, the symplectic chain for i < k;
detection scans the model's own convention first and falls back to the
other.

The vacuum and the weights are read off the site R-matrices; no monodromy
is built for them.  With R_j[a, k] the d x d block of R_{0,j}(x, z_j), the
candidate e_c...e_c passes when on every site each wedge block kills e_c
and each diagonal block keeps it on e_c.  A path of auxiliary values that
leaves the diagonal then takes a wedge step and dies, so the wedge entries
annihilate the vacuum and T^i_i multiplies it by lam_i(x) = prod_j
R_j[i, i][c, c] (Kulish-Reshetikhin, J. Phys. A 16 (1983) L591).  R entries
are combinations of 1, g and h, so three generic scan points decide it.

The monodromy itself, which `transfer`, `aux_matrix`, the B-strings and the
checks read, is built site by site as a matrix-product operator is applied:

    T^(j)[i, k] = sum_a T^(j-1)[i, a] (x) R_j[a, k],

one kernel product per site, O(d^3 D^2) for a new x rather than the
O((dD)^3) of dense lifts.  The result is one (d, d, D, D) array; the grid
entries T^i_k(x) are read-only views into it.  Site R-matrices and
monodromies are cached per chain under byte bounds.

Every product basis state carries its Cartan weight (`Chain.cartan_weights`).
The transfer matrix commutes with the weights, so it is block diagonal in the
sectors of equal weight, and a weight vector's dense check needs only its
sector's block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .linalg import EXACT, FLOAT, Mat, braid_residual, residual
# build_sp4_r stays importable from here for the benchmark's tracer test
from .rmatrix import _BUILDERS, SP4_SPACE, build_sp4_r, gl_space  # noqa: F401
from .scalars import is_exact, parse_scalar

SPECTRUM_CAPACITY = 256

_Z_OFFSETS = (0, 1, -1, 3, -3)

# Bytes each per-chain cache keeps (an exact entry counts its references,
# not the Python ints behind them).  The monodromies: one sp4 L=4 float
# entry.  The site R-matrices: those of four x on the largest verifiable
# float chain (sp4 L=4), so a Newton step's weights share their builds,
# and a verify sample's weights share them with its monodromy.
_MONO_CACHE_BYTES = 16 << 20
_SITE_R_CACHE_BYTES = 64 << 10


class NoVacuumError(Exception):
    """No repeated product basis vector satisfies either triangularity."""


class CapacityError(Exception):
    """Requested computation exceeds the declared desk-scale bound."""


# Per model (its site R-matrices come from `_BUILDERS[model]`): the local
# space; the Cartan weight of each local basis value in that order (gl(n)
# counts each value, sp(4) reads (n_1 - n_{-1}, n_2 - n_{-2})); and the
# annihilating wedge scanned first, per the model's own convention.
_MODELS = {
    "gl2": (gl_space(2), ((1, 0), (0, 1)), "i>k"),
    "gl3": (gl_space(3), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), "i>k"),
    "sp4": (SP4_SPACE, ((0, -1), (-1, 0), (1, 0), (0, 1)), "i<k"),
}


@dataclass(frozen=True)
class ChainSpec:
    """Model, length and inhomogeneities of a fundamental chain."""

    model: str
    length: int
    inhomogeneities: tuple
    backend: str = EXACT

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.length < 1:
            raise ValueError("chain length must be >= 1")
        zs = tuple(self.inhomogeneities)
        if len(zs) != self.length:
            raise ValueError("need one inhomogeneity per site")
        for a in range(len(zs)):
            for b in range(a + 1, len(zs)):
                d = zs[a] - zs[b]
                for off in _Z_OFFSETS:
                    bad = (d == off) if is_exact(d) else abs(d - off) < 1e-12
                    if bad:
                        raise ValueError(
                            f"inhomogeneities {a}, {b} differ by pole offset {off}")
        object.__setattr__(self, "inhomogeneities", zs)


def default_inhomogeneities(length):
    """z_j = (j-1)/L, exact; pairwise differences stay inside (-1, 1)."""
    return tuple(Fraction(j, length) for j in range(length))


def chain_spec_from_dict(data, backend=None):
    backend = backend or data.get("backend", EXACT)
    length = int(data["length"])
    if "inhomogeneities" in data:
        zs = tuple(parse_scalar(z, backend) for z in data["inhomogeneities"])
    else:
        zs = default_inhomogeneities(length)
        if backend == FLOAT:
            zs = tuple(complex(z) for z in zs)
    return ChainSpec(data["model"], length, zs, backend)


@dataclass
class VacuumData:
    """Detected vacuum: local basis value, triangularity, local space."""

    local_value: int
    convention: str            # "i<k" or "i>k": the annihilated wedge
    omega: Mat
    space: tuple

    def annihilating_pairs(self):
        sp = self.space
        if self.convention == "i<k":
            return [(i, k) for i in sp for k in sp if i < k]
        return [(i, k) for i in sp for k in sp if i > k]


class _Grid(dict):
    """Monodromy grid {(i, k): Mat} over one (d, d, D, D) array `num`."""

    def __init__(self, num, den):
        super().__init__()
        self.num = num
        self.den = den


class _ByteCache(dict):
    """Least-recently-used dict whose values, as `size` counts their bytes,
    stay within the bound passed at each insert."""

    def __init__(self, size):
        super().__init__()
        self.size, self.nbytes = size, 0

    def hit(self, key):
        """The value under `key`, now the most recently used, or None."""
        value = self.pop(key, None)
        if value is not None:
            self[key] = value
        return value

    def put(self, key, value, bound):
        self[key] = value
        self.nbytes += self.size(value)
        while self.nbytes > bound:
            self.nbytes -= self.size(self.pop(next(iter(self))))


class Chain:
    """A chain spec plus cached monodromies, vacuum and weights."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.space, self._local_weights, self._primary = _MODELS[spec.model]
        self.d = len(self.space)
        self.dim = self.d ** spec.length
        self.backend = spec.backend
        self._mono_cache = _ByteCache(lambda grid: grid.num.nbytes)
        self._site_cache = _ByteCache(lambda r: r.num.nbytes)
        self._vacuum = None

    # -- construction ---------------------------------------------------

    def site_r(self, x, z):
        """R_{0,j}(x, z) on [aux, site], read-only and cached per (x, z).
        Monodromy misses, the weights and the vacuum test all read it."""
        key = (x, z)
        r = self._site_cache.hit(key)
        if r is None:
            r = _BUILDERS[self.spec.model][0](x, z).mat
            r.num.flags.writeable = False
            self._site_cache.put(key, r, _SITE_R_CACHE_BYTES)
        return r

    def monodromy(self, x):
        """Grid {(i, k): Mat} of the auxiliary-leg blocks T^i_k(x).

        Site j folds R_j = R_{0,j}(x, z_j) into the running product by one
        `Mat` product: rows (i, p, q) of T^(j-1), inner index a, columns
        (k, s, t) of R_j; a transpose and reshape bring the result to shape
        (d, d, P*d, P*d) with P = d^(j-1).  The grid's `num` is the final
        (d, d, D, D) array (exact entries over the common denominator
        `den`), and its entries are read-only views of the blocks num[a, b].
        """
        grid = self._mono_cache.hit(x)
        if grid is not None:
            return grid
        d, backend = self.d, self.backend
        num = den = amax = None
        for z in self.spec.inhomogeneities:
            r = self.site_r(x, z)
            r4 = r.num.reshape(d, d, d, d).transpose(0, 2, 1, 3)  # [a, k, s, t]
            if num is None:
                num, den, amax = r4, r.den, r._amax
                continue
            p = num.shape[2]
            prod = (Mat(backend, num.transpose(0, 2, 3, 1).reshape(-1, d), den,
                        amax=amax)
                    @ Mat(backend, r4.reshape(d, -1), r.den, amax=r._amax))
            num = (prod.num.reshape(d, p, p, d, d, d)
                   .transpose(0, 3, 1, 4, 2, 5).reshape(d, d, p * d, p * d))
            den, amax = prod.den, prod._amax
        num = np.ascontiguousarray(num)
        num.flags.writeable = False
        grid = _Grid(num, den)
        for a, i in enumerate(self.space):
            for b, k in enumerate(self.space):
                grid[(i, k)] = Mat(backend, num[a, b], den)
        self._mono_cache.put(x, grid, _MONO_CACHE_BYTES)
        return grid

    @cached_property
    def cartan_weights(self):
        """Read-only (D, rank) int array: the Cartan weight of every product
        basis state, the sum of its sites' local weights (first site most
        significant, as in the state vectors)."""
        local = np.array(self._local_weights, dtype=np.int64)
        rank = local.shape[1]
        weights = np.zeros((1, rank), dtype=np.int64)
        for _ in range(self.spec.length):
            weights = (weights[:, None] + local[None]).reshape(-1, rank)
        weights.flags.writeable = False
        return weights

    def t(self, i, k, x):
        return self.monodromy(x)[(i, k)]

    def transfer(self, x):
        grid = self.monodromy(x)
        diag = [Mat(self.backend, grid.num[a, a], grid.den)
                for a in range(self.d)]
        return sum(diag[1:], diag[0])

    # -- vacuum ----------------------------------------------------------

    def _scan_points(self, n=3):
        """Generic evaluation points clear of every inhomogeneity offset."""
        exact = self.backend == EXACT
        cand, step = ((Fraction(17, 5), Fraction(7, 4)) if exact
                      else (complex(3.4), complex(1.75)))
        pts = []
        while len(pts) < n:
            if all(cand - z != off if exact else abs(cand - z - off) > 1e-9
                   for z in self.spec.inhomogeneities for off in _Z_OFFSETS):
                pts.append(cand)
            cand = cand + step
        return pts

    def _candidate_omega(self, value):
        """e_c...e_c, the basis state c (1 + d + ... + d^(L-1)) for slot c."""
        idx = self.space.index(value) * (self.dim - 1) // (self.d - 1)
        return Mat.basis_vector(self.dim, idx, self.backend)

    def vacuum(self) -> VacuumData:
        """The first candidate of `_vacuum_candidates`: the model's own
        convention is scanned first, the local values in space order."""
        if self._vacuum is None:
            found = next(self._vacuum_candidates(), None)
            if found is None:
                raise NoVacuumError(f"no triangular vacuum for {self.spec}")
            c, conv = found
            self._vacuum = VacuumData(c, conv, self._candidate_omega(c),
                                      self.space)
        return self._vacuum

    def _vacuum_candidates(self):
        """Every (value c, convention) whose e_c...e_c passes the site-local
        test of the module docstring, in scan order."""
        d = self.d
        # [r, a, k, s, t]: entry R[(a, s), (k, t)] of the r-th site R (every
        # site at every scan point) is nonzero, so R_j[a, k] e_c is [..., c]
        reach = np.stack([
            self.site_r(x, z).num.reshape(d, d, d, d) != 0
            for x in self._scan_points() for z in self.spec.inhomogeneities]
        ).transpose(0, 1, 3, 2, 4)
        diag = np.arange(d)
        upper = np.less.outer(diag, diag)      # slot order is value order
        primary = self._primary
        for conv in (primary, "i>k" if primary == "i<k" else "i<k"):
            wedge = upper if conv == "i<k" else upper.T
            for slot, c in enumerate(self.space):
                leaves = reach[:, diag, diag, :, slot][..., diag != slot]
                if not (reach[:, wedge, :, slot].any() or leaves.any()):
                    yield c, conv

    def lam(self, i, x):
        """Weight function lam_i(x) = prod_j R_j[i, i][c, c] on the vacuum
        e_c...e_c.

        The entries are multiplied in site order, from site 1's, as the
        block recursion multiplies them, so a float weight is the same
        double as the grid read-off of T^i_i(x) on the vacuum.
        """
        c = self.space.index(self.vacuum().local_value)
        n = self.space.index(i) * self.d + c          # R[(i, c), (i, c)]
        weight = None
        for z in self.spec.inhomogeneities:
            entry = self.site_r(x, z).entry(n, n)
            weight = entry if weight is None else weight * entry
        return weight


def check_rtt(chain: Chain, x, y):
    """Max-abs residual of R12(x,y) T1(x) T2(y) - T2(y) T1(x) R12(x,y)."""
    d = chain.d
    return braid_residual([d, d, chain.dim], [(chain.site_r(x, y), [0, 1])],
                          [(aux_matrix(chain, x), [0, 2])],
                          [(aux_matrix(chain, y), [1, 2])])


def aux_matrix(chain: Chain, x, sectors=None) -> Mat:
    """T(x) as one matrix on [aux, chain], block (a, b) holding T^i_k for
    the a-th and b-th index values of the auxiliary leg.

    `sectors` lists the index values of the auxiliary leg in slot order,
    grouped (default: the whole local space, one group).  Blocks that pair
    two different groups are zero, so ((1, 2),) gives the sign block T(+),
    ((-1, -2),) gives T(-), and ((-2, -1), (1, 2)) their direct sum.
    """
    sectors = sectors or (chain.space,)
    slots = [chain.space.index(i) for sec in sectors for i in sec]
    group = [n for n, sec in enumerate(sectors) for _ in sec]
    grid = chain.monodromy(x)
    blocks = grid.num[np.ix_(slots, slots)]
    blocks[np.not_equal.outer(group, group)] = 0
    n = len(slots) * chain.dim
    return Mat(chain.backend, blocks.transpose(0, 2, 1, 3).reshape(n, n),
               grid.den)._reduced()


def check_commuting(chain: Chain, x, y):
    """Max-abs residual of [H(x), H(y)]."""
    hx, hy = chain.transfer(x), chain.transfer(y)
    return residual(hx @ hy, hy @ hx)


def check_dense_capacity(chain: Chain):
    """Raise CapacityError when the chain is too large for a dense check."""
    if chain.dim > SPECTRUM_CAPACITY:
        raise CapacityError(f"dimension {chain.dim} exceeds {SPECTRUM_CAPACITY}")


def spectrum(chain: Chain, x):
    """Eigenvalues of H(x) with multiplicities, by dense diagonalization.

    Float backend only; sorted by (real, imag); clusters within 1e-8.
    """
    check_dense_capacity(chain)
    hmat = chain.transfer(x).to_complex()
    vals = np.linalg.eigvals(hmat)
    vals = sorted(vals, key=lambda v: (round(v.real, 10), round(v.imag, 10)))
    out = []
    for v in vals:
        if out and abs(v - out[-1][0]) < 1e-8:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((complex(v), 1))
    return out
