"""Concrete highest-weight modules: inhomogeneous fundamental spin chains.

The monodromy on a chain of length L is the ordered product of R-matrices
on an auxiliary leg, T(x) = R_{0,1}(x, z_1) ... R_{0,L}(x, z_L); the entries
T^i_k(x) are the auxiliary-leg blocks, the transfer matrix is their trace,
and the vacuum is the unique repeated product basis vector annihilated by
one triangular half of the entries.  Which half is model-dependent: the
gl chains annihilate T^i_k for i > k, the symplectic chain for i < k;
detection scans the model's own convention first and falls back to the
other.  Weight functions lam_i(x) are never stored symbolically; they are
read off by applying T^i_i(x) to the vacuum.

The monodromy is built site by site, the way a matrix-product operator is
applied: with R_j[a, k] the d x d block of R_{0,j}(x, z_j) on site j,

    T^(j)[i, k] = sum_a T^(j-1)[i, a] (x) R_j[a, k],

one kernel product per site whose inner index is the auxiliary value a, so
a new x costs O(d^3 D^2) rather than the O((dD)^3) of multiplying dense
(dD) x (dD) lifts.  The result is one (d, d, D, D) array, cached per x under
a byte bound; the grid entries T^i_k(x) are read-only views into it, the
transfer matrix is the sum of its diagonal blocks, and `aux_matrix` is a
transpose and reshape of it.

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
from .rmatrix import SP4_SPACE, build_gl_r, build_sp4_r, gl_space
from .scalars import is_exact, parse_scalar

SPECTRUM_CAPACITY = 256

_Z_OFFSETS = (0, 1, -1, 3, -3)

# Bytes of monodromy arrays one chain keeps cached; past it the least
# recently used entries go.  It holds one sp4 L=4 float entry (16 MiB): a
# Newton step revisits few x, and the weights have their own cache.  An
# exact entry counts its references, not the Python ints behind them.
_MONO_CACHE_BYTES = 16 << 20


class NoVacuumError(Exception):
    """No repeated product basis vector satisfies either triangularity."""


class CapacityError(Exception):
    """Requested computation exceeds the declared desk-scale bound."""


_MODEL_SPACE = {"gl2": gl_space(2), "gl3": gl_space(3), "sp4": SP4_SPACE}
# Cartan weight of each local basis value, in the order of the model's space:
# gl(n) counts each value, sp(4) reads (n_1 - n_{-1}, n_2 - n_{-2})
_LOCAL_WEIGHTS = {
    "gl2": ((1, 0), (0, 1)),
    "gl3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "sp4": ((0, -1), (-1, 0), (1, 0), (0, 1)),     # values -2, -1, 1, 2
}
# annihilating wedge scanned first, per the model's own convention
_PRIMARY_CONVENTION = {"gl2": "i>k", "gl3": "i>k", "sp4": "i<k"}


@dataclass(frozen=True)
class ChainSpec:
    """Model, length and inhomogeneities of a fundamental chain."""

    model: str
    length: int
    inhomogeneities: tuple
    backend: str = EXACT

    def __post_init__(self):
        if self.model not in _MODEL_SPACE:
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


class Chain:
    """A chain spec plus cached monodromies, vacuum and weights."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.space = _MODEL_SPACE[spec.model]
        self.d = len(self.space)
        self.dim = self.d ** spec.length
        self.backend = spec.backend
        self._mono_cache = {}
        self._mono_bytes = 0
        self._lam_cache = {}
        self._vacuum = None

    # -- construction ---------------------------------------------------

    def site_r(self, x, z):
        if self.spec.model == "sp4":
            return build_sp4_r(x, z).mat
        return build_gl_r(self.d, x, z).mat

    def monodromy(self, x):
        """Grid {(i, k): Mat} of the auxiliary-leg blocks T^i_k(x).

        Site j folds R_j = R_{0,j}(x, z_j) into the running product by one
        `Mat` product: rows (i, p, q) of T^(j-1), inner index a, columns
        (k, s, t) of R_j; a transpose and reshape bring the result to shape
        (d, d, P*d, P*d) with P = d^(j-1).  The grid's `num` is the final
        (d, d, D, D) array (exact entries over the common denominator
        `den`), and its entries are read-only views of the blocks num[a, b].
        """
        cache = self._mono_cache
        if x in cache:
            grid = cache[x] = cache.pop(x)     # now the most recently used
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
        cache[x] = grid
        self._mono_bytes += num.nbytes
        while self._mono_bytes > _MONO_CACHE_BYTES:
            self._mono_bytes -= cache.pop(next(iter(cache))).num.nbytes
        return grid

    @cached_property
    def cartan_weights(self):
        """Read-only (D, rank) int array: the Cartan weight of every product
        basis state, the sum of its sites' local weights (first site most
        significant, as in the state vectors)."""
        local = np.array(_LOCAL_WEIGHTS[self.spec.model], dtype=np.int64)
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
        num = sum((grid.num[a, a] for a in range(1, self.d)), grid.num[0, 0])
        return Mat(self.backend, num, grid.den)._reduced()

    # -- vacuum ----------------------------------------------------------

    def _scan_points(self, n=3):
        """Generic evaluation points clear of every inhomogeneity offset."""
        pts = []
        cand = Fraction(17, 5) if self.backend == EXACT else complex(3.4)
        step = Fraction(7, 4) if self.backend == EXACT else complex(1.75)
        while len(pts) < n:
            ok = all(
                all((cand - z) != off if self.backend == EXACT
                    else abs(cand - z - off) > 1e-9 for off in _Z_OFFSETS)
                for z in self.spec.inhomogeneities)
            if ok:
                pts.append(cand)
            cand = cand + step
        return pts

    def _candidate_omega(self, value):
        slot = self.space.index(value)
        idx = 0
        for _ in range(self.spec.length):
            idx = idx * self.d + slot
        return Mat.basis_vector(self.dim, idx, self.backend)

    def vacuum(self) -> VacuumData:
        if self._vacuum is not None:
            return self._vacuum
        primary = _PRIMARY_CONVENTION[self.spec.model]
        other = "i>k" if primary == "i<k" else "i<k"
        pts = self._scan_points()
        for conv in (primary, other):
            for c in self.space:
                omega = self._candidate_omega(c)
                if self._is_vacuum(omega, conv, pts):
                    self._vacuum = VacuumData(c, conv, omega, self.space)
                    return self._vacuum
        raise NoVacuumError(f"no triangular vacuum for {self.spec}")

    def _is_vacuum(self, omega, conv, pts):
        sp = self.space
        pairs = [(i, k) for i in sp for k in sp
                 if (i < k if conv == "i<k" else i > k)]
        for x in pts:
            grid = self.monodromy(x)
            for (i, k) in pairs:
                if not (grid[(i, k)] @ omega).is_zero():
                    return False
            for i in sp:
                if not self._proportional(grid[(i, i)] @ omega, omega):
                    return False
        return True

    def _proportional(self, v, omega):
        slot = int(np.argmax(np.abs(omega.to_complex()[:, 0])))
        if self.backend == EXACT:
            coeff = v.entry(slot, 0)
            return (v - omega.scale(coeff)).is_zero()
        coeff = v.num[slot, 0]
        return bool(np.all(np.abs(v.num[:, 0] - coeff * omega.num[:, 0]) < 1e-10))

    def lam(self, i, x):
        """Weight function lam_i(x), read off the vacuum application."""
        key = (i, x)
        if key in self._lam_cache:
            return self._lam_cache[key]
        vac = self.vacuum()
        v = self.t(i, i, x) @ vac.omega
        slot = int(np.argmax(np.abs(vac.omega.to_complex()[:, 0])))
        coeff = v.entry(slot, 0)
        if not self._proportional(v, vac.omega):
            raise NoVacuumError(f"T^{i}_{i} does not act diagonally on the vacuum")
        if len(self._lam_cache) > 4096:
            self._lam_cache.clear()
        self._lam_cache[key] = coeff
        return coeff


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
