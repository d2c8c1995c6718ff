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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import EXACT, FLOAT, Mat, block_matrix, lift, residual
from .rmatrix import SP4_SPACE, build_gl_r, build_sp4_r, gl_space
from .scalars import is_exact, parse_scalar

SPECTRUM_CAPACITY = 256

_Z_OFFSETS = (0, 1, -1, 3, -3)


class NoVacuumError(Exception):
    """No repeated product basis vector satisfies either triangularity."""


class CapacityError(Exception):
    """Requested computation exceeds the declared desk-scale bound."""


_MODEL_SPACE = {"gl2": gl_space(2), "gl3": gl_space(3), "sp4": SP4_SPACE}
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


class Chain:
    """A chain spec plus cached monodromies, vacuum and weights."""

    def __init__(self, spec: ChainSpec):
        self.spec = spec
        self.space = _MODEL_SPACE[spec.model]
        self.d = len(self.space)
        self.dim = self.d ** spec.length
        self.backend = spec.backend
        self._mono_cache = {}
        self._lam_cache = {}
        self._vacuum = None

    # -- construction ---------------------------------------------------

    def site_r(self, x, z):
        if self.spec.model == "sp4":
            return build_sp4_r(x, z).mat
        return build_gl_r(self.d, x, z).mat

    def monodromy(self, x):
        """Grid {(i, k): Mat} of auxiliary-leg blocks of T(x)."""
        key = x
        if key in self._mono_cache:
            return self._mono_cache[key]
        L = self.spec.length
        dims = [self.d] * (L + 1)
        full = None
        for j, z in enumerate(self.spec.inhomogeneities):
            fac = lift(self.site_r(x, z), [0, j + 1], dims)
            full = fac if full is None else full @ fac
        grid = {}
        for i in self.space:
            for k in self.space:
                grid[(i, k)] = full.block(self.space.index(i), self.space.index(k),
                                          self.dim, self.dim)
        if len(self._mono_cache) > 64:
            self._mono_cache.clear()
        self._mono_cache[key] = grid
        return grid

    def t(self, i, k, x):
        return self.monodromy(x)[(i, k)]

    def transfer(self, x):
        grid = self.monodromy(x)
        out = None
        for i in self.space:
            out = grid[(i, i)] if out is None else out + grid[(i, i)]
        return out

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
    d, dim = chain.d, chain.dim
    dims = [d, d, dim]
    r12 = lift(chain.site_r(x, y), [0, 1], dims)
    t1 = lift(aux_matrix(chain, x), [0, 2], dims)
    t2 = lift(aux_matrix(chain, y), [1, 2], dims)
    return residual(r12 @ t1 @ t2, t2 @ t1 @ r12)


def aux_matrix(chain: Chain, x, sectors=None) -> Mat:
    """T(x) as one matrix on [aux, chain], block (a, b) holding T^i_k for
    the a-th and b-th index values of the auxiliary leg.

    `sectors` lists the index values of the auxiliary leg in slot order,
    grouped (default: the whole local space, one group).  Blocks that pair
    two different groups are zero, so ((1, 2),) gives the sign block T(+),
    ((-1, -2),) gives T(-), and ((-2, -1), (1, 2)) their direct sum.
    """
    sectors = sectors or (chain.space,)
    group = {i: n for n, sec in enumerate(sectors) for i in sec}
    grid = chain.monodromy(x)
    zero = Mat.zeros((chain.dim, chain.dim), chain.backend)
    return block_matrix([[grid[(i, k)] if group[i] == group[k] else zero
                          for k in group] for i in group])


def check_commuting(chain: Chain, x, y):
    """Max-abs residual of [H(x), H(y)]."""
    hx, hy = chain.transfer(x), chain.transfer(y)
    return residual(hx @ hy, hy @ hx)


def spectrum(chain: Chain, x):
    """Eigenvalues of H(x) with multiplicities, by dense diagonalization.

    Float backend only; sorted by (real, imag); clusters within 1e-8.
    """
    if chain.dim > SPECTRUM_CAPACITY:
        raise CapacityError(f"dimension {chain.dim} exceeds {SPECTRUM_CAPACITY}")
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
