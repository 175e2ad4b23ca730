"""Ground-state correlations and Gaussian entropies for the hopping chain.

The chain is the half-filled nearest-neighbor model with imaginary hopping
amplitude in the antiperiodic (NS) momentum sector, whose single-particle
spectrum has no zero modes at any even size.  All entropies come from the
occupations nu of restricted correlation matrices via the Fermi kernel
-[nu ln nu + (1-nu) ln(1-nu)].

The correlation matrix is C = 1/2 + iK with K real and nonzero only between
sites of opposite parity.  On a site set with even sites E and odd sites O,
iK restricted to the set is Hermitian with off-diagonal block B = K[E, O],
so the occupations are 1/2 +- sigma for the singular values sigma of the
real |E| x |O| block B, plus ||E| - |O|| modes at exactly 1/2.  No complex
|S| x |S| block is ever formed.  Because the ground state is pure, a region
and its complement have the same entropy; the arc-union relative entropy
evaluates each entropy on whichever of the two is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circle import LatticeCircle, RegionSpec, arc_sites, lattice_region

CLAMP = 1e-14
EIGENVALUE_SLACK = 1e-8

__all__ = [
    "CorrelationMatrix",
    "hopping_matrix",
    "ground_state_correlations",
    "region_entropy",
    "product_state_relative_entropy",
]


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point functions <a_j^dag a_k> of the chain ground state.

    Only the site count is stored.  The closed form is C_jk = 1/2 on the
    diagonal, i / (N sin(pi d / N)) for odd separation d = j - k, zero for
    even nonzero separation.  The expression is antiperiodic in d, matching
    the NS sector.
    """

    n_sites: int

    def __post_init__(self) -> None:
        if self.n_sites % 2 or self.n_sites < 4:
            raise ValueError("site count must be even and at least 4")

    def even_odd_block(self, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
        """The real block B_jk = -i C_jk with j over even and k over odd sites."""
        diff = np.subtract.outer(even, odd)
        return 1.0 / (self.n_sites * np.sin(np.pi * diff / self.n_sites))


def hopping_matrix(n_sites: int) -> np.ndarray:
    """Single-particle Hamiltonian: imaginary nearest-neighbor hopping,
    antiperiodic boundary link.  Dispersion -2 sin k over NS momenta."""
    h = np.zeros((n_sites, n_sites), dtype=complex)
    for j in range(n_sites - 1):
        h[j, j + 1] = 1j
        h[j + 1, j] = -1j
    h[n_sites - 1, 0] = -1j
    h[0, n_sites - 1] = 1j
    return h


@lru_cache(maxsize=8)
def ground_state_correlations(n_sites: int) -> CorrelationMatrix:
    """Spectral projector onto the filled (negative-energy) NS modes."""
    return CorrelationMatrix(n_sites)


def _occupation_entropy(occupations: np.ndarray) -> float:
    if occupations.min() < -EIGENVALUE_SLACK or occupations.max() > 1 + EIGENVALUE_SLACK:
        raise ValueError(
            f"mode occupation outside [0, 1]: range "
            f"[{occupations.min():.3e}, {occupations.max():.3e}]"
        )
    nu = np.clip(occupations, CLAMP, 1.0 - CLAMP)
    return float(-np.sum(nu * np.log(nu) + (1.0 - nu) * np.log(1.0 - nu)))


def region_entropy(corr: CorrelationMatrix, sites: np.ndarray) -> float:
    """Entanglement entropy of a set of distinct sites, in nats."""
    n = corr.n_sites
    sites = np.asarray(sites, dtype=int)
    if sites.size == 0:
        raise ValueError("region must contain at least one site")
    if sites.min() < 0 or sites.max() >= n:
        raise ValueError(f"sites must lie in [0, {n})")
    if np.unique(sites).size != sites.size:
        raise ValueError("sites must be distinct")
    even = sites[sites % 2 == 0]
    odd = sites[sites % 2 == 1]
    sigma = np.linalg.svd(corr.even_odd_block(even, odd), compute_uv=False)
    unpaired = np.full(abs(even.size - odd.size), 0.5)
    return _occupation_entropy(np.concatenate([0.5 + sigma, 0.5 - sigma, unpaired]))


def _pure_state_entropy(corr: CorrelationMatrix, sites: np.ndarray) -> float:
    """S(sites), computed on the complement when that is the smaller set."""
    if 2 * sites.size > corr.n_sites:
        sites = np.setdiff1d(np.arange(corr.n_sites), sites, assume_unique=True)
    return region_entropy(corr, sites)


def product_state_relative_entropy(corr: CorrelationMatrix, spec: RegionSpec) -> float:
    """S(omega, omega_I1 x ... x omega_In) = sum_k S(I_k) - S(union).

    Equals the mutual information for two arcs and vanishes for one.
    Every arc must contain at least one site.  Each entropy is evaluated on
    the smaller of the site set and its complement (purity).
    """
    circle = LatticeCircle(corr.n_sites)
    if len(spec.arcs) == 1:
        lattice_region(circle, spec)
        return 0.0
    parts = []
    for arc in spec.arcs:
        sites = arc_sites(circle, arc)
        if sites.size == 0:
            raise ValueError(f"arc ({arc[0]:.4f}, {arc[1]:.4f}) contains no lattice sites")
        parts.append(sites)
    union = np.sort(np.concatenate(parts))
    if union.size == circle.n_sites:
        raise ValueError("region leaves no complement sites")
    total = sum(_pure_state_entropy(corr, sites) for sites in parts)
    return total - _pure_state_entropy(corr, union)
