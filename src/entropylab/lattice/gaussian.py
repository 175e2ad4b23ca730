"""Ground-state correlations and Gaussian entropies for the hopping chain.

The chain is the half-filled nearest-neighbor model with imaginary hopping
amplitude in the antiperiodic (NS) momentum sector, whose single-particle
spectrum has no zero modes at any even size.  All entropies come from the
occupations nu of restricted correlation matrices via the Fermi kernel
-[nu ln nu + (1-nu) ln(1-nu)] (Peschel and Eisler, J. Phys. A 42, 504003,
2009).

The correlation matrix is C = 1/2 + iK with K real and nonzero only between
sites of opposite parity.  On a site set with even sites E and odd sites O,
iK restricted to the set is Hermitian with off-diagonal block B = K[E, O],
so the occupations are 1/2 +- sigma for the singular values sigma of the
real |E| x |O| block B, plus ||E| - |O|| modes at exactly 1/2.  No complex
|S| x |S| block is ever formed: sigma^2 are the eigenvalues of the smaller
Gram product, B B^T or B^T B, and each pair of modes takes its entropy from
lambda = nu (1 - nu) = 1/4 - sigma^2, which resolves near-pure modes
(nu -> 0) to full relative precision with no clamp on nu.

Because the ground state is pure, a region and its complement have the
same entropy.  The arc-union relative entropy evaluates each entropy on
whichever of the two is smaller, and the region/complement deficit
evaluates the shared union entropy once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circle import LatticeCircle, RegionSpec, arc_sites, lattice_region

EIGENVALUE_SLACK = 1e-8

__all__ = [
    "CorrelationMatrix",
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
        n = self.n_sites
        # 1 / (n sin(pi d / n)) evaluated in place: one |E| x |O| array.
        block = np.subtract.outer(even.astype(float), odd.astype(float))
        block *= np.pi
        block /= n
        np.sin(block, out=block)
        block *= n
        return np.divide(1.0, block, out=block)


@lru_cache(maxsize=8)
def ground_state_correlations(n_sites: int) -> CorrelationMatrix:
    """Spectral projector onto the filled (negative-energy) NS modes."""
    return CorrelationMatrix(n_sites)


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
    block = corr.even_odd_block(even, odd)
    if block.shape[0] > block.shape[1]:
        block = block.T
    gram = block @ block.T
    del block  # not needed by the eigensolve; keeps the peak at two blocks
    sigma_sq = np.linalg.eigvalsh(gram)
    if sigma_sq.size and (
        sigma_sq.min() < -EIGENVALUE_SLACK or sigma_sq.max() > 0.25 + EIGENVALUE_SLACK
    ):
        raise ValueError(
            f"mode occupation outside [0, 1]: sigma^2 range "
            f"[{sigma_sq.min():.3e}, {sigma_sq.max():.3e}]"
        )
    # nu = 1/2 - sigma from nu (1 - nu) = 1/4 - sigma^2, which keeps its
    # relative accuracy for near-pure modes; lam <= 0 is a pure mode.
    lam = 0.25 - sigma_sq
    mixed = lam > 0.0
    nu = lam[mixed] / (0.5 + np.sqrt(np.maximum(sigma_sq[mixed], 0.0)))
    paired = -np.sum(nu * np.log(nu) + (1.0 - nu) * np.log1p(-nu))
    return float(2.0 * paired + abs(even.size - odd.size) * math.log(2.0))


def _pure_state_entropy(corr: CorrelationMatrix, sites: np.ndarray, memo: dict) -> float:
    """S(sites), computed on the complement when that is the smaller set.

    A set of exactly half the chain is evaluated as whichever of it and its
    complement holds site 0, so both sides of a purity pair share one key
    in ``memo``.
    """
    n = corr.n_sites
    if 2 * sites.size > n or (2 * sites.size == n and sites.min() > 0):
        sites = np.setdiff1d(np.arange(n), sites, assume_unique=True)
    key = (n, sites.tobytes())
    if key not in memo:
        memo[key] = region_entropy(corr, sites)
    return memo[key]


def product_state_relative_entropy(
    corr: CorrelationMatrix, spec: RegionSpec, memo: dict | None = None
) -> float:
    """S(omega, omega_I1 x ... x omega_In) = sum_k S(I_k) - S(union).

    Equals the mutual information for two arcs and vanishes for one.
    Every arc must contain at least one site.  Each entropy is evaluated on
    the smaller of the site set and its complement (purity).  Calls that
    share one ``memo`` dict evaluate each such set once: a region and its
    complement share their union entropy, and a fixed arc is evaluated
    once however many regions contain it.
    """
    if memo is None:
        memo = {}
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
    total = sum(_pure_state_entropy(corr, sites, memo) for sites in parts)
    return total - _pure_state_entropy(corr, union, memo)
