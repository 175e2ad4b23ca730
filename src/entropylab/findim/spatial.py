"""Relative entropy, through the spatial derivative and the block trace.

The spatial derivative Delta(psi / phi') of a weight psi on M relative to
a weight phi' on the commutant M' acts on the k-th summand C^{n_k}
tensor C^{m_k} as

    rho_k(psi)  tensor  sigma'_k(phi')^{-1},

which commutes factor-wise, is positive, and implements the modular flow
of psi on M and the inverse flow of phi' on M' (Connes, J. Funct. Anal.
35, 153, 1980).  Relative entropy is computed both through this operator
(vector-state form, Araki, Publ. RIMS 11, 809, 1976) and through the
block trace formula; the two must agree on factors and the tests hold
them to that.  Neither forms Delta or its tensor product: the factors are
diagonalised apart.  Only the test oracle forms Delta as a matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .states import SUPPORT_CUTOFF, VectorStateData, WeightDensity

__all__ = [
    "relative_entropy_spatial",
    "relative_entropy_umegaki",
]

# Vector mass on a kernel below this is treated as numerically zero
# (above it the support condition fails and the entropy is +inf).
KERNEL_MASS_TOL = 1e-10


def _support_power(vals: np.ndarray, exponent: complex) -> np.ndarray:
    """vals**exponent above the support cutoff of a PSD spectrum, zero below."""
    cutoff = SUPPORT_CUTOFF * max(1.0, float(vals[-1]) if vals.size else 1.0)
    out = np.zeros(vals.shape, dtype=complex)
    keep = vals > cutoff
    out[keep] = np.exp(exponent * np.log(vals[keep]))
    return out


def relative_entropy_spatial(omega: VectorStateData, phi: WeightDensity) -> float:
    """S(omega, phi) = -<ln Delta(phi/omega') Omega, Omega> in nats.

    ``omega`` is the vector state of Omega on the algebra of ``phi``;
    omega' is its vector state on the commutant.  Returns +inf when the
    support of phi fails to dominate the state of Omega on the algebra.
    On block k, Delta = sigma_k tensor rho'_k^(-1) with rho'_k = C_k^T
    conj(C_k) for the coefficient matrix C_k of Omega.  Its eigenvalues are
    s_i / r_j and Omega's weights on its eigenbasis |U* C_k conj(W)|^2, for
    the eigensystems (s, U) of sigma_k and (r, W) of rho'_k: O(n^3 + m^3).
    """
    if omega.algebra is not phi.algebra:
        raise ValueError("vector state and weight must refer to the same algebra")
    total = 0.0
    kernel_mass = 0.0
    for c_k, (s_vals, s_vecs) in zip(omega._coefficients, phi.intrinsic_eigensystems()):
        r_vals, r_vecs = np.linalg.eigh(c_k.T @ c_k.conj())
        vals = np.outer(s_vals, _support_power(r_vals, -1.0).real)
        weights = np.abs(s_vecs.conj().T @ c_k @ r_vecs.conj()) ** 2
        cutoff = SUPPORT_CUTOFF * max(1.0, float(vals.max()))
        # Mass sitting on ker(sigma_k) tensor supp(rho'_k) signals a genuine
        # support violation; mass on the rho'_k kernel is zero by construction.
        kernel_mass += float(np.sum(weights[vals <= cutoff]))
        keep = vals > cutoff
        total -= float(np.sum(weights[keep] * np.log(vals[keep])))
    if kernel_mass > KERNEL_MASS_TOL:
        return math.inf
    return total


def relative_entropy_umegaki(rho: WeightDensity, sigma: WeightDensity) -> float:
    """Block trace formula sum_k Tr[rho_k (ln rho_k - ln sigma_k)] in nats.

    Works for weights as well as states; +inf when the support condition
    supp(rho) <= supp(sigma) fails on any block.
    """
    if sigma.algebra is not rho.algebra:
        raise ValueError("relative entropy needs two functionals on the same algebra")
    total = 0.0
    for rho_k, (p_vals, p_vecs), (s_vals, s_vecs) in zip(
        rho.intrinsic_blocks(), rho.intrinsic_eigensystems(), sigma.intrinsic_eigensystems()
    ):
        p_cut = SUPPORT_CUTOFF * max(1.0, float(p_vals[-1]) if p_vals.size else 1.0)
        s_cut = SUPPORT_CUTOFF * max(1.0, float(s_vals[-1]) if s_vals.size else 1.0)
        s_kernel = s_vecs[:, s_vals <= s_cut]
        if s_kernel.shape[1]:
            escaped = float(
                np.real(np.trace(s_kernel.conj().T @ rho_k @ s_kernel))
            )
            if escaped > KERNEL_MASS_TOL:
                return math.inf
        keep_p = p_vals > p_cut
        total += float(np.sum(p_vals[keep_p] * np.log(p_vals[keep_p])))
        keep_s = s_vals > s_cut
        overlap = np.abs(s_vecs[:, keep_s].conj().T @ p_vecs) ** 2 @ p_vals
        total -= float(np.sum(overlap * np.log(s_vals[keep_s])))
    return total
