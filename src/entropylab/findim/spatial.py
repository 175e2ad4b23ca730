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

Both take stacks of states (:mod:`entropylab.findim.states`) and then
return one entropy per element; the support cutoffs and the kernel-mass
test apply to each element alone.
"""

from __future__ import annotations

import numpy as np

from .algebras import _adjoint, _item
from .states import SUPPORT_CUTOFF, VectorStateData, WeightDensity

__all__ = [
    "relative_entropy_spatial",
    "relative_entropy_umegaki",
]

# Vector mass on a kernel below this is treated as numerically zero
# (above it the support condition fails and the entropy is +inf).
KERNEL_MASS_TOL = 1e-10


def _support(vals: np.ndarray, axis=-1) -> np.ndarray:
    """Where a PSD spectrum over ``axis`` lies above its support cutoff,
    SUPPORT_CUTOFF times the larger of 1 and its largest value."""
    return vals > SUPPORT_CUTOFF * vals.max(axis=axis, keepdims=True, initial=1.0)


def _sum_where(keep: np.ndarray, x: np.ndarray, axis=-1) -> np.ndarray:
    """The sum over ``axis`` of x where ``keep`` holds: ``np.sum(x[keep])``
    for each element, and bitwise that where ``keep`` holds everywhere."""
    return np.where(keep, x, 0.0).sum(axis=axis)


def _log(vals: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """ln vals where ``keep`` holds and 0 elsewhere, never taking ln of 0."""
    return np.log(np.where(keep, vals, 1.0))


def _support_power(vals: np.ndarray, exponent: complex) -> np.ndarray:
    """vals**exponent above the support cutoff of a PSD spectrum, zero below."""
    out = np.zeros(vals.shape, dtype=complex)
    keep = _support(vals)
    out[keep] = np.exp(exponent * np.log(vals[keep]))
    return out


def relative_entropy_spatial(omega: VectorStateData, phi: WeightDensity) -> float | np.ndarray:
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
        r_vals, r_vecs = np.linalg.eigh(c_k.swapaxes(-1, -2) @ c_k.conj())
        vals = s_vals[..., :, None] * _support_power(r_vals, -1.0).real[..., None, :]
        weights = np.abs(_adjoint(s_vecs) @ c_k @ r_vecs.conj()) ** 2
        keep = _support(vals, axis=(-2, -1))
        # Mass sitting on ker(sigma_k) tensor supp(rho'_k) signals a genuine
        # support violation; mass on the rho'_k kernel is zero by construction.
        kernel_mass = kernel_mass + _sum_where(~keep, weights, (-2, -1))
        total = total - _sum_where(keep, weights * _log(vals, keep), (-2, -1))
    return _item(np.where(kernel_mass > KERNEL_MASS_TOL, np.inf, total))


def relative_entropy_umegaki(rho: WeightDensity, sigma: WeightDensity) -> float | np.ndarray:
    """Block trace formula sum_k Tr[rho_k (ln rho_k - ln sigma_k)] in nats.

    Works for weights as well as states; +inf when the support condition
    supp(rho) <= supp(sigma) fails on any block.
    """
    if sigma.algebra is not rho.algebra:
        raise ValueError("relative entropy needs two functionals on the same algebra")
    total = 0.0
    escaped = False
    for rho_k, (p_vals, p_vecs), (s_vals, s_vecs) in zip(
        rho.intrinsic_blocks(), rho.intrinsic_eigensystems(), sigma.intrinsic_eigensystems()
    ):
        keep_s = _support(s_vals)
        if not keep_s.all():
            # rho_k's mass on the kernel of sigma_k, Tr(K* rho_k K)
            held = np.sum(s_vecs.conj() * (rho_k @ s_vecs), axis=-2).real
            escaped = escaped | (_sum_where(~keep_s, held) > KERNEL_MASS_TOL)
        keep_p = _support(p_vals)
        total = total + _sum_where(keep_p, p_vals * _log(p_vals, keep_p))
        overlap = (np.abs(_adjoint(s_vecs) @ p_vecs) ** 2 @ p_vals[..., None])[..., 0]
        total = total - _sum_where(keep_s, overlap * _log(s_vals, keep_s))
    return _item(np.where(escaped, np.inf, total))
