"""Dual weights and the Kosaki index.

Given an expectation E: M -> N, the dual map carries weights on M' to
weights on N'.  It is pinned down by one equation: the spatial derivative
of (psi composed with E) relative to phi' must equal the spatial
derivative of psi relative to the dual weight, for an auxiliary faithful
psi on N.  ``dual_weight`` solves it block by block; the solution is
independent of psi.

The index of E (Kosaki, J. Funct. Anal. 66, 123, 1986; Watatani, Mem. AMS
424, 1990) is that dual map evaluated at the identity.  For E(x) = P_N(h x)
it has a closed form.  Let p_i be the central projections of M, with M
holding M_{a_i} tensor 1_{b_i} on the range of p_i, and q_k those of N,
with N holding M_{n_k} tensor 1_{m_k} on the range of q_k.  Then

    Ind E = sum_i p_i sum_k m_k Tr(p_i q_k h^-1) / (n_k b_i^2),

a positive element of the center of M.  For M = M_D, where h acts as
1_{n_k} tensor h_k with h_k in M_{m_k} on the range of q_k, this is
sum_k m_k Tr(h_k^-1), and sum_k m_k^2 when h = 1 (Jones, Invent. Math. 72,
1, 1983).
"""

from __future__ import annotations

import numpy as np

from .algebras import _lift
from .expectations import ConditionalExpectationMap
from .spatial import spatial_derivative
from .states import WeightDensity, _on, trace_state

__all__ = ["dual_weight", "kosaki_index"]

FACTORIZATION_TOL = 1e-8


def dual_weight(
    expectation: ConditionalExpectationMap,
    phi_c: WeightDensity,
    psi: WeightDensity | None = None,
) -> WeightDensity:
    """The weight phi_c composed with the dual of ``expectation``, on N'.

    ``phi_c`` must be a faithful weight on the commutant of the source.
    ``psi`` is the auxiliary faithful weight on the target used in the
    defining equation; the result provably does not depend on it (the
    default is the normalized trace).
    """
    source = expectation.source
    target = expectation.target
    dual_of_source = source.commutant()
    phi_c = _on(phi_c, dual_of_source, "weight must live on the commutant of the source algebra")
    if not phi_c.is_faithful:
        raise ValueError("dual weight needs a faithful weight on the commutant")
    if psi is None:
        psi = trace_state(target)
    psi = _on(psi, target, "auxiliary weight must live on the target algebra")
    if not psi.is_faithful:
        raise ValueError("auxiliary weight must be faithful")

    pushed = expectation.pull_back(psi)
    lhs = spatial_derivative(pushed, phi_c)

    rho = psi.intrinsic_blocks()
    inverted = []
    recon = np.zeros_like(lhs)
    for blk, rho_j, (vals, vecs) in zip(target.structure, rho, psi.intrinsic_eigensystems()):
        nu, mu = blk.n, blk.m
        compressed = (blk.iso @ lhs @ blk.iso.conj().T).reshape(nu, mu, nu, mu)
        rho_inv = (vecs / vals) @ vecs.conj().T
        # strip rho_j from (rho_j tensor x): trace (rho_inv tensor 1) lhs over C^nu
        x = np.einsum("ij,jaib->ab", rho_inv, compressed) / nu
        x = (x + x.conj().T) / 2
        xvals = np.linalg.eigvalsh(x)
        if xvals[0] <= 1e-12 * max(1.0, xvals[-1]):
            raise ValueError(
                "defining equation produced a singular block; the expectation is degenerate"
            )
        recon += _lift(blk, rho_j, x)
        inverted.append(np.linalg.inv(x))
    scale = max(1.0, float(np.linalg.norm(lhs)))
    residual = float(np.linalg.norm(lhs - recon)) / scale
    if residual > FACTORIZATION_TOL:
        raise ValueError(
            f"defining equation is not satisfied by any block weight (residual {residual:.3e})"
        )
    return WeightDensity.from_intrinsic_blocks(target.commutant(), inverted)


def kosaki_index(expectation: ConditionalExpectationMap) -> float | np.ndarray:
    """Index of the expectation, from the closed form in the module docstring.

    Returns a float when the source is a factor, otherwise the central
    positive matrix itself.  Raises ValueError when the density is
    singular: the expectation is then not faithful and its index infinite.
    """
    h = expectation.density
    svals = np.linalg.svd(h, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        raise ValueError("the density is singular; the index is infinite")
    h_inv = np.linalg.inv(h)
    target = expectation.target
    weighted = sum(
        (m / n) * (q @ h_inv) for (n, m), q in zip(target.blocks, target.central_projections())
    )
    source = expectation.source
    projections = source.central_projections()
    # Tr(p_i W) = vdot(p_i, W), as p_i is self-adjoint
    coeffs = [np.vdot(p, weighted).real / b**2 for (_, b), p in zip(source.blocks, projections)]
    if len(coeffs) == 1:
        return float(coeffs[0])
    return sum(c * p for c, p in zip(coeffs, projections))
