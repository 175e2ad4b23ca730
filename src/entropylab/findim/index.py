"""Dual weights and the Kosaki index, from one closed form.

Write the expectation as E(x) = P_N(h x) with h in N' cap M.  M holds
M_{a_i} tensor 1_{b_i} on the range of its central projection p_i, and N
holds M_{n_k} tensor 1_{m_k} on the range of q_k.  The dual map carries a
faithful weight phi' on M' to the weight chi' on N' with
Delta(psi E / phi') = Delta(psi / chi') for faithful psi on N.  As p_i,
q_k, h, D_psi, D_phi' and D_chi' all commute:
  1. Delta(psi / phi') = sum_i (b_i / a_i) p_i D_psi D_phi'^-1 on M;
  2. psi E has the density D_psi h, which already lies in M;
  3. so Delta(psi E / phi') = sum_i (b_i / a_i) p_i D_psi h D_phi'^-1;
  4. on N, Delta(psi / chi') = sum_k (m_k / n_k) q_k D_psi D_chi'^-1;
  5. equating and cancelling D_psi gives D_chi' = D_phi' W, with
     W = h^-1 sum_{i,k} (m_k a_i) / (n_k b_i) q_k p_i.
D_psi cancels, so the dual weight does not depend on psi.  The index of E
(Kosaki, J. Funct. Anal. 66, 123, 1986; Watatani, Mem. AMS 424, 1990) is
the dual map at the identity, a positive element of the center of M:

    Ind E = sum_i p_i Tr(p_i W) / (a_i b_i)
          = sum_i p_i sum_k m_k Tr(p_i q_k h^-1) / (n_k b_i^2).

For M = M_D, where h acts as 1_{n_k} tensor h_k with h_k in M_{m_k} on the
range of q_k, this is sum_k m_k Tr(h_k^-1), and sum_k m_k^2 when h = 1
(Jones, Invent. Math. 72, 1, 1983).

The dual weight takes stacks of expectations and weights, one per element
(:mod:`entropylab.findim.algebras`); the index takes one expectation.
"""

from __future__ import annotations

import numpy as np

from .expectations import ConditionalExpectationMap
from .states import WeightDensity, canonical_density

__all__ = ["dual_weight", "kosaki_index"]


def _dual_density(expectation: ConditionalExpectationMap) -> np.ndarray:
    """W of the module docstring; ValueError when h is singular, as the
    expectation is then not faithful and its index infinite."""
    h = expectation.density
    svals = np.linalg.svd(h, compute_uv=False)
    if np.any(svals[..., -1] <= 1e-12 * svals[..., 0]):
        raise ValueError("the density is singular; the index is infinite")
    target, source = expectation.target, expectation.source
    on_n = sum((m / n) * q for (n, m), q in zip(target.blocks, target.central_projections()))
    on_m = sum((a / b) * p for (a, b), p in zip(source.blocks, source.central_projections()))
    return np.linalg.inv(h) @ on_n @ on_m


def dual_weight(expectation: ConditionalExpectationMap, phi_c: WeightDensity) -> WeightDensity:
    """phi_c composed with the dual of ``expectation``: the weight on N' of
    density D_phi_c W.  ``phi_c`` must be a faithful weight on M'."""
    if phi_c.algebra is not expectation.source.commutant():
        raise ValueError("weight must live on the commutant of the source algebra")
    if not np.all(phi_c.is_faithful):
        raise ValueError("dual weight needs a faithful weight on the commutant")
    return canonical_density(
        expectation.target.commutant(), phi_c.matrix @ _dual_density(expectation)
    )


def kosaki_index(expectation: ConditionalExpectationMap) -> float | np.ndarray:
    """Index of the expectation: a float when the source is a factor,
    otherwise the central positive matrix itself.  ValueError when the
    density is singular."""
    w = _dual_density(expectation)
    source = expectation.source
    projections = source.central_projections()
    # Tr(p_i W) = vdot(p_i, W), as p_i is self-adjoint
    coeffs = [np.vdot(p, w).real / (a * b) for (a, b), p in zip(source.blocks, projections)]
    if len(coeffs) == 1:
        return float(coeffs[0])
    return sum(c * p for c, p in zip(coeffs, projections))
