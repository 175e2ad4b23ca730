"""Conditional expectations between block algebras, held as a target and a density.

Every conditional expectation E: M -> N between finite-dimensional
algebras has the form E(x) = P_N(h x), where P_N is the Hilbert-Schmidt
projection onto N and h > 0 lies in N' cap M with P_N(h) = 1; h = 1 is the
trace-preserving expectation, one case of the general h that the index
(Kosaki) is defined for.  A map is stored as (source, target, h), and
every map goes through its h, so pulling a functional back through it
costs one block projection and a product.  It can be certified from that
triple alone (``validate`` in the test oracles).  Its invariants imply every axiom: when N lies in
M, h lies in N' cap M, h >= 0 and P_N(h) = 1, then E is N-bimodular because
P_N is and h commutes with N, so E(n) = P_N(h) n = n makes it idempotent and
unital, and since h^(1/2) commutes with N, E = P_N o Ad h^(1/2) is completely
positive.  No D^2 x D^2 superoperator is formed.  A target is given when
the map is made, never discovered: the index battery's fixed-point
algebras are built from their groups' irreducible representations
(``harness.findim_runs.index_targets``).  Source, target and density may
be stacks (:mod:`entropylab.findim.algebras`), one map per element.
"""

from __future__ import annotations

import numpy as np

from .algebras import MatrixBlockAlgebra
from .states import WeightDensity, canonical_density

__all__ = [
    "ConditionalExpectationMap",
    "compose_expectations",
]


class ConditionalExpectationMap:
    """Idempotent unital completely positive N-bimodule map E: M -> N.

    ``density`` is the relative density h of E(x) = P_N(h x); it defaults
    to the identity, the trace-preserving expectation.
    """

    def __init__(
        self,
        source: MatrixBlockAlgebra,
        target: MatrixBlockAlgebra,
        density: np.ndarray | None = None,
    ):
        d = source.ambient_dim
        if target.ambient_dim != d:
            raise ValueError("source and target act on different ambient spaces")
        if density is None:
            density = np.eye(d)
        density = np.asarray(density, dtype=complex)
        if density.shape[-2:] != (d, d):
            raise ValueError(f"density must be {d} x {d}")
        self.source = source
        self.target = target
        self.density = density
        self.ambient_dim = d

    def pull_back(self, omega: WeightDensity | np.ndarray) -> WeightDensity:
        """The functional omega(E(.)) on the source algebra.

        ``omega`` is a WeightDensity or a raw ambient density matrix (for
        instance the rank-one density of a vector state); only the ambient
        matrix G enters, through Tr(G P_N(h x)) = Tr(P_N(G) h x).  That is
        the map's transpose under the trace pairing, the adjoint of its
        Hilbert-Schmidt adjoint h* P_N(G) at self-adjoint G.
        """
        mat = omega.matrix if isinstance(omega, WeightDensity) else np.asarray(omega)
        return canonical_density(self.source, self.target.project(mat) @ self.density)


def compose_expectations(
    first: ConditionalExpectationMap,
    second: ConditionalExpectationMap,
) -> ConditionalExpectationMap:
    """The expectation x -> second(first(x)); first's target must be second's source."""
    if first.target is not second.source:
        raise ValueError("target of the first map must equal source of the second")
    return ConditionalExpectationMap(
        first.source, second.target, second.density @ first.density
    )
