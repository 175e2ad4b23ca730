"""Conditional expectations between block algebras, held as a source and a target.

Every conditional expectation E: M -> N between finite-dimensional
algebras has the form E(x) = P_N(h x), where P_N is the Hilbert-Schmidt
projection onto N and h > 0 lies in N' cap M with P_N(h) = 1.  Every
source built here is a factor, whose one trace h = 1 preserves, and that
trace-preserving expectation is the one of minimal index
(:mod:`entropylab.findim.index`; sum_k m_k^2 on M_D), the index the
duality deficit is read against.  So a map is E = P_N, stored as
(source, target).  P_N is N-bimodular, idempotent, unital and, as the
orthogonal projection onto a *-subalgebra, completely positive; pulling a
functional back through it costs one block projection, and no D^2 x D^2
superoperator is formed.  A target is given when the map is made, never
discovered: the index battery's fixed-point algebras are built from
their groups' irreducible representations
(``harness.findim_runs.index_targets``).  Source and target may be
stacks (:mod:`entropylab.findim.algebras`), one map per element.
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
    """The trace-preserving expectation E = P_N: M -> N."""

    def __init__(self, source: MatrixBlockAlgebra, target: MatrixBlockAlgebra):
        if target.ambient_dim != source.ambient_dim:
            raise ValueError("source and target act on different ambient spaces")
        self.source = source
        self.target = target

    def pull_back(self, matrix: np.ndarray) -> WeightDensity:
        """The functional omega(E(.)) on the source algebra, for the ambient
        density matrix G of omega (a weight's ``matrix``, or for instance the
        rank-one density of a vector state): Tr(G P_N(x)) = Tr(P_N(G) x), as
        P_N is self-adjoint in the trace pairing."""
        return canonical_density(self.source, self.target.project(matrix))


def compose_expectations(
    first: ConditionalExpectationMap,
    second: ConditionalExpectationMap,
) -> ConditionalExpectationMap:
    """The expectation x -> second(first(x)); first's target must be second's source."""
    if first.target is not second.source:
        raise ValueError("target of the first map must equal source of the second")
    return ConditionalExpectationMap(first.source, second.target)
