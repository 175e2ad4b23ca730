"""Conditional expectations between block algebras, held as a target and a density.

Every conditional expectation E: M -> N between finite-dimensional
algebras has the form E(x) = P_N(h x), where P_N is the Hilbert-Schmidt
projection onto N and h > 0 lies in N' cap M with P_N(h) = 1; h = 1 is the
trace-preserving expectation.  A map is stored as (source, target, h), so
applying it or its adjoint costs one block projection, and it is certified
from that triple alone.  Its invariants imply every axiom: when N lies in
M, h lies in N' cap M, h >= 0 and P_N(h) = 1, then E is N-bimodular because
P_N is and h commutes with N, so E(n) = P_N(h) n = n makes it idempotent and
unital, and since h^(1/2) commutes with N, E = P_N o Ad h^(1/2) is completely
positive.  Checking those invariants takes a fixed number of O(D^3) block
projections whatever the dimension of N: N in M is checked on all of N's
basis in one pass (MatrixBlockAlgebra.basis_distance).  No D^2 x D^2
superoperator is formed.
"""

from __future__ import annotations

import numpy as np

from .algebras import MatrixBlockAlgebra, algebra_from_basis
from .states import WeightDensity, canonical_density

__all__ = [
    "ConditionalExpectationMap",
    "group_average_expectation",
    "compose_expectations",
    "cyclic_group_unitaries",
    "symmetric_group_unitaries",
]


def _vec_matrix(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


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
        if density.shape != (d, d):
            raise ValueError(f"density must be {d} x {d}")
        self.source = source
        self.target = target
        self.density = density
        self.ambient_dim = d

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.target.project(self.density @ x)

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

    def is_identity(self, tol: float = 1e-10) -> bool:
        return self.source.span_equals(self.target) and all(
            np.linalg.norm(self(f) - f) <= tol * self.ambient_dim
            for f in self.source.basis
        )

    def conjugated(self, u: np.ndarray) -> "ConditionalExpectationMap":
        """The expectation x -> u E(u* x u) u* between the rotated algebras."""
        return ConditionalExpectationMap(
            self.source.conjugated(u),
            self.target.conjugated(u),
            u @ self.density @ u.conj().T,
        )

def group_average_expectation(
    source: MatrixBlockAlgebra,
    unitaries: list[np.ndarray],
    closure_tol: float = 1e-8,
) -> ConditionalExpectationMap:
    """Average of x -> u x u* over a finite unitary group normalizing ``source``.

    The target is the fixed-point subalgebra.  In the source's orthonormal
    basis each Ad u is a unitary matrix, and the unitaries form a group up
    to phase (products are matched against the listed elements through
    |tr(u_k* u_g u_h)| = D), so the average of those matrices is the
    orthogonal projector onto the fixed points: its eigenvectors of
    eigenvalue 1 are their coordinates.  An eigenvalue away from 0 and 1
    rejects the input.  The average preserves the trace on the source, and
    the trace-preserving expectation onto the target is unique, so the
    result is that expectation.
    """
    d = source.ambient_dim
    units = [np.asarray(u, dtype=complex) for u in unitaries]
    if not units:
        raise ValueError("need at least one unitary")
    for u in units:
        if u.shape != (d, d):
            raise ValueError("unitary dimension mismatch")
        if np.linalg.norm(u @ u.conj().T - np.eye(d)) > 1e-10 * d:
            raise ValueError("input matrix is not unitary")
    _check_group_closure(units, closure_tol)

    basis = source.basis
    frame = np.stack([_vec_matrix(f) for f in basis], axis=1)
    average = np.zeros((len(basis), len(basis)), dtype=complex)
    for u in units:
        images = [u @ f @ u.conj().T for f in basis]
        if any(source.span_distance(g) > 1e-9 for g in images):
            raise ValueError("unitaries do not normalize the algebra")
        # coordinates Tr(f_a* g_b) of the conjugated basis, in one product
        average += frame.conj().T @ np.stack([_vec_matrix(g) for g in images], axis=1)
    average /= len(units)
    vals, vecs = np.linalg.eigh(0.5 * (average + average.conj().T))
    fixed_point = vals > 0.5
    if np.abs(vals - fixed_point).max() > 1e-9:
        raise ValueError(
            "the group average is not a projector: eigenvalues off {0, 1} by "
            f"{np.abs(vals - fixed_point).max():.3e}"
        )
    fixed = [
        sum(c * f for c, f in zip(coords, basis)) for coords in vecs[:, fixed_point].T
    ]
    return ConditionalExpectationMap(source, algebra_from_basis(fixed))


def _check_group_closure(units: list[np.ndarray], tol: float) -> None:
    d = units[0].shape[0]
    for g in units:
        for h in units:
            prod = g @ h
            best = max(abs(np.trace(k.conj().T @ prod)) for k in units)
            if abs(best - d) > tol * d:
                raise ValueError(
                    "unitaries are not closed under products (up to phase)"
                )


def compose_expectations(
    first: ConditionalExpectationMap,
    second: ConditionalExpectationMap,
) -> ConditionalExpectationMap:
    """The expectation x -> second(first(x)); first's target must be second's source."""
    if not first.target.span_equals(second.source):
        raise ValueError("target of the first map must equal source of the second")
    return ConditionalExpectationMap(
        first.source, second.target, second.density @ first.density
    )


def cyclic_group_unitaries(n: int) -> list[np.ndarray]:
    """Regular representation of the cyclic group of order n (powers of the shift)."""
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    out = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        out.append(shift @ out[-1])
    return out


def symmetric_group_unitaries(letters: int = 3) -> list[np.ndarray]:
    """Left regular representation of the symmetric group on ``letters`` symbols."""
    from itertools import permutations

    elems = list(permutations(range(letters)))
    index = {p: i for i, p in enumerate(elems)}
    out = []
    for g in elems:
        u = np.zeros((len(elems), len(elems)), dtype=complex)
        for i, h in enumerate(elems):
            gh = tuple(g[h[k]] for k in range(letters))
            u[index[gh], i] = 1.0
        out.append(u)
    return out
