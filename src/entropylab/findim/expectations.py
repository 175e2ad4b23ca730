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
positive.  validate() reports those invariants, with sampled residuals of
the map as applied, in a fixed number of O(D^3) block projections whatever
the dimension of N: N in M is checked on all of N's basis in one pass
(MatrixBlockAlgebra.basis_distance).  No D^2 x D^2 superoperator is formed.
"""

from __future__ import annotations

import numpy as np

from .algebras import MatrixBlockAlgebra, algebra_from_basis
from .states import WeightDensity, canonical_density

__all__ = [
    "ConditionalExpectationMap",
    "NoPreservingExpectationError",
    "identity_expectation",
    "state_preserving_expectation",
    "group_average_expectation",
    "compose_expectations",
    "weyl_unitaries",
    "cyclic_group_unitaries",
    "symmetric_group_unitaries",
]

AXIOM_TOL = 1e-10


class NoPreservingExpectationError(Exception):
    """The state-preserving projection onto the subalgebra is not an expectation.

    Raised when the modular flow of the state does not preserve the
    subalgebra, so no conditional expectation preserving that state exists.
    """


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

    def validate(
        self,
        rng: np.random.Generator | None = None,
        state: WeightDensity | None = None,
        samples: int = 8,
    ) -> dict[str, float]:
        """Residuals of the invariants that make E an expectation, then of the map.

        The invariants come first, in this order: N lies in M
        (``target_in_source``), h lies in N' (``commutes_with_target``) and
        in M (``density_in_source``), h >= 0 (``positive``) and P_N(h) = 1
        (``unital``).  Together they imply every axiom (see the module
        docstring).  The ``adjoint``, ``bimodule`` and ``range`` residuals,
        and with ``state`` given ``state_preserved`` (omega(E(x)) = omega(x)),
        are sampled on unit-normalized x.  Residuals of h are relative to
        max(1, |h|), the others absolute.
        """
        rng = rng or np.random.default_rng(0)
        h = self.density
        scale = max(1.0, float(np.linalg.norm(h)))
        out = {
            "target_in_source": self.source.basis_distance(self.target),
            "commutes_with_target": self.target.commutant().span_distance(h) / scale,
            "density_in_source": self.source.span_distance(h) / scale,
            "positive": float(
                max(np.linalg.norm(h - h.conj().T), -np.linalg.eigvalsh(h)[0]) / scale
            ),
            "unital": float(np.linalg.norm(self.target.project(h) - np.eye(self.ambient_dim))),
        }
        adj = 0.0
        bimod = 0.0
        ranged = 0.0
        preserve = 0.0
        for _ in range(samples):
            x = _random_element(self.source, rng)
            n1 = _random_element(self.target, rng)
            n2 = _random_element(self.target, rng)
            ex = self(x)
            adj = max(adj, float(np.linalg.norm(self(x.conj().T) - ex.conj().T)))
            bimod = max(
                bimod, float(np.linalg.norm(self(n1 @ x @ n2) - n1 @ ex @ n2))
            )
            ranged = max(ranged, self.target.span_distance(ex))
            if state is not None:
                preserve = max(
                    preserve, abs(complex(state.value(ex)) - complex(state.value(x)))
                )
        out["adjoint"] = adj
        out["bimodule"] = bimod
        out["range"] = ranged
        if state is not None:
            out["state_preserved"] = preserve
        return out


def _random_element(algebra: MatrixBlockAlgebra, rng: np.random.Generator) -> np.ndarray:
    parts = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n, _ in algebra.blocks]
    x = algebra.embed_blocks([p / np.sqrt(m) for p, (_, m) in zip(parts, algebra.blocks)])
    norm = np.linalg.norm(x)
    return x / norm if norm > 0 else x


def identity_expectation(algebra: MatrixBlockAlgebra) -> ConditionalExpectationMap:
    return ConditionalExpectationMap(algebra, algebra)


def state_preserving_expectation(
    source: MatrixBlockAlgebra,
    target: MatrixBlockAlgebra,
    omega: WeightDensity,
) -> ConditionalExpectationMap:
    """The omega-preserving conditional expectation source -> target.

    Such an expectation exists exactly when the modular flow of omega
    preserves the subalgebra (Takesaki, J. Funct. Anal. 9, 306, 1972), and
    then its density is h = P_N(D)^(-1) D for the density D of omega.
    Otherwise that h does not commute with the target and
    NoPreservingExpectationError is raised, naming the first residual of
    the candidate's validate() above tolerance, invariants first.
    """
    if omega.algebra is not source and not omega.algebra.span_equals(source):
        raise ValueError("state must live on the source algebra")
    if not omega.is_faithful:
        raise ValueError("state-preserving projection needs a faithful state")
    dens = omega.matrix
    cand = ConditionalExpectationMap(source, target, np.linalg.solve(target.project(dens), dens))
    residuals = cand.validate(state=omega)
    if residuals["target_in_source"] > 1e-8:
        raise ValueError("target is not a subalgebra of the source")
    failing = [name for name, value in residuals.items() if value > AXIOM_TOL * 100]
    if failing:
        raise NoPreservingExpectationError(
            f"projection violates {failing[0]} (residual {residuals[failing[0]]:.3e}); "
            "the modular flow of the state does not preserve the subalgebra"
        )
    return cand


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


def weyl_unitaries(dim: int) -> list[np.ndarray]:
    """The dim^2 shift-and-clock unitaries X^a Z^b on C^dim.

    Closed under products up to phase; averaging their conjugations
    depolarizes a full matrix algebra to the scalars.
    """
    shift = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        shift[(j + 1) % dim, j] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    out = []
    xa = np.eye(dim, dtype=complex)
    for _ in range(dim):
        zb = np.eye(dim, dtype=complex)
        for _ in range(dim):
            out.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return out


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
