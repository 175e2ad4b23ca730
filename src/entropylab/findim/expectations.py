"""Conditional expectations as superoperators on the ambient matrix space.

A map E: M -> N is stored as a D^2 x D^2 matrix acting on column-major
vectorized D x D matrices, so vec(A X B) = (B^T kron A) vec(X) and the
conjugation x -> u x u* becomes kron(conj(u), u).  Every expectation here
is the restriction to M of a completely positive map on all of B(H)
(the trace projection onto M composed with the expectation itself), which
makes the Choi-positivity check meaningful as stated.
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
    "trace_projection_superop",
    "weyl_unitaries",
    "cyclic_group_unitaries",
    "symmetric_group_unitaries",
    "vec_matrix",
    "unvec_matrix",
]

AXIOM_TOL = 1e-10


class NoPreservingExpectationError(Exception):
    """The state-preserving projection onto the subalgebra is not an expectation.

    Raised when the modular flow of the state does not preserve the
    subalgebra, so no conditional expectation preserving that state exists.
    """


def vec_matrix(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec_matrix(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


def conjugation_superop(u: np.ndarray) -> np.ndarray:
    """Superoperator of x -> u x u* (u unitary)."""
    return np.kron(u.conj(), u)


def trace_projection_superop(algebra: MatrixBlockAlgebra) -> np.ndarray:
    """Superoperator of the trace-preserving expectation B(H) -> algebra.

    This is the orthogonal projection onto the algebra span in the
    Hilbert-Schmidt metric.
    """
    frame = np.stack([vec_matrix(f) for f in algebra.basis], axis=1)
    return frame @ frame.conj().T


class ConditionalExpectationMap:
    """Idempotent unital completely positive N-bimodule map E: M -> N."""

    def __init__(
        self,
        source: MatrixBlockAlgebra,
        target: MatrixBlockAlgebra,
        superop: np.ndarray,
    ):
        d = source.ambient_dim
        if target.ambient_dim != d:
            raise ValueError("source and target act on different ambient spaces")
        superop = np.asarray(superop, dtype=complex)
        if superop.shape != (d * d, d * d):
            raise ValueError(f"superoperator must be {d * d} x {d * d}")
        self.source = source
        self.target = target
        self.superop = superop
        self.ambient_dim = d
        self._index = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return unvec_matrix(self.superop @ vec_matrix(x), self.ambient_dim)

    def choi_matrix(self) -> np.ndarray:
        d = self.ambient_dim
        four = self.superop.reshape(d, d, d, d)
        return four.transpose(3, 1, 2, 0).reshape(d * d, d * d)

    def pull_back(self, omega: WeightDensity | np.ndarray) -> WeightDensity:
        """The functional omega(E(.)) on the source algebra.

        ``omega`` is a WeightDensity or a raw ambient density matrix (for
        instance the rank-one density of a vector state); only the ambient
        matrix enters, through the Hilbert-Schmidt adjoint of the map.
        """
        mat = omega.matrix if isinstance(omega, WeightDensity) else np.asarray(omega)
        pulled = unvec_matrix(
            self.superop.conj().T @ vec_matrix(mat), self.ambient_dim
        )
        return canonical_density(self.source, pulled)

    def is_identity(self, tol: float = 1e-10) -> bool:
        return self.source.span_equals(self.target) and all(
            np.linalg.norm(self(f) - f) <= tol * self.ambient_dim
            for f in self.source.basis
        )

    def conjugated(self, u: np.ndarray) -> "ConditionalExpectationMap":
        """The expectation x -> u E(u* x u) u* between the rotated algebras."""
        conj = conjugation_superop(u)
        return ConditionalExpectationMap(
            self.source.conjugated(u),
            self.target.conjugated(u),
            conj @ self.superop @ conj.conj().T,
        )

    def validate(
        self,
        rng: np.random.Generator | None = None,
        state: WeightDensity | None = None,
        samples: int = 8,
    ) -> dict[str, float]:
        """Residuals for the expectation axioms, keyed by axiom name.

        With ``state`` given, also reports how badly omega(E(x)) = omega(x)
        fails on sampled x.  All residuals are absolute, on unit-normalized
        inputs.
        """
        rng = rng or np.random.default_rng(0)
        s = self.superop
        out: dict[str, float] = {}
        out["idempotent"] = float(np.linalg.norm(s @ s - s)) / max(
            1.0, float(np.linalg.norm(s))
        )
        one = self.source.identity
        out["unital"] = float(np.linalg.norm(self(one) - one))
        choi = self.choi_matrix()
        ev = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        out["choi_negativity"] = float(max(0.0, -ev[0]))
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
    coeff = rng.normal(size=len(algebra.basis)) + 1j * rng.normal(size=len(algebra.basis))
    x = sum(c * f for c, f in zip(coeff, algebra.basis))
    norm = np.linalg.norm(x)
    return x / norm if norm > 0 else x


def identity_expectation(algebra: MatrixBlockAlgebra) -> ConditionalExpectationMap:
    return ConditionalExpectationMap(
        algebra, algebra, trace_projection_superop(algebra)
    )


def state_preserving_expectation(
    source: MatrixBlockAlgebra,
    target: MatrixBlockAlgebra,
    omega: WeightDensity,
) -> ConditionalExpectationMap:
    """The omega-preserving conditional expectation source -> target.

    Built as the orthogonal projection onto the subalgebra in the GNS inner
    product <x, y> = omega(x* y).  That projection is a conditional
    expectation exactly when the modular flow of omega preserves the
    subalgebra; otherwise some axiom fails and
    NoPreservingExpectationError is raised.
    """
    if omega.algebra is not source and not omega.algebra.span_equals(source):
        raise ValueError("state must live on the source algebra")
    if not omega.is_faithful:
        raise ValueError("state-preserving projection needs a faithful state")
    for f in target.basis:
        if not source.contains(f, tol=1e-8):
            raise ValueError("target is not a subalgebra of the source")
    dens = omega.matrix
    gram = np.empty((len(target.basis), len(target.basis)), dtype=complex)
    for a, na in enumerate(target.basis):
        for b, nb in enumerate(target.basis):
            gram[a, b] = np.trace(dens @ na.conj().T @ nb)
    inv = np.linalg.inv(gram)
    d = source.ambient_dim
    superop = np.zeros((d * d, d * d), dtype=complex)
    for a, na in enumerate(target.basis):
        va = vec_matrix(na)
        for b, nb in enumerate(target.basis):
            # omega(n_b* x) = <n_b D, x> in the Hilbert-Schmidt pairing
            wb = vec_matrix(nb @ dens)
            superop += inv[a, b] * np.outer(va, wb.conj())
    cand = ConditionalExpectationMap(source, target, superop)
    residuals = cand.validate(state=omega)
    worst = max(residuals, key=residuals.get)
    if residuals[worst] > AXIOM_TOL * 100:
        raise NoPreservingExpectationError(
            f"projection violates the {worst} axiom (residual {residuals[worst]:.3e}); "
            "the modular flow of the state does not preserve the subalgebra"
        )
    return cand


def group_average_expectation(
    source: MatrixBlockAlgebra,
    unitaries: list[np.ndarray],
    closure_tol: float = 1e-8,
) -> ConditionalExpectationMap:
    """Average of x -> u x u* over a finite unitary group normalizing ``source``.

    The target is the fixed-point subalgebra, discovered from the nullspace
    of the stacked (Ad u - id) constraints in source-span coordinates.  The
    unitaries must form a group up to phase; products are matched against
    the listed elements through |tr(u_k* u_g u_h)| = D.
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

    superop = np.zeros((d * d, d * d), dtype=complex)
    for u in units:
        superop += conjugation_superop(u)
    superop /= len(units)
    # Restrict to the source first; off-span behavior of the raw average is
    # irrelevant and would spoil the idempotency of the stored matrix.
    superop = superop @ trace_projection_superop(source)

    basis = source.basis
    frame = np.stack([vec_matrix(f) for f in basis], axis=1)
    rows = []
    for u in units:
        images = [u @ f @ u.conj().T for f in basis]
        if any(source.span_distance(g) > 1e-9 for g in images):
            raise ValueError("unitaries do not normalize the algebra")
        # coordinates Tr(f_a* g_b) of the conjugated basis, in one product
        conj_coords = frame.conj().T @ np.stack([vec_matrix(g) for g in images], axis=1)
        rows.append(conj_coords - np.eye(len(basis)))
    stacked = np.vstack(rows)
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(svals > 1e-9 * max(1.0, svals[0] if svals.size else 1.0)))
    fixed_coords = vh[rank:].conj()
    fixed = [
        sum(c * f for c, f in zip(coords, basis)) for coords in fixed_coords
    ]
    target = algebra_from_basis(fixed)
    return ConditionalExpectationMap(source, target, superop)


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
        first.source, second.target, second.superop @ first.superop
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
