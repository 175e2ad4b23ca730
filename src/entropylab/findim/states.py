"""States and weights on a block algebra, stored as trace-pairing densities.

A positive functional psi on an algebra A is represented by the unique
D_psi in A with Tr(D_psi x) = psi(x) for all x in A (plain ambient trace).
Block-intrinsic density matrices (the physically normalised ones, with the
multiplicity divided out) are derived from it on demand; those are what the
modular machinery in :mod:`entropylab.findim.spatial` consumes.

A vector state is read off the same blocks.  On block k, with isometry V_k,
the vector is the n_k x m_k coefficient matrix C_k = (V_k v).reshape(n_k, m_k).
The algebra acts on it as a C_k (a in M_{n_k}) and the commutant as C_k b^T
(b in M_{m_k}), so v is cyclic exactly when every C_k has rank m_k and
separating exactly when every C_k has rank n_k.
"""

from __future__ import annotations

import numpy as np

from .algebras import MatrixBlockAlgebra

__all__ = [
    "WeightDensity",
    "VectorStateData",
    "canonical_density",
    "trace_state",
    "random_faithful_state",
]

# Trace deviation tolerated for the "normalized" flag.
NORMALIZATION_TOL = 1e-10
# Relative spectral cutoff defining the support of a density.
SUPPORT_CUTOFF = 1e-12


class WeightDensity:
    """A positive functional on an algebra, held as its canonical density."""

    def __init__(self, algebra: MatrixBlockAlgebra, matrix: np.ndarray, atol: float = 1e-10):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (algebra.ambient_dim, algebra.ambient_dim):
            raise ValueError("density has wrong shape for the ambient space")
        if not algebra.contains(matrix, tol=1e-10):
            raise ValueError("density does not lie in the algebra")
        if np.linalg.norm(matrix - matrix.conj().T) > atol * max(1.0, np.linalg.norm(matrix)):
            raise ValueError("density is not self-adjoint")
        self.algebra = algebra
        self.matrix = (matrix + matrix.conj().T) / 2
        self._blocks: list[np.ndarray] | None = None
        mass = float(np.trace(self.matrix).real)
        for rho in self.intrinsic_blocks():
            low = float(np.min(np.linalg.eigvalsh(rho)))
            if low < -1e-10 * max(1.0, mass):
                raise ValueError("functional is not positive on the algebra")
        self.mass = mass

    # -- basic queries ---------------------------------------------------------

    def value(self, x: np.ndarray) -> complex:
        """psi(x) via the trace pairing (x need not lie in the algebra)."""
        return complex(np.trace(self.matrix @ self.algebra.project(x)))

    @property
    def is_normalized(self) -> bool:
        return abs(self.mass - 1.0) <= NORMALIZATION_TOL

    def intrinsic_blocks(self) -> list[np.ndarray]:
        """Block density matrices rho_k with psi(x_k) = Tr(rho_k xhat_k).

        These carry the honest normalisation: the canonical density stores
        rho_k / m_k on block k, so the multiplicity is multiplied back in.
        """
        if self._blocks is None:
            parts = self.algebra.matrix_blocks(self.matrix)
            self._blocks = [
                (p + p.conj().T) / 2 * m for p, (_, m) in zip(parts, self.algebra.blocks)
            ]
        return self._blocks

    @property
    def is_faithful(self) -> bool:
        scale = max(
            (float(np.max(np.linalg.eigvalsh(r))) for r in self.intrinsic_blocks()),
            default=0.0,
        )
        if scale <= 0.0:
            return False
        return all(
            float(np.min(np.linalg.eigvalsh(r))) > SUPPORT_CUTOFF * scale
            for r in self.intrinsic_blocks()
        )

    def normalized(self) -> "WeightDensity":
        if self.mass <= 0:
            raise ValueError("cannot normalise a null functional")
        return WeightDensity(self.algebra, self.matrix / self.mass)

    def scaled(self, factor: float) -> "WeightDensity":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return WeightDensity(self.algebra, self.matrix * factor)

    def mixed_with(self, other: "WeightDensity", weight: float) -> "WeightDensity":
        """Convex-type combination weight*self + (1-weight)*other."""
        return WeightDensity(
            self.algebra, weight * self.matrix + (1.0 - weight) * other.matrix
        )

    @classmethod
    def from_intrinsic_blocks(
        cls, algebra: MatrixBlockAlgebra, blocks: list[np.ndarray]
    ) -> "WeightDensity":
        parts = [
            np.asarray(rho, dtype=complex) / m
            for rho, (_, m) in zip(blocks, algebra.blocks)
        ]
        return cls(algebra, algebra.embed_blocks(parts))

    def __repr__(self) -> str:
        return f"WeightDensity(mass={self.mass:.6g}, blocks={self.algebra.blocks})"


def canonical_density(algebra: MatrixBlockAlgebra, functional: np.ndarray) -> WeightDensity:
    """Canonical density of the functional x -> Tr(G x) restricted to the algebra.

    ``functional`` is the ambient matrix G defining the functional on B(H);
    the result is the unique element of the algebra reproducing it under the
    trace pairing.  Raises if the restriction is not positive on the algebra.
    """
    g = np.asarray(functional, dtype=complex)
    if g.shape != (algebra.ambient_dim, algebra.ambient_dim):
        raise ValueError("functional matrix has wrong shape")
    return WeightDensity(algebra, algebra.project(g))


class VectorStateData:
    """A unit vector together with cyclicity/separation data for an algebra."""

    def __init__(self, algebra: MatrixBlockAlgebra, vector: np.ndarray, atol: float = 1e-10):
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        if vector.shape[0] != algebra.ambient_dim:
            raise ValueError("vector dimension mismatch")
        norm = float(np.linalg.norm(vector))
        if abs(norm - 1.0) > atol:
            raise ValueError(f"vector is not normalised (norm {norm})")
        self.algebra = algebra
        self.vector = vector
        ranks = [
            np.linalg.matrix_rank((blk.iso @ vector).reshape(blk.n, blk.m), tol=1e-10)
            for blk in algebra.structure
        ]
        self.cyclic = all(r == m for r, (_, m) in zip(ranks, algebra.blocks))
        self.separating = all(r == n for r, (n, _) in zip(ranks, algebra.blocks))

    def state(self) -> WeightDensity:
        """The induced state on the algebra (canonical density)."""
        return canonical_density(self.algebra, np.outer(self.vector, self.vector.conj()))

    def commutant_state(self) -> WeightDensity:
        return canonical_density(
            self.algebra.commutant(), np.outer(self.vector, self.vector.conj())
        )

    def __repr__(self) -> str:
        return (
            f"VectorStateData(cyclic={self.cyclic}, separating={self.separating}, "
            f"blocks={self.algebra.blocks})"
        )


def trace_state(algebra: MatrixBlockAlgebra, total: float = 1.0) -> WeightDensity:
    """The normalised trace of the algebra, scaled to the given total mass."""
    dims = sum(n * m for n, m in algebra.blocks)
    return WeightDensity(algebra, algebra.identity * (total / dims))


def random_faithful_state(
    algebra: MatrixBlockAlgebra,
    rng: np.random.Generator,
    normalized: bool = True,
) -> WeightDensity:
    """Faithful random state with blocks X X* / Tr(X X*) from Gaussian X."""
    blocks = []
    for n, _ in algebra.blocks:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = x @ x.conj().T + 1e-6 * np.eye(n)
        blocks.append(rho)
    weight = WeightDensity.from_intrinsic_blocks(algebra, blocks)
    return weight.normalized() if normalized else weight
