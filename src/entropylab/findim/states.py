"""States and weights on a block algebra, held as their intrinsic blocks.

A positive functional psi on an algebra A is represented by the unique
D_psi in A with Tr(D_psi x) = psi(x) for all x in A (plain ambient trace).
It is stored as the block-intrinsic density matrices of D_psi (the
physically normalised ones, with the multiplicity multiplied back in) and
their spectra; D_psi itself is embedded from them on first use.  The blocks
are what the modular machinery in :mod:`entropylab.findim.spatial` consumes.

A vector state is read off the same blocks.  On block k, with isometry V_k,
the vector is the n_k x m_k coefficient matrix C_k = (V_k v).reshape(n_k, m_k).
The algebra acts on it as a C_k (a in M_{n_k}) and the commutant as C_k b^T
(b in M_{m_k}), so v is cyclic exactly when every C_k has rank m_k and
separating exactly when every C_k has rank n_k.  Its state on the algebra
has the blocks C_k C_k*, and on the commutant C_k^T conj(C_k).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebras import MatrixBlockAlgebra

__all__ = [
    "WeightDensity",
    "VectorStateData",
    "canonical_density",
    "random_faithful_state",
]

# Relative skew a density may have, and norm deviation a unit vector may have.
ATOL = 1e-10
# Relative spectral cutoff defining the support of a density.
SUPPORT_CUTOFF = 1e-12


class WeightDensity:
    """A positive functional on an algebra, held as its intrinsic blocks."""

    def __init__(self, algebra: MatrixBlockAlgebra, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (algebra.ambient_dim, algebra.ambient_dim):
            raise ValueError("density has wrong shape for the ambient space")
        parts = algebra.matrix_blocks(matrix)
        scale = max(1.0, float(np.linalg.norm(matrix)))
        if float(np.linalg.norm(algebra.embed_blocks(parts) - matrix)) > 1e-10 * scale:
            raise ValueError("density does not lie in the algebra")
        self._settle(algebra, [p * m for p, (_, m) in zip(parts, algebra.blocks)])
        self.matrix = (matrix + matrix.conj().T) / 2  # fills the cached property

    def _settle(self, algebra: MatrixBlockAlgebra, blocks: list[np.ndarray]):
        # block k embeds as V*(rho/m kron 1_m)V, of squared norm ||rho||^2 / m
        mults = [m for _, m in algebra.blocks]
        skew = sum(np.linalg.norm(r - r.conj().T) ** 2 / m for r, m in zip(blocks, mults))
        size = sum(np.linalg.norm(r) ** 2 / m for r, m in zip(blocks, mults))
        if skew > ATOL**2 * max(1.0, size):
            raise ValueError("density is not self-adjoint")
        self.algebra = algebra
        self._blocks = [(r + r.conj().T) / 2 for r in blocks]
        self._eigen = [np.linalg.eigh(rho) for rho in self._blocks]
        self.mass = float(sum(np.trace(rho).real for rho in self._blocks))
        if min(float(vals[0]) for vals, _ in self._eigen) < -1e-10 * max(1.0, self.mass):
            raise ValueError("functional is not positive on the algebra")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The canonical density, embedded from the blocks on first use."""
        return self.algebra.embed_blocks(
            [rho / m for rho, (_, m) in zip(self._blocks, self.algebra.blocks)]
        )

    # -- basic queries ---------------------------------------------------------

    def value(self, x: np.ndarray) -> complex:
        """psi(P(x)) = Tr(D P(x)) = Tr(D x) for the projection P onto the algebra."""
        return complex(np.einsum("ij,ji->", self.matrix, x))

    def intrinsic_blocks(self) -> list[np.ndarray]:
        """Block density matrices rho_k with psi(x_k) = Tr(rho_k xhat_k);
        the canonical density holds rho_k / m_k on block k."""
        return self._blocks

    def intrinsic_eigensystems(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(eigenvalues, eigenvectors) of each intrinsic block, as
        ``np.linalg.eigh`` gives them: computed once, when the weight is made."""
        return self._eigen

    @property
    def is_faithful(self) -> bool:
        scale = max(float(vals[-1]) for vals, _ in self._eigen)
        if scale <= 0.0:
            return False
        return all(float(vals[0]) > SUPPORT_CUTOFF * scale for vals, _ in self._eigen)

    def mixed_with(self, other: "WeightDensity", weight: float) -> "WeightDensity":
        """Convex-type combination weight*self + (1-weight)*other."""
        return WeightDensity(
            self.algebra, weight * self.matrix + (1.0 - weight) * other.matrix
        )

    @classmethod
    def from_intrinsic_blocks(
        cls, algebra: MatrixBlockAlgebra, blocks: list[np.ndarray]
    ) -> "WeightDensity":
        self = cls.__new__(cls)
        self._settle(algebra, [np.asarray(rho, dtype=complex) for rho in blocks])
        return self

    def __repr__(self) -> str:
        return f"WeightDensity(mass={self.mass:.6g}, blocks={self.algebra.blocks})"


def _on(weight: WeightDensity, algebra: MatrixBlockAlgebra, error: str) -> WeightDensity:
    """``weight`` on ``algebra``, which must span the same algebra as its own.

    Intrinsic blocks depend on the block isometries, so a weight given on an
    independently built copy is carried over through its ambient matrix.
    """
    if weight.algebra is algebra:
        return weight
    if not weight.algebra.span_equals(algebra):
        raise ValueError(error)
    return WeightDensity(algebra, weight.matrix)


def canonical_density(algebra: MatrixBlockAlgebra, functional: np.ndarray) -> WeightDensity:
    """Canonical density of the functional x -> Tr(G x) restricted to the algebra.

    ``functional`` is the ambient matrix G defining the functional on B(H);
    the result is the unique element of the algebra reproducing it under the
    trace pairing.  Raises if the restriction is not positive on the algebra.
    """
    g = np.asarray(functional, dtype=complex)
    if g.shape != (algebra.ambient_dim, algebra.ambient_dim):
        raise ValueError("functional matrix has wrong shape")
    blocks = [p * m for p, (_, m) in zip(algebra.matrix_blocks(g), algebra.blocks)]
    return WeightDensity.from_intrinsic_blocks(algebra, blocks)


def _coefficients(algebra: MatrixBlockAlgebra, vector: np.ndarray) -> list[np.ndarray]:
    """The n_k x m_k coefficient matrices C_k = (V_k v).reshape(n_k, m_k)."""
    return [(blk.iso @ vector).reshape(blk.n, blk.m) for blk in algebra.structure]


class VectorStateData:
    """A unit vector together with cyclicity/separation data for an algebra.

    ``cyclic`` and ``separating`` are computed on first read, from one rank
    per coefficient matrix that both share.
    """

    def __init__(self, algebra: MatrixBlockAlgebra, vector: np.ndarray):
        vector = np.asarray(vector, dtype=complex).reshape(-1)
        if vector.shape[0] != algebra.ambient_dim:
            raise ValueError("vector dimension mismatch")
        norm = float(np.linalg.norm(vector))
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"vector is not normalised (norm {norm})")
        self.algebra = algebra
        self.vector = vector
        self._coefficients = _coefficients(algebra, vector)

    @cached_property
    def _ranks(self) -> list[int]:
        return [np.linalg.matrix_rank(c, tol=1e-10) for c in self._coefficients]

    @cached_property
    def cyclic(self) -> bool:
        """Every coefficient matrix C_k has full column rank m_k."""
        return all(r == m for r, (_, m) in zip(self._ranks, self.algebra.blocks))

    @cached_property
    def separating(self) -> bool:
        """Every coefficient matrix C_k has full row rank n_k."""
        return all(r == n for r, (n, _) in zip(self._ranks, self.algebra.blocks))

    def state(self) -> WeightDensity:
        """The induced state on the algebra (blocks C_k C_k*)."""
        blocks = [c @ c.conj().T for c in self._coefficients]
        return WeightDensity.from_intrinsic_blocks(self.algebra, blocks)

    def __repr__(self) -> str:
        return (
            f"VectorStateData(cyclic={self.cyclic}, separating={self.separating}, "
            f"blocks={self.algebra.blocks})"
        )


def random_faithful_state(
    algebra: MatrixBlockAlgebra, rng: np.random.Generator
) -> WeightDensity:
    """Faithful random state of mass 1, with blocks X X* / Tr(X X*) from Gaussian X.

    The blocks X X* + 1e-6 are made Hermitian and scaled by the inverse of
    their total trace before the weight settles, which computes their
    eigensystems once."""
    blocks = []
    for n, _ in algebra.blocks:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = x @ x.conj().T + 1e-6 * np.eye(n)
        blocks.append((rho + rho.conj().T) / 2)
    factor = 1.0 / float(sum(np.trace(rho).real for rho in blocks))
    return WeightDensity.from_intrinsic_blocks(algebra, [rho * factor for rho in blocks])
