"""States and weights on a block algebra, held as their intrinsic blocks.

A positive functional psi on an algebra A is represented by the unique
D_psi in A with Tr(D_psi x) = psi(x) for all x in A (plain ambient trace).
A weight is made from its block-intrinsic density matrices, one n_k x n_k
block per block of A (the physically normalised ones, with the
multiplicity multiplied back in), and it keeps their spectra; D_psi itself
is embedded from them on first use.  :func:`canonical_density` is the one
way in from an ambient functional.  The blocks are what the modular
machinery in :mod:`entropylab.findim.spatial` consumes.  They are read in
the isometries of the algebra object the weight was made on, so functions
that pair two weights require them on that same object.

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
    """A positive functional on an algebra, held as its intrinsic blocks.

    ``blocks`` holds one n_k x n_k matrix rho_k per block (n_k, m_k) of the
    algebra, in its order, with psi(x) = sum_k Tr(rho_k xhat_k).
    """

    def __init__(self, algebra: MatrixBlockAlgebra, blocks: list[np.ndarray]):
        blocks = [np.asarray(rho, dtype=complex) for rho in blocks]
        if len(blocks) != len(algebra.blocks) or any(
            rho.shape != (n, n) for rho, (n, _) in zip(blocks, algebra.blocks)
        ):
            raise ValueError(
                f"need one n_k x n_k block per block {algebra.blocks} of the algebra"
            )
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
        """Convex-type combination weight*self + (1-weight)*other, block by block."""
        if other.algebra is not self.algebra:
            raise ValueError("mixing needs two weights on the same algebra")
        return WeightDensity(
            self.algebra,
            [weight * a + (1.0 - weight) * b for a, b in zip(self._blocks, other._blocks)],
        )

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
    blocks = [p * m for p, (_, m) in zip(algebra.matrix_blocks(g), algebra.blocks)]
    return WeightDensity(algebra, blocks)


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
        # the coefficient matrices C_k = (V_k v).reshape(n_k, m_k)
        self._coefficients = [(b.iso @ vector).reshape(b.n, b.m) for b in algebra.structure]

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
        return WeightDensity(self.algebra, blocks)

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
    their total trace before the weight is made, which computes their
    eigensystems once."""
    blocks = []
    for n, _ in algebra.blocks:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = x @ x.conj().T + 1e-6 * np.eye(n)
        blocks.append((rho + rho.conj().T) / 2)
    factor = 1.0 / float(sum(np.trace(rho).real for rho in blocks))
    return WeightDensity(algebra, [rho * factor for rho in blocks])
