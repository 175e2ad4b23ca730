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

Blocks and vectors may carry leading stack axes, one weight or vector per
index, on a stacked algebra or broadcast against an unstacked one
(:mod:`entropylab.findim.algebras`).  A check raises when any element
fails it; a query answers for each element.  The random draws take a list
of generators for a stack and draw each element from its own, in the order
one element alone would draw.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebras import MatrixBlockAlgebra, _adjoint, _item, _rows

__all__ = [
    "WeightDensity",
    "VectorStateData",
    "canonical_density",
    "random_faithful_state",
    "random_unit_vector",
]

# Relative skew a density may have, and norm deviation a unit vector may have.
ATOL = 1e-10
# Relative spectral cutoff defining the support of a density.
SUPPORT_CUTOFF = 1e-12


def _square_norm(x: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of a matrix, or of each one of a stack."""
    return (np.abs(x) ** 2).sum(axis=(-2, -1))


class WeightDensity:
    """A positive functional on an algebra, held as its intrinsic blocks.

    ``blocks`` holds one n_k x n_k matrix rho_k per block (n_k, m_k) of the
    algebra, in its order, with psi(x) = sum_k Tr(rho_k xhat_k); a stack
    of weights holds (..., n_k, n_k) arrays, and ``mass`` is then an array.
    """

    def __init__(self, algebra: MatrixBlockAlgebra, blocks: list[np.ndarray]):
        blocks = [np.asarray(rho, dtype=complex) for rho in blocks]
        if len(blocks) != len(algebra.blocks) or any(
            rho.shape[-2:] != (n, n) for rho, (n, _) in zip(blocks, algebra.blocks)
        ):
            raise ValueError(
                f"need one n_k x n_k block per block {algebra.blocks} of the algebra"
            )
        # block k embeds as V*(rho/m kron 1_m)V, of squared norm ||rho||^2 / m
        mults = [m for _, m in algebra.blocks]
        skew = sum(_square_norm(r - _adjoint(r)) / m for r, m in zip(blocks, mults))
        size = sum(_square_norm(r) / m for r, m in zip(blocks, mults))
        if (skew > ATOL**2 * np.maximum(1.0, size)).any():
            raise ValueError("density is not self-adjoint")
        self.algebra = algebra
        self._blocks = [(r + _adjoint(r)) / 2 for r in blocks]
        self._eigen = [np.linalg.eigh(rho) for rho in self._blocks]
        self.mass = _item(sum(np.trace(rho, axis1=-2, axis2=-1).real for rho in self._blocks))
        floor = -1e-10 * np.maximum(1.0, self.mass)
        if any((vals[..., 0] < floor).any() for vals, _ in self._eigen):
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
    def is_faithful(self) -> bool | np.ndarray:
        """Every block's smallest eigenvalue is above the support cutoff of
        the largest eigenvalue of all blocks, which is positive; for a stack,
        one answer per element."""
        scale = np.max([vals[..., -1] for vals, _ in self._eigen], axis=0)
        faithful = scale > 0.0
        for vals, _ in self._eigen:
            faithful = faithful & (vals[..., 0] > SUPPORT_CUTOFF * scale)
        return _item(faithful)

    def mixed_with(self, other: "WeightDensity", weight: float) -> "WeightDensity":
        """Convex-type combination weight*self + (1-weight)*other, block by block."""
        if other.algebra is not self.algebra:
            raise ValueError("mixing needs two weights on the same algebra")
        return WeightDensity(
            self.algebra,
            [weight * a + (1.0 - weight) * b for a, b in zip(self._blocks, other._blocks)],
        )

    def __repr__(self) -> str:
        return f"WeightDensity(mass={np.round(self.mass, 6)}, blocks={self.algebra.blocks})"


def canonical_density(algebra: MatrixBlockAlgebra, functional: np.ndarray) -> WeightDensity:
    """Canonical density of the functional x -> Tr(G x) restricted to the algebra.

    ``functional`` is the ambient matrix G defining the functional on B(H);
    the result is the unique element of the algebra reproducing it under the
    trace pairing.  Raises if the restriction is not positive on the algebra.
    """
    g = np.asarray(functional, dtype=complex)
    if g.shape[-2:] != (algebra.ambient_dim, algebra.ambient_dim):
        raise ValueError("functional matrix has wrong shape")
    blocks = [p * m for p, (_, m) in zip(algebra.matrix_blocks(g), algebra.blocks)]
    return WeightDensity(algebra, blocks)


class VectorStateData:
    """A unit vector together with cyclicity/separation data for an algebra.

    ``vector`` has shape (D,), or (..., D) for a stack of vectors.
    ``cyclic`` and ``separating`` are computed on first read, from one rank
    per coefficient matrix that both share; for a stack, one answer per
    element.
    """

    def __init__(self, algebra: MatrixBlockAlgebra, vector: np.ndarray):
        vector = np.asarray(vector, dtype=complex)
        if vector.shape[-1] != algebra.ambient_dim:
            raise ValueError("vector dimension mismatch")
        norm = np.linalg.norm(vector, axis=-1)
        off = norm[np.abs(norm - 1.0) > ATOL]
        if off.size:
            raise ValueError(f"vector is not normalised (norm {float(off[0])})")
        self.algebra = algebra
        self.vector = vector
        # the coefficient matrices C_k = (V_k v).reshape(n_k, m_k)
        self._coefficients = [
            _rows(b.iso @ vector[..., None], b.n) for b in algebra.structure
        ]

    @cached_property
    def _ranks(self) -> list[np.ndarray]:
        return [np.linalg.matrix_rank(c, tol=1e-10) for c in self._coefficients]

    @cached_property
    def cyclic(self) -> bool | np.ndarray:
        """Every coefficient matrix C_k has full column rank m_k."""
        return _item(np.all([r == m for r, (_, m) in zip(self._ranks, self.algebra.blocks)], 0))

    @cached_property
    def separating(self) -> bool | np.ndarray:
        """Every coefficient matrix C_k has full row rank n_k."""
        return _item(np.all([r == n for r, (n, _) in zip(self._ranks, self.algebra.blocks)], 0))

    def state(self) -> WeightDensity:
        """The induced state on the algebra (blocks C_k C_k*)."""
        blocks = [c @ _adjoint(c) for c in self._coefficients]
        return WeightDensity(self.algebra, blocks)

    def __repr__(self) -> str:
        return (
            f"VectorStateData(cyclic={self.cyclic}, separating={self.separating}, "
            f"blocks={self.algebra.blocks})"
        )


def gaussian(rng, shape: tuple[int, ...]) -> np.ndarray:
    """A complex Gaussian array of ``shape``, its real part drawn before its
    imaginary part.  For a list of generators, one such array from each,
    stacked along a new first axis."""
    if isinstance(rng, list):
        return np.array([gaussian(g, shape) for g in rng])
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit_vector(dim: int, rng) -> np.ndarray:
    """A Gaussian vector of C^dim over its norm; a stack of them for a list
    of generators.  The norm is ``np.linalg.norm``'s for one vector."""
    v = gaussian(rng, (dim,))
    # one dot product per element and part, as np.linalg.norm takes them
    square = sum(part[..., None, :] @ part[..., :, None] for part in (v.real, v.imag))
    return v / np.sqrt(square[..., 0])


def random_faithful_state(algebra: MatrixBlockAlgebra, rng) -> WeightDensity:
    """Faithful random state of mass 1, with blocks X X* / Tr(X X*) from Gaussian X.

    The blocks X X* + 1e-6 are made Hermitian and scaled by the inverse of
    their total trace before the weight is made, which computes their
    eigensystems once.  A list of generators gives a stack of states."""
    blocks = []
    for n, _ in algebra.blocks:
        x = gaussian(rng, (n, n))
        rho = x @ _adjoint(x) + 1e-6 * np.eye(n)
        blocks.append((rho + _adjoint(rho)) / 2)
    total = sum(np.trace(rho, axis1=-2, axis2=-1).real for rho in blocks)
    factor = (1.0 / np.asarray(total))[..., None, None]
    return WeightDensity(algebra, [rho * factor for rho in blocks])
