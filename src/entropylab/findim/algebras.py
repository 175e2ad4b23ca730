"""Finite-dimensional von Neumann algebras held as their block isometries.

Every algebra handled here is a unital *-subalgebra of B(C^D), i.e. up to
a unitary change of basis a direct sum of blocks M_{n_k} tensor 1_{m_k}.
A :class:`MatrixBlockAlgebra` stores only that change of basis (one
isometry per block); its block shapes are derived from it, so they cannot
disagree.  Commutants, conjugates, canonical densities and spatial
derivatives are then cheap block-wise computations instead of repeated
null-space solves.
No Kronecker product is formed: with rows[i] the m x D slab of V for
matrix index i, V*(a tensor b)V = sum_ij a_ij rows[i]* b rows[j].
Every algebra is built from block shapes and a known change of basis
(:func:`build_algebra`, :meth:`MatrixBlockAlgebra.conjugated`,
:meth:`MatrixBlockAlgebra.commutant`); none is recovered numerically from a
spanning set.  Algebras are compared by identity: two maps or weights refer
to one algebra when they hold the same object, never when two spans agree
numerically.  A commutant's commutant is the algebra itself, so that
identity survives the round trip.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = [
    "BlockStructure",
    "MatrixBlockAlgebra",
    "build_algebra",
]

class BlockStructure(namedtuple("BlockStructure", "n m iso")):
    """One central block: shape (n, m) and the isometry exhibiting it.

    ``iso`` has shape (n*m, D) with orthonormal rows, ordered so that
    ``iso @ x @ iso.conj().T`` equals ``xhat kron eye(m)`` for every x in
    the algebra (matrix index outer, multiplicity index inner).
    """

    __slots__ = ()


def _lift(blk: BlockStructure, a: np.ndarray) -> np.ndarray:
    """V*(a tensor 1_m)V on the ambient space: block ``blk``'s element a."""
    acted = (a @ blk.iso.reshape(blk.n, -1)).reshape(blk.n * blk.m, -1)
    return blk.iso.conj().T @ acted


class MatrixBlockAlgebra:
    """A *-subalgebra of B(C^D), held as the isometries of its blocks."""

    def __init__(self, structure: list[BlockStructure]):
        if not structure:
            raise ValueError("algebra needs at least one block")
        for blk in structure:
            if blk.n < 1 or blk.m < 1:
                raise ValueError(f"invalid block shape ({blk.n}, {blk.m})")
        self.structure = list(structure)
        self.blocks = [(int(blk.n), int(blk.m)) for blk in self.structure]
        self.ambient_dim = self.structure[0].iso.shape[1]
        if sum(n * m for n, m in self.blocks) != self.ambient_dim:
            raise ValueError(
                "ambient dimension mismatch: blocks sum to "
                f"{sum(n * m for n, m in self.blocks)}, ambient is {self.ambient_dim}"
            )
        self._commutant: MatrixBlockAlgebra | None = None

    def central_projections(self) -> list[np.ndarray]:
        return [blk.iso.conj().T @ blk.iso for blk in self.structure]

    # -- block parts and projection ------------------------------------------

    def matrix_blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """Compress x to its n_k x n_k matrix parts (tracing out multiplicity)."""
        parts = []
        for blk in self.structure:
            left = (blk.iso @ x).reshape(blk.n, -1)
            parts.append(left @ blk.iso.reshape(blk.n, -1).conj().T / blk.m)
        return parts

    def embed_blocks(self, parts: list[np.ndarray]) -> np.ndarray:
        """Assemble an algebra element from its matrix parts."""
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        for blk, part in zip(self.structure, parts):
            out += _lift(blk, np.asarray(part, dtype=complex).reshape(blk.n, blk.n))
        return out

    def project(self, x: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt orthogonal projection of x onto the algebra span."""
        return self.embed_blocks(self.matrix_blocks(x))

    # -- derived algebras ------------------------------------------------------

    def commutant(self) -> "MatrixBlockAlgebra":
        """The commutant, sharing this algebra's isometries with (n, m) swapped."""
        if self._commutant is None:
            structure = []
            for blk in self.structure:
                # Row l*n + i of the swapped isometry is row i*m + l of this one.
                swap = np.arange(blk.n * blk.m).reshape(blk.n, blk.m).T.ravel()
                structure.append(BlockStructure(n=blk.m, m=blk.n, iso=blk.iso[swap]))
            dual = MatrixBlockAlgebra(structure)
            dual._commutant = self
            self._commutant = dual
        return self._commutant

    def conjugated(self, u: np.ndarray) -> "MatrixBlockAlgebra":
        """The algebra u A u* for a unitary u."""
        d = self.ambient_dim
        if u.shape != (d, d) or not _is_unitary(u):
            raise ValueError("conjugation matrix is not unitary")
        structure = [
            BlockStructure(blk.n, blk.m, blk.iso @ u.conj().T)
            for blk in self.structure
        ]
        return MatrixBlockAlgebra(structure)

    def __repr__(self) -> str:
        return f"MatrixBlockAlgebra(blocks={self.blocks}, ambient={self.ambient_dim})"


def _is_unitary(u: np.ndarray) -> bool:
    """``np.allclose(u u*, 1, atol=1e-10)`` without its overhead, which
    dominates at these sizes: |u u* - 1| <= 1e-10 + 1e-5 |1| entrywise, so
    the diagonal allows 1e-5 more; NaN compares false and is rejected."""
    d = len(u)
    gap = u @ u.conj().T
    gap.flat[:: d + 1] -= 1.0
    gap = np.abs(gap)
    diagonal = (gap.diagonal() <= 1e-10 + 1e-5).all()
    gap.flat[:: d + 1] = 0.0
    return bool(diagonal and (gap <= 1e-10).all())


def build_algebra(blocks: list[tuple[int, int]]) -> MatrixBlockAlgebra:
    """Direct sum of M_{n_k} tensor 1_{m_k} over the (n_k, m_k) of ``blocks``,
    in the standard basis ordering of C^D, D the sum of n_k * m_k."""
    if not blocks:
        raise ValueError("algebra needs at least one block")
    total = sum(n * m for n, m in blocks)
    structure = []
    offset = 0
    for n, m in blocks:
        size = n * m
        iso = np.zeros((size, total), dtype=complex)
        iso[:, offset : offset + size] = np.eye(size)
        structure.append(BlockStructure(n=n, m=m, iso=iso))
        offset += size
    return MatrixBlockAlgebra(structure)
