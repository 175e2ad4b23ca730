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

Every operation here also takes a stack: isometries, matrices and unitaries
with leading axes before their last two, one algebra (or element) per
index, broadcast against unstacked operands.  A stack of B cases then
makes one numpy call per step where B single cases make B, so numpy's
per-call overhead, which dominates at these sizes, is paid once; a check
holds when it holds for every element.
"""

from __future__ import annotations

import weakref
from collections import namedtuple

import numpy as np

__all__ = [
    "BlockStructure",
    "MatrixBlockAlgebra",
    "build_algebra",
]

class BlockStructure(namedtuple("BlockStructure", "n m iso")):
    """One central block: shape (n, m) and the isometry exhibiting it.

    ``iso`` has shape (n*m, D), or (..., n*m, D) for a stack, with
    orthonormal rows, ordered so that
    ``iso @ x @ iso.conj().T`` equals ``xhat kron eye(m)`` for every x in
    the algebra (matrix index outer, multiplicity index inner).
    """

    __slots__ = ()


def _item(x):
    """A 0-d result as a Python scalar, so that one instance gets a float or a
    bool; a stack's results as their array."""
    return x.item() if np.ndim(x) == 0 else x


def _rows(a: np.ndarray, n: int) -> np.ndarray:
    """The last two axes of ``a`` regrouped into n rows."""
    return a.reshape(*a.shape[:-2], n, -1)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _lift(blk: BlockStructure, a: np.ndarray) -> np.ndarray:
    """V*(a tensor 1_m)V on the ambient space: block ``blk``'s element a."""
    return _adjoint(blk.iso) @ _rows(a @ _rows(blk.iso, blk.n), blk.n * blk.m)


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
        self.ambient_dim = self.structure[0].iso.shape[-1]
        if sum(n * m for n, m in self.blocks) != self.ambient_dim:
            raise ValueError(
                "ambient dimension mismatch: blocks sum to "
                f"{sum(n * m for n, m in self.blocks)}, ambient is {self.ambient_dim}"
            )
        # the commutant once made, or a weak reference to the algebra this one
        # is the commutant of
        self._commutant: MatrixBlockAlgebra | weakref.ref | None = None

    def central_projections(self) -> list[np.ndarray]:
        return [_adjoint(blk.iso) @ blk.iso for blk in self.structure]

    # -- block parts and projection ------------------------------------------

    def matrix_blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """Compress x to its n_k x n_k matrix parts (tracing out multiplicity)."""
        return [
            _rows(blk.iso @ x, blk.n) @ _adjoint(_rows(blk.iso, blk.n)) / blk.m
            for blk in self.structure
        ]

    def embed_blocks(self, parts: list[np.ndarray]) -> np.ndarray:
        """Assemble an algebra element from its matrix parts."""
        return sum(
            (
                _lift(blk, _rows(np.asarray(part, dtype=complex), blk.n))
                for blk, part in zip(self.structure, parts)
            ),
            np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex),
        )

    def project(self, x: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt orthogonal projection of x onto the algebra span."""
        return self.embed_blocks(self.matrix_blocks(x))

    # -- derived algebras ------------------------------------------------------

    def commutant(self) -> "MatrixBlockAlgebra":
        """The commutant, sharing this algebra's isometries with (n, m) swapped.

        It is made once and refers back to this algebra weakly, so a pair
        that nothing holds is freed at once, not left with its isometries
        to the cycle collector; while both are held, each is the other's
        commutant."""
        dual = self._commutant
        if isinstance(dual, weakref.ref):
            dual = dual()
        if dual is None:
            structure = []
            for blk in self.structure:
                # Row l*n + i of the swapped isometry is row i*m + l of this one.
                swap = np.arange(blk.n * blk.m).reshape(blk.n, blk.m).T.ravel()
                structure.append(BlockStructure(n=blk.m, m=blk.n, iso=blk.iso[..., swap, :]))
            dual = MatrixBlockAlgebra(structure)
            dual._commutant = weakref.ref(self)
            self._commutant = dual
        return dual

    def conjugated(self, u: np.ndarray) -> "MatrixBlockAlgebra":
        """The algebra u A u* for a unitary u; a stack of unitaries gives a
        stack of algebras."""
        d = self.ambient_dim
        if u.shape[-2:] != (d, d) or not _is_unitary(u):
            raise ValueError("conjugation matrix is not unitary")
        structure = [
            BlockStructure(blk.n, blk.m, blk.iso @ _adjoint(u)) for blk in self.structure
        ]
        return MatrixBlockAlgebra(structure)

    def __repr__(self) -> str:
        return f"MatrixBlockAlgebra(blocks={self.blocks}, ambient={self.ambient_dim})"


def _is_unitary(u: np.ndarray) -> bool:
    """``np.allclose(u u*, 1, atol=1e-10)`` for u and every element of a
    stack, without its overhead, which dominates at these sizes:
    |u u* - 1| <= 1e-10 + 1e-5 |1| entrywise, so the diagonal allows 1e-5
    more; NaN compares false and is rejected."""
    eye = np.eye(u.shape[-1], dtype=bool)
    gap = np.abs(u @ _adjoint(u) - eye)
    return bool((gap[..., eye] <= 1e-10 + 1e-5).all() and (gap[..., ~eye] <= 1e-10).all())


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
