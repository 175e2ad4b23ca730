"""Finite-dimensional von Neumann algebras held as their block isometries.

Every algebra handled here is a unital *-subalgebra of B(C^D), i.e. up to
a unitary change of basis a direct sum of blocks M_{n_k} tensor 1_{m_k}.
A :class:`MatrixBlockAlgebra` stores only that change of basis (one
isometry per block); its block shapes, dimension and Hilbert-Schmidt
basis are derived from it, so they cannot disagree.  Commutants,
conjugates, canonical densities and spatial derivatives are then cheap
block-wise computations instead of repeated null-space solves.
No Kronecker product is formed: with rows[i] the m x D slab of V for
matrix index i, V*(a tensor b)V = sum_ij a_ij rows[i]* b rows[j].
:func:`algebra_from_basis` recovers the isometries of a spanned algebra
and certifies them against its input: the result must have the input
span's dimension and contain every input element.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np

__all__ = [
    "BlockStructure",
    "MatrixBlockAlgebra",
    "build_algebra",
    "algebra_from_basis",
]

# Residual accepted when deciding that a matrix lies in a span.
SPAN_TOL = 1e-12
# Relative gap used to split eigenvalue clusters during structure discovery.
CLUSTER_GAP = 1e-7
# Relative residual accepted for an input element in the discovered algebra.
STRUCTURE_TOL = 1e-9

_DISCOVERY_SEED = 0x5EED


class BlockStructure(namedtuple("BlockStructure", "n m iso")):
    """One central block: shape (n, m) and the isometry exhibiting it.

    ``iso`` has shape (n*m, D) with orthonormal rows, ordered so that
    ``iso @ x @ iso.conj().T`` equals ``xhat kron eye(m)`` for every x in
    the algebra (matrix index outer, multiplicity index inner).
    """

    __slots__ = ()


def _lift(blk: BlockStructure, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """V*(a tensor b)V on the ambient space; ``b`` defaults to the identity 1_m."""
    rows = blk.iso.reshape(blk.n, blk.m, -1)
    if b is not None:
        rows = np.matmul(b, rows)
    acted = (a @ rows.reshape(blk.n, -1)).reshape(blk.n * blk.m, -1)
    return blk.iso.conj().T @ acted


def _vec(mats: list[np.ndarray]) -> np.ndarray:
    return np.stack([m.reshape(-1) for m in mats])


def _orthonormal_span(mats: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Hilbert-Schmidt orthonormal basis of the span of ``mats``."""
    stack = _vec(mats)
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > max(1.0, s[0]) * 1e-12)) if s.size else 0
    return [vh[i].reshape(dim, dim) for i in range(rank)]


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
        self.dim = sum(n * n for n, _ in self.blocks)
        self._commutant: MatrixBlockAlgebra | None = None

    @cached_property
    def basis(self) -> list[np.ndarray]:
        """Hilbert-Schmidt orthonormal basis: the matrix units of each block, lifted."""
        out = []
        for blk in self.structure:
            rows = blk.iso.reshape(blk.n, blk.m, -1)
            scale = 1.0 / np.sqrt(blk.m)
            for i in range(blk.n):
                for j in range(blk.n):
                    out.append(rows[i].conj().T @ rows[j] * scale)
        return out

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.ambient_dim, dtype=complex)

    def central_projections(self) -> list[np.ndarray]:
        return [blk.iso.conj().T @ blk.iso for blk in self.structure]

    # -- membership and projection -------------------------------------------

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

    def contains(self, x: np.ndarray, tol: float = SPAN_TOL) -> bool:
        return self.span_distance(x) <= tol * max(1.0, float(np.linalg.norm(x)))

    def span_distance(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.project(x) - x))

    def basis_distance(self, other: "MatrixBlockAlgebra") -> float:
        """The largest span_distance of an element of ``other.basis``, in one pass.

        An element of a block (n, m, V) of ``other`` is f_ij = V_i* V_j / sqrt(m)
        for the m x D slabs V_i of V.  In the frame of a block (N, M, W) of
        this algebra, W f_ij W* = X_i X_j* / sqrt(m) with X_i = W V_i*, rows
        (a, mu); the projection zeroes the blocks between two of this
        algebra's blocks and averages each diagonal block over mu.  The QR
        factor of X_i, taken with a as the row index, has min(N, M m) rows
        and leaves the norm of every such product unchanged, so the n^2
        distances come from one product of the factors, without forming any
        f_ij or a difference of squared norms.
        """
        worst = 0.0
        for t in other.structure:
            factors = []
            for blk in self.structure:
                x = (blk.iso @ t.iso.conj().T).reshape(blk.n, blk.m, t.n, t.m)
                x = x.transpose(2, 0, 1, 3).reshape(t.n, blk.n, blk.m * t.m)
                factors.append(np.linalg.qr(x, mode="r").reshape(t.n, -1, t.m))
            y = np.concatenate(factors, axis=1)  # (i, (block, rho, mu), tau)
            diff = np.einsum("ipt,jqt->ijpq", y, y.conj()) / np.sqrt(t.m)
            start = 0
            for blk, factor in zip(self.structure, factors):
                size = factor.shape[1]
                diag = diff[:, :, start : start + size, start : start + size]
                diag = diag.reshape(t.n, t.n, -1, blk.m, size // blk.m, blk.m)
                mean = np.einsum("ijakbk->ijab", diag) / blk.m
                for mu in range(blk.m):
                    diag[:, :, :, mu, :, mu] -= mean
                start += size
            residual = np.einsum("ijpq,ijpq->ij", diff, diff.conj()).real
            worst = max(worst, float(np.sqrt(residual.max())))
        return worst

    def span_equals(self, other: "MatrixBlockAlgebra", tol: float = SPAN_TOL) -> bool:
        if other is self:
            return True
        if other.ambient_dim != self.ambient_dim or other.dim != self.dim:
            return False
        return self.basis_distance(other) <= tol

    # -- derived algebras ------------------------------------------------------

    def commutant(self) -> "MatrixBlockAlgebra":
        """The commutant, sharing this algebra's isometries with (n, m) swapped."""
        if self._commutant is None:
            structure = []
            for blk in self.structure:
                swap = _swap_matrix(blk.n, blk.m)
                structure.append(BlockStructure(n=blk.m, m=blk.n, iso=swap @ blk.iso))
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


def _swap_matrix(n: int, m: int) -> np.ndarray:
    """Unitary C^n tensor C^m -> C^m tensor C^n."""
    s = np.zeros((n * m, n * m))
    for i in range(n):
        for l in range(m):
            s[l * n + i, i * m + l] = 1.0
    return s


def build_algebra(
    blocks: list[tuple[int, int]], ambient_dim: int | None = None
) -> MatrixBlockAlgebra:
    """Direct sum of M_{n_k} tensor 1_{m_k} in the standard basis ordering.

    Parameters
    ----------
    blocks:
        List of (n_k, m_k) pairs; the ambient space is the direct sum of
        C^{n_k} tensor C^{m_k} in the given order.
    ambient_dim:
        Optional cross-check; must equal the sum of n_k * m_k when given.
    """
    if not blocks:
        raise ValueError("algebra needs at least one block")
    total = sum(n * m for n, m in blocks)
    if ambient_dim is not None and ambient_dim != total:
        raise ValueError(
            f"ambient dimension mismatch: expected {total}, got {ambient_dim}"
        )
    structure = []
    offset = 0
    for n, m in blocks:
        size = n * m
        iso = np.zeros((size, total), dtype=complex)
        iso[:, offset : offset + size] = np.eye(size)
        structure.append(BlockStructure(n=n, m=m, iso=iso))
        offset += size
    return MatrixBlockAlgebra(structure)


# -- structure discovery -------------------------------------------------------


def algebra_from_basis(
    mats: list[np.ndarray], rng: np.random.Generator | None = None
) -> MatrixBlockAlgebra:
    """Recover the block structure of the *-algebra spanned by ``mats``.

    The input must span a unital *-closed algebra; the identity and the
    adjoints are adjoined automatically.  Block shapes and isometries are
    found by splitting a generic central element into eigenprojections and
    then factoring each central summand with intertwiners read off from the
    algebra itself.  Raises ValueError unless the result has the dimension
    of that span and contains every input element within STRUCTURE_TOL.
    """
    if not mats:
        raise ValueError("empty generating set")
    dim = mats[0].shape[0]
    if rng is None:
        rng = np.random.default_rng(_DISCOVERY_SEED)
    closed = list(mats) + [m.conj().T for m in mats] + [np.eye(dim, dtype=complex)]
    basis = _orthonormal_span(closed, dim)
    center = _center_basis(basis, dim)
    projections = _central_projections(center, basis, dim, rng)
    structure = [_factor_structure(cols, basis, dim, rng) for cols in projections]
    alg = MatrixBlockAlgebra(sorted(structure, key=lambda blk: (blk.n, blk.m)))
    # A subspace of the result with the result's dimension is the result:
    # this certifies the blocks and that the input spans an algebra.
    if alg.dim != len(basis) or not all(alg.contains(x, STRUCTURE_TOL) for x in mats):
        raise ValueError(
            f"the input spans dimension {len(basis)}, but the discovered blocks "
            f"{alg.blocks} of dimension {alg.dim} do not reproduce that span: "
            "the input does not span a *-algebra"
        )
    return alg


def _center_basis(basis: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Basis of the center: elements of the span commuting with every basis element."""
    rows = []
    for b in basis:
        block = np.stack([(f @ b - b @ f).reshape(-1) for f in basis])
        rows.append(block.T)
    constraint = np.concatenate(rows, axis=0)
    _, s, vh = np.linalg.svd(constraint, full_matrices=False)
    tol = max(1.0, (s[0] if s.size else 1.0)) * 1e-10
    null = [vh[i].conj() for i in range(len(basis)) if i >= len(s) or s[i] <= tol]
    center = []
    for coeffs in null:
        z = sum(c * f for c, f in zip(coeffs, basis))
        center.append(z)
    return center


def _central_projections(
    center: list[np.ndarray],
    basis: list[np.ndarray],
    dim: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Split C^dim into the ranges of the minimal central projections.

    Returns one orthonormal column block per central summand.
    """
    n_blocks = len(center)
    if n_blocks == 1:
        return [np.eye(dim, dtype=complex)]
    for _ in range(12):
        # Complex coefficients matter: a real-spanning basis can have
        # Hermitian parts that miss directions of the center, leaving
        # eigenvalues systematically degenerate.
        coeff = rng.standard_normal(n_blocks) + 1j * rng.standard_normal(n_blocks)
        raw = sum(c * m for c, m in zip(coeff, center))
        z = (raw + raw.conj().T) / 2
        vals, vecs = np.linalg.eigh(z)
        groups = _cluster(vals)
        if len(groups) != n_blocks:
            continue
        cols = [vecs[:, idx] for idx in groups]
        good = all(
            max(
                float(np.linalg.norm(q.conj().T @ b @ p))
                for b in basis[: min(len(basis), 12)]
            )
            < 1e-8
            for a, q in enumerate(cols)
            for c, p in enumerate(cols)
            if a != c
        )
        if good:
            return cols
    raise ValueError("could not separate central projections")


def _cluster(vals: np.ndarray) -> list[np.ndarray]:
    """Group sorted eigenvalues into clusters separated by clear gaps."""
    scale = max(1.0, float(np.max(np.abs(vals))))
    groups = []
    current = [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[i - 1] > CLUSTER_GAP * scale:
            groups.append(np.array(current))
            current = [i]
        else:
            current.append(i)
    groups.append(np.array(current))
    return groups


def _factor_structure(
    cols: np.ndarray,
    basis: list[np.ndarray],
    dim: int,
    rng: np.random.Generator,
) -> BlockStructure:
    """Factor one central summand as M_n tensor 1_m and build its isometry."""
    d = cols.shape[1]
    compressed = [cols.conj().T @ b @ cols for b in basis]
    compressed = _orthonormal_span(compressed, d)
    s = len(compressed)
    n = int(round(np.sqrt(s)))
    if n * n != s or d % n != 0:
        raise ValueError(f"summand span of dimension {s} on C^{d} is not a factor")
    m = d // n
    if n == 1:
        return BlockStructure(n=1, m=d, iso=cols.conj().T)
    for _ in range(12):
        coeff = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        raw = sum(c * g for c, g in zip(coeff, compressed))
        a = (raw + raw.conj().T) / 2
        vals, vecs = np.linalg.eigh(a)
        groups = _cluster(vals)
        if len(groups) != n or any(len(g) != m for g in groups):
            continue
        eigenspaces = [vecs[:, g] for g in groups]
        frames = _intertwine(eigenspaces, compressed, rng)
        if frames is None:
            continue
        iso_rows = np.concatenate([w.conj().T for w in frames], axis=0)
        return BlockStructure(n=n, m=m, iso=iso_rows @ cols.conj().T)
    raise ValueError("could not factor central summand")


def _intertwine(
    eigenspaces: list[np.ndarray],
    compressed: list[np.ndarray],
    rng: np.random.Generator,
) -> list[np.ndarray] | None:
    """Align the eigenspace frames using intertwiners from the algebra itself."""
    m = eigenspaces[0].shape[1]
    frames = [eigenspaces[0]]
    for w in eigenspaces[1:]:
        aligned = None
        for _ in range(8):
            coeff = rng.standard_normal(len(compressed)) + 1j * rng.standard_normal(
                len(compressed)
            )
            g = sum(c * mat for c, mat in zip(coeff, compressed))
            s = w.conj().T @ g @ eigenspaces[0]
            u, sing, vh = np.linalg.svd(s)
            if sing[0] < 1e-9:
                continue
            if sing[-1] < 0.5 * sing[0]:
                # not scalar times unitary; g had a zero matrix entry, retry
                continue
            aligned = w @ (u @ vh)
            break
        if aligned is None:
            return None
        frames.append(aligned)
    return frames
