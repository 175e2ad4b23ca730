"""Finite-dimensional von Neumann algebras as explicit matrix spans.

Every algebra handled here is a unital *-subalgebra of B(C^D), i.e. up to
a unitary change of basis a direct sum of blocks M_{n_k} tensor 1_{m_k}.
Each :class:`MatrixBlockAlgebra` carries that change of basis explicitly
(one isometry per block), which makes commutants, canonical densities and
spatial derivatives cheap block-wise computations instead of repeated
null-space solves.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Residual accepted for the discovered block factorisation itself.
STRUCTURE_TOL = 1e-9

_DISCOVERY_SEED = 0x5EED


@dataclass(frozen=True)
class BlockStructure:
    """One central block: shape (n, m) and the isometry exhibiting it.

    ``iso`` has shape (n*m, D) with orthonormal rows, ordered so that
    ``iso @ x @ iso.conj().T`` equals ``xhat kron eye(m)`` for every x in
    the algebra (matrix index outer, multiplicity index inner).
    """

    n: int
    m: int
    iso: np.ndarray

    @property
    def size(self) -> int:
        return self.n * self.m


def _vec(mats: list[np.ndarray]) -> np.ndarray:
    return np.stack([m.reshape(-1) for m in mats])


def _orthonormal_span(mats: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Hilbert-Schmidt orthonormal basis of the span of ``mats``."""
    stack = _vec(mats)
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > max(1.0, s[0]) * 1e-12)) if s.size else 0
    return [vh[i].reshape(dim, dim) for i in range(rank)]


class MatrixBlockAlgebra:
    """A *-subalgebra of B(C^D) together with its block decomposition."""

    def __init__(
        self,
        blocks: list[tuple[int, int]],
        structure: list[BlockStructure],
        basis: list[np.ndarray] | None = None,
    ):
        if not blocks:
            raise ValueError("algebra needs at least one block")
        for n, m in blocks:
            if n < 1 or m < 1:
                raise ValueError(f"invalid block shape ({n}, {m})")
        self.blocks = [(int(n), int(m)) for n, m in blocks]
        self.structure = structure
        self.ambient_dim = structure[0].iso.shape[1]
        if sum(n * m for n, m in self.blocks) != self.ambient_dim:
            raise ValueError(
                "ambient dimension mismatch: blocks sum to "
                f"{sum(n * m for n, m in self.blocks)}, ambient is {self.ambient_dim}"
            )
        self.dim = sum(n * n for n, _ in self.blocks)
        if basis is None:
            basis = self._standard_basis()
        self.basis = basis
        self._commutant: MatrixBlockAlgebra | None = None

    # -- construction helpers -------------------------------------------------

    def _standard_basis(self) -> list[np.ndarray]:
        out = []
        for blk in self.structure:
            n, m = blk.n, blk.m
            lift = blk.iso.conj().T
            for i in range(n):
                for j in range(n):
                    unit = np.zeros((n, n), dtype=complex)
                    unit[i, j] = 1.0
                    mat = lift @ np.kron(unit, np.eye(m)) @ blk.iso
                    out.append(mat / np.sqrt(m))
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
            comp = blk.iso @ x @ blk.iso.conj().T
            comp = comp.reshape(blk.n, blk.m, blk.n, blk.m)
            parts.append(np.einsum("iljl->ij", comp) / blk.m)
        return parts

    def embed_blocks(self, parts: list[np.ndarray]) -> np.ndarray:
        """Assemble an algebra element from its matrix parts."""
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        for blk, part in zip(self.structure, parts):
            part = np.asarray(part, dtype=complex).reshape(blk.n, blk.n)
            out += blk.iso.conj().T @ np.kron(part, np.eye(blk.m)) @ blk.iso
        return out

    def project(self, x: np.ndarray) -> np.ndarray:
        """Hilbert-Schmidt orthogonal projection of x onto the algebra span."""
        return self.embed_blocks(self.matrix_blocks(x))

    def contains(self, x: np.ndarray, tol: float = SPAN_TOL) -> bool:
        scale = max(1.0, float(np.linalg.norm(x)))
        return float(np.linalg.norm(self.project(x) - x)) <= tol * scale

    def span_distance(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.project(x) - x))

    def span_equals(self, other: "MatrixBlockAlgebra", tol: float = SPAN_TOL) -> bool:
        if other.ambient_dim != self.ambient_dim or other.dim != self.dim:
            return False
        return all(self.contains(b, tol) for b in other.basis)

    # -- derived algebras ------------------------------------------------------

    def commutant(self) -> "MatrixBlockAlgebra":
        """The commutant, sharing this algebra's isometries with (n, m) swapped."""
        if self._commutant is None:
            structure = []
            for blk in self.structure:
                swap = _swap_matrix(blk.n, blk.m)
                structure.append(BlockStructure(n=blk.m, m=blk.n, iso=swap @ blk.iso))
            dual = MatrixBlockAlgebra(
                [(m, n) for n, m in self.blocks], structure
            )
            dual._commutant = self
            self._commutant = dual
        return self._commutant

    def conjugated(self, u: np.ndarray) -> "MatrixBlockAlgebra":
        """The algebra u A u* for a unitary u."""
        if not np.allclose(u @ u.conj().T, np.eye(self.ambient_dim), atol=1e-10):
            raise ValueError("conjugation matrix is not unitary")
        structure = [
            BlockStructure(blk.n, blk.m, blk.iso @ u.conj().T)
            for blk in self.structure
        ]
        return MatrixBlockAlgebra(
            list(self.blocks),
            structure,
            basis=[u @ b @ u.conj().T for b in self.basis],
        )

    def validate(self, tol: float = STRUCTURE_TOL) -> dict[str, float]:
        """Residuals for the structural invariants (adjoints, products, blocks)."""
        adj = max(self.span_distance(b.conj().T) for b in self.basis)
        rng = np.random.default_rng(_DISCOVERY_SEED)
        prod = 0.0
        pairs = min(len(self.basis) ** 2, 200)
        for _ in range(pairs):
            a = self.basis[rng.integers(len(self.basis))]
            b = self.basis[rng.integers(len(self.basis))]
            prod = max(prod, self.span_distance(a @ b))
        block = 0.0
        for b in self.basis:
            for blk in self.structure:
                comp = blk.iso @ b @ blk.iso.conj().T
                part = comp.reshape(blk.n, blk.m, blk.n, blk.m)
                avg = np.einsum("iljl->ij", part) / blk.m
                block = max(
                    block, float(np.linalg.norm(comp - np.kron(avg, np.eye(blk.m))))
                )
        unit = self.span_distance(self.identity)
        return {"adjoint": adj, "product": prod, "block": block, "unit": unit}

    def __repr__(self) -> str:
        return f"MatrixBlockAlgebra(blocks={self.blocks}, ambient={self.ambient_dim})"


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
    return MatrixBlockAlgebra(list(blocks), structure)


# -- structure discovery -------------------------------------------------------


def algebra_from_basis(
    mats: list[np.ndarray], rng: np.random.Generator | None = None
) -> MatrixBlockAlgebra:
    """Recover the block structure of the *-algebra spanned by ``mats``.

    The input must span a unital *-closed algebra; the identity is adjoined
    automatically.  Block shapes and isometries are found by splitting a
    generic central element into eigenprojections and then factoring each
    central summand with intertwiners read off from the algebra itself.
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
    structure: list[BlockStructure] = []
    for proj_basis in projections:
        structure.append(_factor_structure(proj_basis, basis, dim, rng))
    order = sorted(range(len(structure)), key=lambda k: (structure[k].n, structure[k].m))
    structure = [structure[k] for k in order]
    alg = MatrixBlockAlgebra([(b.n, b.m) for b in structure], structure, basis=basis)
    res = alg.validate()
    worst = max(res.values())
    if worst > STRUCTURE_TOL:
        raise ValueError(f"could not certify block structure (residual {worst:.2e})")
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
