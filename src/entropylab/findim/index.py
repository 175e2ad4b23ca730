"""Dual weights, the Kosaki index, quasi-bases and the Pimsner-Popa bound.

Given an expectation E: M -> N, the dual map carries weights on M' to
weights on N'.  It is pinned down by one equation: the spatial derivative
of (psi composed with E) relative to phi' must equal the spatial
derivative of psi relative to the dual weight, for an auxiliary faithful
psi on N.  Everything here is solved block by block from that equation;
the solution is independent of psi, and the index is the dual map
evaluated at the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebras import MatrixBlockAlgebra, _lift
from .expectations import ConditionalExpectationMap
from .spatial import spatial_derivative
from .states import WeightDensity, _on, trace_state

__all__ = [
    "dual_weight",
    "DualWeightMap",
    "dual_weight_map",
    "kosaki_index",
    "quasi_basis",
    "QuasiBasis",
    "pimsner_popa_check",
    "PimsnerPopaReport",
]

FACTORIZATION_TOL = 1e-8


def dual_weight(
    expectation: ConditionalExpectationMap,
    phi_c: WeightDensity,
    psi: WeightDensity | None = None,
) -> WeightDensity:
    """The weight phi_c composed with the dual of ``expectation``, on N'.

    ``phi_c`` must be a faithful weight on the commutant of the source.
    ``psi`` is the auxiliary faithful weight on the target used in the
    defining equation; the result provably does not depend on it (the
    default is the normalized trace).
    """
    source = expectation.source
    target = expectation.target
    dual_of_source = source.commutant()
    phi_c = _on(phi_c, dual_of_source, "weight must live on the commutant of the source algebra")
    if not phi_c.is_faithful:
        raise ValueError("dual weight needs a faithful weight on the commutant")
    if psi is None:
        psi = trace_state(target)
    psi = _on(psi, target, "auxiliary weight must live on the target algebra")
    if not psi.is_faithful:
        raise ValueError("auxiliary weight must be faithful")

    pushed = expectation.pull_back(psi)
    lhs = spatial_derivative(pushed, phi_c)

    rho = psi.intrinsic_blocks()
    inverted = []
    recon = np.zeros_like(lhs)
    for blk, rho_j in zip(target.structure, rho):
        nu, mu = blk.n, blk.m
        compressed = (blk.iso @ lhs @ blk.iso.conj().T).reshape(nu, mu, nu, mu)
        vals, vecs = np.linalg.eigh(rho_j)
        rho_inv = (vecs / vals) @ vecs.conj().T
        # strip rho_j from (rho_j tensor x): trace (rho_inv tensor 1) lhs over C^nu
        x = np.einsum("ij,jaib->ab", rho_inv, compressed) / nu
        x = (x + x.conj().T) / 2
        xvals = np.linalg.eigvalsh(x)
        if xvals[0] <= 1e-12 * max(1.0, xvals[-1]):
            raise ValueError(
                "defining equation produced a singular block; the expectation is degenerate"
            )
        recon += _lift(blk, rho_j, x)
        inverted.append(np.linalg.inv(x))
    scale = max(1.0, float(np.linalg.norm(lhs)))
    residual = float(np.linalg.norm(lhs - recon)) / scale
    if residual > FACTORIZATION_TOL:
        raise ValueError(
            f"defining equation is not satisfied by any block weight (residual {residual:.3e})"
        )
    return WeightDensity.from_intrinsic_blocks(target.commutant(), inverted)


def _hermitian_basis(algebra: MatrixBlockAlgebra) -> list[np.ndarray]:
    """A Hilbert-Schmidt orthonormal Hermitian basis of the algebra span,
    combined from its lifted matrix units f_ij per block."""
    out = []
    start = 0
    for n, _ in algebra.blocks:
        f = algebra.basis[start : start + n * n]
        start += n * n
        out += [f[i * n + i] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                out.append((f[i * n + j] + f[j * n + i]) / np.sqrt(2.0))
                out.append(1j * (f[j * n + i] - f[i * n + j]) / np.sqrt(2.0))
    return out


@dataclass
class DualWeightMap:
    """The dual of a conditional expectation, as a positive linear map N' -> M'.

    ``value_at_identity`` is the index of the underlying expectation, a
    positive element of the common center (a multiple of the identity when
    the source is a factor).
    """

    expectation: ConditionalExpectationMap
    value_at_identity: np.ndarray
    _basis: list[np.ndarray] = field(repr=False)
    _images: list[np.ndarray] = field(repr=False)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        dual_target = self.expectation.target.commutant()
        if not dual_target.contains(y, tol=1e-8):
            raise ValueError("argument must lie in the commutant of the target")
        out = np.zeros_like(self._images[0])
        for h, image in zip(self._basis, self._images):
            out = out + np.trace(image @ y) * h
        return out


def dual_weight_map(expectation: ConditionalExpectationMap) -> DualWeightMap:
    """Assemble the full dual map from dual weights of a spanning family.

    The density of the dual weight is linear in the input weight, so exact
    finite differences around the ambient trace recover the whole map.
    """
    dual_of_source = expectation.source.commutant()
    dim = dual_of_source.ambient_dim
    base = trace_state(dual_of_source, total=dim)
    base_out = dual_weight(expectation, base).matrix
    basis = _hermitian_basis(dual_of_source)
    images = []
    for h in basis:
        step = 0.5 / max(1.0, float(np.linalg.norm(h, 2)))
        shifted = WeightDensity(
            dual_of_source, np.eye(dim, dtype=complex) + step * h
        )
        images.append((dual_weight(expectation, shifted).matrix - base_out) / step)
    value = np.zeros((dim, dim), dtype=complex)
    for h, image in zip(basis, images):
        value = value + np.trace(image) * h
    return DualWeightMap(
        expectation=expectation,
        value_at_identity=value,
        _basis=basis,
        _images=images,
    )


def kosaki_index(expectation: ConditionalExpectationMap) -> float | np.ndarray:
    """Index of the expectation: the dual map evaluated at the identity.

    Returns a float when the source is a factor, otherwise the central
    positive matrix itself.  Cached on the expectation.
    """
    if expectation._index is not None:
        return expectation._index
    source = expectation.source
    dual_of_source = source.commutant()
    dim = source.ambient_dim
    base = trace_state(dual_of_source, total=dim)
    base_mass = dual_weight(expectation, base).mass
    if len(source.blocks) == 1:
        value: float | np.ndarray = base_mass / dim
    else:
        value = np.zeros((dim, dim), dtype=complex)
        for proj in dual_of_source.central_projections():
            shifted = WeightDensity(
                dual_of_source, np.eye(dim, dtype=complex) + proj
            )
            coeff = (dual_weight(expectation, shifted).mass - base_mass) / float(
                np.trace(proj).real
            )
            value = value + coeff * proj
    expectation._index = value
    return value


@dataclass(frozen=True)
class QuasiBasis:
    """A Pimsner-Popa (quasi-)basis for an expectation of finite index."""

    elements: list[np.ndarray]
    index_matrix: np.ndarray
    reconstruction_residual: float

    @property
    def index_value(self) -> float:
        dim = self.index_matrix.shape[0]
        return float(np.trace(self.index_matrix).real) / dim


def quasi_basis(
    expectation: ConditionalExpectationMap,
    rng: np.random.Generator | None = None,
    check_samples: int = 6,
) -> QuasiBasis:
    """Compute a quasi-basis {g_a} with sum_a g_a E(g_a* x) = x on the source.

    Found by frame-correcting the linear basis of the source with the
    inverse square root of its frame operator, taken self-adjointly in the
    inner product tau(E(y* x)).  The matrix sum g_a g_a* is the index and
    does not depend on the choices made here.
    """
    rng = rng or np.random.default_rng(7)
    source = expectation.source
    fs = source.basis
    dim = len(fs)
    tau = trace_state(expectation.target)

    products = [[expectation(fa.conj().T @ fb) for fb in fs] for fa in fs]
    gram = np.array([[tau.value(p) for p in row] for row in products])
    gram = (gram + gram.conj().T) / 2

    frame = np.empty((dim, dim), dtype=complex)
    for b in range(dim):
        sb = sum(fs[a] @ products[a][b] for a in range(dim))
        for c in range(dim):
            frame[c, b] = np.trace(fs[c].conj().T @ sb)

    gvals, gvecs = np.linalg.eigh(gram)
    if gvals[0] <= 1e-12 * max(1.0, gvals[-1]):
        raise ValueError("expectation is not faithful on the source")
    g_half = (gvecs * np.sqrt(gvals)) @ gvecs.conj().T
    g_half_inv = (gvecs / np.sqrt(gvals)) @ gvecs.conj().T
    sym = g_half @ frame @ g_half_inv
    sym = (sym + sym.conj().T) / 2
    svals, svecs = np.linalg.eigh(sym)
    if svals[0] <= 1e-12 * max(1.0, svals[-1]):
        raise ValueError("frame operator is singular; the index is not finite")
    inv_root = (svecs / np.sqrt(svals)) @ svecs.conj().T
    correct = g_half_inv @ inv_root @ g_half

    elements = []
    for a in range(dim):
        coords = correct[:, a]
        elements.append(sum(c * f for c, f in zip(coords, fs)))

    worst = 0.0
    for _ in range(check_samples):
        coeff = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        x = sum(c * f for c, f in zip(coeff, fs))
        rebuilt = sum(g @ expectation(g.conj().T @ x) for g in elements)
        worst = max(
            worst,
            float(np.linalg.norm(rebuilt - x)) / max(1.0, float(np.linalg.norm(x))),
        )
    index_matrix = sum(g @ g.conj().T for g in elements)
    return QuasiBasis(
        elements=elements,
        index_matrix=np.asarray(index_matrix),
        reconstruction_residual=worst,
    )


@dataclass(frozen=True)
class PimsnerPopaReport:
    bound: float
    samples: int
    worst_eigenvalue: float
    passed: bool


def pimsner_popa_check(
    expectation: ConditionalExpectationMap,
    samples: int = 100,
    rng: np.random.Generator | None = None,
    bound: float | None = None,
    slack: float = 1e-9,
) -> PimsnerPopaReport:
    """Check E(m) >= bound * m on random positive elements of the source.

    ``bound`` defaults to the inverse index.  Reports the most negative
    eigenvalue of E(m) - bound*m seen over trace-normalized samples.
    """
    source = expectation.source
    if len(source.blocks) != 1 or len(expectation.target.blocks) != 1:
        raise ValueError("the inequality is stated for factor inclusions only")
    rng = rng or np.random.default_rng(11)
    if bound is None:
        index = kosaki_index(expectation)
        bound = 1.0 / float(index)
    n = source.blocks[0][0]
    worst = 0.0
    for _ in range(samples):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        part = x @ x.conj().T
        part /= np.trace(part).real
        m = source.embed_blocks([part])
        gap = expectation(m) - bound * m
        low = float(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])
        worst = min(worst, low)
    return PimsnerPopaReport(
        bound=bound, samples=samples, worst_eigenvalue=worst, passed=worst >= -slack
    )
