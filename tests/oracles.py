"""Independent reference implementations used to cross-check the package.

Everything here except ``dual_weight_index``, ``quasi_basis``,
``pimsner_popa_check``, ``leg_average``, the instance builder
``random_inclusion``, ``basis_distance_by_element``,
``whole_block_spectrum`` and the exact diagonalization is
deliberately written from first principles with no imports from
entropylab internals: eigen-overlap relative entropy, a
brute-force commutant solver, a rank test of whether a vector is cyclic
for a span of matrices, the explicit D^2 x D^2 superoperators of a group
average, of a GNS-orthogonal projection and of an expectation
x -> P_N(h x) with its idempotency and Choi-positivity axioms (they read
only an algebra's basis and the density h), the Kronecker-product forms
of a block embedding and of the spatial relative entropy (they read only
an algebra's block isometries), the dense restricted correlation matrix
of the hopping chain with its eigenvalue entropy (Peschel, J. Phys. A 36
L205, 2003), the Gram eigensolve of its even x odd block, the
single-particle hopping Hamiltonian, and a many-body spin-chain
construction of the imaginary-hopping Hamiltonian (Jordan-Wigner form)
whose ground state gives correlation functions and reduced entropies the
long way.  ``dual_weight_index`` is the definitional route to the index,
finite differences of the package's ``dual_weight``, against which its
closed form is checked.  ``quasi_basis`` (a Pimsner-Popa basis,
frame-corrected in the package's expectation inner product) and
``pimsner_popa_check`` (E(m) >= m / Ind E on random positive m) are the
operator-level cross-checks of that index; no run reaches them.
``leg_average`` is the Weyl-group oracle for the
findim instance expectations: it rediscovers their targets through the
package's group averaging and structure discovery, which the instances
themselves do not use.  ``exact_diagonalization_entropies`` builds the
2^N ground state from the Slater determinant of ``hopping_matrix``; it
takes only the arc-to-site assignment from the package's circle geometry,
never the Gaussian kernel.  ``basis_distance_by_element`` is the loop of
one package projection per basis element that ``basis_distance`` batches.
``mask_arc_sites`` is the arc-to-site rule as a float mask over all N site
angles, the reference that the package's ``arc_range`` must reproduce.
``whole_block_spectrum`` is the range finder of the package's lattice
kernel run on the whole coupling block, held at once, with the package's
test matrix and constants; the kernel streams the same block in row panels
and must reach the same spectrum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from entropylab.findim import (
    BlockStructure,
    ConditionalExpectationMap,
    MatrixBlockAlgebra,
    WeightDensity,
    build_algebra,
    dual_weight,
    group_average_expectation,
    kosaki_index,
    trace_state,
    weyl_unitaries,
)
from entropylab.lattice import LatticeCircle, RegionSpec, arc_sites, gaussian, lattice_region

_EPS = 1e-12


def eigen_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho || sigma) from eigendecompositions and overlaps only.

    Uses sum_i p_i ln p_i - sum_ij p_i |<u_i|v_j>|^2 ln q_j, which never
    forms a matrix logarithm.  Returns +inf on support violation.
    """
    p_vals, p_vecs = np.linalg.eigh(rho)
    q_vals, q_vecs = np.linalg.eigh(sigma)
    overlaps = np.abs(p_vecs.conj().T @ q_vecs) ** 2
    total = 0.0
    for i, p in enumerate(p_vals):
        if p <= _EPS:
            continue
        total += p * np.log(p)
        for j, q in enumerate(q_vals):
            w = overlaps[i, j]
            if w <= _EPS:
                continue
            if q <= _EPS:
                return np.inf
            total -= p * w * np.log(q)
    return float(total)


def brute_force_commutant(basis, dim: int) -> np.ndarray:
    """All X with [X, B] = 0 for every B, as rows of vec'd solutions."""
    eye = np.eye(dim)
    rows = []
    # row-major vec: vec(X B) = kron(I, B^T) vec X, vec(B X) = kron(B, I) vec X
    for b in basis:
        rows.append(np.kron(eye, b.T) - np.kron(b, eye))
    stacked = np.vstack(rows)
    # stacked is tall, so the thin factorization keeps every right vector
    _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(svals > 1e-10 * svals[0])) if svals.size else 0
    return vh[rank:].conj()


def spans_everything(mats, vector: np.ndarray) -> bool:
    """Whether {x v : x in span(mats)} is the whole space, by the rank of the images."""
    stack = np.stack([np.asarray(x).reshape(len(vector), len(vector)) @ vector for x in mats])
    return int(np.linalg.matrix_rank(stack, tol=1e-10)) == len(vector)


def _vec(x: np.ndarray) -> np.ndarray:
    """Column-major vectorization: vec(A X B) = (B^T kron A) vec(X)."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def group_average_superop(source, units) -> np.ndarray:
    """sum_g kron(conj(u_g), u_g) / |G|, the explicit average of x -> u x u*,
    composed with the Hilbert-Schmidt projection onto the span of
    ``source.basis``."""
    avg = sum(np.kron(u.conj(), u) for u in units) / len(units)
    frame = np.stack([_vec(f) for f in source.basis], axis=1)
    return avg @ (frame @ frame.conj().T)


def gns_projection_superop(target, density: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of ``target.basis`` in the inner
    product <x, y> = Tr(D x* y), from the Gram matrix of that basis."""
    basis = target.basis
    gram = np.array(
        [[np.trace(density @ na.conj().T @ nb) for nb in basis] for na in basis]
    )
    inv = np.linalg.inv(gram)
    d2 = density.shape[0] ** 2
    superop = np.zeros((d2, d2), dtype=complex)
    for a, na in enumerate(basis):
        for b, nb in enumerate(basis):
            # Tr(D n_b* x) = <n_b D, x> in the Hilbert-Schmidt pairing
            superop += inv[a, b] * np.outer(_vec(na), _vec(nb @ density).conj())
    return superop


def expectation_superop(e) -> np.ndarray:
    """The D^2 x D^2 matrix of E(x) = P_N(h x) on column-major vectorized
    matrices: E(x) = sum_a f_a Tr(f_a* h x) over the orthonormal basis f_a
    of ``e.target``, with h = ``e.density``."""
    frame = np.stack([_vec(f) for f in e.target.basis], axis=1)
    adj = e.density.conj().T
    weighted = np.stack([_vec(adj @ f) for f in e.target.basis], axis=1)
    return frame @ weighted.conj().T


def superop_axioms(e) -> dict[str, float]:
    """Idempotency |S S - S| / max(1, |S|) of the superoperator S (a D^6
    product), and the distance of the Choi matrix sum_ce E_ce kron E(E_ce)
    from positive semidefinite: its anti-Hermitian part or its most
    negative eigenvalue, whichever is larger."""
    s = expectation_superop(e)
    d = e.density.shape[0]
    choi = s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    lowest = np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0]
    return {
        "idempotent": float(np.linalg.norm(s @ s - s)) / max(1.0, float(np.linalg.norm(s))),
        "choi_negativity": max(float(np.linalg.norm(choi - choi.conj().T)), -float(lowest), 0.0),
    }


def dual_weight_index(e):
    """The index as the dual map evaluated at the identity, by finite
    differences of ``dual_weight``.

    The dual weight's density is linear in the input weight, so the mass of
    the dual of the ambient trace on M' gives the index of a factor source,
    and shifting that trace by each central projection z reads off the
    coefficient of z otherwise.  A float for a factor source, else the
    central matrix.
    """
    dual_of_source = e.source.commutant()
    dim = e.source.ambient_dim
    base_mass = dual_weight(e, trace_state(dual_of_source, total=dim)).mass
    if len(e.source.blocks) == 1:
        return base_mass / dim
    value = np.zeros((dim, dim), dtype=complex)
    for proj in dual_of_source.central_projections():
        shifted = WeightDensity(dual_of_source, np.eye(dim, dtype=complex) + proj)
        coeff = (dual_weight(e, shifted).mass - base_mass) / float(np.trace(proj).real)
        value = value + coeff * proj
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


def random_inclusion(inclusion, sizes, multiplicities, rng) -> ConditionalExpectationMap:
    """An expectation E(x) = P_N(h x) laid out by index arithmetic, with random h.

    The source is M = (+)_i M_{a_i} (x) 1_{b_i} with b_i = multiplicities[i],
    and its block i holds inclusion[i][k] copies of M_{n_k}, n_k = sizes[k],
    side by side, so a_i = sum_k inclusion[i][k] n_k.  The target N is the
    algebra of those copies: M_{n_k} (x) 1_{m_k} with
    m_k = sum_i inclusion[i][k] b_i.  On target block k the density is
    1_{n_k} (x) h_k, where h_k is (+)_i Y_ik (x) 1_{b_i} for random positive
    definite Y_ik acting on the copies, scaled to Tr h_k = m_k; so h is
    positive, lies in N' cap M and has P_N(h) = 1.
    """
    a = [sum(c * n for c, n in zip(row, sizes)) for row in inclusion]
    source = build_algebra(list(zip(a, multiplicities)))
    dim = source.ambient_dim
    start = np.cumsum([0] + [ai * b for ai, b in zip(a, multiplicities)])
    structure = []
    density = np.zeros((dim, dim), dtype=complex)
    for k, n in enumerate(sizes):
        where, copies = [], []
        for i, (row, b) in enumerate(zip(inclusion, multiplicities)):
            if not row[k]:
                continue
            first = sum(c * s for c, s in zip(row[:k], sizes[:k]))
            # ambient index of (matrix index, copy, multiplicity) in block i
            block = start[i] + np.arange(a[i] * b).reshape(a[i], b)[first : first + row[k] * n]
            where.append(block.reshape(row[k], n, b).transpose(1, 0, 2).reshape(n, -1))
            g = rng.normal(size=(row[k], row[k])) + 1j * rng.normal(size=(row[k], row[k]))
            copies.append(np.kron(g @ g.conj().T + 0.1 * np.eye(row[k]), np.eye(b)))
        where = np.concatenate(where, axis=1)
        m = where.shape[1]
        iso = np.zeros((n * m, dim), dtype=complex)
        iso[np.arange(n * m), where.reshape(-1)] = 1.0
        structure.append(BlockStructure(n, m, iso))
        h_k = np.zeros((m, m), dtype=complex)
        pos = 0
        for y in copies:
            h_k[pos : pos + len(y), pos : pos + len(y)] = y
            pos += len(y)
        h_k *= m / np.trace(h_k).real
        density += iso.conj().T @ np.kron(np.eye(n), h_k) @ iso
    return ConditionalExpectationMap(source, MatrixBlockAlgebra(structure), density)


def basis_distance_by_element(algebra, other) -> float:
    """The largest distance of an element of ``other.basis`` from the span of
    ``algebra``: one projection per basis element."""
    return max(algebra.span_distance(f) for f in other.basis)


def kron_embed_blocks(algebra, parts) -> np.ndarray:
    """sum_k V_k* (x_k kron 1_{m_k}) V_k, with the Kronecker product formed."""
    dim = algebra.structure[0].iso.shape[1]
    out = np.zeros((dim, dim), dtype=complex)
    for blk, part in zip(algebra.structure, parts):
        out += blk.iso.conj().T @ np.kron(part, np.eye(blk.m)) @ blk.iso
    return out


# Relative spectral cutoff and kernel-mass bound of the spatial entropy.
_SUPPORT_CUTOFF = 1e-12
_KERNEL_MASS_TOL = 1e-10


def kron_relative_entropy_spatial(algebra, vector, sigma_blocks) -> float:
    """-<ln Delta v, v> with Delta_k = sigma_k kron rho'_k^(-1) diagonalised
    as one (n m) x (n m) matrix per block.

    rho'_k is the partial trace over C^n of V_k |v><v| V_k*, the inverse is
    taken on its support, and +inf is returned when more than the kernel
    bound of the vector's mass sits on the kernel of Delta.
    """
    total = 0.0
    kernel_mass = 0.0
    for blk, sig in zip(algebra.structure, sigma_blocks):
        local = blk.iso @ vector
        rank_one = np.outer(local, local.conj()).reshape(blk.n, blk.m, blk.n, blk.m)
        rho_c = np.einsum("iaib->ab", rank_one)
        r_vals, r_vecs = np.linalg.eigh((rho_c + rho_c.conj().T) / 2)
        keep_r = r_vals > _SUPPORT_CUTOFF * max(1.0, float(r_vals[-1]))
        inv = (r_vecs[:, keep_r] / r_vals[keep_r]) @ r_vecs[:, keep_r].conj().T
        delta = np.kron(sig, inv)
        vals, vecs = np.linalg.eigh((delta + delta.conj().T) / 2)
        weights = np.abs(vecs.conj().T @ local) ** 2
        cutoff = _SUPPORT_CUTOFF * max(1.0, float(vals[-1]))
        kernel_mass += float(np.sum(weights[vals <= cutoff]))
        keep = vals > cutoff
        total -= float(np.sum(weights[keep] * np.log(vals[keep])))
    return math.inf if kernel_mass > _KERNEL_MASS_TOL else total


def leg_unitaries(left_dim: int, sub_dim: int, right_dim: int, conjugator=None):
    """Shift-and-clock unitaries 1 (x) w (x) 1 on C^left (x) C^sub (x) C^right,
    optionally conjugated."""
    units = []
    for w in weyl_unitaries(sub_dim):
        u = np.kron(np.kron(np.eye(left_dim), w), np.eye(right_dim))
        if conjugator is not None:
            u = conjugator @ u @ conjugator.conj().T
        units.append(u)
    return units


def leg_average(
    algebra, left_dim: int, sub_dim: int, right_dim: int, conjugator=None
):
    """Average over the ``leg_unitaries``; the target is everything commuting
    with that leg."""
    return group_average_expectation(
        algebra, leg_unitaries(left_dim, sub_dim, right_dim, conjugator)
    )


def conjugation_flow(rho: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """rho^{it} x rho^{-it} through an explicit eigendecomposition."""
    vals, vecs = np.linalg.eigh(rho)
    phases = np.exp(1j * t * np.log(vals))
    u = (vecs * phases) @ vecs.conj().T
    return u @ x @ u.conj().T


# --- the arc -> site rule ----------------------------------------------------


def mask_arc_sites(n_sites: int, arc: tuple[float, float]) -> np.ndarray:
    """Sites k whose angle k * (2pi/N) lies in [a, b), wrapping through 0 when b <= a."""
    theta = np.arange(n_sites) * (2.0 * math.pi / n_sites)
    a, b = arc
    if a < b:
        return np.nonzero((theta >= a) & (theta < b))[0]
    return np.nonzero((theta >= a) | (theta < b))[0]


# --- dense Gaussian route for the hopping chain ----------------------------


def correlation_block(n_sites: int, sites) -> np.ndarray:
    """The |S| x |S| block of <a_j^dag a_k> on the given sites.

    Closed form of the NS-sector ground state: 1/2 on the diagonal,
    i / (N sin(pi d / N)) for odd separation d = j - k, zero otherwise.
    """
    sites = np.asarray(sites, dtype=int)
    diff = np.subtract.outer(sites, sites)
    odd = (diff % 2).astype(bool)
    block = np.zeros(diff.shape, dtype=complex)
    block[odd] = 1j / (n_sites * np.sin(np.pi * diff[odd] / n_sites))
    block[diff == 0] = 0.5
    if np.linalg.norm(block - block.conj().T) > 1e-10 * sites.size:
        raise ValueError("correlation matrix must be Hermitian")
    return block


def block_entropy(block: np.ndarray) -> float:
    """Fermionic entropy from the eigenvalues of a restricted correlation block."""
    occupations = np.linalg.eigvalsh(block)
    probs = np.concatenate([occupations, 1.0 - occupations])
    probs = probs[probs > 0.0]
    return float(-np.sum(probs * np.log(probs)))


def even_odd_block(n_sites: int, even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The real block B_jk = -i C_jk with j over even and k over odd sites.

    The formula holds for any rows and columns of opposite parity.
    """
    n = n_sites
    # 1 / (n sin(pi d / n)) evaluated in place: one |E| x |O| array.
    block = np.subtract.outer(even.astype(float), odd.astype(float))
    block *= np.pi
    block /= n
    np.sin(block, out=block)
    block *= n
    return np.divide(1.0, block, out=block)


def gram_region_entropy(n_sites: int, sites) -> float:
    """Entropy of a site set from the Gram eigensolve of its even x odd block.

    sigma^2 are the eigenvalues of the smaller Gram product, B B^T or B^T B,
    and each pair of modes takes its entropy from nu (1 - nu) = 1/4 - sigma^2.
    """
    sites = np.asarray(sites, dtype=int)
    even = sites[sites % 2 == 0]
    odd = sites[sites % 2 == 1]
    block = even_odd_block(n_sites, even, odd)
    if block.shape[0] > block.shape[1]:
        block = block.T
    sigma_sq = np.linalg.eigvalsh(block @ block.T)
    lam = 0.25 - sigma_sq
    mixed = lam > 0.0
    nu = lam[mixed] / (0.5 + np.sqrt(np.maximum(sigma_sq[mixed], 0.0)))
    paired = -np.sum(nu * np.log(nu) + (1.0 - nu) * np.log1p(-nu))
    return float(2.0 * paired + abs(even.size - odd.size) * math.log(2.0))


def whole_block_spectrum(n_sites: int, rows: np.ndarray, cols: np.ndarray):
    """The kernel's range finder on the whole coupling block B' = K[rows, cols].

    Returns the eigenvalues of Z Z^T, Z = Q^T B' (one per column of Q) and
    the dropped mass.  Each step sketches the next ``_SKETCH_BLOCK`` columns of
    the package's test matrix, and growth stops when the dropped mass falls
    to ``_ROUNDING_ULPS`` ulps of ||B'||_F^2 or Q spans every row.
    """
    block = even_odd_block(n_sites, rows, cols)
    total = math.fsum(np.einsum("ij,ij->i", block, block))
    tol = gaussian._ROUNDING_ULPS * np.finfo(float).eps * total
    basis = np.empty((rows.size, 0))
    captured = np.empty((0, cols.size))
    kept = 0.0
    dropped = total
    while dropped > tol and basis.shape[1] < rows.size:
        k = basis.shape[1]
        width = min(gaussian._SKETCH_BLOCK, rows.size - k)
        sketch = block @ gaussian._test_block(cols.size, k, width)
        basis = np.linalg.qr(np.hstack([basis, sketch]))[0]
        new = basis[:, k:].T @ block
        captured = np.vstack([captured, new])
        kept += math.fsum(np.einsum("ij,ij->i", new, new))
        dropped = total - kept
    return np.linalg.eigvalsh(captured @ captured.T), max(dropped, 0.0)


def hopping_matrix(n_sites: int) -> np.ndarray:
    """Single-particle Hamiltonian: imaginary nearest-neighbor hopping,
    antiperiodic boundary link.  Dispersion -2 sin k over NS momenta."""
    h = np.zeros((n_sites, n_sites), dtype=complex)
    for j in range(n_sites - 1):
        h[j, j + 1] = 1j
        h[j + 1, j] = -1j
    h[n_sites - 1, 0] = -1j
    h[0, n_sites - 1] = 1j
    return h


# --- exact diagonalization from the Slater determinant ----------------------

MAX_EXACT_SITES = 12


@dataclass(frozen=True)
class ExactEntropies:
    region_entropy: float
    product_relative_entropy: float
    arc_entropies: tuple[float, ...]


def ground_orbitals(n_sites: int) -> np.ndarray:
    """The N x N/2 matrix of filled single-particle orbitals."""
    vals, vecs = np.linalg.eigh(hopping_matrix(n_sites))
    half = n_sites // 2
    if vals[half] - vals[half - 1] < 1e-9:
        raise ValueError("degenerate half filling; ground state not unique")
    return vecs[:, :half]


def _state_region_first(orbitals: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Many-body amplitudes with the region's modes ordered first.

    Re-ordering fermion modes permutes the Slater matrix rows, which is
    absorbed into the determinants; the resulting vector lives in the
    tensor product (region modes) x (complement modes).
    """
    n = orbitals.shape[0]
    filled = orbitals.shape[1]
    rest = np.setdiff1d(np.arange(n), region)
    perm = np.concatenate([region, rest])
    reordered = orbitals[perm]
    state = np.zeros(2**n, dtype=complex)
    for occ in itertools.combinations(range(n), filled):
        index = sum(1 << (n - 1 - p) for p in occ)
        state[index] = np.linalg.det(reordered[list(occ)])
    return state


def _spectrum_entropy(weights: np.ndarray) -> float:
    probs = weights[weights > 1e-14]
    return float(-np.sum(probs * np.log(probs)))


def _reduced_entropy(orbitals: np.ndarray, region: np.ndarray) -> float:
    n = orbitals.shape[0]
    state = _state_region_first(orbitals, region)
    block = state.reshape(2 ** region.size, 2 ** (n - region.size))
    # eigenvalues of rho_A = M M^dag via singular values of M
    sing = np.linalg.svd(block, compute_uv=False)
    return _spectrum_entropy(sing**2)


def exact_diagonalization_entropies(n_sites: int, spec: RegionSpec) -> ExactEntropies:
    """Exact S(region) and S(omega, omega-product) from the 2^N ground state."""
    if n_sites > MAX_EXACT_SITES:
        raise ValueError(f"exact construction is limited to {MAX_EXACT_SITES} sites")
    circle = LatticeCircle(n_sites)
    orbitals = ground_orbitals(n_sites)
    union = lattice_region(circle, spec)
    arcs = []
    for arc in spec.arcs:
        sites = arc_sites(circle, arc)
        if sites.size == 0:
            raise ValueError(f"arc ({arc[0]:.4f}, {arc[1]:.4f}) contains no lattice sites")
        arcs.append(sites)
    union_entropy = _reduced_entropy(orbitals, union)
    arc_values = tuple(_reduced_entropy(orbitals, sites) for sites in arcs)
    product_rel = math.fsum(arc_values) - union_entropy if len(arcs) > 1 else 0.0
    return ExactEntropies(
        region_entropy=union_entropy,
        product_relative_entropy=product_rel,
        arc_entropies=arc_values,
    )


# --- many-body route for the hopping chain ---------------------------------

_SZ = np.diag([1.0, -1.0]).astype(complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _site_operator(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Jordan-Wigner dressed single-site operator on the full chain."""
    mat = np.eye(1, dtype=complex)
    for k in range(n_sites):
        if k < site:
            mat = np.kron(mat, _SZ)
        elif k == site:
            mat = np.kron(mat, op)
        else:
            mat = np.kron(mat, np.eye(2, dtype=complex))
    return mat


def annihilators(n_sites: int) -> list[np.ndarray]:
    return [_site_operator(_LOWER, j, n_sites) for j in range(n_sites)]


def many_body_ground_state(n_sites: int) -> tuple[float, np.ndarray]:
    """Ground energy and state of the antiperiodic imaginary-hopping chain.

    H = sum_j (i c+_j c_{j+1} - i c+_{j+1} c_j) with the boundary bond
    carrying the opposite sign.  Raises if the ground state is degenerate.
    """
    cs = annihilators(n_sites)
    dim = 2**n_sites
    ham = np.zeros((dim, dim), dtype=complex)
    for j in range(n_sites - 1):
        ham += 1j * cs[j].conj().T @ cs[j + 1]
        ham += -1j * cs[j + 1].conj().T @ cs[j]
    ham += -1j * cs[n_sites - 1].conj().T @ cs[0]
    ham += 1j * cs[0].conj().T @ cs[n_sites - 1]
    vals, vecs = np.linalg.eigh(ham)
    if vals[1] - vals[0] < 1e-9:
        raise ValueError("degenerate many-body ground state")
    return float(vals[0]), vecs[:, 0]


def many_body_correlations(n_sites: int) -> np.ndarray:
    """C_{jl} = <c+_l c_j> in the many-body ground state.

    Index order makes C the spectral projector onto the filled modes
    (sum over filled plane waves of phi(j) phi(l)*), not its transpose.
    """
    _, psi = many_body_ground_state(n_sites)
    cs = annihilators(n_sites)
    corr = np.zeros((n_sites, n_sites), dtype=complex)
    for j in range(n_sites):
        for l in range(n_sites):
            corr[j, l] = psi.conj() @ cs[l].conj().T @ cs[j] @ psi
    return corr


def spin_block_entropy(psi: np.ndarray, n_sites: int, block: int) -> float:
    """Entropy of the first ``block`` sites of a chain state.

    Valid as a fermionic entropy for contiguous blocks starting at site
    zero, where the Jordan-Wigner string stays inside the block.
    """
    mat = psi.reshape(2**block, 2 ** (n_sites - block))
    svals = np.linalg.svd(mat, compute_uv=False)
    probs = svals**2
    probs = probs[probs > _EPS]
    return float(-np.sum(probs * np.log(probs)))


def dispersion_ground_energy(n_sites: int) -> float:
    """Filled-sea energy from the single-particle dispersion -2 sin k."""
    momenta = 2.0 * np.pi * (np.arange(n_sites) + 0.5) / n_sites
    energies = -2.0 * np.sin(momenta)
    return float(np.sum(energies[energies < 0.0]))
