"""Independent reference implementations used to cross-check the package.

Everything here except ``solved_dual_weight``, ``dual_weight_index``,
``quasi_basis``, ``pimsner_popa_check``, ``leg_average``,
``group_average_expectation`` and ``algebra_from_basis``,
``modular_flow``, ``connes_cocycle``, ``trace_state``, ``commutant_state``,
``spatial_derivative``, ``arc_sites``, ``lattice_region``,
the instance constructor
``random_inclusion``, ``algebra_basis``, ``algebra_dim``, ``span_distance``,
``span_equals``, ``algebra_contains``, ``basis_distance_by_element``,
``weight_value``, ``apply_expectation``, ``ambient_weight``, ``weight_on``,
``validate`` and
the expectations it certifies,
``regularized_entropy``, ``hashlib_config_hash`` and the exact
diagonalization is
deliberately written from first principles with no imports from
entropylab internals: eigen-overlap relative entropy, a
brute-force commutant solver, a rank test of whether a vector is cyclic
for a span of matrices, the explicit D^2 x D^2 superoperators of a group
average and of an expectation x -> P_N(x) with its idempotency and
Choi-positivity axioms (they read only an algebra's basis), the
Kronecker-product forms
of a block embedding and of the spatial relative entropy (they read only
an algebra's block isometries), the dense restricted correlation matrix
of the hopping chain with its eigenvalue entropy (Peschel, J. Phys. A 36
L205, 2003), the Gram eigensolves of its even x odd block and of the
region-complement coupling block, the single-particle hopping Hamiltonian, and a many-body spin-chain
construction of the imaginary-hopping Hamiltonian (Jordan-Wigner form)
whose ground state gives correlation functions and reduced entropies the
long way.  ``solved_dual_weight`` is the dual weight solved numerically
from its defining equation Delta(psi E / phi') = Delta(psi / chi') with an
auxiliary weight psi, against which the package's closed form
``dual_weight`` is checked; ``dual_weight_index`` is the definitional
route to the index, finite differences of that solve, against which the
closed-form index is checked.  ``quasi_basis`` (a Pimsner-Popa basis,
frame-corrected in the package's expectation inner product) and
``pimsner_popa_check`` (E(m) >= m / Ind E on random positive m) are the
operator-level cross-checks of that index; no run reaches them.
``group_average_expectation`` finds the fixed points of Ad(G) for a
finite unitary group numerically: the average of Ad(u) over the group is
a projector on the source's basis, and ``algebra_from_basis`` splits the
span of its range into blocks by eigen-splitting random central elements
under a fixed seed.  The package never discovers structure: it builds
every algebra from known blocks, the index battery's fixed-point targets
from their groups' irreducible representations.  These two are the
references those targets, and the findim instance expectations through
the Weyl-group oracle ``leg_average``, are compared against;
``cyclic_group_unitaries`` and ``symmetric_group_unitaries`` are the
regular representations of the index battery's groups.
``exact_diagonalization_entropies`` builds the
2^N ground state from the Slater determinant of ``hopping_matrix``; it
takes only the arc-to-site assignment from the package's ``regions``,
never the Gaussian kernel.  ``algebra_basis`` (the lifted matrix units of
each block, a Hilbert-Schmidt orthonormal basis), ``algebra_dim``,
``span_distance`` (one package projection), ``span_equals`` (two algebras,
possibly built apart, with one span, to ``SPAN_TOL``), ``algebra_contains``
and ``algebra_identity`` (an algebra's unit) read an algebra through its
isometries; the package compares algebras by identity and needs none of
them.  ``basis_distance_by_element`` is the
largest distance of one algebra's basis elements from another's span, one
package projection per element; ``validate`` reads N in M from it.
``weight_value`` (psi(x) = Tr(D x)), ``apply_expectation``
(E(x) = P_N(x)), ``ambient_weight`` (the weight of an ambient matrix,
checked for membership in the algebra) and ``weight_on`` (a weight carried
over to a span-equal copy of its algebra through its ambient matrix) are
routes no run takes: the package makes a weight from its blocks and pulls
functionals back through an expectation instead of applying it.
``is_identity`` and ``conjugated_expectation`` test and rotate a package
expectation.
``trace_state`` (the normalised trace), ``commutant_state`` (a vector's
state on the commutant) and ``spatial_derivative`` (Delta(psi / phi') as a
D x D matrix) are findim forms that no run needs, built on the package's
intrinsic blocks; the package computes its relative entropies without
forming Delta.
``modular_flow`` and ``connes_cocycle`` are the modular flow and the
Connes cocycle built on the package's intrinsic blocks and spatial
derivative, through ``hermitian_power``, a PSD matrix's complex power on
its support; no run reaches them, and the tests hold them to
``conjugation_flow`` and the cocycle identities.
``mask_arc_sites`` is the arc-to-site rule as a float mask over all N site
angles, the reference that the package's ``arc_range`` must reproduce.
``arc_sites`` and ``lattice_region`` expand the package's ``arc_range``
and ``site_ranges`` into site arrays, for tests that hand sites to
``region_entropy``; ``lattice_region`` refuses what the package's size
and site checks refuse.
``split_runs`` cuts sorted sites into runs with ``np.diff`` and
``np.split``, and ``mask_coupling_runs`` finds the lattice kernel's
parity sides R and F, as runs of half-chain indices, by a sort, a parity
split and a mask over N/2 sites: the references for the package's run
arithmetic.
``rotated_region`` and ``regularized_entropy`` (of one region, from the
package's lengths and product-state relative entropy) are lattice forms
that no run needs.
``whole_block_spectrum`` is the dense eigensolve of the whole coupling
block's Gram product B' B'^T, whose spectrum the package's lattice kernel
compresses onto the range of an endpoint skeleton while it streams the
block in row panels.
``validate`` certifies an expectation by the inclusion that implies its
axioms (see ``entropylab.findim.expectations``), with sampled residuals of
the map as applied, and ``identity_expectation`` and ``weyl_unitaries``
build test inputs.  No run reaches any of them.
``jin_korepin_entropy`` and ``several_block_entropy`` are the chain's
closed-form entropies of one block and of a union of blocks at site-exact
endpoints, with ``upsilon_1`` computed from its integral representation;
they use the standard library alone and read no package code.
``configparser_sections``, ``csv_text`` and ``hashlib_config_hash`` are
the standard library's forms of what the package does without importing
``configparser``, ``csv`` or ``hashlib``: the config reader, the
``cases.csv`` writer and the cache key.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from entropylab.findim import (
    BlockStructure,
    ConditionalExpectationMap,
    MatrixBlockAlgebra,
    VectorStateData,
    WeightDensity,
    build_algebra,
    kosaki_index,
)
from entropylab.findim.spatial import _support_power
from entropylab.lattice import (
    RegionSpec,
    gaussian,
    interval_lengths,
    product_state_relative_entropy,
)
from entropylab.regions import arc_range, check_size, linear_runs, site_ranges

_EPS = 1e-12
AXIOM_TOL = 1e-10
# Residual accepted when deciding that a matrix lies in a span.
SPAN_TOL = 1e-12


def configparser_sections(text: str) -> dict[str, dict[str, str]]:
    """``{section: {key: value}}`` as read by ``ConfigParser(strict=True,
    interpolation=None)`` with case-kept keys, the setup the config reader
    replaces.  ``[DEFAULT]`` is read as a plain section (no header can hold a
    line break), so that a caller sees it; raises ``configparser.Error``."""
    parser = configparser.ConfigParser(strict=True, interpolation=None, default_section="\n")
    parser.optionxform = str
    parser.read_string(text)
    return {name: dict(parser.items(name)) for name in parser.sections()}


def csv_text(rows) -> str:
    """The rows as ``csv.writer``'s default (excel) dialect writes them."""
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue()


def hashlib_config_hash(config) -> str:
    """``config_hash`` through ``hashlib.sha256``: the effective config, then
    the sha256 of every package source file with its path and of the name,
    size and mtime of the imported numpy's compiled core."""
    root = Path(gaussian.__file__).resolve().parent.parent
    engine = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        content = hashlib.sha256(path.read_bytes()).hexdigest()
        engine.update(f"{path.relative_to(root).as_posix()}\n{content}\n".encode("utf-8"))
    numpy_dir = Path(np.__file__).parent
    core = sorted(
        f"{path.relative_to(numpy_dir).as_posix()} {path.stat().st_size} {path.stat().st_mtime_ns}"
        for path in numpy_dir.glob("*core/_multiarray_umath*")
    )
    engine.update(f"numpy\n{'; '.join(core)}\n".encode("utf-8"))
    canon = json.dumps(config.echo(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{canon}\n{engine.hexdigest()}".encode("utf-8")).hexdigest()


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
    ``algebra_basis(source)``."""
    avg = sum(np.kron(u.conj(), u) for u in units) / len(units)
    frame = np.stack([_vec(f) for f in algebra_basis(source)], axis=1)
    return avg @ (frame @ frame.conj().T)


def expectation_superop(e) -> np.ndarray:
    """The D^2 x D^2 matrix of E(x) = P_N(x) on column-major vectorized
    matrices: E(x) = sum_a f_a Tr(f_a* x) over the orthonormal basis f_a
    of ``e.target``."""
    frame = np.stack([_vec(f) for f in algebra_basis(e.target)], axis=1)
    return frame @ frame.conj().T


def superop_axioms(e) -> dict[str, float]:
    """Idempotency |S S - S| / max(1, |S|) of the superoperator S (a D^6
    product), and the distance of the Choi matrix sum_ce E_ce kron E(E_ce)
    from positive semidefinite: its anti-Hermitian part or its most
    negative eigenvalue, whichever is larger."""
    s = expectation_superop(e)
    d = e.source.ambient_dim
    choi = s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    lowest = np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0]
    return {
        "idempotent": float(np.linalg.norm(s @ s - s)) / max(1.0, float(np.linalg.norm(s))),
        "choi_negativity": max(float(np.linalg.norm(choi - choi.conj().T)), -float(lowest), 0.0),
    }


def solved_dual_weight(e, phi_c, psi=None):
    """The dual weight chi' on N' solved from its defining equation, block by
    block, with an auxiliary faithful weight ``psi`` on N (default its
    normalized trace).

    The equation Delta(psi E / phi_c) = Delta(psi / chi') is solved in its
    inverted form Delta(phi_c / psi E) = Delta(chi' / psi), whose right side
    is rho_k(chi') tensor rho_k(psi)^-1 on block k of N': tracing
    1 tensor rho_k(psi) against it over C^{n_k} gives n_k rho_k(chi'), read
    off without inverting it.  (Solving the direct form for rho_k(chi')^-1
    and inverting loses up to cond(phi_c) ulps.)  The factorization is
    checked to 1e-8.
    """
    target = e.target
    error = "weight must live on the commutant of the source"
    phi_c = weight_on(phi_c, e.source.commutant(), error)
    psi = trace_state(target) if psi is None else psi
    psi = weight_on(psi, target, "psi must live on the target")
    if not (phi_c.is_faithful and psi.is_faithful):
        raise ValueError("the defining equation needs faithful weights")
    lhs = spatial_derivative(phi_c, e.pull_back(psi.matrix))
    dual_target = target.commutant()
    blocks = []
    recon = np.zeros_like(lhs)
    for blk, rho, (vals, vecs) in zip(
        dual_target.structure, psi.intrinsic_blocks(), psi.intrinsic_eigensystems()
    ):
        mu, nu = blk.n, blk.m  # N' holds M_{m_k} tensor 1_{n_k} on block k
        compressed = (blk.iso @ lhs @ blk.iso.conj().T).reshape(mu, nu, mu, nu)
        x = np.einsum("ji,aibj->ab", rho, compressed) / nu
        x = (x + x.conj().T) / 2
        recon += _lift(blk, x, (vecs / vals) @ vecs.conj().T)
        blocks.append(x)
    residual = float(np.linalg.norm(lhs - recon)) / max(1.0, float(np.linalg.norm(lhs)))
    if residual > 1e-8:
        raise ValueError(f"defining equation is not satisfied (residual {residual:.3e})")
    return WeightDensity(dual_target, blocks)


def dual_weight_index(e):
    """The index as the dual map evaluated at the identity, by finite
    differences of ``solved_dual_weight``.

    The dual weight's density is linear in the input weight, so the mass of
    the dual of the ambient trace on M' gives the index of a factor source,
    and shifting that trace by each central projection z reads off the
    coefficient of z otherwise.  A float for a factor source, else the
    central matrix.
    """
    dual_of_source = e.source.commutant()
    dim = e.source.ambient_dim
    base_mass = solved_dual_weight(e, trace_state(dual_of_source, total=dim)).mass
    if len(e.source.blocks) == 1:
        return base_mass / dim
    value = np.zeros((dim, dim), dtype=complex)
    for proj in dual_of_source.central_projections():
        shifted = ambient_weight(dual_of_source, np.eye(dim, dtype=complex) + proj)
        coeff = (solved_dual_weight(e, shifted).mass - base_mass) / float(np.trace(proj).real)
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
    fs = algebra_basis(source)
    dim = len(fs)
    tau = trace_state(expectation.target)

    products = [[apply_expectation(expectation, fa.conj().T @ fb) for fb in fs] for fa in fs]
    gram = np.array([[weight_value(tau, p) for p in row] for row in products])
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
        rebuilt = sum(g @ apply_expectation(expectation, g.conj().T @ x) for g in elements)
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
        gap = apply_expectation(expectation, m) - bound * m
        low = float(np.linalg.eigvalsh((gap + gap.conj().T) / 2)[0])
        worst = min(worst, low)
    return PimsnerPopaReport(
        bound=bound, samples=samples, worst_eigenvalue=worst, passed=worst >= -slack
    )


def random_inclusion(inclusion, sizes, multiplicities) -> ConditionalExpectationMap:
    """The expectation E = P_N of an inclusion laid out by index arithmetic.

    The source is M = (+)_i M_{a_i} (x) 1_{b_i} with b_i = multiplicities[i],
    and its block i holds inclusion[i][k] copies of M_{n_k}, n_k = sizes[k],
    side by side, so a_i = sum_k inclusion[i][k] n_k.  The target N is the
    algebra of those copies: M_{n_k} (x) 1_{m_k} with
    m_k = sum_i inclusion[i][k] b_i.
    """
    a = [sum(c * n for c, n in zip(row, sizes)) for row in inclusion]
    source = build_algebra(list(zip(a, multiplicities)))
    dim = source.ambient_dim
    start = np.cumsum([0] + [ai * b for ai, b in zip(a, multiplicities)])
    structure = []
    for k, n in enumerate(sizes):
        where = []
        for i, (row, b) in enumerate(zip(inclusion, multiplicities)):
            if not row[k]:
                continue
            first = sum(c * s for c, s in zip(row[:k], sizes[:k]))
            # ambient index of (matrix index, copy, multiplicity) in block i
            block = start[i] + np.arange(a[i] * b).reshape(a[i], b)[first : first + row[k] * n]
            where.append(block.reshape(row[k], n, b).transpose(1, 0, 2).reshape(n, -1))
        where = np.concatenate(where, axis=1)
        m = where.shape[1]
        iso = np.zeros((n * m, dim), dtype=complex)
        iso[np.arange(n * m), where.reshape(-1)] = 1.0
        structure.append(BlockStructure(n, m, iso))
    return ConditionalExpectationMap(source, MatrixBlockAlgebra(structure))


def validate(
    e: ConditionalExpectationMap,
    rng: np.random.Generator | None = None,
    state: WeightDensity | None = None,
    samples: int = 8,
) -> dict[str, float]:
    """Residuals of the inclusion that makes ``e`` an expectation, then of the map.

    The inclusion comes first: N lies in M (``target_in_source``), which
    makes P_N an expectation of M onto N (see the docstring of
    ``entropylab.findim.expectations``).  The ``adjoint``, ``bimodule`` and
    ``range`` residuals, and with ``state`` given ``state_preserved``
    (omega(E(x)) = omega(x)), are sampled on unit-normalized x; all are
    absolute.
    """
    rng = rng or np.random.default_rng(0)
    out = {"target_in_source": basis_distance_by_element(e.source, e.target)}
    adj = 0.0
    bimod = 0.0
    ranged = 0.0
    preserve = 0.0
    for _ in range(samples):
        x = _random_element(e.source, rng)
        n1 = _random_element(e.target, rng)
        n2 = _random_element(e.target, rng)
        ex = apply_expectation(e, x)
        adj = max(adj, float(np.linalg.norm(apply_expectation(e, x.conj().T) - ex.conj().T)))
        bimod = max(
            bimod, float(np.linalg.norm(apply_expectation(e, n1 @ x @ n2) - n1 @ ex @ n2))
        )
        ranged = max(ranged, span_distance(e.target, ex))
        if state is not None:
            preserve = max(preserve, abs(weight_value(state, ex) - weight_value(state, x)))
    out["adjoint"] = adj
    out["bimodule"] = bimod
    out["range"] = ranged
    if state is not None:
        out["state_preserved"] = preserve
    return out


def _random_element(algebra: MatrixBlockAlgebra, rng: np.random.Generator) -> np.ndarray:
    parts = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n, _ in algebra.blocks]
    x = algebra.embed_blocks([p / np.sqrt(m) for p, (_, m) in zip(parts, algebra.blocks)])
    norm = np.linalg.norm(x)
    return x / norm if norm > 0 else x


def identity_expectation(algebra: MatrixBlockAlgebra) -> ConditionalExpectationMap:
    return ConditionalExpectationMap(algebra, algebra)


def weyl_unitaries(dim: int) -> list[np.ndarray]:
    """The dim^2 shift-and-clock unitaries X^a Z^b on C^dim.

    Closed under products up to phase; averaging their conjugations
    depolarizes a full matrix algebra to the scalars.
    """
    shift = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        shift[(j + 1) % dim, j] = 1.0
    clock = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
    out = []
    xa = np.eye(dim, dtype=complex)
    for _ in range(dim):
        zb = np.eye(dim, dtype=complex)
        for _ in range(dim):
            out.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return out


def algebra_basis(algebra) -> list[np.ndarray]:
    """Hilbert-Schmidt orthonormal basis: the matrix units of each block, lifted."""
    out = []
    for blk in algebra.structure:
        rows = blk.iso.reshape(blk.n, blk.m, -1)
        scale = 1.0 / np.sqrt(blk.m)
        for i in range(blk.n):
            for j in range(blk.n):
                out.append(rows[i].conj().T @ rows[j] * scale)
    return out


def algebra_dim(algebra) -> int:
    """The dimension of ``algebra`` as a vector space, sum_k n_k^2."""
    return sum(n * n for n, _ in algebra.blocks)


def span_distance(algebra, x: np.ndarray) -> float:
    """The Hilbert-Schmidt distance of x from the span of ``algebra``."""
    return float(np.linalg.norm(algebra.project(x) - x))


def span_equals(algebra, other) -> bool:
    """Whether two algebras, possibly built apart, have one span, to SPAN_TOL."""
    if other is algebra:
        return True
    if other.ambient_dim != algebra.ambient_dim or algebra_dim(other) != algebra_dim(algebra):
        return False
    return basis_distance_by_element(algebra, other) <= SPAN_TOL


def algebra_contains(algebra, x: np.ndarray, tol: float = SPAN_TOL) -> bool:
    """Whether x lies in the span of ``algebra``, to ``tol`` of max(1, ||x||)."""
    return span_distance(algebra, x) <= tol * max(1.0, float(np.linalg.norm(x)))


def algebra_identity(algebra) -> np.ndarray:
    """The unit of ``algebra``, the identity on its ambient space."""
    return np.eye(algebra.ambient_dim, dtype=complex)


def basis_distance_by_element(algebra, other) -> float:
    """The largest distance of an element of ``algebra_basis(other)`` from the
    span of ``algebra``: one projection per basis element."""
    return max(span_distance(algebra, f) for f in algebra_basis(other))


def weight_value(weight: WeightDensity, x: np.ndarray) -> complex:
    """psi(P(x)) = Tr(D P(x)) = Tr(D x) for the projection P onto the algebra."""
    return complex(np.einsum("ij,ji->", weight.matrix, x))


def apply_expectation(e: ConditionalExpectationMap, x: np.ndarray) -> np.ndarray:
    """E(x) = P_N(x)."""
    return e.target.project(x)


def ambient_weight(algebra, matrix: np.ndarray) -> WeightDensity:
    """The weight whose canonical density is ``matrix``, an ambient matrix
    that must lie in ``algebra`` to 1e-10 of max(1, ||matrix||)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (algebra.ambient_dim, algebra.ambient_dim):
        raise ValueError("density has wrong shape for the ambient space")
    parts = algebra.matrix_blocks(matrix)
    scale = max(1.0, float(np.linalg.norm(matrix)))
    if float(np.linalg.norm(algebra.embed_blocks(parts) - matrix)) > 1e-10 * scale:
        raise ValueError("density does not lie in the algebra")
    return WeightDensity(algebra, [p * m for p, (_, m) in zip(parts, algebra.blocks)])


def weight_on(weight: WeightDensity, algebra, error: str) -> WeightDensity:
    """``weight`` on ``algebra``, which must span the same algebra as its own.

    Intrinsic blocks depend on the block isometries, so a weight given on an
    independently built copy is carried over through its ambient matrix.
    """
    if weight.algebra is algebra:
        return weight
    if not span_equals(weight.algebra, algebra):
        raise ValueError(error)
    return ambient_weight(algebra, weight.matrix)


def is_identity(e: ConditionalExpectationMap, tol: float = 1e-10) -> bool:
    """Whether ``e`` fixes every element of its source."""
    return span_equals(e.source, e.target) and all(
        np.linalg.norm(apply_expectation(e, f) - f) <= tol * e.source.ambient_dim
        for f in algebra_basis(e.source)
    )


def conjugated_expectation(e: ConditionalExpectationMap, u: np.ndarray) -> ConditionalExpectationMap:
    """The expectation x -> u E(u* x u) u* between the rotated algebras."""
    return ConditionalExpectationMap(e.source.conjugated(u), e.target.conjugated(u))


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


# --- group averaging and block-structure discovery ----------------------------


def cyclic_group_unitaries(n: int) -> list[np.ndarray]:
    """Regular representation of the cyclic group of order n (powers of the shift)."""
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    out = [np.eye(n, dtype=complex)]
    for _ in range(n - 1):
        out.append(shift @ out[-1])
    return out


def symmetric_group_unitaries(letters: int = 3) -> list[np.ndarray]:
    """Left regular representation of the symmetric group on ``letters`` symbols."""
    elems = list(itertools.permutations(range(letters)))
    index = {p: i for i, p in enumerate(elems)}
    out = []
    for g in elems:
        u = np.zeros((len(elems), len(elems)), dtype=complex)
        for i, h in enumerate(elems):
            gh = tuple(g[h[k]] for k in range(letters))
            u[index[gh], i] = 1.0
        out.append(u)
    return out


def group_average_expectation(
    source: MatrixBlockAlgebra,
    unitaries: list[np.ndarray],
    closure_tol: float = 1e-8,
) -> ConditionalExpectationMap:
    """Average of x -> u x u* over a finite unitary group normalizing ``source``.

    The target is the fixed-point subalgebra.  In the source's orthonormal
    basis each Ad u is a unitary matrix, and the unitaries form a group up
    to phase (products are matched against the listed elements through
    |tr(u_k* u_g u_h)| = D), so the average of those matrices is the
    orthogonal projector onto the fixed points: its eigenvectors of
    eigenvalue 1 are their coordinates, and ``algebra_from_basis`` finds
    their blocks.  An eigenvalue away from 0 and 1 rejects the input.  The
    average preserves the trace on the source, and the trace-preserving
    expectation onto the target is unique, so the result is that
    expectation.
    """
    d = source.ambient_dim
    units = [np.asarray(u, dtype=complex) for u in unitaries]
    if not units:
        raise ValueError("need at least one unitary")
    for u in units:
        if u.shape != (d, d):
            raise ValueError("unitary dimension mismatch")
        if np.linalg.norm(u @ u.conj().T - np.eye(d)) > 1e-10 * d:
            raise ValueError("input matrix is not unitary")
    _check_group_closure(units, closure_tol)

    basis = algebra_basis(source)
    frame = np.stack([_vec(f) for f in basis], axis=1)
    average = np.zeros((len(basis), len(basis)), dtype=complex)
    for u in units:
        images = [u @ f @ u.conj().T for f in basis]
        if any(span_distance(source, g) > 1e-9 for g in images):
            raise ValueError("unitaries do not normalize the algebra")
        # coordinates Tr(f_a* g_b) of the conjugated basis, in one product
        average += frame.conj().T @ np.stack([_vec(g) for g in images], axis=1)
    average /= len(units)
    vals, vecs = np.linalg.eigh(0.5 * (average + average.conj().T))
    fixed_point = vals > 0.5
    if np.abs(vals - fixed_point).max() > 1e-9:
        raise ValueError(
            "the group average is not a projector: eigenvalues off {0, 1} by "
            f"{np.abs(vals - fixed_point).max():.3e}"
        )
    fixed = [
        sum(c * f for c, f in zip(coords, basis)) for coords in vecs[:, fixed_point].T
    ]
    return ConditionalExpectationMap(source, algebra_from_basis(fixed))


def _check_group_closure(units: list[np.ndarray], tol: float) -> None:
    d = units[0].shape[0]
    for g in units:
        for h in units:
            prod = g @ h
            best = max(abs(np.trace(k.conj().T @ prod)) for k in units)
            if abs(best - d) > tol * d:
                raise ValueError(
                    "unitaries are not closed under products (up to phase)"
                )


# Relative gap used to split eigenvalue clusters during structure discovery.
CLUSTER_GAP = 1e-7
# Relative residual accepted for an input element in the discovered algebra.
STRUCTURE_TOL = 1e-9

_DISCOVERY_SEED = 0x5EED


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
    if algebra_dim(alg) != len(basis) or not all(algebra_contains(alg, x, STRUCTURE_TOL) for x in mats):
        raise ValueError(
            f"the input spans dimension {len(basis)}, but the discovered blocks "
            f"{alg.blocks} of dimension {algebra_dim(alg)} do not reproduce that span: "
            "the input does not span a *-algebra"
        )
    return alg


def _orthonormal_span(mats: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Hilbert-Schmidt orthonormal basis of the span of ``mats``."""
    stack = np.stack([m.reshape(-1) for m in mats])
    u, s, vh = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > max(1.0, s[0]) * 1e-12)) if s.size else 0
    return [vh[i].reshape(dim, dim) for i in range(rank)]


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


def trace_state(algebra: MatrixBlockAlgebra, total: float = 1.0) -> WeightDensity:
    """The normalised trace of the algebra, scaled to the given total mass."""
    blocks = [np.eye(n) * (m * total / algebra.ambient_dim) for n, m in algebra.blocks]
    return WeightDensity(algebra, blocks)


def commutant_state(omega: VectorStateData) -> WeightDensity:
    """The vector state of ``omega`` on the commutant: blocks C_k^T conj(C_k)."""
    blocks = [c.T @ c.conj() for c in omega._coefficients]
    return WeightDensity(omega.algebra.commutant(), blocks)


def _lift(blk: BlockStructure, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """V*(a tensor b)V on the ambient space, for a in M_n and b in M_m of block ``blk``."""
    rows = np.matmul(b, blk.iso.reshape(blk.n, blk.m, -1))
    acted = (a @ rows.reshape(blk.n, -1)).reshape(blk.n * blk.m, -1)
    return blk.iso.conj().T @ acted


def spatial_derivative(psi: WeightDensity, phi_c: WeightDensity) -> np.ndarray:
    """Spatial derivative Delta(psi / phi_c) as a positive D x D matrix.

    ``psi`` is a weight on M, ``phi_c`` a faithful weight on the commutant
    M'.  The result is the block-wise product of the intrinsic density of
    psi with the inverse intrinsic density of phi_c (commuting positive
    factors).
    """
    algebra = psi.algebra
    phi_c = weight_on(
        phi_c, algebra.commutant(), "second weight must live on the commutant of the first"
    )
    if not phi_c.is_faithful:
        raise ValueError("commutant weight must be faithful")
    rho = psi.intrinsic_blocks()
    sig = phi_c.intrinsic_eigensystems()
    out = np.zeros((algebra.ambient_dim, algebra.ambient_dim), dtype=complex)
    for blk, rho_k, (s_vals, s_vecs) in zip(algebra.structure, rho, sig):
        out += _lift(blk, rho_k, (s_vecs * _support_power(s_vals, -1.0)) @ s_vecs.conj().T)
    return out


def hermitian_power(mat: np.ndarray, exponent: complex) -> np.ndarray:
    """mat**exponent on the support of a PSD matrix (zero on the kernel)."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * _support_power(vals, exponent)) @ vecs.conj().T


def modular_flow(psi: WeightDensity, x: np.ndarray, t: float) -> np.ndarray:
    """sigma_t^psi(x) for x in the algebra of psi (psi faithful)."""
    if not psi.is_faithful:
        raise ValueError("modular flow needs a faithful weight; restrict to the support first")
    algebra = psi.algebra
    if not algebra_contains(algebra, x, tol=1e-8):
        raise ValueError("element does not lie in the algebra of the weight")
    parts = algebra.matrix_blocks(x)
    flowed = []
    for rho_k, xk in zip(psi.intrinsic_blocks(), parts):
        u = hermitian_power(rho_k, 1j * t)
        flowed.append(u @ xk @ u.conj().T)
    return algebra.embed_blocks(flowed)


def connes_cocycle(
    psi1: WeightDensity,
    psi2: WeightDensity,
    t: float,
    reference: WeightDensity | None = None,
) -> np.ndarray:
    """Connes cocycle [D psi1 : D psi2]_t as an element of the algebra.

    With ``reference`` a faithful weight on the commutant the cocycle is
    computed as Delta(psi1/ref)^{it} Delta(psi2/ref)^{-it}; the result does
    not depend on that choice.  Without a reference the block formula
    rho_1^{it} rho_2^{-it} is used directly.
    """
    algebra = psi1.algebra
    psi2 = weight_on(psi2, algebra, "cocycle weights must live on the same algebra")
    if not psi2.is_faithful:
        raise ValueError("second cocycle weight must be faithful")
    if reference is not None:
        d1 = spatial_derivative(psi1, reference)
        d2 = spatial_derivative(psi2, reference)
        u = hermitian_power(d1, 1j * t) @ hermitian_power(d2, -1j * t)
        return algebra.project(u)
    parts = []
    for rho1, rho2 in zip(psi1.intrinsic_blocks(), psi2.intrinsic_blocks()):
        parts.append(hermitian_power(rho1, 1j * t) @ hermitian_power(rho2, -1j * t))
    return algebra.embed_blocks(parts)


def conjugation_flow(rho: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """rho^{it} x rho^{-it} through an explicit eigendecomposition."""
    vals, vecs = np.linalg.eigh(rho)
    phases = np.exp(1j * t * np.log(vals))
    u = (vecs * phases) @ vecs.conj().T
    return u @ x @ u.conj().T


# --- arc regions: the arc -> site rule, rotations, regularized entropy --------


def mask_arc_sites(n_sites: int, arc: tuple[float, float]) -> np.ndarray:
    """Sites k whose angle k * (2pi/N) lies in [a, b), wrapping through 0 when b <= a."""
    theta = np.arange(n_sites) * (2.0 * math.pi / n_sites)
    a, b = arc
    if a < b:
        return np.nonzero((theta >= a) & (theta < b))[0]
    return np.nonzero((theta >= a) | (theta < b))[0]


def arc_sites(n_sites: int, arc: tuple[float, float]) -> np.ndarray:
    """Sorted sites of ``arc`` on N sites by the package's ``arc_range``."""
    return gaussian.run_sites(linear_runs(n_sites, [arc_range(n_sites, arc)]))


def lattice_region(n_sites: int, spec: RegionSpec) -> np.ndarray:
    """Sorted sites of the region on N sites; ValueError, raised by the
    package's ``check_size`` and ``site_ranges``, unless N is a chain size,
    every arc holds a site and the region leaves one outside it."""
    check_size(n_sites)
    return gaussian.run_sites(linear_runs(n_sites, site_ranges(n_sites, spec)))


def rotated_region(spec: RegionSpec, angle: float) -> RegionSpec:
    """The region turned by ``angle`` around the circle."""
    return RegionSpec([(a + angle, b + angle) for a, b in spec.arcs])


def regularized_entropy(corr, spec: RegionSpec, c: float) -> float:
    """(c/6) sum_i ln r_i - S(omega, omega-product); (c/6) ln r for one arc."""
    if c <= 0:
        raise ValueError("central charge must be positive")
    lengths = interval_lengths(spec)
    geometry = (c / 6.0) * math.fsum(math.log(r) for r in lengths)
    return geometry - product_state_relative_entropy(corr, spec)


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


def split_runs(sites: np.ndarray) -> list[tuple[int, int]]:
    """(first, count) of each maximal run of consecutive sorted ``sites``,
    cut by ``np.diff`` and ``np.split``."""
    if not sites.size:
        return []
    cuts = np.flatnonzero(np.diff(sites) != 1) + 1
    return [(int(run[0]), run.size) for run in np.split(sites, cuts)]


def mask_coupling_runs(n_sites: int, sites) -> tuple[int, tuple, tuple]:
    """The lattice kernel's p, R and F, by the array route: sort the sites,
    split their parities, mask the N/2 sites of F's parity and cut both
    sides, as half-chain indices i of their sites 2 i + p and 2 i + 1 - p,
    with ``split_runs``."""
    ordered = np.sort(np.asarray(sites, dtype=int))
    parity = ordered % 2
    side = int(2 * parity.sum() < ordered.size)  # p, the parity of R, the smaller side
    free = np.ones(n_sites // 2, dtype=bool)  # F: other-parity sites outside, by site // 2
    free[ordered[parity != side] // 2] = False
    rows, cols = ordered[parity == side] // 2, np.flatnonzero(free)
    return side, tuple(split_runs(rows)), tuple(split_runs(cols))


def whole_block_spectrum(n_sites: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """All eigenvalues of B' B'^T for the whole coupling block B' = K[rows, cols],
    ascending: the spectrum the lattice kernel compresses, held at once."""
    block = even_odd_block(n_sites, rows, cols)
    return np.linalg.eigvalsh(block @ block.T)


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
    orbitals = ground_orbitals(n_sites)
    union = lattice_region(n_sites, spec)
    arcs = [arc_sites(n_sites, arc) for arc in spec.arcs]
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


# --- closed forms of the chain's entropies (standard library only) ---------

# Terms of the small-t series of the Upsilon_1 integrand, and where it takes over.
_SERIES_TERMS = 14
_SERIES_BELOW = 1.0


def _even_bernoulli(count: int) -> list[float]:
    """B_0, B_2, ..., B_{2(count - 1)}, exact in fractions, then as floats."""
    b = [Fraction(1)]
    for m in range(1, 2 * count - 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return [float(b[2 * k]) for k in range(count)]


# 1 / sinh^2(s) = sum_k a_k s^(2k - 2), from coth(s) = sum_k 4^k B_2k s^(2k - 1) / (2k)!.
_INV_SINH2 = [
    -(4**k) * b * (2 * k - 1) / math.factorial(2 * k)
    for k, b in enumerate(_even_bernoulli(_SERIES_TERMS))
]


def _upsilon_integrand(t: float) -> float:
    """e^(-t) / (3t) + 1 / (t sinh^2(t/2)) - cosh(t/2) / (2 sinh^3(t/2)).

    The last two terms are 4/t^3 apart from a finite rest, so below
    ``_SERIES_BELOW`` the integrand is summed as (e^(-t) - 1) / (3t) plus
    the series sum_{k >= 2} (k/2) a_k (t/2)^(2k - 3) of their difference,
    which converges for t < 2 pi.
    """
    s = t / 2.0
    if t < _SERIES_BELOW:
        rest = sum(k / 2.0 * _INV_SINH2[k] * s ** (2 * k - 3) for k in range(2, _SERIES_TERMS))
        return math.expm1(-t) / (3.0 * t) + rest
    sinh = math.sinh(s)
    return math.exp(-t) / (3.0 * t) + 1.0 / (t * sinh * sinh) - math.cosh(s) / (2.0 * sinh**3)


def upsilon_1(step: float = 0.1) -> float:
    """Upsilon_1 = -integral_0^inf of ``_upsilon_integrand`` (Jin and Korepin,
    J. Stat. Phys. 116, 79, 2004), about 0.4950179.

    The trapezoid rule in u = ln t over [-40, 4.5], where the integrand in u
    is analytic in a strip and falls off at both ends below 1e-17: the
    error shrinks like exp(-pi^2 / step), far below 1e-12 at the default.
    """
    lo, hi = -40.0, 4.5
    points = [math.exp(lo + j * step) for j in range(round((hi - lo) / step) + 1)]
    return -step * math.fsum(t * _upsilon_integrand(t) for t in points)


def chord_sites(n_sites: int, x: float, y: float) -> float:
    """The chord distance (N/pi) |sin(pi (x - y) / N)| of sites x and y."""
    return n_sites / math.pi * abs(math.sin(math.pi * (x - y) / n_sites))


def jin_korepin_entropy(n_sites: int, length: int) -> float:
    """S(l, N) = (1/3) ln[(N/pi) sin(pi l / N)] + Upsilon_1 + (1/3) ln 2, the
    ground-state entropy of l consecutive sites of the half-filled chain."""
    return math.log(chord_sites(n_sites, length, 0)) / 3.0 + upsilon_1() + math.log(2.0) / 3.0


def several_block_entropy(n_sites: int, runs) -> float:
    """The entropy of a union of blocks of consecutive sites, given as
    ``(first, count)`` runs: n Upsilon plus (1/3)[sum_ij ln d(b_i, a_j) -
    sum_{i<j} ln d(a_i, a_j) - sum_{i<j} ln d(b_i, b_j)], with a_i = first,
    b_i = first + count and d the chord distance (Casini, Fosco, Huerta,
    J. Stat. Mech. 2005, P07007; Ares, Esteve, Falceto, Phys. Rev. A 90,
    062321, 2014).  One run gives ``jin_korepin_entropy``."""
    starts = [first for first, _ in runs]
    ends = [first + count for first, count in runs]
    cross = [math.log(chord_sites(n_sites, b, a)) for b in ends for a in starts]
    same = [
        math.log(chord_sites(n_sites, x, y))
        for points in (starts, ends)
        for x, y in itertools.combinations(points, 2)
    ]
    upsilon = upsilon_1() + math.log(2.0) / 3.0
    return (math.fsum(cross) - math.fsum(same)) / 3.0 + len(runs) * upsilon
