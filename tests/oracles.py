"""Independent reference implementations used to cross-check the package.

Everything here except ``leg_average`` is deliberately written from
first principles with no imports from entropylab internals:
eigen-overlap relative entropy, a brute-force commutant solver, the dense
restricted correlation matrix of the hopping chain with its eigenvalue
entropy (Peschel, J. Phys. A 36 L205, 2003), and a many-body spin-chain
construction of the imaginary-hopping Hamiltonian (Jordan-Wigner form)
whose ground state gives correlation functions and reduced entropies the
long way.  ``leg_average`` is the Weyl-group oracle for the findim
instance expectations: it rediscovers their targets through the
package's group averaging and structure discovery, which the instances
themselves do not use.
"""

from __future__ import annotations

import numpy as np

from entropylab.findim import group_average_expectation, weyl_unitaries

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
    _, svals, vh = np.linalg.svd(stacked)
    rank = int(np.sum(svals > 1e-10 * svals[0])) if svals.size else 0
    return vh[rank:].conj()


def leg_average(
    algebra, left_dim: int, sub_dim: int, right_dim: int, conjugator=None
):
    """Average over shift-and-clock unitaries on the middle tensor leg.

    The unitaries act as 1 (x) w (x) 1 on C^left (x) C^sub (x) C^right,
    optionally conjugated; the target is everything commuting with that leg.
    """
    units = []
    for w in weyl_unitaries(sub_dim):
        u = np.kron(np.kron(np.eye(left_dim), w), np.eye(right_dim))
        if conjugator is not None:
            u = conjugator @ u @ conjugator.conj().T
        units.append(u)
    return group_average_expectation(algebra, units)


def conjugation_flow(rho: np.ndarray, x: np.ndarray, t: float) -> np.ndarray:
    """rho^{it} x rho^{-it} through an explicit eigendecomposition."""
    vals, vecs = np.linalg.eigh(rho)
    phases = np.exp(1j * t * np.log(vals))
    u = (vecs * phases) @ vecs.conj().T
    return u @ x @ u.conj().T


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
