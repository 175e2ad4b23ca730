"""Ground-state correlations and Gaussian entropies for the hopping chain.

The chain is the half-filled nearest-neighbor model with imaginary hopping
amplitude in the antiperiodic (NS) momentum sector, whose single-particle
spectrum has no zero modes at any even size.  All entropies come from the
occupations nu of restricted correlation matrices via the Fermi kernel
-[nu ln nu + (1-nu) ln(1-nu)] (Peschel and Eisler, J. Phys. A 42, 504003,
2009).

The correlation matrix is C = 1/2 + iK with K real and nonzero only between
sites of opposite parity.  On a site set S, let R be its smaller parity
side (its even or its odd sites) and S' its sites of the other parity.  The
occupations on S are 1/2 +- sigma for the singular values sigma of
B = K[R, S'], plus ||S| - 2|R|| modes at exactly 1/2, and each pair of
modes takes its entropy from lambda = nu (1 - nu) = 1/4 - sigma^2.

The kernel never forms B.  C is a projector on the whole chain, so
K K^T = 1/4, and on the rows R this splits into B B^T + B' B'^T = 1/4 with
B' = K[R, F], F the sites outside S with the parity of S'.  The lambda are
therefore the eigenvalues of B' B'^T, the squared singular values of the
coupling between the region and its complement: no 1/4 - sigma^2
cancellation, so near-pure modes keep full relative precision.  B' is
numerically low-rank, because the region talks to its complement only
across its endpoints: only O(ln L ln 1/eps) of the lambda exceed eps.

Its range comes from a column skeleton (Cheng, Gimbutas, Martinsson and
Rokhlin, SIAM J. Sci. Comput. 26, 1389, 2005) that the geometry chooses.
The region meets its complement at the ends of the step-2 runs of F on
the ring (two runs that meet across site 0 are one), so the columns of
B' at offsets 0, 1, 2, 4, 8, ... from both ends of every run usually
span the range of B' to rounding already.  They are read
straight from the kernel table, Q is their Householder QR factor, and
one sweep gives ||B'||_F^2 and Z = Q^T B'; then lambda = eigvalsh(Z Z^T).
The dropped mass eps = ||B'||_F^2 - ||Z||_F^2 = ||(1 - Q Q^T) B'||_F^2
certifies Q: it must fall to 256 ulps of ||B'||_F^2 (its rounding is a
few ulps), or Q must span all of R.  Otherwise the columns at offsets
3, 6, 12, ... join the skeleton and a second sweep follows; if that
misses too, Q = 1 on R, which drops nothing.  A skeleton of |R| columns
or more also takes Q = 1 on R.  The compressed eigenvalues interlace
below the true ones and fall short by eps in total; the pair entropy
s(lambda) = 2 h(nu) is concave and increasing with s(0) = 0, so the
computed entropy is low by at most |R| s(eps / |R|) nats.

B' is streamed in row panels of about 2 MB, each rebuilt from Toeplitz
views of one cached kernel table into one reused buffer.  A range of
width k costs one sweep, the QR of an |R| x k skeleton and about
2 |R| |F| k flops, in one panel plus Q and Z, (|R| + |F|) k floats, of
working memory.  Only Q = 1 on R holds B' whole, as Z.

Because the ground state is pure, a region and its complement have the
same entropy.  The arc-union relative entropy evaluates each entropy on
whichever of the two is smaller, and the region/complement deficit
evaluates the shared union entropy once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .circle import LatticeCircle, RegionSpec, arc_sites, lattice_region

EIGENVALUE_SLACK = 1e-8
_ROUNDING_ULPS = 256  # the dropped-mass tolerance, in ulps of ||B'||_F^2
_PANEL_BYTES = 2**21  # rows of B' built at once: one panel stays in cache for its norms and Q^T B'

__all__ = [
    "CorrelationMatrix",
    "ground_state_correlations",
    "region_entropy",
    "product_state_relative_entropy",
]


class CorrelationMatrix(namedtuple("CorrelationMatrix", "n_sites")):
    """Two-point functions <a_j^dag a_k> of the chain ground state.

    Only the site count is stored.  The closed form is C_jk = 1/2 on the
    diagonal, i / (N sin(pi d / N)) for odd separation d = j - k, zero for
    even nonzero separation.  The expression is antiperiodic in d, matching
    the NS sector.
    """

    __slots__ = ()

    def __new__(cls, n_sites: int):
        if n_sites % 2 or n_sites < 4:
            raise ValueError("site count must be even and at least 4")
        return super().__new__(cls, n_sites)


@lru_cache(maxsize=8)
def ground_state_correlations(n_sites: int) -> CorrelationMatrix:
    """Spectral projector onto the filled (negative-energy) NS modes."""
    return CorrelationMatrix(n_sites)


@lru_cache(maxsize=8)
def _kernel_table(n: int) -> np.ndarray:
    """K at the odd separations d = 1 - n, 3 - n, ..., n - 1: 1 / (n sin(pi d / n))."""
    table = np.arange(1 - n, n, 2, dtype=float)
    table *= np.pi
    table /= n
    np.sin(table, out=table)
    table *= n
    np.divide(1.0, table, out=table)
    table.flags.writeable = False
    return table


def _runs(sites: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(offset, run) for each maximal run of sorted ``sites`` with step 2."""
    if not sites.size:
        return []
    cuts = np.flatnonzero(np.diff(sites) != 2) + 1
    return list(zip([0, *cuts.tolist()], np.split(sites, cuts)))


def _panels(n: int, rows: np.ndarray, cols: np.ndarray):
    """A sweep over B' = K[rows, cols] for sorted sites of opposite parity.

    Calling the result yields (first row, panel) for consecutive row panels
    of about ``_PANEL_BYTES``.  Each pair of step-2 runs is a Toeplitz block
    of the kernel table, copied from a reversed sliding-window view; runs
    and views are made once, and every sweep rebuilds its panels into one
    reused buffer (a fresh array per panel would page-fault on every
    write), so a panel is valid only until the next one is yielded.
    """
    table = _kernel_table(n)
    row_runs = _runs(rows)
    # per run c of columns: its offset, width, last site and the windows
    # whose row t is table[t + c.size - 1], ..., table[t]
    col_windows = [
        (j, c.size, c[-1], sliding_window_view(table, c.size)[:, ::-1]) for j, c in _runs(cols)
    ]
    height = max(1, _PANEL_BYTES // (8 * max(cols.size, 1)))
    buffer = np.empty((min(height, rows.size), cols.size))

    def sweep():
        for lo in range(0, rows.size, height):
            hi = min(lo + height, rows.size)
            panel = buffer[: hi - lo]
            for i, run in row_runs:
                a, b = max(i, lo), min(i + run.size, hi)
                if a >= b:
                    continue
                for j, width, last, windows in col_windows:
                    # K at d = r - c sits at table index (d + n - 1) / 2, and
                    # each next row of the run moves one index along
                    first = (run[a - i] - last + n - 1) // 2
                    panel[a - lo : b - lo, j : j + width] = windows[first : first + b - a]
            yield lo, panel

    return sweep


def _skeleton(n: int, cols: np.ndarray, offsets: np.ndarray, picked: np.ndarray) -> None:
    """Mark in ``picked`` the positions in ``cols`` at ``offsets`` from both
    ends of each step-2 run of the ring: runs that meet across site 0 are
    one run, as that is no endpoint of the region."""
    runs = [(j, run.size) for j, run in _runs(cols)]
    if len(runs) > 1 and cols[0] + n - cols[-1] == 2:
        runs = [*runs[1:-1], (runs[-1][0], runs[-1][1] + runs[0][1])]
    for j, size in runs:
        inside = offsets[offsets < size]
        picked[(j + inside) % cols.size] = True
        picked[(j + size - 1 - inside) % cols.size] = True


def _coupling_spectrum(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, float]:
    """The eigenvalues of Z Z^T, Z = Q^T B', and the certified dropped mass.

    Q is the QR factor of the endpoint skeleton, widened once by the
    half-octave offsets if the dropped mass ||B'||_F^2 - ||Z||_F^2 has not
    reached its rounding level, and 1 on R if it still has not or once the
    skeleton has as many columns as R has rows.  Each try is one sweep over
    the row panels of B' = K[rows, cols], which sums ||B'||_F^2 row by row
    and forms Z.
    """
    if not rows.size or not cols.size:
        return np.empty(0), 0.0
    sweep = _panels(n, rows, cols)
    table = _kernel_table(n)
    picked = np.zeros(cols.size, dtype=bool)
    row_norms = np.empty(rows.size)
    octaves = 1 << np.arange(cols.size.bit_length())
    for offsets in (np.r_[0, octaves], 3 * octaves, None):
        if offsets is not None:
            _skeleton(n, cols, offsets, picked)
        skeleton = cols[picked]
        basis = None  # Q = 1 on R: Z is B' itself
        if offsets is not None and skeleton.size < rows.size:
            basis = np.linalg.qr(table[(rows[:, None] - skeleton + n - 1) // 2])[0]
        captured = np.zeros((rows.size if basis is None else basis.shape[1], cols.size))
        for lo, panel in sweep():
            hi = lo + len(panel)
            np.einsum("ij,ij->i", panel, panel, out=row_norms[lo:hi])
            if basis is None:
                captured[lo:hi] = panel
            else:
                captured += basis[lo:hi].T @ panel
        total = math.fsum(row_norms)
        dropped = total - math.fsum(np.einsum("ij,ij->i", captured, captured))
        if basis is None or dropped <= _ROUNDING_ULPS * np.finfo(float).eps * total:
            break
    return np.linalg.eigvalsh(captured @ captured.T), max(dropped, 0.0)


def _mode_entropy(lam: np.ndarray) -> float:
    """sum -[nu ln nu + (1 - nu) ln(1 - nu)] over nu (1 - nu) = lam; lam <= 0 is pure.

    nu = lam / (1/2 + sqrt(1/4 - lam)) keeps full relative precision for
    near-pure modes.
    """
    lam = lam[lam > 0.0]
    nu = lam / (0.5 + np.sqrt(np.maximum(0.25 - lam, 0.0)))
    return float(-np.sum(nu * np.log(nu) + (1.0 - nu) * np.log1p(-nu)))


def _entropy_and_bound(corr: CorrelationMatrix, sites: np.ndarray) -> tuple[float, float]:
    """S(sites) in nats and the bound on how far below the exact value it lies."""
    n = corr.n_sites
    sites = np.asarray(sites, dtype=int)
    if sites.size == 0:
        raise ValueError("region must contain at least one site")
    if sites.min() < 0 or sites.max() >= n:
        raise ValueError(f"sites must lie in [0, {n})")
    ordered = np.sort(sites, axis=None)
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("sites must be distinct")
    parity = ordered % 2
    side = int(2 * parity.sum() < ordered.size)  # parity of R, the smaller side
    rows = ordered[parity == side]
    free = np.ones(n // 2, dtype=bool)  # F: other-parity sites outside, by site // 2
    free[ordered[parity != side] // 2] = False
    cols = 2 * np.flatnonzero(free) + 1 - side
    lam, dropped = _coupling_spectrum(n, rows, cols)
    if lam.size and (lam.min() < -EIGENVALUE_SLACK or lam.max() > 0.25 + EIGENVALUE_SLACK):
        raise ValueError(
            f"mode occupation outside [0, 1]: nu (1 - nu) range "
            f"[{lam.min():.3e}, {lam.max():.3e}]"
        )
    unpaired = ordered.size - 2 * rows.size
    entropy = 2.0 * _mode_entropy(lam) + unpaired * math.log(2.0)
    bound = 0.0
    if dropped:
        bound = 2.0 * rows.size * _mode_entropy(np.array([dropped / rows.size]))
    return entropy, bound


def region_entropy(corr: CorrelationMatrix, sites: np.ndarray) -> float:
    """Entanglement entropy of a set of distinct sites, in nats."""
    return _entropy_and_bound(corr, sites)[0]


def _pure_state_entropy(corr: CorrelationMatrix, sites: np.ndarray, memo: dict) -> float:
    """S(sites), computed on the complement when that is the smaller set.

    A set of exactly half the chain is evaluated as whichever of it and its
    complement holds site 0, so both sides of a purity pair share one key
    in ``memo``.
    """
    n = corr.n_sites
    if 2 * sites.size > n or (2 * sites.size == n and sites.min() > 0):
        outside = np.ones(n, dtype=bool)
        outside[sites] = False
        sites = np.flatnonzero(outside)
    key = (n, sites.tobytes())
    if key not in memo:
        memo[key] = region_entropy(corr, sites)
    return memo[key]


def product_state_relative_entropy(
    corr: CorrelationMatrix, spec: RegionSpec, memo: dict | None = None
) -> float:
    """S(omega, omega_I1 x ... x omega_In) = sum_k S(I_k) - S(union).

    Equals the mutual information for two arcs and vanishes for one.
    Every arc must contain at least one site.  Each entropy is evaluated on
    the smaller of the site set and its complement (purity).  Calls that
    share one ``memo`` dict evaluate each such set once: a region and its
    complement share their union entropy, and a fixed arc is evaluated
    once however many regions contain it.
    """
    if memo is None:
        memo = {}
    circle = LatticeCircle(corr.n_sites)
    if len(spec.arcs) == 1:
        lattice_region(circle, spec)
        return 0.0
    parts = []
    for arc in spec.arcs:
        sites = arc_sites(circle, arc)
        if sites.size == 0:
            raise ValueError(f"arc ({arc[0]:.4f}, {arc[1]:.4f}) contains no lattice sites")
        parts.append(sites)
    union = np.sort(np.concatenate(parts))
    if union.size == circle.n_sites:
        raise ValueError("region leaves no complement sites")
    total = sum(_pure_state_entropy(corr, sites, memo) for sites in parts)
    return total - _pure_state_entropy(corr, union, memo)
