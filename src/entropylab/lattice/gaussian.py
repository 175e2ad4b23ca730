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
Rokhlin, SIAM J. Sci. Comput. 26, 1389, 2005) that the geometry chooses:
the columns of B' at offsets 0, 1, 2, 4, 8, ... from both ends of every
run of F on the ring (two runs that meet across site 0 are one), read
straight from the kernel view.  Q is their Householder QR factor, one
sweep gives ||B'||_F^2 and Z = Q^T B', and lambda = eigvalsh(Z Z^T).
The dropped mass eps = ||(1 - Q Q^T) B'||_F^2 certifies Q: it must fall
to 256 ulps of ||B'||_F^2 (its rounding is a few ulps), or Q must span R.
Otherwise the offsets 3, 6, 12, ... join and a second sweep follows; if
that misses too, or the skeleton has |R| columns, Q = 1 on R, which drops
nothing.  The compressed eigenvalues interlace below the true ones and
fall short by eps in total; the pair entropy s(lambda) = 2 h(nu) is
concave and increasing with s(0) = 0, so the computed entropy is low by
at most |R| s(eps / |R|) nats.  B' is streamed from slices of the kernel
view in row panels of max(k, ceil(|R| k / |F|)) rows, at most |R|, for a
range of width k: a panel holds at least as many entries as Q and as Z,
so Q^T panel moves no more bytes than the panel, and a thin F takes one
panel, not |R| / k.  A range of width k costs one sweep, the QR of an
|R| x k skeleton and about 2 |R| |F| k flops, in a working memory of
range-sized arrays with no constant term: the panel, Z, one product
buffer and Q, about (2 |R| + 3 |F|) k floats.  Only Q = 1 on R holds B'
whole, as Z, built as one panel.

Regions travel as sorted, merged runs (first, count) of consecutive sites
on [0, N): an arc union's from ``regions.arc_range``, its complement's
from the gaps between them.  R and F are half-chain runs by O(#runs)
arithmetic: runs of i over R's sites 2 i + p, of j over F's 2 j + 1 - p.
In these indices K is one Toeplitz matrix, K[2 i + p, 2 j + 1 - p] =
V[i + p, j] for a cached read-only view V of the n values of K, and
every block of B' = V[p:][R, F] is a slice of V.  The ground state is
pure, so each entropy of an arc-union relative entropy is evaluated on
the smaller of a set and its complement, memoized by (N, runs): the
region/complement deficit evaluates their shared union entropy once.
One site array remains.  ``region_entropy(corr, sites)`` takes any set
of sites and is the one place where sites become runs (a sort and one
``np.diff``), and the arc path hands it the evaluated side's sites,
because the benchmark's tracer reads that signature.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..regions import RegionSpec, check_size, complement_runs, linear_runs, site_ranges

EIGENVALUE_SLACK = 1e-8
_ROUNDING_ULPS = 256  # the dropped-mass tolerance, in ulps of ||B'||_F^2

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
        check_size(n_sites)
        return super().__new__(cls, n_sites)


@lru_cache(maxsize=8)
def ground_state_correlations(n_sites: int) -> CorrelationMatrix:
    """Spectral projector onto the filled (negative-energy) NS modes."""
    return CorrelationMatrix(n_sites)


def run_sites(runs) -> np.ndarray:
    """The indices of ``(first, count)`` runs, in run order."""
    parts = [np.arange(first, first + count) for first, count in runs]
    return np.concatenate(parts) if parts else np.arange(0)


@lru_cache(maxsize=8)
def _kernel(n: int) -> np.ndarray:
    """K in half-chain indices, K[2 i + p, 2 j + 1 - p] = V[i + p, j]: the
    read-only (n/2 + 1) x n/2 Toeplitz view V of the table of K at the odd
    separations d = 1 - n, 3 - n, ..., n - 1, 1 / (n sin(pi d / n))."""
    table = np.arange(1 - n, n, 2, dtype=float)
    table *= np.pi
    table /= n
    np.sin(table, out=table)
    table *= n
    np.divide(1.0, table, out=table)
    table.flags.writeable = False
    return sliding_window_view(table, n // 2)[:, ::-1]


def _panel_height(n_rows: int, n_cols: int, width: int) -> int:
    """Rows of B' per panel for a range of ``width`` columns: at least as
    many entries as Q^T B' and as Q, so Q^T panel moves no more bytes than
    the panel, and no more rows than B' has."""
    return min(n_rows, max(width, -(-n_rows * width // n_cols)))


def _panels(kernel: np.ndarray, rows, cols):
    """A sweep over B' = kernel[rows, cols] for runs of half-chain indices.

    Calling the result with a height yields (first row, panel) for
    consecutive row panels of that many rows.  Each pair of runs is a
    Toeplitz block, one slice of the kernel view; every sweep copies its
    panels into one buffer of its own (a fresh array per panel would
    page-fault on every write), so a panel is valid only until the next one
    is yielded.  A sweep of one panel leaves B' whole in that buffer.
    """
    # each run's position among the indices of its side, then their number
    row_starts = list(accumulate((count for _, count in rows), initial=0))
    col_starts = list(accumulate((count for _, count in cols), initial=0))

    def sweep(height: int):
        buffer = np.empty((min(height, row_starts[-1]), col_starts[-1]))
        for lo in range(0, row_starts[-1], height):
            hi = min(lo + height, row_starts[-1])
            panel = buffer[: hi - lo]
            for i, (row, count) in zip(row_starts, rows):
                a, b = max(i, lo), min(i + count, hi)
                if a >= b:
                    continue
                for j, (col, width) in zip(col_starts, cols):
                    block = kernel[row + a - i : row + b - i, col : col + width]
                    panel[a - lo : b - lo, j : j + width] = block
            yield lo, panel

    return sweep


def _skeleton(ring: int, cols, offsets: np.ndarray) -> set[int]:
    """The indices ``offsets`` from both ends of each run of ``cols`` on the
    ring of ``ring`` indices: runs that meet across 0 are one run, as that
    is no endpoint of the region."""
    runs = list(cols)
    if len(runs) > 1 and runs[0][0] + ring == runs[-1][0] + runs[-1][1]:
        (_, head), (last, tail) = runs.pop(0), runs.pop()
        runs.append((last, tail + head))
    picked = set()
    for first, count in runs:
        steps = offsets[offsets < count]
        last = first + count - 1
        picked.update(((first + steps) % ring).tolist(), ((last - steps) % ring).tolist())
    return picked


def _coupling_spectrum(kernel: np.ndarray, rows, cols) -> tuple[np.ndarray, float]:
    """The eigenvalues of Z Z^T, Z = Q^T B', and the certified dropped mass.

    Q is the QR factor of the endpoint skeleton, widened once by the
    half-octave offsets if the dropped mass ||B'||_F^2 - ||Z||_F^2 has not
    reached its rounding level, and 1 on R if it still has not or once the
    skeleton has as many columns as R has rows.  Each try is one sweep over
    the row panels of B' = kernel[rows, cols], the runs of R and F, which
    sums ||B'||_F^2 row by row and forms Z: in panels of ``_panel_height``
    rows through one product buffer, or, for Q = 1, in one panel that is Z.
    """
    if not rows or not cols:
        return np.empty(0), 0.0
    sweep = _panels(kernel, rows, cols)
    row_at = run_sites(rows)
    n_rows, n_cols = row_at.size, sum(count for _, count in cols)  # |R|, |F|
    picked = set()  # the skeleton's columns
    row_norms = np.empty(n_rows)
    octaves = 1 << np.arange(n_cols.bit_length())
    for offsets in (np.r_[0, octaves], 3 * octaves, None):
        if offsets is not None:
            picked |= _skeleton(kernel.shape[1], cols, offsets)
        basis = captured = product = panel = None  # free the last try's arrays first
        if offsets is None or len(picked) >= n_rows:  # Q = 1 on R: Z is B'
            [(_, captured)] = sweep(n_rows)
            np.einsum("ij,ij->i", captured, captured, out=row_norms)
        else:
            basis = np.linalg.qr(kernel[row_at[:, None], sorted(picked)])[0]
            width = basis.shape[1]
            captured, product = np.zeros((width, n_cols)), np.empty((width, n_cols))
            for lo, panel in sweep(_panel_height(n_rows, n_cols, width)):
                hi = lo + len(panel)
                np.einsum("ij,ij->i", panel, panel, out=row_norms[lo:hi])
                captured += np.matmul(basis[lo:hi].T, panel, out=product)
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


def _parity_runs(n: int, runs, parity: int) -> tuple[tuple[int, int], ...]:
    """The sites 2 i + ``parity`` in ``runs`` as runs of i on [0, n/2),
    merged as ``linear_runs`` merges."""
    halves = []
    for first, count in runs:
        low, high = (first + 1 - parity) // 2, (first + count + 1 - parity) // 2
        halves.append((low, high - low))
    return linear_runs(n // 2, halves)


def _coupling_runs(n: int, runs) -> tuple[int, tuple, tuple]:
    """p, R and F: R is the smaller parity side of the sites of ``runs``
    (the even one on a tie), as runs of i over its sites 2 i + p, and F the
    sites 2 j + 1 - p outside them, as runs of j."""
    sides = [_parity_runs(n, runs, parity) for parity in (0, 1)]
    p = int(sum(c for _, c in sides[1]) < sum(c for _, c in sides[0]))
    return p, sides[p], _parity_runs(n, complement_runs(n, runs), 1 - p)


def _entropy_and_bound(n: int, runs) -> tuple[float, float]:
    """S in nats of the sites of ``runs``, sorted and merged runs (first,
    count) of consecutive sites on [0, n), and the bound on how far below
    the exact value it lies."""
    p, rows, cols = _coupling_runs(n, runs)
    lam, dropped = _coupling_spectrum(_kernel(n)[p:], rows, cols)
    if lam.size and (lam.min() < -EIGENVALUE_SLACK or lam.max() > 0.25 + EIGENVALUE_SLACK):
        raise ValueError(
            f"mode occupation outside [0, 1]: nu (1 - nu) range "
            f"[{lam.min():.3e}, {lam.max():.3e}]"
        )
    pairs = sum(count for _, count in rows)
    unpaired = sum(count for _, count in runs) - 2 * pairs
    entropy = 2.0 * _mode_entropy(lam) + unpaired * math.log(2.0)
    bound = 0.0
    if dropped:
        bound = 2.0 * pairs * _mode_entropy(np.array([dropped / pairs]))
    return entropy, bound


def region_entropy(corr: CorrelationMatrix, sites: np.ndarray) -> float:
    """Entanglement entropy of a set of distinct sites, in nats.

    ``sites`` is a 1-D array of integers in any order; sorted, it is cut
    into runs where the next site is not the neighbor.
    """
    n = corr.n_sites
    sites = np.asarray(sites)
    if sites.ndim != 1:
        raise ValueError(f"sites must be a 1-D array, not {sites.ndim}-D")
    if sites.size == 0:
        raise ValueError("region must contain at least one site")
    if sites.dtype.kind not in "iu":
        raise ValueError(f"sites must be integers, not {sites.dtype}")
    sites = np.sort(sites)
    if sites[0] < 0 or sites[-1] >= n:
        raise ValueError(f"sites must lie in [0, {n})")
    steps = np.diff(sites)
    if not steps.all():
        raise ValueError("sites must be distinct")
    cuts = np.flatnonzero(steps != 1) + 1
    firsts, ends = np.r_[0, cuts], np.r_[cuts, sites.size]
    runs = zip(sites[firsts].tolist(), (ends - firsts).tolist())
    return _entropy_and_bound(n, tuple(runs))[0]


def _pure_state_entropy(corr: CorrelationMatrix, runs, memo: dict) -> float:
    """S of the sites of ``runs``, computed on the complement when that is
    the smaller set.

    A set of exactly half the chain is evaluated as whichever of it and its
    complement holds site 0, so both sides of a purity pair share one key
    (N, runs) in ``memo``.
    """
    n = corr.n_sites
    size = sum(count for _, count in runs)
    if 2 * size > n or (2 * size == n and runs[0][0] > 0):
        runs = complement_runs(n, runs)
    key = (n, runs)
    if key not in memo:
        memo[key] = region_entropy(corr, run_sites(runs))
    return memo[key]


def product_state_relative_entropy(
    corr: CorrelationMatrix, spec: RegionSpec, memo: dict | None = None
) -> float:
    """S(omega, omega_I1 x ... x omega_In) = sum_k S(I_k) - S(union).

    Equals the mutual information for two arcs and vanishes for one.
    ``regions.site_ranges`` raises ValueError unless every arc holds a site
    and the region leaves one outside it.  Each entropy is evaluated on
    the smaller of the site set and its complement (purity).  Calls that
    share one ``memo`` dict evaluate each such set once: a region and its
    complement share their union entropy, and a fixed arc is evaluated
    once however many regions contain it.
    """
    if memo is None:
        memo = {}
    n = corr.n_sites
    ranges = site_ranges(n, spec)
    if len(ranges) == 1:
        return 0.0
    total = sum(_pure_state_entropy(corr, linear_runs(n, [part]), memo) for part in ranges)
    return total - _pure_state_entropy(corr, linear_runs(n, ranges), memo)
