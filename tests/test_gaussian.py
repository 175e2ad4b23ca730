"""Correlation matrices and Gaussian entropies, checked against the dense
eigensolve oracle and a full many-body construction at small size."""

import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entropylab.lattice import gaussian
from entropylab.lattice import (
    RegionSpec,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
)
from entropylab.regions import site_ranges

import oracles
from oracles import arc_sites, hopping_matrix, lattice_region, rotated_region, split_runs


def test_hopping_matrix_is_hermitian_antiperiodic():
    h = hopping_matrix(8)
    np.testing.assert_allclose(h, h.conj().T, atol=0)
    assert h[7, 0] == -1j and h[0, 7] == 1j
    assert h[0, 1] == 1j and h[1, 0] == -1j


def test_hopping_spectrum_is_shifted_sine():
    n = 10
    h = hopping_matrix(n)
    got = np.sort(np.linalg.eigvalsh(h))
    momenta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    want = np.sort(-2.0 * np.sin(momenta))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_no_zero_modes_at_many_sizes():
    for n in (4, 8, 10, 26, 128):
        h = hopping_matrix(n)
        vals = np.abs(np.linalg.eigvalsh(h))
        assert vals.min() > 1e-8


@pytest.mark.parametrize("n", [4, 8, 14])
def test_correlations_form_projector_at_half_filling(n):
    c = oracles.correlation_block(n, np.arange(n))
    np.testing.assert_allclose(c @ c, c, atol=1e-12)
    assert np.trace(c).real == pytest.approx(n / 2, abs=1e-12)
    np.testing.assert_allclose(np.diag(c), 0.5, atol=1e-12)


def test_correlations_match_direct_diagonalization_n4():
    # fill the two negative modes of the 4x4 single-particle problem
    h = hopping_matrix(4)
    vals, vecs = np.linalg.eigh(h)
    filled = vecs[:, vals < 0]
    want = filled @ filled.conj().T
    got = oracles.correlation_block(4, np.arange(4))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_correlations_match_many_body_ground_state():
    got = oracles.correlation_block(8, np.arange(8))
    want = oracles.many_body_correlations(8)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_correlations_rejects_odd_or_tiny():
    for n in (2, 4, 6, 7):
        with pytest.raises(ValueError, match=f"^sizes must be even and at least 8, got {n}$"):
            ground_state_correlations(n)


def test_correlations_are_cached():
    c1 = ground_state_correlations(8)
    c2 = ground_state_correlations(8)
    assert c1 is c2


def test_restricted_blocks_are_slices_of_the_full_block():
    n = 64
    full = oracles.correlation_block(n, np.arange(n))
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 31, 64):
        sites = rng.choice(n, size=size, replace=False)
        np.testing.assert_array_equal(
            oracles.correlation_block(n, sites), full[np.ix_(sites, sites)]
        )
        even, odd = sites[sites % 2 == 0], sites[sites % 2 == 1]
        np.testing.assert_array_equal(
            oracles.even_odd_block(n, even, odd), full.imag[np.ix_(even, odd)]
        )


def _coupling_sides(n, sites):
    """R and F as site arrays: the smaller parity side of the sites, and the
    sites of the other parity outside them."""
    parity = sites % 2
    side = int(2 * parity.sum() < sites.size)
    return sites[parity == side], np.setdiff1d(np.arange(1 - side, n, 2), sites)


def _kernel_args(n, rows, cols):
    """The kernel view and the half-chain runs of R and F, for R of parity
    p and F of parity 1 - p given as site arrays."""
    p = rows[0] % 2 if rows.size else 1 - cols[0] % 2
    return gaussian._kernel(n)[p:], split_runs(rows // 2), split_runs(cols // 2)


def _spectrum(n, rows, cols):
    """The kernel's coupling spectrum for R and F given as site arrays."""
    return gaussian._coupling_spectrum(*_kernel_args(n, rows, cols))


def _entropy_and_bound(n, sites):
    """The kernel's entropy and bound for a site set given as an array."""
    return gaussian._entropy_and_bound(n, tuple(split_runs(np.sort(sites))))


@pytest.mark.parametrize("n", [8, 10, 64])
def test_kernel_view_is_the_coupling_in_half_chain_indices(n):
    """K[2 i + p, 2 j + 1 - p] is the kernel view at [i + p, j], bitwise the
    oracle's in-place formula, for every i, j and both p; the view is
    read-only."""
    kernel = gaussian._kernel(n)
    half = np.arange(n // 2)
    for p in (0, 1):
        want = oracles.even_odd_block(n, 2 * half + p, 2 * half + 1 - p)
        np.testing.assert_array_equal(kernel[half[:, None] + p, half], want)
    assert not kernel.flags.writeable


def test_coupling_block_is_bitwise_the_in_place_formula():
    """Every streamed row panel of K[rows, cols] is, entry for entry, the rows
    of the oracle's in-place 1 / (n sin(pi d / n)) block, for either parity
    of rows, with either side empty, in panels of the rule's height, of one
    or a few rows and of all rows; the panels cover the rows in order, each
    sweep in one buffer."""
    rng = np.random.default_rng(5)
    cases = []
    for n in (8, 64, 1024):
        for size in (1, 3, n // 4, n // 2):
            sites = np.sort(rng.choice(n, size=size, replace=False))
            for parity in (0, 1):
                cols = np.setdiff1d(np.arange(1 - parity, n, 2), sites)
                cases.append((n, sites[sites % 2 == parity], cols))
    cases.append((64, np.array([], dtype=int), np.arange(1, 64, 2)))  # |R| = 0
    cases.append((64, np.array([0, 2]), np.array([], dtype=int)))  # |F| = 0
    cases.append((4096, *_coupling_sides(4096, lattice_region(4096, TWO_ARCS))))
    for n, rows, cols in cases:
        want = oracles.even_odd_block(n, rows, cols)
        heights = {1, 3, max(rows.size, 1)}
        if rows.size and cols.size:
            heights.add(gaussian._panel_height(rows.size, cols.size, min(rows.size, 42)))
        sweep = gaussian._panels(*_kernel_args(n, rows, cols))
        for height in sorted(heights):
            seen, first = 0, None
            for lo, panel in sweep(height):
                assert lo == seen and panel.shape[1] == cols.size
                assert len(panel) == min(height, rows.size - lo)
                np.testing.assert_array_equal(panel, want[lo : lo + len(panel)])
                first = panel if first is None else first
                assert not cols.size or np.shares_memory(panel, first)
                seen += len(panel)
            assert seen == rows.size


@pytest.mark.parametrize("bad", [[-1, 0], [0, 64], [3, 70]])
def test_restricted_rejects_sites_outside_the_chain(bad):
    with pytest.raises(ValueError, match="must lie in"):
        region_entropy(ground_state_correlations(64), np.array(bad))


@pytest.mark.parametrize(
    "bad, message",
    [
        ([3.2, 4.9, 5.5], "integers"),  # once truncated to the sites 3, 4, 5
        (np.array([3.0, 4.0, 5.0]), "integers"),
        (np.array([True, False, True]), "integers"),
        (np.array([[3, 4], [5, 6]]), "1-D"),  # once flattened
        (np.int64(3), "1-D"),
        ([], "at least one site"),
    ],
)
def test_region_entropy_rejects_sites_that_are_not_a_list_of_integers(bad, message):
    with pytest.raises(ValueError, match=message):
        region_entropy(ground_state_correlations(64), bad)


def test_region_entropy_takes_any_integer_dtype():
    corr = ground_state_correlations(64)
    want = region_entropy(corr, np.array([3, 4, 5, 9]))
    for dtype in (np.int8, np.int32, np.uint16, np.uint64):
        assert region_entropy(corr, np.array([9, 3, 5, 4], dtype=dtype)) == want
    assert region_entropy(corr, [9, 5, 4, 3]) == want


@pytest.mark.parametrize("repeated", [[0, 0], [0, 2, 2], [5, 5, 5], [9, 4, 9, 1]])
def test_region_entropy_rejects_repeated_sites(repeated):
    with pytest.raises(ValueError, match="distinct"):
        region_entropy(ground_state_correlations(64), np.array(repeated))


def test_region_entropy_rejects_a_mode_occupation_outside_zero_one(monkeypatch):
    """A coupling eigenvalue nu (1 - nu) above 1/4 is no occupation nu in [0, 1]."""

    def spectrum(kernel, rows, cols):
        return np.array([0.3]), 0.0

    monkeypatch.setattr(gaussian, "_coupling_spectrum", spectrum)
    message = r"mode occupation outside \[0, 1\]: nu \(1 - nu\) range \[3\.000e-01, 3\.000e-01\]"
    with pytest.raises(ValueError, match=f"^{message}$"):
        region_entropy(ground_state_correlations(64), np.arange(8))


def test_region_entropy_does_not_depend_on_site_order():
    n = 1024
    sites = lattice_region(n, THREE_ARCS)
    shuffled = np.random.default_rng(3).permutation(sites)
    corr = ground_state_correlations(n)
    assert region_entropy(corr, shuffled) == region_entropy(corr, sites)


@given(
    st.sampled_from([8, 16, 64]).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    )
)
@example((8, {1, 2, 3, 4}))  # exactly half without site 0: the complement is evaluated
@example((8, {0, 1, 2, 3}))  # exactly half with site 0: the set itself
@settings(max_examples=50, deadline=None)
def test_pure_state_complement_is_the_set_difference(case):
    """The set _pure_state_entropy evaluates is the set itself or
    np.setdiff1d(arange(n), sites): its memo key holds that set's runs, and
    region_entropy receives its sites, bytes and all."""
    n, chosen = case
    sites = np.array(sorted(chosen))
    evaluated = []

    def recording(corr, sites):
        evaluated.append(sites)
        return region_entropy(corr, sites)

    memo = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gaussian, "region_entropy", recording)
        gaussian._pure_state_entropy(ground_state_correlations(n), tuple(split_runs(sites)), memo)
    flip = 2 * sites.size > n or (2 * sites.size == n and sites.min() > 0)
    want = np.setdiff1d(np.arange(n), sites) if flip else sites
    assert list(memo) == [(n, tuple(split_runs(want)))]
    assert [s.tobytes() for s in evaluated] == [want.tobytes()]


@st.composite
def _site_sets(draw):
    """A chain size and a nonempty site set, optionally of one parity only."""
    n = draw(st.sampled_from([8, 16, 34, 64]))
    parity = draw(st.sampled_from([None, 0, 1]))
    pool = np.arange(n) if parity is None else np.arange(parity, n, 2)
    mask = draw(st.lists(st.booleans(), min_size=pool.size, max_size=pool.size))
    sites = pool[np.array(mask, dtype=bool)]
    if sites.size == 0:
        sites = pool[:1]
    return n, sites


@given(_site_sets())
@example((8, np.array([5])))
@example((16, np.arange(0, 16, 2)))
@example((16, np.arange(1, 16, 2)))
@example((32, np.arange(3, 24)))
@example((64, np.array([0, 5, 6, 17, 40, 41, 63])))
@example((64, np.arange(1, 64, 2)))  # one parity: no paired modes at all
@example((1024, np.arange(0, 600, 2)))
@example((1024, np.arange(600)))  # near-pure: 281 of 300 pairs have nu(1-nu) < 1e-14
@settings(max_examples=60, deadline=None)
def test_kernel_entropy_matches_dense_eigensolve(case):
    n, sites = case
    want = oracles.block_entropy(oracles.correlation_block(n, sites))
    assert region_entropy(ground_state_correlations(n), sites) == pytest.approx(want, abs=1e-10)


@st.composite
def _arc_unions(draw):
    """A chain size and the union of one to three site arcs, possibly wrapping."""
    n = draw(st.sampled_from([64, 256, 1024]))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, n // 3)), min_size=1, max_size=3
        )
    )
    return n, np.unique(np.concatenate([(a + np.arange(l)) % n for a, l in arcs]))


THREE_ARCS = RegionSpec([(0.2, 0.9), (1.6, 2.8), (3.5, 5.0)])
TWO_ARCS = RegionSpec([(0.30, 1.45), (2.65, 4.10)])


def test_closed_form_reference():
    """Upsilon_1 from its integral is the Jin-Korepin value, converged far
    below 1e-12, and the several-block entropy of one block is theirs."""
    assert abs(oracles.upsilon_1() - 0.4950179) < 1e-7
    assert abs(oracles.upsilon_1(0.2) - oracles.upsilon_1(0.05)) < 1e-14
    for n, first, length in ((16384, 0, 4096), (64, 60, 7)):
        assert oracles.several_block_entropy(n, [(first, length)]) == pytest.approx(
            oracles.jin_korepin_entropy(n, length), abs=1e-14
        )


def test_kernel_meets_the_closed_form_at_n_16384():
    """At N = 16384, past every dense oracle, the kernel is within 1e-7 of
    the closed form for one arc of N/4 sites (measured gap +8.1e-10) and for
    the TWO_ARCS union at site-exact endpoints (+1.2e-8)."""
    n = 16384
    corr = ground_state_correlations(n)
    arc = region_entropy(corr, np.arange(n // 4))
    assert abs(arc - oracles.jin_korepin_entropy(n, n // 4)) < 1e-7
    union = region_entropy(corr, lattice_region(n, TWO_ARCS))
    assert abs(union - oracles.several_block_entropy(n, site_ranges(n, TWO_ARCS))) < 1e-7


def _quarter_arcs(n, spans):
    """A region of arcs [a, b) given in quarter-site steps, modulo 4n."""
    quarter = 2.0 * np.pi / (4 * n)
    return RegionSpec([((a % (4 * n)) * quarter, (b % (4 * n)) * quarter) for a, b in spans])


@st.composite
def _quarter_site_unions(draw):
    """A chain size and one to four arcs with ends on quarter-site angles:
    ends on site angles, arcs that wrap through 0 or hold no site, and gaps
    of a quarter site that hold none, so that the arcs' runs touch."""
    n = draw(st.sampled_from([8, 16, 34, 64, 1024, 4096]))
    lengths = st.one_of(st.integers(3, 8), st.integers(4, n))
    gaps = st.one_of(st.integers(1, 5), st.integers(1, n))
    count = draw(st.integers(1, 4))
    spans = draw(st.lists(st.tuples(lengths, gaps), min_size=count, max_size=count))
    assume(sum(length + gap for length, gap in spans) <= 4 * n)
    arcs, start = [], draw(st.integers(0, 4 * n - 1))
    for length, gap in spans:
        arcs.append((start, start + length))
        start += length + gap
    return n, _quarter_arcs(n, arcs)


def _evaluated_side(n, sites):
    """The set a purity-aware evaluation takes: the sites or their
    complement, whichever is smaller; of two halves, the one with site 0."""
    if 2 * sites.size > n or (2 * sites.size == n and sites[0] > 0):
        return np.setdiff1d(np.arange(n), sites)
    return sites


@given(_quarter_site_unions())
@example((8, _quarter_arcs(8, [(1, 5), (6, 9)])))  # the gap holds no site: one run
@example((8, _quarter_arcs(8, [(26, 35), (10, 13)])))  # wraps through site 0
@example((34, _quarter_arcs(34, [(0, 4), (8, 12), (64, 68)])))  # three single sites
@example((1024, _quarter_arcs(1024, [(4000, 200), (900, 1700), (1701, 2500)])))
@example((4096, TWO_ARCS))
@settings(max_examples=100, deadline=None)
def test_run_arithmetic_is_the_array_route(case):
    """The kernel's sides R and F, found by run arithmetic, are the step-2
    runs that sorting, parity masks and np.diff find; and the arc path's
    relative entropy is bitwise the entropies of the mask rule's site arrays,
    each on the side that purity picks.  Inputs that raise do so on both."""
    n, spec = case
    corr = ground_state_correlations(n)
    parts = [oracles.mask_arc_sites(n, arc) for arc in spec.arcs]
    union = np.sort(np.concatenate(parts))
    empty = [arc for arc, sites in zip(spec.arcs, parts) if sites.size == 0]
    if empty or union.size == n:
        if empty:
            (a, b) = empty[0]
            message = re.escape(f"arc ({a:.4g}, {b:.4g}) holds no sites at N = {n}")
        else:
            message = rf"region .* leaves no site outside it at N = {n}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            product_state_relative_entropy(corr, spec)
        return
    for sites in (*parts, union):
        for side in (sites, np.setdiff1d(np.arange(n), sites)):
            runs = tuple(split_runs(side))
            assert gaussian._coupling_runs(n, runs) == oracles.mask_coupling_runs(n, side)
    memo = {}
    got = product_state_relative_entropy(corr, spec, memo)
    if len(parts) == 1:
        assert got == 0.0 and not memo
        return
    chosen = [_evaluated_side(n, sites) for sites in (*parts, union)]
    assert set(memo) == {(n, tuple(split_runs(sites))) for sites in chosen}
    *arcs, whole = (region_entropy(corr, sites) for sites in chosen)
    assert got == sum(arcs) - whole


@given(st.one_of(_site_sets(), _arc_unions()))
@example((64, np.arange(1, 64, 2)))  # all odd sites: R is empty, and so is F
@example((64, np.arange(0, 20, 2)))  # R is empty, F is not
@example((64, np.r_[0, 2, np.arange(1, 64, 2)]))  # F is empty, R is not
@example((64, np.array([0, 2, 4, 6, 9, 40])))  # |E| != |O|
@example((64, np.arange(0, 30)))  # one run each of R and F, wider than the first skeleton
@example((1024, np.arange(40, 80)))
@example((256, np.arange(128)))  # exactly half the chain
@example((256, np.arange(77, 205)))
@example((512, lattice_region(512, THREE_ARCS)))
@example((2048, lattice_region(2048, THREE_ARCS)))
@example((4096, lattice_region(4096, TWO_ARCS)))
@settings(max_examples=40, deadline=None)
def test_kernel_entropy_matches_gram_eigensolve(case):
    n, sites = case
    got = region_entropy(ground_state_correlations(n), sites)
    assert got == pytest.approx(oracles.gram_region_entropy(n, sites), abs=1e-10)


@pytest.mark.parametrize(
    "n, sites",
    [
        (64, np.array([0, 5, 6, 17, 40, 41, 63])),
        (1024, np.arange(300)),
        (512, lattice_region(512, THREE_ARCS)),
        (4096, lattice_region(4096, TWO_ARCS)),
    ],
)
def test_streamed_range_finder_matches_the_whole_block(n, sites, monkeypatch):
    """Against the whole block's B' B'^T, in panels of the rule's height and
    of one and a few rows: the dropped mass is the part of its spectrum that
    the kernel's leaves out, and the kernel's eigenvalues interlace below its
    top ones by at most the dropped mass, all to 64 ulps of ||B'||_F^2.
    (Z^T Z = B'^T Q Q^T B' is B'^T B' less a positive part of trace eps.)"""
    rows, cols = _coupling_sides(n, sites)
    want = oracles.whole_block_spectrum(n, rows, cols)
    scale = 64 * np.finfo(float).eps * np.sum(oracles.even_odd_block(n, rows, cols) ** 2)
    rule = gaussian._panel_height
    for height in (rule, lambda *_: 1, lambda *_: 5):
        monkeypatch.setattr(gaussian, "_panel_height", height)
        lam, dropped = _spectrum(n, rows, cols)
        assert 0 < lam.size <= want.size
        assert abs(dropped - (want.sum() - lam.sum())) <= scale
        shortfall = want[want.size - lam.size :] - lam
        assert shortfall.min() >= -scale and shortfall.max() <= dropped + scale


def _count_sweeps_and_qrs(monkeypatch):
    """Count the sweeps over B' and the QR factorisations the kernel makes."""
    counts = {"sweeps": 0, "qrs": 0}
    panels, qr = gaussian._panels, np.linalg.qr

    def counted_panels(*args):
        sweep = panels(*args)

        def counted_sweep(height):
            counts["sweeps"] += 1
            return sweep(height)

        return counted_sweep

    def counted_qr(*args):
        counts["qrs"] += 1
        return qr(*args)

    monkeypatch.setattr(gaussian, "_panels", counted_panels)
    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    return counts


def _certified(n, rows, cols, dropped):
    tol = gaussian._ROUNDING_ULPS * np.finfo(float).eps
    return dropped <= tol * np.sum(oracles.even_odd_block(n, rows, cols) ** 2)


@pytest.mark.parametrize(
    "n, spec, shape, width",
    [
        # the complement's two runs meet across site 0 and make one run of
        # the ring: offsets 0, 1, 2, 4, ..., 256 from its two ends
        (1024, RegionSpec([(0.30, 1.45)]), (94, 418), 20),
        (4096, TWO_ARCS, (847, 1200), 42),
    ],
)
def test_endpoint_skeleton_takes_one_sweep_and_one_qr(n, spec, shape, width, monkeypatch):
    """An arc and a TWO_ARCS union meet the certificate with their first
    skeleton: one QR of a range narrower than R, one sweep."""
    rows, cols = _coupling_sides(n, lattice_region(n, spec))
    assert (rows.size, cols.size) == shape
    counts = _count_sweeps_and_qrs(monkeypatch)
    lam, dropped = _spectrum(n, rows, cols)
    assert lam.size == width and _certified(n, rows, cols, dropped)
    assert counts == {"sweeps": 1, "qrs": 1}


@pytest.mark.parametrize(
    "n, sites, shape",
    [
        (256, np.arange(128), (64, 64)),  # half the chain, one run each
        (1024, lattice_region(1024, TWO_ARCS), (212, 299)),
    ],
)
def test_some_sets_need_the_half_octave_skeleton(n, sites, shape, monkeypatch):
    """These sets miss the certificate with the octave offsets and meet it
    once the half-octave ones join, with Q still narrower than R."""
    rows, cols = _coupling_sides(n, sites)
    assert (rows.size, cols.size) == shape
    counts = _count_sweeps_and_qrs(monkeypatch)
    got, bound = _entropy_and_bound(n, sites)
    assert counts == {"sweeps": 2, "qrs": 2}
    lam, dropped = _spectrum(n, rows, cols)
    assert lam.size < rows.size and _certified(n, rows, cols, dropped)
    assert got == pytest.approx(oracles.gram_region_entropy(n, sites), abs=1e-10)
    assert 0.0 <= bound <= 1e-11


def test_scattered_sites_take_one_sweep_and_match_the_gram_eigensolve(monkeypatch):
    """A fifth of the sites of N = 1024 drawn at random break F into so many
    short runs that the skeleton has every row of R: Q = 1 on R, one sweep,
    no QR, nothing dropped."""
    n = 1024
    sites = np.sort(np.random.default_rng(0).choice(n, n // 5, replace=False))
    counts = _count_sweeps_and_qrs(monkeypatch)
    got, bound = _entropy_and_bound(n, sites)
    assert counts == {"sweeps": 1, "qrs": 0} and bound == 0.0
    assert got == pytest.approx(oracles.gram_region_entropy(n, sites), abs=1e-10)


@pytest.mark.parametrize(
    "n, sites",
    [
        (512, lattice_region(512, RegionSpec([(0.30, 1.45), (2.65, 4.10)]))),
        (1024, lattice_region(1024, THREE_ARCS)),
        (2048, np.arange(300)),
    ],
)
def test_dropped_mass_drives_the_sketch_and_bounds_the_error(n, sites, monkeypatch):
    """With every other offset of each skeleton level left out, the kernel
    widens Q until the certified dropped mass reaches rounding; stopped
    early, its bound still covers the entropy it misses."""
    want = oracles.gram_region_entropy(n, sites)
    skeleton = gaussian._skeleton

    def thin_skeleton(n, cols, offsets):
        return skeleton(n, cols, offsets[::2])

    monkeypatch.setattr(gaussian, "_skeleton", thin_skeleton)
    got, bound = _entropy_and_bound(n, sites)
    assert got == pytest.approx(want, abs=1e-10)
    assert 0.0 <= bound <= 1e-11
    # a tolerance of 2^40 ulps, about 2e-4 of ||B'||_F^2, stops at the first level
    monkeypatch.setattr(gaussian, "_ROUNDING_ULPS", 2**40)
    early, early_bound = _entropy_and_bound(n, sites)
    assert want - early > 1e-8
    assert want - early <= early_bound + 1e-10


def test_two_arc_union_entropy_matches_high_precision_value():
    # A 40-digit eigensolve of the union's Gram product (213 sites) gives
    # 4.3366220962238839194; clamping nu at 1e-14 put the kernel 5.1e-11 off.
    n = 512
    sites = lattice_region(n, RegionSpec([(0.30, 1.45), (2.65, 4.10)]))
    got = region_entropy(ground_state_correlations(n), sites)
    assert got == pytest.approx(4.3366220962238839194, abs=5e-12)


@contextmanager
def _peak_below(limit):
    """The guarded block's tracemalloc peak stays below ``limit`` bytes."""
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, f"peak allocation {peak} B, limit {limit} B"


def test_region_entropy_allocates_only_the_region_block():
    ground_state_correlations.cache_clear()
    with _peak_below(4 * 2**20):
        region_entropy(ground_state_correlations(2048), np.arange(64))


def test_union_entropy_never_holds_the_coupling_block():
    """One TWO_ARCS union at N = 8192 (|R| = 1694, |F| = 2401) allocates less
    than a quarter of its dense coupling block, 8 |R| |F| = 32.5 MB."""
    n = 8192
    sites = lattice_region(n, TWO_ARCS)
    rows, cols = _coupling_sides(n, sites)
    corr = ground_state_correlations(n)
    with _peak_below(8 * rows.size * cols.size // 4):
        region_entropy(corr, sites)


def test_union_entropy_works_in_range_sized_memory():
    """One TWO_ARCS union at N = 4096 (|R| = 847, |F| = 1200, a range of
    k = 42 columns) allocates less than four range-sized arrays of
    (|R| + |F|) k floats: no panel of fixed size."""
    n = 4096
    sites = lattice_region(n, TWO_ARCS)
    rows, cols = _coupling_sides(n, sites)
    width = _spectrum(n, rows, cols)[0].size
    corr = ground_state_correlations(n)
    with _peak_below(4 * 8 * (rows.size + cols.size) * width + 1):
        region_entropy(corr, sites)


@pytest.mark.parametrize("n", [8192, 32768])
def test_thin_complement_sweeps_in_one_panel(n, monkeypatch):
    """All sites but 5, 10 and 20: F is site 5 alone and Q one column, so
    a panel of Q's size would be one row; the sweep is one panel of all of
    R instead, and the entropy is that of the three sites (purity)."""
    panel_counts, panels = [], gaussian._panels

    def counted_panels(*args):
        sweep = panels(*args)

        def counted_sweep(height):
            panel_counts.append(0)
            for lo, panel in sweep(height):
                panel_counts[-1] += 1
                yield lo, panel

        return counted_sweep

    monkeypatch.setattr(gaussian, "_panels", counted_panels)
    got = region_entropy(ground_state_correlations(n), np.setdiff1d(np.arange(n), [5, 10, 20]))
    assert panel_counts == [1]
    want = oracles.block_entropy(oracles.correlation_block(n, [5, 10, 20]))
    assert got == pytest.approx(want, abs=1e-12)


def test_block_entropy_against_many_body():
    corr = ground_state_correlations(8)
    _, psi = oracles.many_body_ground_state(8)
    for block in (1, 2, 3, 4):
        want = oracles.spin_block_entropy(psi, 8, block)
        got = region_entropy(corr, np.arange(block))
        assert got == pytest.approx(want, abs=1e-10)


def test_entropy_of_complement_matches_purity():
    corr = ground_state_correlations(64)
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    s_in = region_entropy(corr, lattice_region(64, spec))
    s_out = region_entropy(corr, lattice_region(64, spec.complement()))
    assert s_in == pytest.approx(s_out, abs=1e-10)


def test_entropy_invariant_under_lattice_rotation():
    n = 64
    corr = ground_state_correlations(n)
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    step = 2.0 * np.pi * 5 / n  # five whole sites
    s0 = region_entropy(corr, lattice_region(n, spec))
    s5 = region_entropy(corr, lattice_region(n, rotated_region(spec, step)))
    assert s0 == pytest.approx(s5, abs=1e-10)


def test_product_state_relative_entropy_nonnegative_and_symmetric_roles():
    corr = ground_state_correlations(32)
    region = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    # the complement's union covers more than half the chain
    for spec in (region, region.complement()):
        value = product_state_relative_entropy(corr, spec)
        assert value >= 0.0
        # equals the entropy combination sum_i S(I_i) - S(union)
        parts = [region_entropy(corr, arc_sites(32, arc)) for arc in spec.arcs]
        union = region_entropy(corr, lattice_region(32, spec))
        assert value == pytest.approx(sum(parts) - union, abs=1e-10)


def test_product_state_relative_entropy_evaluates_the_smaller_side(monkeypatch):
    sizes = []

    def recording(corr, sites):
        sizes.append(len(sites))
        return region_entropy(corr, sites)

    monkeypatch.setattr(gaussian, "region_entropy", recording)
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)]).complement()
    assert lattice_region(64, spec).size > 32
    product_state_relative_entropy(ground_state_correlations(64), spec)
    assert len(sizes) == 3 and max(sizes) <= 32


def test_product_relative_entropy_single_arc_is_zero():
    corr = ground_state_correlations(16)
    assert product_state_relative_entropy(corr, RegionSpec([(0.5, 2.0)])) == 0.0


def test_product_relative_entropy_rejects_empty_arc():
    corr = ground_state_correlations(16)
    spec = RegionSpec([(0.01, 0.02), (2.0, 3.0)])
    with pytest.raises(ValueError):
        product_state_relative_entropy(corr, spec)


def test_region_entropy_extensive_bound():
    corr = ground_state_correlations(32)
    sites = np.arange(10)
    s = region_entropy(corr, sites)
    assert 0.0 <= s <= 10 * np.log(2.0)
