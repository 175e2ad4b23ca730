"""Correlation matrices and Gaussian entropies, checked against a full
many-body construction at small size."""

import tracemalloc

import numpy as np
import pytest

from entropylab.lattice import (
    LatticeCircle,
    RegionSpec,
    ground_state_correlations,
    hopping_matrix,
    lattice_region,
    product_state_relative_entropy,
    region_entropy,
    rotated_region,
)

import oracles


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
    c = ground_state_correlations(n).restricted(np.arange(n))
    np.testing.assert_allclose(c @ c, c, atol=1e-12)
    assert np.trace(c).real == pytest.approx(n / 2, abs=1e-12)
    np.testing.assert_allclose(np.diag(c), 0.5, atol=1e-12)


def test_correlations_match_direct_diagonalization_n4():
    # fill the two negative modes of the 4x4 single-particle problem
    h = hopping_matrix(4)
    vals, vecs = np.linalg.eigh(h)
    filled = vecs[:, vals < 0]
    want = filled @ filled.conj().T
    got = ground_state_correlations(4).restricted(np.arange(4))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_correlations_match_many_body_ground_state():
    got = ground_state_correlations(8).restricted(np.arange(8))
    want = oracles.many_body_correlations(8)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_correlations_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        ground_state_correlations(7)
    with pytest.raises(ValueError):
        ground_state_correlations(2)


def test_correlations_are_cached():
    c1 = ground_state_correlations(8)
    c2 = ground_state_correlations(8)
    assert c1 is c2


def test_restricted_blocks_are_slices_of_the_full_block():
    n = 64
    corr = ground_state_correlations(n)
    full = corr.restricted(np.arange(n))
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 31, 64):
        sites = rng.choice(n, size=size, replace=False)
        np.testing.assert_array_equal(corr.restricted(sites), full[np.ix_(sites, sites)])


@pytest.mark.parametrize("bad", [[-1, 0], [0, 64], [3, 70]])
def test_restricted_rejects_sites_outside_the_chain(bad):
    with pytest.raises(ValueError):
        ground_state_correlations(64).restricted(np.array(bad))


def test_region_entropy_allocates_only_the_region_block():
    ground_state_correlations.cache_clear()
    tracemalloc.start()
    try:
        region_entropy(ground_state_correlations(2048), np.arange(64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_block_entropy_against_many_body():
    corr = ground_state_correlations(8)
    _, psi = oracles.many_body_ground_state(8)
    for block in (1, 2, 3, 4):
        want = oracles.spin_block_entropy(psi, 8, block)
        got = region_entropy(corr, np.arange(block))
        assert got == pytest.approx(want, abs=1e-10)


def test_entropy_of_complement_matches_purity():
    corr = ground_state_correlations(64)
    circle = LatticeCircle(64)
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    s_in = region_entropy(corr, lattice_region(circle, spec))
    s_out = region_entropy(corr, lattice_region(circle, spec.complement()))
    assert s_in == pytest.approx(s_out, abs=1e-10)


def test_entropy_invariant_under_lattice_rotation():
    n = 64
    corr = ground_state_correlations(n)
    circle = LatticeCircle(n)
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    step = 2.0 * np.pi * 5 / n  # five whole sites
    s0 = region_entropy(corr, lattice_region(circle, spec))
    s5 = region_entropy(corr, lattice_region(circle, rotated_region(spec, step)))
    assert s0 == pytest.approx(s5, abs=1e-10)


def test_product_state_relative_entropy_nonnegative_and_symmetric_roles():
    corr = ground_state_correlations(32)
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    value = product_state_relative_entropy(corr, spec)
    assert value >= 0.0
    # equals the entropy combination sum_i S(I_i) - S(union)
    circle = LatticeCircle(32)
    parts = [region_entropy(corr, arc) for arc in _arc_site_lists(circle, spec)]
    union = region_entropy(corr, lattice_region(circle, spec))
    assert value == pytest.approx(sum(parts) - union, abs=1e-10)


def _arc_site_lists(circle, spec):
    from entropylab.lattice import arc_sites

    return [arc_sites(circle, arc) for arc in spec.arcs]


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
