"""Exact many-body entropies versus the Gaussian shortcut."""

import numpy as np
import pytest

from entropylab.lattice import (
    RegionSpec,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
)

import oracles
from oracles import exact_diagonalization_entropies, lattice_region


def _random_two_arc_spec(rng):
    a1 = rng.uniform(0.0, 2.0)
    b1 = a1 + rng.uniform(0.4, 1.2)
    a2 = b1 + rng.uniform(0.3, 0.8)
    b2 = a2 + rng.uniform(0.4, 1.2)
    return RegionSpec([(a1, b1), (a2, b2)])


def test_exact_region_entropy_matches_gaussian_n8():
    rng = np.random.default_rng(0)
    corr = ground_state_correlations(8)
    checked = 0
    for _ in range(8):
        spec = _random_two_arc_spec(rng)
        try:
            sites = lattice_region(8, spec)
            exact = exact_diagonalization_entropies(8, spec)
        except ValueError:
            continue
        gauss = region_entropy(corr, sites)
        assert exact.region_entropy == pytest.approx(gauss, abs=1e-10)
        checked += 1
    assert checked >= 4


def test_exact_product_relative_entropy_matches_gaussian_n8():
    rng = np.random.default_rng(1)
    corr = ground_state_correlations(8)
    checked = 0
    for _ in range(12):
        spec = _random_two_arc_spec(rng)
        try:
            exact = exact_diagonalization_entropies(8, spec)
        except ValueError:
            continue
        gauss = product_state_relative_entropy(corr, spec)
        assert exact.product_relative_entropy == pytest.approx(gauss, abs=1e-10)
        checked += 1
    assert checked >= 5


def test_exact_matches_spin_chain_contiguous_block():
    # a third, fully independent route through the spin chain
    _, psi = oracles.many_body_ground_state(8)
    spec = RegionSpec([(0.0, np.pi)])  # sites 0..3
    exact = exact_diagonalization_entropies(8, spec)
    want = oracles.spin_block_entropy(psi, 8, 4)
    assert exact.region_entropy == pytest.approx(want, abs=1e-10)


def test_exact_single_arc_product_term_zero():
    spec = RegionSpec([(0.0, np.pi)])
    exact = exact_diagonalization_entropies(8, spec)
    assert exact.product_relative_entropy == 0.0
    assert len(exact.arc_entropies) == 1


def test_exact_rejects_large_sizes():
    with pytest.raises(ValueError):
        exact_diagonalization_entropies(14, RegionSpec([(0.0, 1.0)]))


def test_exact_arc_entropies_consistent():
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    exact = exact_diagonalization_entropies(10, spec)
    combo = sum(exact.arc_entropies) - exact.region_entropy
    assert exact.product_relative_entropy == pytest.approx(combo, abs=1e-12)
