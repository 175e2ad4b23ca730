"""Exact many-body entropies versus the Gaussian shortcut."""

import functools
import math

import numpy as np
import pytest

from entropylab.findim import (
    VectorStateData,
    WeightDensity,
    build_algebra,
    relative_entropy_spatial,
    relative_entropy_umegaki,
)
from entropylab.lattice import (
    RegionSpec,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
)

import oracles
from oracles import (
    _state_region_first,
    arc_sites,
    exact_diagonalization_entropies,
    ground_orbitals,
    lattice_region,
)


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


def _entropy(rho):
    return oracles._spectrum_entropy(np.linalg.eigvalsh(rho))


def _marginals(rho, dims):
    """The reduced density matrix of each tensor factor of ``rho``."""
    out = []
    for k, d in enumerate(dims):
        before, after = math.prod(dims[:k]), math.prod(dims[k + 1 :])
        out.append(np.einsum("iajibj->ab", rho.reshape(before, d, after, before, d, after)))
    return out


@pytest.mark.parametrize(
    "spec",
    [
        RegionSpec([(0.30, 1.45), (2.65, 4.10)]),
        RegionSpec([(0.2, 0.9), (1.7, 2.9), (3.6, 5.2)]),
    ],
    ids=["two-arcs", "three-arcs"],
)
@pytest.mark.parametrize("n", [8, 10, 12])
def test_findim_on_the_ground_state_agrees_with_the_lattice(spec, n):
    """findim's relative entropies of the many-body ground state against the
    product of its arcs' states are the lattice's mutual information.

    With the region's modes first, the region's fermion algebra is
    M_{2^r} (x) 1 on C^(2^N), and the arcs' modes are consecutive in it.
    The ground state is parity-even, so the arcs' product state is the
    Kronecker product of their partial traces.
    """
    union = lattice_region(n, spec)
    arcs = [arc_sites(n, arc) for arc in spec.arcs]
    assert np.array_equal(np.concatenate(arcs), union)  # arcs in mode order
    algebra = build_algebra([(2**union.size, 2 ** (n - union.size))])
    omega = VectorStateData(algebra, _state_region_first(ground_orbitals(n), union))
    rho = omega.state().intrinsic_blocks()[0]
    parts = _marginals(rho, [2**arc.size for arc in arcs])
    product = WeightDensity(algebra, [functools.reduce(np.kron, parts)])

    corr = ground_state_correlations(n)
    want = product_state_relative_entropy(corr, spec)
    assert want > 0.0
    assert abs(relative_entropy_spatial(omega, product) - want) < 1e-12
    assert abs(relative_entropy_umegaki(omega.state(), product) - want) < 1e-12
    assert abs(_entropy(rho) - region_entropy(corr, union)) < 1e-12
    for part, sites in zip(parts, arcs):
        assert abs(_entropy(part) - region_entropy(corr, sites)) < 1e-12
