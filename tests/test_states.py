import numpy as np
import pytest

from entropylab.findim import (
    VectorStateData,
    WeightDensity,
    build_algebra,
    canonical_density,
    random_faithful_state,
    trace_state,
)
from entropylab.findim.identities import random_unitary


def test_trace_state_mass_and_blocks():
    alg = build_algebra([(2, 3), (1, 2)])
    tr = trace_state(alg)
    assert abs(tr.mass - 1.0) < 1e-12
    assert tr.is_normalized
    assert tr.is_faithful


def test_canonical_density_reproduces_functional():
    rng = np.random.default_rng(1)
    alg = build_algebra([(2, 2), (1, 3)]).conjugated(random_unitary(7, rng))
    raw = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    dens = raw @ raw.conj().T
    w = canonical_density(alg, dens)
    # the canonical density represents the same functional on the algebra
    for b in alg.basis[:5]:
        want = np.trace(dens @ b)
        got = w.value(b)
        assert abs(want - got) < 1e-10


def test_intrinsic_blocks_traces_sum_to_mass():
    rng = np.random.default_rng(2)
    alg = build_algebra([(3, 2), (2, 1)]).conjugated(random_unitary(8, rng))
    w = random_faithful_state(alg, rng)
    total = sum(float(np.trace(b).real) for b in w.intrinsic_blocks())
    assert abs(total - w.mass) < 1e-12


def test_from_intrinsic_blocks_roundtrip():
    rng = np.random.default_rng(3)
    alg = build_algebra([(2, 2), (3, 1)]).conjugated(random_unitary(7, rng))
    w = random_faithful_state(alg, rng)
    rebuilt = WeightDensity.from_intrinsic_blocks(alg, w.intrinsic_blocks())
    assert np.abs(rebuilt.matrix - w.matrix).max() < 1e-11


def test_mixed_with_is_convex_combination():
    rng = np.random.default_rng(4)
    alg = build_algebra([(2, 2)])
    a = random_faithful_state(alg, rng)
    b = random_faithful_state(alg, rng)
    mix = a.mixed_with(b, 0.25)
    assert np.abs(mix.matrix - (0.25 * a.matrix + 0.75 * b.matrix)).max() < 1e-12


def test_scaled_and_normalized():
    alg = build_algebra([(2, 1)])
    w = trace_state(alg).scaled(3.0)
    assert abs(w.mass - 3.0) < 1e-12
    assert abs(w.normalized().mass - 1.0) < 1e-12


def test_vector_state_matches_expectation_values():
    """omega(x) = <x v, v> must equal the trace against the state density."""
    rng = np.random.default_rng(5)
    alg = build_algebra([(2, 2)]).conjugated(random_unitary(4, rng))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    om = VectorStateData(alg, v)
    for b in alg.basis:
        want = v.conj() @ b @ v
        got = om.state().value(b)
        assert abs(want - got) < 1e-10


def test_commutant_state_lives_on_commutant():
    rng = np.random.default_rng(6)
    alg = build_algebra([(2, 2)]).conjugated(random_unitary(4, rng))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    om = VectorStateData(alg, v)
    dual_state = om.commutant_state()
    assert dual_state.algebra is alg.commutant()
    for b in alg.commutant().basis:
        assert abs((v.conj() @ b @ v) - dual_state.value(b)) < 1e-10


def test_square_factor_vector_cyclic_separating():
    rng = np.random.default_rng(7)
    alg = build_algebra([(3, 3)])
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    om = VectorStateData(alg, v / np.linalg.norm(v))
    assert om.cyclic and om.separating


def test_rank_deficient_vector_not_separating():
    alg = build_algebra([(2, 2)])
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0  # product vector: reduced density has rank 1
    om = VectorStateData(alg, v)
    assert not om.separating
    assert not om.cyclic


def test_weight_rejects_non_hermitian():
    alg = build_algebra([(2, 1)])
    with pytest.raises(ValueError):
        WeightDensity(alg, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_weight_rejects_negative():
    alg = build_algebra([(2, 1)])
    with pytest.raises(ValueError):
        WeightDensity(alg, np.diag([1.0, -0.5]).astype(complex))
