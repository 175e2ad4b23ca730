"""Dual weights, the index of a conditional expectation, and the
Pimsner-Popa inequality."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entropylab.findim import (
    ConditionalExpectationMap,
    WeightDensity,
    build_algebra,
    compose_expectations,
    dual_weight,
    kosaki_index,
    random_faithful_state,
)
from entropylab.findim.identities import random_unitary
from entropylab.harness.findim_runs import index_targets
from oracles import (
    algebra_basis,
    algebra_dim,
    apply_expectation,
    conjugated_expectation,
    cyclic_group_unitaries,
    dual_weight_index,
    group_average_expectation,
    identity_expectation,
    leg_average,
    pimsner_popa_check,
    quasi_basis,
    random_inclusion,
    solved_dual_weight,
    span_equals,
    spatial_derivative,
    symmetric_group_unitaries,
    trace_state,
    weyl_unitaries,
)


def _partial_trace_expectation():
    ambient = build_algebra([(4, 1)])
    units = [np.kron(np.eye(2, dtype=complex), w) for w in weyl_unitaries(2)]
    return group_average_expectation(ambient, units)


def test_identity_expectation_has_index_one():
    alg = build_algebra([(3, 1)])
    assert abs(kosaki_index(identity_expectation(alg)) - 1.0) < 1e-12


def test_partial_trace_index_is_leg_dimension_squared():
    e = _partial_trace_expectation()
    assert abs(kosaki_index(e) - 4.0) < 1e-9


def test_group_fixed_point_indices_equal_group_order():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    cases = [
        (build_algebra([(4, 1)]), [np.eye(4, dtype=complex), np.kron(sx, sx)], 2.0),
        (build_algebra([(3, 1)]), cyclic_group_unitaries(3), 3.0),
        (build_algebra([(6, 1)]), symmetric_group_unitaries(3), 6.0),
    ]
    for ambient, units, order in cases:
        e = group_average_expectation(ambient, units)
        assert abs(kosaki_index(e) - order) < 1e-9


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_INDEX_GROUPS = {
    "cyclic-2": [np.eye(4, dtype=complex), np.kron(_SX, _SX)],
    "cyclic-3": cyclic_group_unitaries(3),
    "symmetric-3": symmetric_group_unitaries(3),
}


@pytest.mark.parametrize(
    "label, order, target", [pytest.param(*t, id=t[0]) for t in index_targets()]
)
def test_index_targets_are_the_fixed_points(label, order, target):
    """Each target built from irreducible representations commutes with its
    group, has the dimension (1/|G|) sum_g |tr u_g|^2 of the fixed points,
    and spans what the oracle's group average discovers."""
    units = _INDEX_GROUPS[label]
    assert len(units) == order
    for u in units:
        for f in algebra_basis(target):
            assert np.abs(u @ f - f @ u).max() <= 1e-12
    average_trace = sum(abs(np.trace(u)) ** 2 for u in units) / len(units)
    assert abs(algebra_dim(target) - average_trace) <= 1e-9
    source = build_algebra([(target.ambient_dim, 1)])
    assert span_equals(target, group_average_expectation(source, units).target)


@st.composite
def inclusions(draw):
    """An inclusion matrix of one to three source and target blocks, with
    target sizes and source multiplicities, on at most C^20."""
    sources = draw(st.integers(min_value=1, max_value=3))
    targets = draw(st.integers(min_value=1, max_value=3))
    sizes = draw(st.lists(st.integers(1, 2), min_size=targets, max_size=targets))
    mults = draw(st.lists(st.integers(1, 2), min_size=sources, max_size=sources))
    rows = st.lists(st.integers(0, 2), min_size=targets, max_size=targets)
    inclusion = draw(st.lists(rows.filter(any), min_size=sources, max_size=sources))
    assume(all(any(row[k] for row in inclusion) for k in range(targets)))
    dim = sum(b * sum(c * n for c, n in zip(row, sizes)) for row, b in zip(inclusion, mults))
    assume(dim <= 20)
    return inclusion, sizes, mults


@given(inclusions(), st.integers(min_value=0, max_value=2**31 - 1))
@example(([[1, 2], [0, 1]], [1, 2], [1, 2]), 0)
@example(([[1, 0], [1, 1], [0, 2]], [2, 1], [2, 1, 1]), 0)
@example(([[2]], [1], [3]), 0)
@settings(max_examples=30, deadline=None)
def test_property_closed_form_index_matches_dual_weight_oracle(shapes, seed):
    """The closed-form index equals the dual map at the identity, by finite
    differences of dual_weight, to 1e-12 relative: on multi-block sources
    and targets with a random density in N' cap M, and Haar-rotated."""
    rng = np.random.default_rng(seed)
    e = random_inclusion(*shapes, rng)
    for m in (e, conjugated_expectation(e, random_unitary(e.ambient_dim, rng))):
        got = kosaki_index(m)
        assert isinstance(got, float) == (len(m.source.blocks) == 1)
        want = np.asarray(dual_weight_index(m))
        assert np.linalg.norm(np.asarray(got) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "evaluate",
    [kosaki_index, lambda e: dual_weight(e, trace_state(e.source.commutant()))],
    ids=["kosaki_index", "dual_weight"],
)
def test_singular_density_has_no_finite_index(evaluate):
    """Both closed forms refuse a singular density, from their shared W."""
    h = np.kron(np.eye(2), np.diag([2.0, 0.0]))
    e = ConditionalExpectationMap(build_algebra([(4, 1)]), build_algebra([(2, 2)]), h)
    with pytest.raises(ValueError, match="singular"):
        evaluate(e)


def _assert_exchange(e, phi_c, rng):
    """Delta(psi E / phi') = Delta(psi / chi) to 1e-9 for chi the dual weight
    of phi' and three random faithful psi: the one chi serves every psi."""
    chi = dual_weight(e, phi_c)
    for _ in range(3):
        psi = random_faithful_state(e.target, rng)
        lhs = spatial_derivative(e.pull_back(psi), phi_c)
        np.testing.assert_allclose(lhs, spatial_derivative(psi, chi), atol=1e-9)


def test_dual_weight_solves_derivative_exchange():
    """The dual weight of the partial trace satisfies the exchange identity."""
    rng = np.random.default_rng(0)
    e = _partial_trace_expectation()
    _assert_exchange(e, random_faithful_state(e.source.commutant(), rng), rng)


def test_dual_weight_needs_a_faithful_weight():
    alg = build_algebra([(2, 2)])
    rank_one = WeightDensity(alg.commutant(), [np.diag([1.0, 0.0])])
    with pytest.raises(ValueError, match="^dual weight needs a faithful weight on the commutant$"):
        dual_weight(ConditionalExpectationMap(alg, alg), rank_one)


@given(inclusions(), st.integers(min_value=0, max_value=2**31 - 1))
@example(([[1, 2], [0, 1]], [1, 2], [1, 2]), 0)
@example(([[1, 0], [1, 1], [0, 2]], [2, 1], [2, 1, 1]), 0)
@settings(max_examples=30, deadline=None)
def test_property_dual_weight_solves_derivative_exchange(shapes, seed):
    """The exchange identity on multi-block inclusions with a random density,
    plain and Haar-rotated."""
    rng = np.random.default_rng(seed)
    e = random_inclusion(*shapes, rng)
    for m in (e, conjugated_expectation(e, random_unitary(e.ambient_dim, rng))):
        _assert_exchange(m, random_faithful_state(m.source.commutant(), rng), rng)


@given(inclusions(), st.integers(min_value=0, max_value=2**31 - 1))
@example(([[1, 2], [0, 1]], [1, 2], [1, 2]), 0)
@example(([[2]], [1], [3]), 0)
@settings(max_examples=30, deadline=None)
def test_property_dual_weight_matches_oracle_solve(shapes, seed):
    """The closed-form dual weight equals the block-by-block solve of its
    defining equation to 1e-12 relative, on multi-block inclusions with a
    random density and a random weight on M', plain and Haar-rotated."""
    rng = np.random.default_rng(seed)
    e = random_inclusion(*shapes, rng)
    for m in (e, conjugated_expectation(e, random_unitary(e.ambient_dim, rng))):
        phi_c = random_faithful_state(m.source.commutant(), rng)
        got = dual_weight(m, phi_c).matrix
        want = solved_dual_weight(m, phi_c).matrix
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_index_multiplicative_along_tensor_chain():
    rng = np.random.default_rng(1)
    n1 = build_algebra([(8, 2)])
    f1 = leg_average(n1, 4, 2, 2)
    f2 = leg_average(f1.target, 2, 2, 4)
    composed = compose_expectations(f1, f2)
    i1, i2, ic = kosaki_index(f1), kosaki_index(f2), kosaki_index(composed)
    assert abs(ic - i1 * i2) / (i1 * i2) < 1e-10
    # conjugating the whole chain must not move the index
    u = random_unitary(16, rng)
    assert abs(kosaki_index(conjugated_expectation(composed, u)) - ic) < 1e-8


def test_quasi_basis_reconstructs_index():
    rng = np.random.default_rng(2)
    e = _partial_trace_expectation()
    qb = quasi_basis(e, rng)
    assert qb.reconstruction_residual < 1e-10
    assert abs(qb.index_value - kosaki_index(e)) < 1e-8


def test_quasi_basis_reconstruction_identity():
    """sum_i u_i E(u_i* x) = x for every x in the source."""
    rng = np.random.default_rng(3)
    e = _partial_trace_expectation()
    qb = quasi_basis(e, rng)
    x = sum(rng.normal() * b for b in algebra_basis(e.source))
    rebuilt = sum(u @ apply_expectation(e, u.conj().T @ x) for u in qb.elements)
    np.testing.assert_allclose(rebuilt, x, atol=1e-9)


def test_pimsner_popa_inequality_holds_at_inverse_index():
    rng = np.random.default_rng(4)
    e = _partial_trace_expectation()
    report = pimsner_popa_check(e, samples=100, rng=rng)
    assert report.passed
    assert abs(report.bound - 0.25) < 1e-9


def test_pimsner_popa_fails_for_too_strong_bound():
    rng = np.random.default_rng(5)
    e = _partial_trace_expectation()
    report = pimsner_popa_check(e, samples=50, rng=rng, bound=1.0)
    assert not report.passed
    assert report.worst_eigenvalue < -1e-3


def test_pimsner_popa_requires_factors():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    e = group_average_expectation(
        build_algebra([(4, 1)]), [np.eye(4, dtype=complex), np.kron(sx, sx)]
    )
    # the fixed-point algebra of the flip action has two blocks
    with pytest.raises(ValueError):
        pimsner_popa_check(e, samples=5)


def test_index_on_multi_block_target_is_central_element():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    e = group_average_expectation(
        build_algebra([(4, 1)]), [np.eye(4, dtype=complex), np.kron(sx, sx)]
    )
    value = kosaki_index(e)
    if isinstance(value, float):
        assert abs(value - 2.0) < 1e-9
    else:
        # ambient matrix equal to 2 * identity when the index is scalar
        np.testing.assert_allclose(value, 2.0 * np.eye(4), atol=1e-9)
