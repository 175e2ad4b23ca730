import numpy as np
import pytest

from entropylab.findim import (
    ConditionalExpectationMap,
    build_algebra,
    compose_expectations,
    random_faithful_state,
)
from entropylab.findim.identities import random_unitary
from oracles import (
    AXIOM_TOL,
    algebra_basis,
    algebra_contains,
    apply_expectation,
    conjugated_expectation,
    cyclic_group_unitaries,
    expectation_superop,
    group_average_expectation,
    group_average_superop,
    identity_expectation,
    is_identity,
    leg_average,
    leg_unitaries,
    random_inclusion,
    superop_axioms,
    symmetric_group_unitaries,
    trace_state,
    validate,
    weight_value,
    weyl_unitaries,
)


def _qubit_leg_average(rng=None):
    """Average over Weyl unitaries on the second leg of M_2 x M_2."""
    ambient = build_algebra([(4, 1)])
    units = [np.kron(np.eye(2, dtype=complex), w) for w in weyl_unitaries(2)]
    return group_average_expectation(ambient, units)


def test_identity_expectation_is_identity():
    alg = build_algebra([(2, 2)])
    e = identity_expectation(alg)
    assert is_identity(e)
    x = algebra_basis(alg)[1]
    np.testing.assert_allclose(apply_expectation(e, x), x, atol=1e-12)


def test_weyl_unitaries_are_unitary_and_traceless():
    ws = weyl_unitaries(3)
    assert len(ws) == 9
    for w in ws[1:]:
        np.testing.assert_allclose(w @ w.conj().T, np.eye(3), atol=1e-12)
        assert abs(np.trace(w)) < 1e-12


def test_leg_average_lands_on_first_leg():
    e = _qubit_leg_average()
    assert e.target.blocks == [(2, 2)]
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    y = apply_expectation(e, x)
    assert algebra_contains(e.target, y, tol=1e-9)
    # the expectation restricted to the target is the identity
    np.testing.assert_allclose(apply_expectation(e, y), y, atol=1e-10)


def test_axioms_on_random_samples():
    e = _qubit_leg_average()
    rng = np.random.default_rng(1)
    residuals = validate(e, rng=rng, state=trace_state(e.source), samples=25)
    for name, value in residuals.items():
        assert value < 1e-10, f"axiom {name} residual {value:.3e}"


def test_group_average_cyclic_fixed_points():
    alg = build_algebra([(3, 1)])
    e = group_average_expectation(alg, cyclic_group_unitaries(3))
    # circulants: three one-dimensional central summands
    assert sorted(e.target.blocks) == [(1, 1), (1, 1), (1, 1)]


def test_group_average_symmetric_group_fixed_points():
    alg = build_algebra([(6, 1)])
    e = group_average_expectation(alg, symmetric_group_unitaries(3))
    # group algebra of S3: two scalars plus one M_2 summand
    assert sorted(n for n, _ in e.target.blocks) == [1, 1, 2]


_FLIP = np.kron(np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]])).astype(complex)


@pytest.mark.parametrize(
    "blocks, units",
    [
        ([(4, 1)], [np.eye(4, dtype=complex), _FLIP]),
        ([(3, 1)], cyclic_group_unitaries(3)),
        ([(6, 1)], symmetric_group_unitaries(3)),
        ([(4, 1)], leg_unitaries(1, 2, 2)),
    ],
    ids=["cyclic-2", "cyclic-3", "symmetric-3", "qubit-leg"],
)
def test_group_average_matches_explicit_average(blocks, units):
    alg = build_algebra(blocks)
    e = group_average_expectation(alg, units)
    np.testing.assert_allclose(
        expectation_superop(e), group_average_superop(alg, units), rtol=0, atol=1e-12
    )


def test_group_average_rejects_a_set_that_averages_to_no_projector():
    # {1, u} with u of order 6 is no group: its average has eigenvalues
    # (1 + e^{+-i pi/3}) / 2 besides 1.  A loose closure tolerance lets it
    # through, and the eigenvalue check rejects it.
    u = np.diag([1.0, np.exp(1j * np.pi / 3)])
    units = [np.eye(2, dtype=complex), u]
    alg = build_algebra([(2, 1)])
    with pytest.raises(ValueError, match="closed under products"):
        group_average_expectation(alg, units)
    with pytest.raises(ValueError, match="not a projector"):
        group_average_expectation(alg, units, closure_tol=1.0)


def test_expectation_is_idempotent_superoperator():
    s = expectation_superop(_qubit_leg_average())
    np.testing.assert_allclose(s @ s, s, atol=1e-10)


def test_pull_back_matches_composition():
    rng = np.random.default_rng(2)
    e = _qubit_leg_average()
    omega = random_faithful_state(e.source, rng)
    pulled = e.pull_back(omega.matrix)
    for b in algebra_basis(e.source)[:6]:
        assert abs(weight_value(pulled, b) - weight_value(omega, apply_expectation(e, b))) < 1e-10


def test_compose_expectations_chains_targets():
    rng = np.random.default_rng(3)
    big = build_algebra([(8, 2)])
    mid_e = _tensor_leg_expectation(big, 4, 2, 2)
    small_e = _tensor_leg_expectation(mid_e.target, 2, 2, 4)
    both = compose_expectations(mid_e, small_e)
    assert both.source is mid_e.source
    assert both.target is small_e.target
    x = _random_in(big, rng)
    np.testing.assert_allclose(
        apply_expectation(both, x),
        apply_expectation(small_e, apply_expectation(mid_e, x)),
        atol=1e-10,
    )


def _tensor_leg_expectation(algebra, left, mid, right):
    return leg_average(algebra, left, mid, right)


def _random_in(algebra, rng):
    return sum(rng.normal() * b for b in algebra_basis(algebra))


def test_conjugated_expectation_commutes_with_rotation():
    rng = np.random.default_rng(4)
    e = _qubit_leg_average()
    u = random_unitary(4, rng)
    rotated = conjugated_expectation(e, u)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    np.testing.assert_allclose(
        apply_expectation(rotated, x),
        u @ apply_expectation(e, u.conj().T @ x @ u) @ u.conj().T,
        atol=1e-10,
    )
    validate(rotated, rng=rng, state=trace_state(rotated.source), samples=10)


def test_pull_back_is_the_transpose_of_the_superoperator():
    """omega(E(x)) read through pull_back equals vec(G^T)^T S vec(x), on a
    multi-block inclusion and its rotation by a unitary."""
    rng = np.random.default_rng(8)
    e = random_inclusion([[1, 2], [0, 1]], [1, 2], [1, 2])
    d = e.source.ambient_dim
    for m in (e, conjugated_expectation(e, random_unitary(d, rng))):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        g = np.outer(v, v.conj()) / np.vdot(v, v).real
        pulled = m.pull_back(g)
        s = expectation_superop(m)
        for b in algebra_basis(m.source):
            direct = g.T.reshape(-1, order="F") @ s @ b.reshape(-1, order="F")
            assert abs(weight_value(pulled, b) - direct) < 1e-12


def test_compose_rejects_mismatched_chain():
    e1 = _qubit_leg_average()
    alg = build_algebra([(3, 1)])
    e2 = identity_expectation(alg)
    with pytest.raises(ValueError):
        compose_expectations(e1, e2)


def _first_failing(residuals):
    return next((k for k, v in residuals.items() if v > 100 * AXIOM_TOL), None)


def test_validate_agrees_with_the_superoperator_axioms():
    """validate() and the D^2 x D^2 idempotency and Choi-positivity axioms
    both pass a group average, a multi-block inclusion and their rotations.
    P_N onto N = M_4 is the identity, which meets the axioms, but N does not
    lie in M = M_2 (x) 1_2, so validate() refuses that map on the inclusion."""
    rng = np.random.default_rng(12)
    leg = _qubit_leg_average()
    multi = random_inclusion([[1, 2], [0, 1]], [1, 2], [1, 2])
    good = [
        leg,
        conjugated_expectation(leg, random_unitary(4, rng)),
        multi,
        conjugated_expectation(multi, random_unitary(multi.source.ambient_dim, rng)),
    ]
    for e in good:
        assert _first_failing(validate(e, rng=rng)) is None
        assert max(superop_axioms(e).values()) <= 100 * AXIOM_TOL
    outside = ConditionalExpectationMap(build_algebra([(2, 2)]), build_algebra([(4, 1)]))
    assert _first_failing(validate(outside, rng=rng)) == "target_in_source"
    assert max(superop_axioms(outside).values()) <= 100 * AXIOM_TOL


def test_expectation_map_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="^source and target act on different ambient spaces$"):
        ConditionalExpectationMap(build_algebra([(2, 1)]), build_algebra([(3, 1)]))

