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
    NoPreservingExpectationError,
    algebra_basis,
    algebra_contains,
    ambient_weight,
    apply_expectation,
    conjugated_expectation,
    cyclic_group_unitaries,
    expectation_superop,
    gns_projection_superop,
    group_average_expectation,
    group_average_superop,
    identity_expectation,
    is_identity,
    leg_average,
    leg_unitaries,
    random_inclusion,
    state_preserving_expectation,
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
    pulled = e.pull_back(omega)
    for b in algebra_basis(e.source)[:6]:
        assert abs(weight_value(pulled, b) - weight_value(omega, apply_expectation(e, b))) < 1e-10


def test_trace_preserving_pull_back_is_the_identity_density_one():
    rng = np.random.default_rng(6)
    source = build_algebra([(6, 1)])
    target = build_algebra([(3, 2)]).conjugated(random_unitary(6, rng))
    default = ConditionalExpectationMap(source, target)
    given = ConditionalExpectationMap(source, target, np.eye(6))
    omega = random_faithful_state(source, rng)
    np.testing.assert_array_equal(default.pull_back(omega).matrix, given.pull_back(omega).matrix)
    inner = ConditionalExpectationMap(target, build_algebra([(1, 6)]))
    np.testing.assert_array_equal(
        compose_expectations(default, inner).density, compose_expectations(given, inner).density
    )


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


def test_state_preserving_expectation_exists_for_flow_invariant_state():
    rng = np.random.default_rng(5)
    big = build_algebra([(4, 1)])
    e_avg = _qubit_leg_average()
    sub = e_avg.target
    # a state pulled back through the average is flow-compatible with sub
    omega = e_avg.pull_back(random_faithful_state(sub, rng))
    e = state_preserving_expectation(big, sub, omega)
    for b in algebra_basis(big)[:8]:
        assert abs(weight_value(omega, apply_expectation(e, b)) - weight_value(omega, b)) < 1e-9


def _product_state(rng):
    """rho1 (x) rho2 on M_2 (x) M_2: its density relative to M_2 (x) 1 is 1 (x) 2 rho2."""
    qubit = build_algebra([(2, 1)])
    rho1, rho2 = (random_faithful_state(qubit, rng).matrix for _ in range(2))
    return ambient_weight(build_algebra([(4, 1)]), np.kron(rho1, rho2))


@pytest.mark.parametrize("kind", ["flow-invariant", "product"])
def test_state_preserving_expectation_matches_gns_projection(kind):
    rng = np.random.default_rng(5)
    big = build_algebra([(4, 1)])
    if kind == "flow-invariant":
        e_avg = _qubit_leg_average()
        sub = e_avg.target
        omega = e_avg.pull_back(random_faithful_state(sub, rng))
    else:
        sub = build_algebra([(2, 2)])
        omega = _product_state(rng)
    e = state_preserving_expectation(big, sub, omega)
    np.testing.assert_allclose(
        expectation_superop(e), gns_projection_superop(sub, omega.matrix), rtol=0, atol=1e-10
    )


def test_pull_back_is_the_transpose_of_the_superoperator():
    """omega(E(x)) read through pull_back equals vec(G^T)^T S vec(x), for a
    density h != 1 and its rotation by a unitary."""
    rng = np.random.default_rng(8)
    big = build_algebra([(4, 1)])
    e = state_preserving_expectation(big, build_algebra([(2, 2)]), _product_state(rng))
    assert np.linalg.norm(e.density - np.eye(4)) > 0.1
    for m in (e, conjugated_expectation(e, random_unitary(4, rng))):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = np.outer(v, v.conj()) / np.vdot(v, v).real
        pulled = m.pull_back(g)
        s = expectation_superop(m)
        for b in algebra_basis(m.source):
            direct = g.T.reshape(-1, order="F") @ s @ b.reshape(-1, order="F")
            assert abs(weight_value(pulled, b) - direct) < 1e-12


def test_state_preserving_expectation_can_fail():
    rng = np.random.default_rng(6)
    big = build_algebra([(4, 1)])
    sub = _qubit_leg_average().target
    bad = None
    for _ in range(50):
        cand = random_faithful_state(big, rng)
        try:
            state_preserving_expectation(big, sub, cand)
        except NoPreservingExpectationError:
            bad = cand
            break
    assert bad is not None, "generic states should not admit a preserving expectation"


def test_compose_rejects_mismatched_chain():
    e1 = _qubit_leg_average()
    alg = build_algebra([(3, 1)])
    e2 = identity_expectation(alg)
    with pytest.raises(ValueError):
        compose_expectations(e1, e2)


def test_validate_flags_broken_superoperator():
    rng = np.random.default_rng(7)
    e = _qubit_leg_average()
    # damage idempotency: halve the density
    broken = ConditionalExpectationMap(e.source, e.target, 0.5 * np.eye(4))
    residuals = validate(broken, rng=rng, state=trace_state(e.source), samples=5)
    assert superop_axioms(broken)["idempotent"] > 1e-2
    assert residuals["unital"] > 1e-2


def _first_failing(residuals):
    return next((k for k, v in residuals.items() if v > 100 * AXIOM_TOL), None)


_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def test_validate_agrees_with_the_superoperator_axioms():
    """validate()'s invariants give the verdict of the D^2 x D^2 idempotency
    and Choi-positivity axioms: on good maps, and on three maps into
    M_2 (x) 1_2 that each break one invariant."""
    rng = np.random.default_rng(12)
    big, sub = build_algebra([(4, 1)]), build_algebra([(2, 2)])
    leg = _qubit_leg_average()
    multi = random_inclusion([[1, 2], [0, 1]], [1, 2], [1, 2], rng)
    good = [
        leg,
        conjugated_expectation(leg, random_unitary(4, rng)),
        state_preserving_expectation(big, sub, _product_state(rng)),
        multi,
        conjugated_expectation(multi, random_unitary(multi.ambient_dim, rng)),
    ]
    for e in good:
        assert _first_failing(validate(e, rng=rng)) is None
        assert max(superop_axioms(e).values()) <= 100 * AXIOM_TOL
    broken = [
        # P_N(X (x) Z) = 0, so P_N(h) = 1 and h > 0, but h misses N'
        (np.eye(4) + 0.3 * np.kron(_PAULI_X, _PAULI_Z), "commutes_with_target"),
        (np.kron(np.eye(2), np.diag([2.5, -0.5])), "positive"),
        (np.kron(np.eye(2), np.diag([2.0, 1.0])), "unital"),
    ]
    for h, name in broken:
        e = ConditionalExpectationMap(big, sub, h)
        assert _first_failing(validate(e, rng=rng)) == name
        assert max(superop_axioms(e).values()) > 100 * AXIOM_TOL, name


def test_preserving_certificate_agrees_with_validate():
    """state_preserving_expectation certifies h = P_N(D)^(-1) D through
    validate(); the oracle's D^2 x D^2 axioms give the same verdict, both on
    flow-invariant states and on states whose h does not commute with N."""
    rng = np.random.default_rng(9)
    big = build_algebra([(4, 1)])
    avg = _qubit_leg_average()
    sub = avg.target
    invariant = [
        (sub, avg.pull_back(random_faithful_state(sub, rng))),
        (build_algebra([(2, 2)]), _product_state(rng)),
        (build_algebra([(1, 4)]), random_faithful_state(big, rng)),
    ]
    for target, omega in invariant:
        e = state_preserving_expectation(big, target, omega)
        assert max(validate(e, rng=rng, state=omega).values()) <= 100 * AXIOM_TOL
        assert max(superop_axioms(e).values()) <= 100 * AXIOM_TOL
    for _ in range(5):
        omega = random_faithful_state(big, rng)
        with pytest.raises(NoPreservingExpectationError, match="commutes_with_target"):
            state_preserving_expectation(big, sub, omega)
        dens = omega.matrix
        cand = ConditionalExpectationMap(big, sub, np.linalg.solve(sub.project(dens), dens))
        assert max(validate(cand, rng=rng, state=omega).values()) > 100 * AXIOM_TOL
        assert max(superop_axioms(cand).values()) > 100 * AXIOM_TOL


def test_preserving_expectation_rejects_non_subalgebra():
    rng = np.random.default_rng(8)
    big = build_algebra([(2, 2)])
    other = build_algebra([(4, 1)])
    with pytest.raises(ValueError):
        state_preserving_expectation(big, other, random_faithful_state(big, rng))
