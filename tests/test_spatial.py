"""Spatial derivatives, modular flow, cocycles, and the two entropy routes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropylab.findim import (
    ConditionalExpectationMap,
    VectorStateData,
    WeightDensity,
    build_algebra,
    compose_expectations,
    dual_weight,
    random_faithful_state,
    relative_entropy_spatial,
    relative_entropy_umegaki,
)
from entropylab.findim.identities import random_unitary

from oracles import (
    algebra_basis,
    algebra_contains,
    algebra_identity,
    ambient_weight,
    conjugation_flow,
    connes_cocycle,
    eigen_relative_entropy,
    kron_relative_entropy_spatial,
    modular_flow,
    spatial_derivative,
    trace_state,
    weight_value,
)


def test_spatial_derivative_diagonal_example():
    """Qubit factor, diagonal weights: eigenvalues p/q, p/(1-q), (1-p)/q, (1-p)/(1-q)."""
    p, q = 0.3, 0.8
    alg = build_algebra([(2, 2)])
    psi = WeightDensity(alg, [np.diag([p, 1 - p]).astype(complex)])
    phi = WeightDensity(
        alg.commutant(), [np.diag([q, 1 - q]).astype(complex)]
    )
    delta = spatial_derivative(psi, phi)
    got = np.sort(np.linalg.eigvalsh(delta))
    want = np.sort([p / q, p / (1 - q), (1 - p) / q, (1 - p) / (1 - q)])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_spatial_derivative_positive_and_affiliated():
    rng = np.random.default_rng(0)
    alg = build_algebra([(3, 2)]).conjugated(random_unitary(6, rng))
    psi = random_faithful_state(alg, rng)
    phi = random_faithful_state(alg.commutant(), rng)
    delta = spatial_derivative(psi, phi)
    vals = np.linalg.eigvalsh(delta)
    assert vals.min() > 0


def test_modular_flow_preserves_algebra_and_state():
    rng = np.random.default_rng(1)
    alg = build_algebra([(2, 2), (2, 1)]).conjugated(random_unitary(6, rng))
    st = random_faithful_state(alg, rng)
    x = algebra_basis(alg)[2] + 0.5 * algebra_basis(alg)[4]
    for t in (0.3, -1.2):
        y = modular_flow(st, x, t)
        assert algebra_contains(alg, y, tol=1e-9)
        # invariance of the state along the flow
        assert abs(weight_value(st, y) - weight_value(st, x)) < 1e-10


def test_modular_flow_matches_direct_conjugation():
    rng = np.random.default_rng(2)
    alg = build_algebra([(3, 2)]).conjugated(random_unitary(6, rng))
    st = random_faithful_state(alg, rng)
    x = algebra_basis(alg)[1] - 2.0 * algebra_basis(alg)[5]
    got = modular_flow(st, x, 0.7)
    want = conjugation_flow(st.matrix, x, 0.7)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_modular_flow_needs_faithful_weight():
    alg = build_algebra([(2, 1)])
    singular = ambient_weight(alg, np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        modular_flow(singular, algebra_identity(alg), 0.5)


def test_cocycle_chain_rule():
    rng = np.random.default_rng(3)
    alg = build_algebra([(2, 2)]).conjugated(random_unitary(4, rng))
    a = random_faithful_state(alg, rng)
    b = random_faithful_state(alg, rng)
    c = random_faithful_state(alg, rng)
    t = 0.85
    lhs = connes_cocycle(a, b, t) @ connes_cocycle(b, c, t)
    rhs = connes_cocycle(a, c, t)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_cocycle_reference_independence():
    rng = np.random.default_rng(4)
    alg = build_algebra([(3, 2)]).conjugated(random_unitary(6, rng))
    a = random_faithful_state(alg, rng)
    b = random_faithful_state(alg, rng)
    ref1 = random_faithful_state(alg.commutant(), rng)
    ref2 = random_faithful_state(alg.commutant(), rng)
    t = -0.4
    u1 = connes_cocycle(a, b, t, reference=ref1)
    u2 = connes_cocycle(a, b, t, reference=ref2)
    u3 = connes_cocycle(a, b, t)
    np.testing.assert_allclose(u1, u2, atol=1e-10)
    np.testing.assert_allclose(u1, u3, atol=1e-10)


def test_relative_entropy_routes_agree():
    rng = np.random.default_rng(5)
    for shape in ([(2, 2)], [(3, 2)], [(2, 3)], [(2, 2), (1, 3)]):
        dim = sum(n * m for n, m in shape)
        alg = build_algebra(shape).conjugated(random_unitary(dim, rng))
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        om = VectorStateData(alg, v / np.linalg.norm(v))
        sig = random_faithful_state(alg, rng)
        s_spatial = relative_entropy_spatial(om, sig)
        s_trace = relative_entropy_umegaki(om.state(), sig)
        s_eigen = sum(
            eigen_relative_entropy(r, s)
            for r, s in zip(om.state().intrinsic_blocks(), sig.intrinsic_blocks())
        )
        assert abs(s_spatial - s_trace) < 1e-10
        assert abs(s_spatial - s_eigen) < 1e-10


def test_relative_entropy_of_state_with_itself_vanishes():
    rng = np.random.default_rng(6)
    alg = build_algebra([(2, 2)]).conjugated(random_unitary(4, rng))
    st = random_faithful_state(alg, rng)
    assert abs(relative_entropy_umegaki(st, st)) < 1e-12


def test_relative_entropy_nonnegative_for_states():
    rng = np.random.default_rng(7)
    alg = build_algebra([(4, 2)]).conjugated(random_unitary(8, rng))
    for _ in range(10):
        a = random_faithful_state(alg, rng)
        b = random_faithful_state(alg, rng)
        assert relative_entropy_umegaki(a, b) >= -1e-12


def test_support_violation_is_infinite():
    alg = build_algebra([(2, 1)])
    rho = ambient_weight(alg, np.diag([0.5, 0.5]).astype(complex))
    sigma = ambient_weight(alg, np.diag([1.0, 0.0]).astype(complex))
    assert math.isinf(relative_entropy_umegaki(rho, sigma))
    omega = VectorStateData(alg, np.array([1.0, 1.0]) / np.sqrt(2))
    assert math.isinf(relative_entropy_spatial(omega, sigma))


def _state(algebra):
    return random_faithful_state(algebra, np.random.default_rng(8))


# Each call takes its two arguments on independently built copies of one
# algebra (equal spans, distinct objects), with the error it must raise.
_ON_COPIES = {
    "compose": (
        "target of the first map must equal source of the second",
        lambda alg, twin: compose_expectations(
            ConditionalExpectationMap(alg, alg), ConditionalExpectationMap(twin, twin)
        ),
    ),
    "spatial": (
        "vector state and weight must refer to the same algebra",
        lambda alg, twin: relative_entropy_spatial(
            VectorStateData(alg, np.eye(4)[0] + 0j), _state(twin)
        ),
    ),
    "umegaki": (
        "relative entropy needs two functionals on the same algebra",
        lambda alg, twin: relative_entropy_umegaki(_state(alg), _state(twin)),
    ),
    "dual_weight": (
        "weight must live on the commutant of the source algebra",
        lambda alg, twin: dual_weight(
            ConditionalExpectationMap(alg, alg), _state(twin.commutant())
        ),
    ),
    "mixed_with": (
        "mixing needs two weights on the same algebra",
        lambda alg, twin: _state(alg).mixed_with(_state(twin), 0.5),
    ),
}


@pytest.mark.parametrize("message, call", _ON_COPIES.values(), ids=_ON_COPIES.keys())
def test_a_span_equal_copy_is_not_the_same_algebra(message, call):
    """Algebras are one when they are one object: arguments given on an
    independently built copy are refused, never carried over."""
    with pytest.raises(ValueError, match=message):
        call(build_algebra([(2, 2)]), build_algebra([(2, 2)]))


def test_umegaki_against_trace_state_gives_entropy_defect():
    # S(rho || tr/d on M_d) = ln d - H(rho)
    rng = np.random.default_rng(9)
    alg = build_algebra([(4, 1)])
    rho = random_faithful_state(alg, rng)
    uniform = trace_state(alg)
    vals = np.linalg.eigvalsh(rho.intrinsic_blocks()[0])
    shannon = -np.sum(vals * np.log(vals))
    got = relative_entropy_umegaki(rho, uniform)
    assert abs(got - (math.log(4) - shannon)) < 1e-10


def _with_spectrum(rng, rows, cols, rank):
    """A rows x cols matrix with ``rank`` singular values in [0.45, 1], the
    rest exactly zero, between Haar-random frames."""
    sv = np.zeros(min(rows, cols))
    sv[:rank] = rng.uniform(0.45, 1.0, size=rank)
    left = random_unitary(rows, rng)[:, : sv.size]
    right = random_unitary(cols, rng)[: sv.size]
    return (left * sv) @ right


@st.composite
def spatial_cases(draw):
    """Two or three blocks with m > 1, and which factor is rank deficient."""
    count = draw(st.integers(min_value=2, max_value=3))
    sizes = st.integers(min_value=1, max_value=3)
    mults = st.integers(min_value=2, max_value=3)
    blocks = [(draw(sizes), draw(mults)) for _ in range(count)]
    defect = draw(st.sampled_from(["none", "sigma", "rho_c"]))
    where = draw(st.integers(min_value=0, max_value=count - 1))
    return blocks, defect, where, draw(st.integers(min_value=0, max_value=2**31 - 1))


@given(spatial_cases())
@settings(max_examples=40, deadline=None)
def test_property_spatial_entropy_matches_kron_oracle(case):
    """The factorised spatial entropy agrees with the eigh of sigma_k kron
    rho'_k^(-1) to 1e-12 relative, on Haar-rotated multi-block algebras.

    ``sigma`` makes sigma non-faithful on one block (the entropy is +inf);
    ``rho_c`` drops a singular value of one coefficient matrix, so rho' is
    rank deficient there (as it is on every block with n < m).  Nonzero
    eigenvalues stay in [0.2, 1], so the tolerance measures the two
    diagonalisations and not the conditioning of the draw.
    """
    blocks, defect, where, seed = case
    rng = np.random.default_rng(seed)
    dim = sum(n * m for n, m in blocks)
    u = random_unitary(dim, rng)
    alg = build_algebra(blocks).conjugated(u)
    sig_blocks, coeffs = [], []
    for k, (n, m) in enumerate(blocks):
        s_rank = n - 1 if (defect == "sigma" and k == where) else n
        root = _with_spectrum(rng, n, n, s_rank)
        sig_blocks.append(root @ root.conj().T)
        c_rank = min(n, m) - 1 if (defect == "rho_c" and k == where) else min(n, m)
        coeffs.append(_with_spectrum(rng, n, m, c_rank).reshape(-1))
    v = np.concatenate(coeffs)
    omega = VectorStateData(alg, u @ v / np.linalg.norm(v))
    sigma = WeightDensity(alg, sig_blocks)
    got = relative_entropy_spatial(omega, sigma)
    want = kron_relative_entropy_spatial(alg, omega.vector, sigma.intrinsic_blocks())
    if defect == "sigma":
        assert math.isinf(want)
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
