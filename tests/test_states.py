import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entropylab.findim import (
    MatrixBlockAlgebra,
    VectorStateData,
    WeightDensity,
    build_algebra,
    canonical_density,
    random_faithful_state,
)
from entropylab.findim.identities import random_unitary

from oracles import (
    algebra_basis,
    ambient_weight,
    brute_force_commutant,
    commutant_state,
    spans_everything,
    trace_state,
    weight_value,
)


def test_trace_state_mass_and_blocks():
    alg = build_algebra([(2, 3), (1, 2)])
    tr = trace_state(alg)
    assert abs(tr.mass - 1.0) < 1e-12
    assert tr.is_faithful


def test_canonical_density_reproduces_functional():
    rng = np.random.default_rng(1)
    alg = build_algebra([(2, 2), (1, 3)]).conjugated(random_unitary(7, rng))
    raw = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    dens = raw @ raw.conj().T
    w = canonical_density(alg, dens)
    # the canonical density represents the same functional on the algebra
    for b in algebra_basis(alg)[:5]:
        want = np.trace(dens @ b)
        got = weight_value(w, b)
        assert abs(want - got) < 1e-10


def test_intrinsic_blocks_traces_sum_to_mass():
    rng = np.random.default_rng(2)
    alg = build_algebra([(3, 2), (2, 1)]).conjugated(random_unitary(8, rng))
    w = random_faithful_state(alg, rng)
    total = sum(float(np.trace(b).real) for b in w.intrinsic_blocks())
    assert abs(total - w.mass) < 1e-12
    assert abs(w.mass - 1.0) < 1e-12


def test_from_intrinsic_blocks_roundtrip():
    rng = np.random.default_rng(3)
    alg = build_algebra([(2, 2), (3, 1)]).conjugated(random_unitary(7, rng))
    w = random_faithful_state(alg, rng)
    rebuilt = WeightDensity(alg, w.intrinsic_blocks())
    assert np.abs(rebuilt.matrix - w.matrix).max() < 1e-11


def test_mixed_with_is_convex_combination():
    rng = np.random.default_rng(4)
    alg = build_algebra([(2, 2)])
    a = random_faithful_state(alg, rng)
    b = random_faithful_state(alg, rng)
    mix = a.mixed_with(b, 0.25)
    assert np.abs(mix.matrix - (0.25 * a.matrix + 0.75 * b.matrix)).max() < 1e-12


def test_vector_state_matches_expectation_values():
    """omega(x) = <x v, v> must equal the trace against the state density."""
    rng = np.random.default_rng(5)
    alg = build_algebra([(2, 2)]).conjugated(random_unitary(4, rng))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    om = VectorStateData(alg, v)
    for b in algebra_basis(alg):
        want = v.conj() @ b @ v
        got = weight_value(om.state(), b)
        assert abs(want - got) < 1e-10


def test_commutant_state_lives_on_commutant():
    rng = np.random.default_rng(6)
    alg = build_algebra([(2, 2)]).conjugated(random_unitary(4, rng))
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    om = VectorStateData(alg, v)
    dual_state = commutant_state(om)
    assert dual_state.algebra is alg.commutant()
    for b in algebra_basis(alg.commutant()):
        assert abs((v.conj() @ b @ v) - weight_value(dual_state, b)) < 1e-10


def test_square_factor_vector_cyclic_separating():
    rng = np.random.default_rng(7)
    alg = build_algebra([(3, 3)])
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    om = VectorStateData(alg, v / np.linalg.norm(v))
    assert om.cyclic and om.separating


def test_vector_flags_read_one_rank_per_block_on_first_read(monkeypatch):
    rng = np.random.default_rng(5)
    alg = build_algebra([(2, 3), (3, 2)]).conjugated(random_unitary(12, rng))
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    shapes = []
    matrix_rank = np.linalg.matrix_rank

    def counted(c, tol):
        shapes.append(c.shape)
        return matrix_rank(c, tol=tol)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    om = VectorStateData(alg, v / np.linalg.norm(v))
    om.state()
    assert shapes == []
    # a generic C_k has rank min(n_k, m_k): full row rank on the first
    # block, full column rank on the second, so neither flag holds
    assert (om.cyclic, om.separating) == (False, False)
    assert shapes == [(2, 3), (3, 2)]


def test_rank_deficient_vector_not_separating():
    alg = build_algebra([(2, 2)])
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0  # product vector: reduced density has rank 1
    om = VectorStateData(alg, v)
    assert not om.separating
    assert not om.cyclic


@st.composite
def blocks_with_ranks(draw):
    """Block shapes on at most C^9, each with the rank of its coefficient matrix.

    Every block gets full rank min(n, m) except possibly one, which gets a
    smaller rank, so that both flags take both values across examples.
    """
    blocks = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=3))
        m = draw(st.integers(min_value=1, max_value=3))
        if blocks and sum(a * b for a, b in blocks) + n * m > 8:
            break
        blocks.append((n, m))
    ranks = [min(n, m) for n, m in blocks]
    deficient = draw(st.integers(min_value=0, max_value=len(blocks)))
    if deficient < len(blocks):
        ranks[deficient] = draw(st.integers(min_value=0, max_value=ranks[deficient] - 1))
    return blocks, ranks


@given(blocks_with_ranks(), st.integers(min_value=0, max_value=2**31 - 1))
@example(([(2, 2), (1, 1)], [2, 1]), 0)  # cyclic and separating
@example(([(2, 3), (1, 1)], [2, 1]), 0)  # separating only
@example(([(3, 2)], [2]), 0)  # cyclic only
@example(([(2, 2), (1, 3)], [1, 1]), 0)  # neither
@settings(max_examples=30, deadline=None)
def test_property_cyclic_separating_match_span_oracle(shapes, seed):
    blocks, ranks = shapes
    rng = np.random.default_rng(seed)
    dim = sum(n * m for n, m in blocks)
    parts = []
    for (n, m), r in zip(blocks, ranks):
        left = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
        right = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
        parts.append((left @ right).reshape(-1))
    v = np.concatenate(parts)
    assume(np.linalg.norm(v) > 0)
    u = random_unitary(dim, rng)
    v = u @ v / np.linalg.norm(v)
    alg = build_algebra(blocks).conjugated(u)
    om = VectorStateData(alg, v)
    assert om.cyclic == spans_everything(algebra_basis(alg), v)
    assert om.separating == spans_everything(brute_force_commutant(algebra_basis(alg), dim), v)
    assert om.cyclic == all(r == m for r, (_, m) in zip(ranks, blocks))
    assert om.separating == all(r == n for r, (n, _) in zip(ranks, blocks))


def test_weight_rejects_non_hermitian():
    alg = build_algebra([(2, 1)])
    with pytest.raises(ValueError, match="self-adjoint"):
        WeightDensity(alg, [np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)])


def test_weight_rejects_negative():
    alg = build_algebra([(2, 1)])
    with pytest.raises(ValueError, match="not positive"):
        WeightDensity(alg, [np.diag([1.0, -0.5]).astype(complex)])


def test_weight_needs_one_square_block_per_algebra_block():
    """A missing, extra or misshapen block is rejected when the weight is
    made, not dropped by a zip or left to fail in a later reshape."""
    alg = build_algebra([(1, 1), (2, 1)])
    assert WeightDensity(alg, [np.eye(1), np.eye(2)]).mass == 3.0
    wrong = [
        [np.eye(1)],
        [np.eye(2), np.eye(1)],
        [np.eye(1), np.eye(2), np.eye(1)],
        [np.eye(1), np.ones((2, 3))],
    ]
    for blocks in wrong:
        with pytest.raises(ValueError, match="one n_k x n_k block per block"):
            WeightDensity(alg, blocks)


def _rotated_multi_block(rng):
    alg = build_algebra([(2, 2), (1, 3), (2, 1)])
    return alg.conjugated(random_unitary(alg.ambient_dim, rng))


def test_weight_rejects_on_a_rotated_multi_block_algebra():
    """Non-members (the oracle's ambient-matrix check), non-self-adjoint and
    non-positive members (the block constructor's checks, reached through
    canonical_density) are rejected at the tolerances of those checks; a
    member is accepted."""
    rng = np.random.default_rng(12)
    alg = _rotated_multi_block(rng)
    good = random_faithful_state(alg, rng).matrix
    ambient_weight(alg, good)
    stray = rng.normal(size=good.shape) + 1j * rng.normal(size=good.shape)
    stray -= alg.project(stray)
    stray /= np.linalg.norm(stray)
    ambient_weight(alg, good + 1e-12 * stray)
    with pytest.raises(ValueError, match="does not lie"):
        ambient_weight(alg, good + 1e-9 * stray)
    skew = alg.embed_blocks([1j * np.eye(n) for n, _ in alg.blocks])
    canonical_density(alg, good + 1e-12 * skew)
    with pytest.raises(ValueError, match="self-adjoint"):
        canonical_density(alg, good + 1e-9 * skew)
    negative = alg.embed_blocks(
        [np.diag([-1.0] + [0.0] * (n - 1)).astype(complex) for n, _ in alg.blocks]
    )
    with pytest.raises(ValueError, match="not positive"):
        canonical_density(alg, good + 0.5 * negative)


def _count_block_calls(monkeypatch):
    calls = {"matrix_blocks": 0, "embed_blocks": 0}
    for name in calls:
        original = getattr(MatrixBlockAlgebra, name)

        def counted(self, arg, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(MatrixBlockAlgebra, name, counted)
    return calls


def test_each_density_is_compressed_once(monkeypatch):
    """canonical_density compresses once, and embeds once when its matrix is
    first read; a vector state and its commutant state read their blocks off
    the coefficient matrices."""
    rng = np.random.default_rng(13)
    alg = _rotated_multi_block(rng)
    v = rng.normal(size=alg.ambient_dim) + 1j * rng.normal(size=alg.ambient_dim)
    omega = VectorStateData(alg, v / np.linalg.norm(v))
    rank_one = np.outer(omega.vector, omega.vector.conj())
    calls = _count_block_calls(monkeypatch)
    w = canonical_density(alg, rank_one)
    assert w.is_faithful == omega.separating
    assert calls == {"matrix_blocks": 1, "embed_blocks": 0}
    first = w.matrix
    assert w.matrix is first
    assert calls == {"matrix_blocks": 1, "embed_blocks": 1}
    np.testing.assert_allclose(first, alg.project(rank_one), rtol=0, atol=1e-14)
    calls.update(matrix_blocks=0, embed_blocks=0)
    state = omega.state()
    dual_state = commutant_state(omega)
    assert calls == {"matrix_blocks": 0, "embed_blocks": 0}
    for got, want in zip(state.intrinsic_blocks(), w.intrinsic_blocks()):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    dual = canonical_density(alg.commutant(), rank_one)
    for got, want in zip(dual_state.intrinsic_blocks(), dual.intrinsic_blocks()):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
