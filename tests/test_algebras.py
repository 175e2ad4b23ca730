"""Block algebra construction and commutants, and the test oracles'
structure discovery."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropylab.findim import BlockStructure, MatrixBlockAlgebra, build_algebra
from entropylab.findim.identities import random_unitary

from oracles import (
    algebra_basis,
    algebra_contains,
    algebra_dim,
    algebra_from_basis,
    algebra_identity,
    brute_force_commutant,
    kron_embed_blocks,
    span_equals,
)


def _assert_orthonormal_basis_inside(alg):
    frame = np.stack([b.reshape(-1) for b in algebra_basis(alg)])
    assert np.abs(frame.conj() @ frame.T - np.eye(algebra_dim(alg))).max() < 1e-12
    assert all(algebra_contains(alg, b) for b in algebra_basis(alg))


def test_build_single_factor():
    alg = build_algebra([(3, 2)])
    assert alg.ambient_dim == 6
    assert algebra_dim(alg) == 9
    assert len(algebra_basis(alg)) == 9
    _assert_orthonormal_basis_inside(alg)


def test_build_multi_block_dimensions():
    alg = build_algebra([(2, 2), (1, 3), (3, 1)])
    assert alg.ambient_dim == 4 + 3 + 3
    assert algebra_dim(alg) == 4 + 1 + 9
    assert len(algebra_basis(alg)) == 4 + 1 + 9
    _assert_orthonormal_basis_inside(alg)


def test_identity_is_contained():
    alg = build_algebra([(2, 3)])
    assert algebra_contains(alg, algebra_identity(alg))
    assert algebra_contains(alg, np.zeros((6, 6)))


def test_commutant_swaps_block_shapes():
    alg = build_algebra([(4, 2), (1, 3)])
    dual = alg.commutant()
    assert dual.blocks == [(2, 4), (3, 1)]
    # the bicommutant must be the original object, not merely span-equal
    assert dual.commutant() is alg


def test_commutant_commutes_elementwise():
    rng = np.random.default_rng(5)
    alg = build_algebra([(3, 2), (2, 1)]).conjugated(random_unitary(8, rng))
    dual = alg.commutant()
    for a in algebra_basis(alg)[:4]:
        for b in algebra_basis(dual)[:4]:
            assert np.abs(a @ b - b @ a).max() < 1e-12


@pytest.mark.parametrize("blocks", [[(2, 2), (1, 3)], [(2, 2), (3, 1)]])
def test_commutant_against_brute_force(blocks):
    rng = np.random.default_rng(7)
    alg = build_algebra(blocks).conjugated(random_unitary(7, rng))
    rows = brute_force_commutant(algebra_basis(alg), 7)
    assert len(rows) == len(algebra_basis(alg.commutant()))
    for row in rows:
        assert algebra_contains(alg.commutant(), row.reshape(7, 7), tol=1e-8)


def test_project_is_idempotent_and_contained():
    rng = np.random.default_rng(0)
    alg = build_algebra([(2, 3)]).conjugated(random_unitary(6, rng))
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    p = alg.project(x)
    assert algebra_contains(alg, p, tol=1e-9)
    assert np.abs(alg.project(p) - p).max() < 1e-11


def test_conjugated_preserves_structure():
    rng = np.random.default_rng(2)
    alg = build_algebra([(2, 2), (1, 1)])
    u = random_unitary(5, rng)
    rotated = alg.conjugated(u)
    assert rotated.blocks == alg.blocks
    assert all(algebra_contains(rotated, u @ b @ u.conj().T) for b in algebra_basis(alg))
    assert not span_equals(rotated, alg) or np.allclose(algebra_basis(alg), algebra_basis(rotated))


def test_conjugated_checks_unitarity_as_allclose_did():
    """|u u* - 1| <= 1e-10 + 1e-5 |1| entrywise: 1e-9 off the diagonal is
    rejected, 1e-9 on it accepted, NaN rejected, as np.allclose decides."""
    alg = build_algebra([(2, 1), (1, 1)])
    off = np.eye(3)
    off[0, 1] = off[1, 0] = 0.5e-9  # u u* has 1e-9 at (0, 1) and (1, 0)
    on = np.diag([np.sqrt(1 + 1e-9), 1.0, 1.0])
    nan = np.eye(3)
    nan[2, 2] = np.nan
    for u, unitary in ((off, False), (on, True), (nan, False)):
        gram = u @ u.conj().T
        assert np.allclose(gram, np.eye(3), atol=1e-10) is unitary
        if unitary:
            assert alg.conjugated(u).blocks == alg.blocks
        else:
            with pytest.raises(ValueError, match="not unitary"):
                alg.conjugated(u)
    assert abs((off @ off.T)[0, 1] - 1e-9) < 1e-15
    with pytest.raises(ValueError, match="not unitary"):
        alg.conjugated(np.eye(4))


def test_discovery_recovers_blocks():
    rng = np.random.default_rng(11)
    alg = build_algebra([(2, 3), (3, 1)]).conjugated(random_unitary(9, rng))
    found = algebra_from_basis(algebra_basis(alg))
    assert sorted(found.blocks) == sorted(alg.blocks)
    assert span_equals(found, alg)


def test_discovery_rejects_a_span_that_is_not_an_algebra():
    # (X ⊕ X)(1 ⊕ 0) = X ⊕ 0 lies outside the span {1 ⊕ 1, X ⊕ X, Y ⊕ Y,
    # Z ⊕ Z, 1 ⊕ 0}: the algebra it generates has blocks [(2, 1), (2, 1)]
    # and dimension 8 against the span's 5.
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.diag([1, -1]),
    ]
    mats = [np.kron(np.eye(2), p).astype(complex) for p in paulis]
    mats.append(np.kron(np.diag([1, 0]), np.eye(2)).astype(complex))
    with pytest.raises(ValueError, match="dimension 5.*dimension 8"):
        algebra_from_basis(mats)


def test_discovery_circulant_center():
    # real circulant basis: hermitizing individual basis elements loses
    # central directions, which the discovery must survive
    shift = np.roll(np.eye(3), 1, axis=1).astype(complex)
    basis = [np.eye(3, dtype=complex), shift, shift @ shift]
    found = algebra_from_basis(basis)
    assert sorted(found.blocks) == [(1, 1), (1, 1), (1, 1)]


def test_discovery_memory_stays_small_for_a_d16_factor():
    # the center solve stacks a 4096 x 16 constraint; a full SVD would
    # build an unused 4096 x 4096 left factor (268 MB)
    rng = np.random.default_rng(3)
    alg = build_algebra([(4, 4)]).conjugated(random_unitary(16, rng))
    tracemalloc.start()
    try:
        found = algebra_from_basis(algebra_basis(alg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found.blocks == [(4, 4)]
    assert peak < 32 * 2**20


def test_central_projections_resolve_identity():
    alg = build_algebra([(2, 2), (1, 3), (2, 1)])
    total = sum(alg.central_projections())
    assert np.abs(total - np.eye(alg.ambient_dim)).max() < 1e-10


def test_matrix_blocks_embed_roundtrip():
    rng = np.random.default_rng(4)
    alg = build_algebra([(2, 2), (3, 1)]).conjugated(random_unitary(7, rng))
    x = sum(rng.normal() * b for b in algebra_basis(alg))
    parts = alg.matrix_blocks(x)
    assert np.abs(alg.embed_blocks(parts) - x).max() < 1e-10


@st.composite
def block_lists(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    blocks = []
    total = 0
    for _ in range(count):
        n = draw(st.integers(min_value=1, max_value=3))
        m = draw(st.integers(min_value=1, max_value=3))
        if total + n * m > 12:
            break
        blocks.append((n, m))
        total += n * m
    return blocks or [(2, 1)]


@st.composite
def multiplicity_blocks(draw):
    """Two or three blocks, every one with multiplicity m > 1."""
    count = draw(st.integers(min_value=2, max_value=3))
    sizes = st.integers(min_value=1, max_value=3)
    mults = st.integers(min_value=2, max_value=3)
    return [(draw(sizes), draw(mults)) for _ in range(count)]


@given(multiplicity_blocks(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_property_embedding_matches_kron_oracle(blocks, seed):
    """embed_blocks and the basis agree with V*(x kron 1_m)V formed with
    np.kron, to 1e-12 relative, on Haar-rotated multi-block algebras."""
    rng = np.random.default_rng(seed)
    dim = sum(n * m for n, m in blocks)
    alg = build_algebra(blocks).conjugated(random_unitary(dim, rng))
    parts = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n, _ in blocks]
    want = kron_embed_blocks(alg, parts)
    got = alg.embed_blocks(parts)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    for x, back in zip(parts, alg.matrix_blocks(got)):
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)
    units = []
    for k, (n, m) in enumerate(blocks):
        for i in range(n):
            for j in range(n):
                unit = [np.zeros((b, b), dtype=complex) for b, _ in blocks]
                unit[k][i, j] = 1.0 / np.sqrt(m)
                units.append(kron_embed_blocks(alg, unit))
    assert np.abs(np.stack(algebra_basis(alg)) - np.stack(units)).max() <= 1e-12


@given(block_lists())
@settings(max_examples=25, deadline=None)
def test_property_commutant_dimension(blocks):
    alg = build_algebra(blocks)
    assert len(algebra_basis(alg.commutant())) == sum(m * m for _, m in blocks)


@given(block_lists(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_property_double_commutant_span(blocks, seed):
    rng = np.random.default_rng(seed)
    dim = sum(n * m for n, m in blocks)
    alg = build_algebra(blocks).conjugated(random_unitary(dim, rng))
    assert alg.commutant().commutant() is alg
    assert span_equals(alg.commutant().commutant(), alg)


def test_rejects_bad_blocks():
    with pytest.raises(ValueError):
        build_algebra([])
    with pytest.raises(ValueError):
        build_algebra([(0, 2)])
    with pytest.raises(ValueError, match="^algebra needs at least one block$"):
        MatrixBlockAlgebra([])
    # one 1 x 2 block, of dimension 2, on C^3
    with pytest.raises(
        ValueError, match="^ambient dimension mismatch: blocks sum to 2, ambient is 3$"
    ):
        MatrixBlockAlgebra([BlockStructure(n=1, m=2, iso=np.eye(3)[:2])])
