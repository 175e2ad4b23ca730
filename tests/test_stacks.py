"""Stacks: the findim primitives evaluate many cases at once, through the
code that evaluates one.

A stack's element gets the same value as that case evaluated alone, bit
for bit; one instance gets Python floats; and every check still fires
when a single element of a stack fails it.
"""

import numpy as np
import pytest
from numpy.random import default_rng

from entropylab.findim import (
    VectorStateData,
    WeightDensity,
    build_algebra,
    entropy_additivity_chain,
    entropy_difference_identity,
    random_chain_instance,
    random_difference_instance,
    random_faithful_state,
    random_unit_vector,
    random_unitary,
    relative_entropy_spatial,
    relative_entropy_umegaki,
)

STACK = 4


def _generators(seed):
    return [default_rng([seed, k]) for k in range(STACK)]


def _same_reports(stacked, singles):
    """The stack's residual and each of its values, element k, equal single
    case k's float; single and stacked reports name the same values."""
    for k, single in enumerate(singles):
        assert single.values.keys() == stacked.values.keys()
        assert stacked.tolerance is single.tolerance is None
        pairs = [("residual", stacked.residual, single.residual)]
        pairs += [(key, stacked.values[key], value) for key, value in single.values.items()]
        for key, stack, value in pairs:
            assert type(value) is float
            assert stack[k] == value, (key, k)


@pytest.mark.parametrize("side", [2, 3, 4])
def test_a_stack_of_difference_cases_gives_each_case_its_own_report(side):
    stacked = entropy_difference_identity(random_difference_instance(_generators(side), side))
    singles = [
        entropy_difference_identity(random_difference_instance(rng, side))
        for rng in _generators(side)
    ]
    _same_reports(stacked, singles)


def test_a_stack_of_chain_cases_gives_each_case_its_own_report():
    stacked = entropy_additivity_chain(random_chain_instance(_generators(7)))
    singles = [entropy_additivity_chain(random_chain_instance(rng)) for rng in _generators(7)]
    _same_reports(stacked, singles)


@pytest.mark.parametrize("block", [(2, 2), (3, 5), (4, 2)])
def test_a_stack_of_entropies_gives_each_case_its_own_value(block):
    """The araki battery's two entropies, on blocks whose commutant state
    has a kernel ((3, 5)) and whose weight does not ((4, 2))."""
    a, b = block

    def entropies(rng):
        alg = build_algebra([block]).conjugated(random_unitary(a * b, rng))
        omega = VectorStateData(alg, random_unit_vector(a * b, rng))
        sigma = random_faithful_state(alg, rng)
        spatial = relative_entropy_spatial(omega, sigma)
        return spatial, relative_entropy_umegaki(omega.state(), sigma)

    stacked = entropies(_generators(a * b))
    for k, rng in enumerate(_generators(a * b)):
        single = entropies(rng)
        assert all(type(value) is float for value in single)
        assert (stacked[0][k], stacked[1][k]) == single


def _one_bad(good, bad_at, spoil):
    """The stack ``good`` with its element ``bad_at`` replaced by ``spoil`` of it."""
    stack = np.array(good)
    stack[bad_at] = spoil(stack[bad_at])
    return stack


@pytest.mark.parametrize("bad_at", [0, 2, STACK - 1])
def test_one_non_unitary_conjugation_fails_the_stack(bad_at):
    unitaries = random_unitary(4, _generators(1))
    build_algebra([(2, 2)]).conjugated(unitaries)
    with pytest.raises(ValueError, match="^conjugation matrix is not unitary$"):
        build_algebra([(2, 2)]).conjugated(_one_bad(unitaries, bad_at, lambda u: 1.001 * u))


@pytest.mark.parametrize("bad_at", [0, 2, STACK - 1])
def test_one_non_hermitian_block_fails_the_stack(bad_at):
    alg = build_algebra([(1, 1), (2, 1)])
    blocks = random_faithful_state(alg, _generators(2)).intrinsic_blocks()
    skew = np.array([[0.0, 1e-3], [0.0, 0.0]])
    with pytest.raises(ValueError, match="^density is not self-adjoint$"):
        WeightDensity(alg, [blocks[0], _one_bad(blocks[1], bad_at, lambda rho: rho + skew)])


@pytest.mark.parametrize("bad_at", [0, 2, STACK - 1])
def test_one_non_positive_block_fails_the_stack(bad_at):
    alg = build_algebra([(1, 1), (2, 1)])
    blocks = random_faithful_state(alg, _generators(3)).intrinsic_blocks()
    with pytest.raises(ValueError, match="^functional is not positive on the algebra$"):
        WeightDensity(alg, [_one_bad(blocks[0], bad_at, lambda rho: -rho), blocks[1]])


@pytest.mark.parametrize("bad_at", [0, 2, STACK - 1])
def test_one_unnormalised_vector_fails_the_stack(bad_at):
    alg = build_algebra([(2, 3)])
    vectors = random_unit_vector(6, _generators(4))
    VectorStateData(alg, vectors)
    with pytest.raises(ValueError, match=r"^vector is not normalised \(norm 2\.0\)$"):
        VectorStateData(alg, _one_bad(vectors, bad_at, lambda v: 2 * np.eye(6)[0]))


@pytest.mark.parametrize("bad_at", [0, 2, STACK - 1])
@pytest.mark.parametrize(
    "instance, check, algebra, message",
    [
        (
            lambda rngs: random_difference_instance(rngs, 3),
            entropy_difference_identity,
            lambda inst: inst.algebra,
            "^vector must be cyclic and separating for the algebra$",
        ),
        (
            random_chain_instance,
            entropy_additivity_chain,
            lambda inst: inst.n2,
            "^vector must be cyclic and separating for the middle algebra$",
        ),
    ],
    ids=["difference", "chain"],
)
def test_one_vector_that_is_not_cyclic_fails_the_stack(bad_at, instance, check, algebra, message):
    """e_0 (x) e_0 in element ``bad_at``'s block frame is a product vector;
    the difference instance's algebra is one algebra for the whole stack."""
    inst = instance(_generators(8))
    check(inst)
    alg = algebra(inst)
    iso = np.broadcast_to(alg.structure[0].iso, (STACK, alg.ambient_dim, alg.ambient_dim))
    product = iso[bad_at, 0].conj()
    vectors = _one_bad(inst.omega.vector, bad_at, lambda v: product)
    with pytest.raises(ValueError, match=message):
        check(inst._replace(omega=VectorStateData(alg, vectors)))


def test_flags_answer_for_each_element():
    """cyclic, separating and is_faithful answer per element of a stack,
    and as Python bools for one instance."""
    alg = build_algebra([(2, 2)])
    vectors = random_unit_vector(4, _generators(5))
    vectors[1] = np.eye(4)[0]  # e_0 (x) e_0: rank one, neither cyclic nor separating
    omega = VectorStateData(alg, vectors)
    assert omega.cyclic.tolist() == omega.separating.tolist() == [True, False, True, True]
    assert omega.state().is_faithful.tolist() == [True, False, True, True]
    one = VectorStateData(alg, vectors[1])
    assert (one.cyclic, one.separating, one.state().is_faithful) == (False, False, False)
    assert type(one.cyclic) is bool and type(one.state().is_faithful) is bool
