"""Verification operations for the relative-entropy identities.

Each function builds nothing by itself: it takes a prepared instance
(algebras, a vector, expectations) and evaluates both sides of one
identity.  Every check returns one :class:`CheckReport`: the residual,
the values of its named terms, and the tolerance it is held to when the
check carries its own.  Instance generators for randomized suites live
here too, so a seeded generator plus a check function is one
reproducible test case.

The difference and chain generators also take a list of generators and
then build a stack of instances, one per generator, each drawn from its
own generator as it would be alone; their checks then evaluate the stack
at once, and the residual and each value hold one entry per element
(:mod:`entropylab.findim.algebras`).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .algebras import MatrixBlockAlgebra, build_algebra
from .expectations import ConditionalExpectationMap, compose_expectations
from .index import dual_weight
from .spatial import relative_entropy_spatial, relative_entropy_umegaki
from .states import (
    VectorStateData,
    WeightDensity,
    canonical_density,
    gaussian,
    random_faithful_state,
    random_unit_vector,
)

__all__ = [
    "CheckReport",
    "random_unitary",
    "DifferenceInstance",
    "random_difference_instance",
    "entropy_difference_identity",
    "ChainInstance",
    "random_chain_instance",
    "entropy_additivity_chain",
    "check_entropy_identity",
]


class CheckReport(namedtuple("CheckReport", "residual values tolerance", defaults=(None,))):
    """One identity check: its residual, the values dict of its named terms,
    and the tolerance it is held to, or None where the caller's applies."""

    __slots__ = ()


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via QR with phase correction; a stack of
    them for a list of generators."""
    q, r = np.linalg.qr(gaussian(rng, (dim, dim)))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def _cyclic_separating_vector(algebra: MatrixBlockAlgebra, rng) -> VectorStateData:
    """The first of up to 8 random unit vectors that is cyclic and
    separating for ``algebra``, as its VectorStateData.  For a list of
    generators, a stack in which each element that is not redraws from its
    own generator, and only those."""
    dim = algebra.ambient_dim
    vector = random_unit_vector(dim, rng)
    for _ in range(8):
        cand = VectorStateData(algebra, vector)
        redraw = np.flatnonzero(~np.logical_and(cand.cyclic, cand.separating))
        if not redraw.size:
            return cand
        if isinstance(rng, list):
            vector[redraw] = random_unit_vector(dim, [rng[k] for k in redraw])
        else:
            vector = random_unit_vector(dim, rng)
    raise RuntimeError("failed to sample a cyclic and separating vector")


def _outer(vec: np.ndarray) -> np.ndarray:
    """The rank-one matrix |vec><vec| of each vector of a stack."""
    return vec[..., :, None] * vec.conj()[..., None, :]


# ---------------------------------------------------------------------------
# The difference identity: S(w, wE1) - S(w, wE2) = S(w, wE1 E2^dual)


class DifferenceInstance(
    namedtuple("DifferenceInstance", "algebra omega e1 e2")
):
    """An algebra, a vector state on it, and expectations E1 on the algebra
    and E2 on its commutant."""

    __slots__ = ()


def random_difference_instance(rng: np.random.Generator, side: int) -> DifferenceInstance:
    """A bipartite factor with expectations on both sides of the commutant.

    ``side`` is the dimension of each tensor leg (2, 3 or 4).  For side 4
    the expectations trace out half of a leg, onto M_2 (x) 1 inside
    M_4 (x) 1 and its mirror image in the commutant; for prime sides they
    depolarize the whole leg onto the scalars.  Each target is rotated by
    a Haar unitary on its own leg.
    """
    if side not in (2, 3, 4):
        raise ValueError("side must be 2, 3 or 4 to keep the ambient dimension small")
    algebra = build_algebra([(side, side)])
    dual = algebra.commutant()
    omega = _cyclic_separating_vector(algebra, rng)
    u1 = np.kron(random_unitary(side, rng), np.eye(side))
    u2 = np.kron(np.eye(side), random_unitary(side, rng))
    sub = [(2, 8)] if side == 4 else [(1, side * side)]
    e1 = ConditionalExpectationMap(algebra, build_algebra(sub).conjugated(u1))
    # The commutant acts on the second leg; the leg swap, a permutation of
    # the basis, moves the same subalgebra there before the rotation.
    swap = np.arange(side * side).reshape(side, side).T.ravel()
    e2 = ConditionalExpectationMap(dual, build_algebra(sub).conjugated(u2[..., swap]))
    return DifferenceInstance(algebra=algebra, omega=omega, e1=e1, e2=e2)


def entropy_difference_identity(instance: DifferenceInstance) -> CheckReport:
    """Evaluate S(w,wE1), S(w,wE2) and S(w, wE1 composed with the dual of E2),
    the values s1, s2 and s12, and the residual |s1 - s2 - s12|.

    E1 expects the algebra onto a subfactor, E2 does the same on the
    commutant; the third term lives on the commutant of E2's target, with
    the weight obtained from the dual of E2 applied to wE1.
    """
    omega = instance.omega
    if not np.all(omega.cyclic & omega.separating):
        raise ValueError("vector must be cyclic and separating for the algebra")
    algebra = instance.algebra
    dual = algebra.commutant()
    if instance.e1.source is not algebra or instance.e2.source is not dual:
        raise ValueError("expectations must be rooted at the algebra and its commutant")
    vec = omega.vector
    rank_one = _outer(vec)

    we1 = instance.e1.pull_back(rank_one)
    s1 = relative_entropy_spatial(omega, we1)

    omega_dual = VectorStateData(dual, vec)
    we2 = instance.e2.pull_back(rank_one)
    s2 = relative_entropy_spatial(omega_dual, we2)

    chi = dual_weight(instance.e2, we1)
    omega_outer = VectorStateData(chi.algebra, vec)
    s12 = relative_entropy_spatial(omega_outer, chi)

    return CheckReport(abs(s1 - s2 - s12), {"s1": s1, "s2": s2, "s12": s12})


# ---------------------------------------------------------------------------
# Additivity along a chain N3 in N2 in N1


class ChainInstance(namedtuple("ChainInstance", "n1 n2 n3 omega f1 f2")):
    """A chain N3 in N2 in N1, a vector state on N2, and the expectations
    F1: N1 -> N2 and F2: N2 -> N3."""

    __slots__ = ()


def random_chain_instance(rng: np.random.Generator) -> ChainInstance:
    """Three nested tensor-leg factors, rotated by a Haar unitary, with a
    random vector.

    The chain is M_8 (x) 1_2 > M_4 (x) 1_4 > M_2 (x) 1_8 on C^16, each step
    tracing out one qubit leg.  The middle algebra is square in the ambient
    space, so a generic vector is cyclic and separating for it, which is
    what the additivity statement needs.  Randomness enters through the
    global rotation and the vector.
    """
    u = random_unitary(16, rng)
    n1, n2, n3 = (build_algebra([b]).conjugated(u) for b in [(8, 2), (4, 4), (2, 8)])
    f1 = ConditionalExpectationMap(n1, n2)
    f2 = ConditionalExpectationMap(n2, n3)
    omega = _cyclic_separating_vector(n2, rng)
    return ChainInstance(n1=n1, n2=n2, n3=n3, omega=omega, f1=f1, f2=f2)


def entropy_additivity_chain(instance: ChainInstance) -> CheckReport:
    """S(w, w F2 F1) against S(w, w F2) + S(w, w F1) on the chain: the values
    composed, f2 and f1, and the residual |composed - f2 - f1|."""
    omega = instance.omega
    if not np.all(omega.cyclic & omega.separating):
        raise ValueError("vector must be cyclic and separating for the middle algebra")
    vec = omega.vector
    rank_one = _outer(vec)

    composed = compose_expectations(instance.f1, instance.f2)
    on_n1 = VectorStateData(instance.n1, vec)
    s_both = relative_entropy_spatial(on_n1, composed.pull_back(rank_one))
    s_f1 = relative_entropy_spatial(on_n1, instance.f1.pull_back(rank_one))
    s_f2 = relative_entropy_spatial(
        VectorStateData(instance.n2, vec), instance.f2.pull_back(rank_one)
    )
    return CheckReport(abs(s_both - s_f2 - s_f1), {"composed": s_both, "f2": s_f2, "f1": s_f1})


# ---------------------------------------------------------------------------
# The five standard relative-entropy properties


def check_entropy_identity(which: int, rng: np.random.Generator) -> CheckReport:
    """Check one of the five textbook properties of relative entropy.

    1: chain rule across a trace-preserving expectation,
    2: monotone convergence along a finite filtration of subalgebras,
    3: the bound S(w, w1) <= ln(1/mu) when w1 dominates mu*w,
    4: monotonicity under restriction to a subalgebra,
    5: the three-term splitting over a tensor product.

    The residual is the identity violation (or the amount by which an
    inequality is exceeded), for the caller to hold to the report's
    tolerance; the values are floats and lists of floats.  Instances are
    random but fully determined by the generator state.
    """
    if which not in _CHECKS:
        raise ValueError("which must be between 1 and 5")
    check, tolerance = _CHECKS[which]
    residual, values = check(rng)
    return CheckReport(residual, values, tolerance)


def _restricted(state: WeightDensity, algebra: MatrixBlockAlgebra) -> WeightDensity:
    return canonical_density(algebra, state.matrix)


def _check_chain_rule(rng: np.random.Generator) -> tuple[float, dict]:
    d, e = int(rng.integers(2, 4)), 2
    full = build_algebra([(d * e, 1)])
    u = random_unitary(d * e, rng)
    sub = build_algebra([(d, e)]).conjugated(u)
    exp = ConditionalExpectationMap(full, sub)
    omega = random_faithful_state(full, rng)
    psi = random_faithful_state(sub, rng)
    lhs = relative_entropy_umegaki(omega, exp.pull_back(psi))
    mid = relative_entropy_umegaki(_restricted(omega, sub), psi)
    tail = relative_entropy_umegaki(omega, exp.pull_back(omega))
    return abs(lhs - mid - tail), {"joint": lhs, "restricted": mid, "expectation_term": tail}


def _check_filtration(rng: np.random.Generator) -> tuple[float, dict]:
    full = build_algebra([(8, 1)])
    tower = [build_algebra([(2, 4)]), build_algebra([(4, 2)]), build_algebra([(8, 1)])]
    omega1 = random_faithful_state(full, rng)
    omega2 = random_faithful_state(full, rng)
    values = [
        relative_entropy_umegaki(_restricted(omega1, m), _restricted(omega2, m))
        for m in tower
    ]
    final = relative_entropy_umegaki(omega1, omega2)
    slack = max(
        max(values[i] - values[i + 1] for i in range(len(values) - 1)),
        abs(values[-1] - final),
    )
    return max(0.0, slack), {"sequence": values, "full": final}


def _check_domination_bound(rng: np.random.Generator) -> tuple[float, dict]:
    d = int(rng.integers(2, 5))
    full = build_algebra([(d, 1)])
    omega = random_faithful_state(full, rng)
    chi = random_faithful_state(full, rng)
    mu = float(rng.uniform(0.2, 0.9))
    dominating = omega.mixed_with(chi, mu)
    value = relative_entropy_umegaki(omega, dominating)
    residual = max(0.0, value - np.log(1.0 / mu))
    return residual, {"entropy": value, "bound": float(np.log(1.0 / mu)), "mu": mu}


def _check_restriction_monotonicity(rng: np.random.Generator) -> tuple[float, dict]:
    d, e = int(rng.integers(2, 4)), 2
    full = build_algebra([(d * e, 1)])
    sub = build_algebra([(d, e)]).conjugated(random_unitary(d * e, rng))
    omega = random_faithful_state(full, rng)
    phi = random_faithful_state(full, rng)
    big = relative_entropy_umegaki(omega, phi)
    small = relative_entropy_umegaki(_restricted(omega, sub), _restricted(phi, sub))
    return max(0.0, small - big), {"full": big, "restricted": small}


def _check_tensor_splitting(rng: np.random.Generator) -> tuple[float, dict]:
    d1 = int(rng.integers(2, 5))
    d2 = int(rng.integers(2, 5))
    full = build_algebra([(d1 * d2, 1)])
    left = build_algebra([(d1, d2)])
    right = left.commutant()
    phi = random_faithful_state(full, rng)
    phi1 = _restricted(phi, left)
    phi2 = _restricted(phi, right)
    psi1 = random_faithful_state(left, rng)
    psi2 = random_faithful_state(right, rng)

    def product_density(a: WeightDensity, b: WeightDensity) -> WeightDensity:
        mat = np.kron(a.intrinsic_blocks()[0], b.intrinsic_blocks()[0])
        return WeightDensity(full, [mat])

    lhs = relative_entropy_umegaki(phi, product_density(psi1, psi2))
    split = relative_entropy_umegaki(phi1, psi1) + relative_entropy_umegaki(phi2, psi2)
    inner = relative_entropy_umegaki(phi, product_density(phi1, phi2))
    return abs(lhs - split - inner), {"joint": lhs, "marginal_sum": split, "correlation": inner}


# which -> (check, tolerance); each check returns (residual, values)
_CHECKS = {
    1: (_check_chain_rule, 1e-8),
    2: (_check_filtration, 1e-9),
    3: (_check_domination_bound, 1e-9),
    4: (_check_restriction_monotonicity, 1e-9),
    5: (_check_tensor_splitting, 1e-8),
}
