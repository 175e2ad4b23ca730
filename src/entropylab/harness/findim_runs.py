"""The findim-suite runner: identity and index batteries on finite-dimensional algebras.

The five batteries run one after another in this process, in one loop
that times each, keeps its cases and judges them in one verdict;
``timings.json`` holds each battery's seconds, which exclude every import
(numpy's and ``numpy.random``'s load before the first battery starts).
Each battery is one row of ``(label, verdict, evaluate, count, shapes)``:
case k of ``count`` has shape ``shapes[k % len(shapes)]`` (``_stacks``),
and ``evaluate(shape, ks)`` returns the records of one stack of cases of
that shape.  The cases that share a shape (araki's block, difference's
side; all chain cases) go through the findim primitives together, one
numpy call per step for up to ``MAX_STACK`` cases.  The identity and
index batteries are rows whose shapes are their checks or targets, one
case per stack.  Every case of the araki, difference, chain and
identity batteries draws from its own generator,
``default_rng([seed, battery, k])``, so a case's record depends on the
seed, its battery and its index alone, not on how many cases run, in what
order or in which stack.  The difference and chain cases bind at the
kind's tolerance, which the config echo shows; the others at their
battery's own.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
from numpy.random import default_rng

from ..findim import (
    ConditionalExpectationMap,
    VectorStateData,
    build_algebra,
    check_entropy_identity,
    entropy_additivity_chain,
    entropy_difference_identity,
    kosaki_index,
    random_chain_instance,
    random_difference_instance,
    random_faithful_state,
    random_unit_vector,
    random_unitary,
    relative_entropy_spatial,
    relative_entropy_umegaki,
)
from .config import ExperimentConfig
from .report import CaseRecord
from .runner import _group_verdict, _residual_case

# The most cases one stack holds.  A battery of any size runs in stacks of
# at most this many, so its memory does not grow with ``instances``.
MAX_STACK = 64

ARAKI_BLOCKS = [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (4, 4), (3, 5)]
DIFFERENCE_SIDES = (2, 3, 4)


def _stacks(count: int, shapes) -> list[tuple[object, range]]:
    """Case k of ``count`` has shape ``shapes[k % len(shapes)]``: the
    (shape, indices) stacks, each shape's cases in order, cut into stacks
    of at most MAX_STACK."""
    out = []
    for r, shape in enumerate(shapes):
        ks = range(r, count, len(shapes))
        out += [(shape, ks[start : start + MAX_STACK]) for start in range(0, len(ks), MAX_STACK)]
    return out


def index_targets():
    """(label, |G|, fixed points of Ad(G)) for each group of the index battery.

    The fixed points of Ad(G) on B(C^d) are the commutant of the algebra that
    G generates.  That algebra is the direct sum over the irreducible
    representations rho in G's representation of M_{d_rho} (x) 1 in a basis
    adapted to them (Peter-Weyl; Serre, Linear Representations of Finite
    Groups, 1977), so each target is built from that basis, the rows of V,
    and never found numerically.  The trace-preserving expectation onto it
    has index |G|, which is sum_rho d_rho^2 for a regular representation.

    - the flip sx (x) sx on C^4: its +1 and -1 eigenspaces, spanned by
      (e_0 + e_3, e_1 + e_2) and (e_0 - e_3, e_1 - e_2) over sqrt(2);
    - the regular representation of Z_3: the Fourier rows w^(kg)/sqrt(3);
    - the left regular representation of S_3 on its elements in
      ``itertools.permutations`` order: rows sqrt(d_rho/6) rho(g)_ij for the
      trivial, sign and 2-dimensional standard representations, ordered
      (rho, i, j).
    """
    flip = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]]) / np.sqrt(2)
    fourier = np.exp(2j * np.pi / 3 * np.outer(range(3), range(3))) / np.sqrt(3)
    # P(g) e_k = e_g(k) is the trivial plus the standard representation; the
    # standard one acts on the orthonormal frame of the complement of (1, 1, 1).
    frame = np.array([[1, -1, 0], [1, 1, -2]]) / np.sqrt([[2], [6]])
    group = list(itertools.permutations(range(3)))
    standard = np.array([frame @ np.eye(3)[:, list(g)] @ frame.T for g in group])
    sign = [(-1) ** sum(a > b for a, b in itertools.combinations(g, 2)) for g in group]
    symmetric = np.concatenate(
        [
            np.ones((1, 6)) / np.sqrt(6),
            np.array([sign]) / np.sqrt(6),
            standard.reshape(6, 4).T / np.sqrt(3),
        ]
    )
    groups = [
        ("cyclic-2", 2.0, [(1, 2), (1, 2)], flip),
        ("cyclic-3", 3.0, [(1, 1)] * 3, fourier),
        ("symmetric-3", 6.0, [(1, 1), (1, 1), (2, 2)], symmetric),
    ]
    return [
        (label, order, build_algebra(blocks).conjugated(v.conj().T).commutant())
        for label, order, blocks, v in groups
    ]


def run_findim(config: ExperimentConfig):
    """Cases, verdicts and timings (each battery's seconds) of the findim-suite batteries."""
    n = config.instances
    tol = config.effective_tolerance

    def generators(battery: int, ks: list[int]) -> list:
        return [default_rng([config.seed, battery, k]) for k in ks]

    def records(name, ks, inputs, values, residual, tolerance) -> list[CaseRecord]:
        """One record per case of a stack, from its (name -> array) values."""
        return [
            _residual_case(
                f"{name}-{k:03d}",
                inputs,
                {key: float(value[i]) for key, value in values.items()},
                float(residual[i]),
                tolerance,
            )
            for i, k in enumerate(ks)
        ]

    def araki_cases(block, ks) -> list[CaseRecord]:
        a, b = block
        rngs = generators(1, ks)
        alg = build_algebra([block]).conjugated(random_unitary(a * b, rngs))
        omega = VectorStateData(alg, random_unit_vector(a * b, rngs))
        sigma = random_faithful_state(alg, rngs)
        spatial = relative_entropy_spatial(omega, sigma)
        trace_form = relative_entropy_umegaki(omega.state(), sigma)
        values = {"spatial": spatial, "trace_form": trace_form}
        return records("araki", ks, {"block": [a, b]}, values, abs(spatial - trace_form), 1e-8)

    def difference_cases(side, ks) -> list[CaseRecord]:
        rep = entropy_difference_identity(random_difference_instance(generators(2, ks), side=side))
        return records("difference", ks, {"side": side}, rep.values, rep.residual, tol)

    def chain_cases(_, ks) -> list[CaseRecord]:
        rep = entropy_additivity_chain(random_chain_instance(generators(3, ks)))
        return records("chain", ks, {}, rep.values, rep.residual, tol)

    def identity_cases(which, _) -> list[CaseRecord]:
        rep = check_entropy_identity(which, default_rng([config.seed, 4, which]))
        return [
            _residual_case(
                f"identity-{which}", {"which": which}, rep.values, rep.residual, rep.tolerance
            )
        ]

    def index_cases(target, _) -> list[CaseRecord]:
        label, want, fixed = target
        source = build_algebra([(fixed.ambient_dim, 1)])
        got = float(kosaki_index(ConditionalExpectationMap(source, fixed)))
        return [
            _residual_case(
                f"index-{label}", {"group_order": want}, {"index": got}, abs(got - want), 1e-9
            )
        ]

    targets = index_targets()
    # (label, verdict, the records of a stack of cases, case count, shapes)
    batteries = [
        ("araki", "spatial-equals-trace-form", araki_cases, n, ARAKI_BLOCKS),
        ("difference", "expectation-difference-identity", difference_cases, n, DIFFERENCE_SIDES),
        ("chain", "expectation-additivity-chain", chain_cases, max(n // 2, 5), (None,)),
        ("identities", "relative-entropy-identities", identity_cases, 5, range(1, 6)),
        ("index", "group-fixed-point-index", index_cases, len(targets), targets),
    ]
    cases, verdicts, timings = [], [], {}
    for label, verdict, evaluate, count, shapes in batteries:
        start = time.perf_counter()
        by_index = {}
        for shape, stack in _stacks(count, shapes):
            by_index.update(zip(stack, evaluate(shape, stack)))
        battery = [by_index[k] for k in range(count)]
        timings[label] = time.perf_counter() - start
        cases.extend(battery)
        verdicts.append(_group_verdict(verdict, battery))
    return cases, verdicts, timings
