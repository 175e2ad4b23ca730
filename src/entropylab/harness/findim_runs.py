"""The findim-suite runner: identity and index batteries on finite-dimensional algebras.

The five batteries run one after another in this process, in one loop
that times each, keeps its cases and judges them in one verdict;
``timings.json`` holds each battery's seconds.  Every case of the araki,
difference, chain and identity batteries draws from its own generator,
``default_rng([seed, battery, k])``, so a case's record depends on the
seed, its battery and its index alone, not on how many cases run or in
what order.  The difference and chain cases bind at the kind's tolerance,
which the config echo shows; the others at their battery's own.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

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
    random_unitary,
    relative_entropy_spatial,
    relative_entropy_umegaki,
)
from .config import ExperimentConfig
from .report import CaseRecord
from .runner import _group_verdict, _residual_case


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
    perms = [np.eye(3)[:, list(g)] for g in itertools.permutations(range(3))]
    standard = np.array([frame @ p @ frame.T for p in perms])
    symmetric = np.concatenate(
        [
            np.ones((1, 6)) / np.sqrt(6),
            np.array([[np.linalg.det(p) for p in perms]]) / np.sqrt(6),
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

    def araki_case(k: int) -> CaseRecord:
        rng = np.random.default_rng([config.seed, 1, k])
        shapes = [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (4, 4), (3, 5)]
        a, b = shapes[k % len(shapes)]
        alg = build_algebra([(a, b)]).conjugated(random_unitary(a * b, rng))
        v = rng.normal(size=a * b) + 1j * rng.normal(size=a * b)
        omega = VectorStateData(alg, v / np.linalg.norm(v))
        sigma = random_faithful_state(alg, rng)
        spatial = relative_entropy_spatial(omega, sigma)
        trace_form = relative_entropy_umegaki(omega.state(), sigma)
        return _residual_case(
            f"araki-{k:03d}",
            {"block": [a, b]},
            {"spatial": spatial, "trace_form": trace_form},
            abs(spatial - trace_form),
            1e-8,
        )

    def difference_case(k: int) -> CaseRecord:
        rng = np.random.default_rng([config.seed, 2, k])
        side = (2, 3, 4)[k % 3]
        rep = entropy_difference_identity(random_difference_instance(rng, side=side))
        return _residual_case(
            f"difference-{k:03d}",
            {"side": side},
            {"s1": rep.s1, "s2": rep.s2, "s12": rep.s12},
            rep.residual,
            tol,
        )

    def chain_case(k: int) -> CaseRecord:
        rng = np.random.default_rng([config.seed, 3, k])
        rep = entropy_additivity_chain(random_chain_instance(rng))
        return _residual_case(
            f"chain-{k:03d}",
            {},
            {"composed": rep.s_composed, "f2": rep.s_f2, "f1": rep.s_f1},
            rep.residual,
            tol,
        )

    def identity_case(which: int) -> CaseRecord:
        rng = np.random.default_rng([config.seed, 4, which])
        rep = check_entropy_identity(which, rng)
        return _residual_case(
            f"identity-{which}", {"which": which}, rep.values, rep.residual, rep.tolerance
        )

    def index_case(group) -> CaseRecord:
        label, want, target = group
        source = build_algebra([(target.ambient_dim, 1)])
        got = float(kosaki_index(ConditionalExpectationMap(source, target)))
        return _residual_case(
            f"index-{label}", {"group_order": want}, {"index": got}, abs(got - want), 1e-9
        )

    batteries = [
        ("araki", "spatial-equals-trace-form", araki_case, range(n)),
        ("difference", "expectation-difference-identity", difference_case, range(n)),
        ("chain", "expectation-additivity-chain", chain_case, range(max(n // 2, 5))),
        ("identities", "relative-entropy-identities", identity_case, range(1, 6)),
        ("index", "group-fixed-point-index", index_case, index_targets()),
    ]
    cases, verdicts, timings = [], [], {}
    for label, verdict, case, ks in batteries:
        start = time.perf_counter()
        battery = [case(k) for k in ks]
        timings[label] = time.perf_counter() - start
        cases.extend(battery)
        verdicts.append(_group_verdict(verdict, battery))
    return cases, verdicts, timings
