"""The findim-suite runner: identity and index batteries on finite-dimensional algebras."""

from __future__ import annotations

import time

import numpy as np

from ..findim import (
    VectorStateData,
    build_algebra,
    check_entropy_identity,
    cyclic_group_unitaries,
    entropy_additivity_chain,
    entropy_difference_identity,
    group_average_expectation,
    kosaki_index,
    random_chain_instance,
    random_difference_instance,
    random_faithful_state,
    random_unitary,
    relative_entropy_spatial,
    relative_entropy_umegaki,
    symmetric_group_unitaries,
)
from .config import ExperimentConfig
from .report import CaseRecord, Verdict
from .runner import _group_verdict, _residual_case


def run_findim(config: ExperimentConfig):
    n = config.instances
    timings: dict = {}
    cases: list[CaseRecord] = []
    verdicts: list[Verdict] = []

    def clocked(label, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[label] = time.perf_counter() - t0
        return result

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

    araki = clocked("araki", lambda: [araki_case(k) for k in range(n)])
    cases.extend(araki)
    verdicts.append(_group_verdict("spatial-equals-trace-form", araki))

    def difference_case(k: int) -> CaseRecord:
        rng = np.random.default_rng([config.seed, 2, k])
        side = (2, 3, 4)[k % 3]
        rep = entropy_difference_identity(random_difference_instance(rng, side=side))
        return _residual_case(
            f"difference-{k:03d}",
            {"side": side},
            {"s1": rep.s1, "s2": rep.s2, "s12": rep.s12},
            rep.residual,
            1e-6,
        )

    diff = clocked("difference", lambda: [difference_case(k) for k in range(n)])
    cases.extend(diff)
    verdicts.append(_group_verdict("expectation-difference-identity", diff))

    def chain_case(k: int) -> CaseRecord:
        rng = np.random.default_rng([config.seed, 3, k])
        rep = entropy_additivity_chain(random_chain_instance(rng))
        return _residual_case(
            f"chain-{k:03d}",
            {},
            {"composed": rep.s_composed, "f2": rep.s_f2, "f1": rep.s_f1},
            rep.residual,
            1e-6,
        )

    chain_count = max(n // 2, 5)
    chain = clocked("chain", lambda: [chain_case(k) for k in range(chain_count)])
    cases.extend(chain)
    verdicts.append(_group_verdict("expectation-additivity-chain", chain))

    def identity_case(which: int) -> CaseRecord:
        rng = np.random.default_rng([config.seed, 4, which])
        rep = check_entropy_identity(which, rng)
        values = {
            k: [float(x) for x in v] if isinstance(v, tuple) else float(v)
            for k, v in rep.values.items()
        }
        return _residual_case(
            f"identity-{which}", {"which": which}, values, rep.residual, rep.tolerance
        )

    idents = clocked("identities", lambda: [identity_case(w) for w in range(1, 6)])
    cases.extend(idents)
    verdicts.append(_group_verdict("relative-entropy-identities", idents))

    def index_cases() -> list[CaseRecord]:
        out = []
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        flip = np.kron(sx, sx)
        targets = [
            ("cyclic-2", build_algebra([(4, 1)]), [np.eye(4, dtype=complex), flip], 2.0),
            ("cyclic-3", build_algebra([(3, 1)]), cyclic_group_unitaries(3), 3.0),
            ("symmetric-3", build_algebra([(6, 1)]), symmetric_group_unitaries(3), 6.0),
        ]
        for label, algebra, units, want in targets:
            exp = group_average_expectation(algebra, units)
            got = float(kosaki_index(exp))
            out.append(
                _residual_case(
                    f"index-{label}",
                    {"group_order": want},
                    {"index": got},
                    abs(got - want),
                    1e-9,
                )
            )
        return out

    idx = clocked("index", index_cases)
    cases.extend(idx)
    verdicts.append(_group_verdict("group-fixed-point-index", idx))

    return cases, verdicts, timings
