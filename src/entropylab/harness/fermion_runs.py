"""The six fermion runners: lattice experiments on the free-fermion chain.

``validate_config`` has built and checked every region they evaluate, at
every size, when the config was parsed; only collapse's Moebius images,
drawn here from a seeded generator, are checked when the run starts, by
the same ``check_sites``.  The runners share their pieces: ``_per_size``
evaluates and times each lattice size in order; ``_limit`` gives the
N -> infinity verdict on a deficit and ``_decreasing`` the verdict that a
sequence shrinks with N.
"""

from __future__ import annotations

import time

import numpy as np

from ..lattice import (
    RegionSpec,
    central_charge_fit,
    cross_ratio,
    cross_ratio_collapse,
    entropy_deficit,
    equal_eta_family,
    finite_size_extrapolate,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
    shrink_experiment,
)
from .config import ExperimentConfig, check_sites
from .report import CaseRecord, Verdict
from .runner import _group_verdict, _residual_case


def _per_size(config, compute) -> tuple[list, dict]:
    """``compute(n, ground_state_correlations(n))`` for each size in order.

    Returns the results and each size's wall time, keyed ``N=<n>``.
    """
    results: list = []
    timings: dict = {}
    for n in config.sizes:
        t0 = time.perf_counter()
        results.append(compute(n, ground_state_correlations(n)))
        timings[f"N={n}"] = time.perf_counter() - t0
    return results, timings


def _decreasing(name, label, cases, values) -> list[Verdict]:
    """The verdict that ``values``, one per size case, strictly decrease (two sizes on)."""
    if len(values) < 2:
        return []
    return [
        Verdict(
            name=name,
            passed=all(b < a for a, b in zip(values, values[1:])),
            detail=f"{label} {['%.3e' % v for v in values]}",
            case_ids=tuple(c.case_id for c in cases),
        )
    ]


def _limit(config, cases, key, limit, prefix, name) -> Verdict:
    """The N -> infinity verdict ``<name>-*`` on the per-size deficits ``values[key]``.

    From three sizes on, the deficit is extrapolated in 1/N, reported as
    ``limit``, and the fit is appended to ``cases`` as
    ``<prefix>-extrapolation``; with fewer sizes |deficit| is bounded at
    every size.
    """
    tol = config.effective_tolerance
    ids = tuple(c.case_id for c in cases)
    if len(cases) < 3:
        magnitudes = [abs(c.values[key]) for c in cases]
        return Verdict(
            name=f"{name}-within-tolerance",
            passed=all(m <= tol for m in magnitudes),
            detail=f"max |{key}| = {max(magnitudes):.3e} vs {tol:.1e}",
            case_ids=ids,
        )
    ext = finite_size_extrapolate([(n, c.values[key]) for n, c in zip(config.sizes, cases)])
    case_id = f"{prefix}-extrapolation"
    cases.append(
        CaseRecord(
            case_id=case_id,
            inputs={"model": "v + a/N + b/N^2", "constituents": list(ids)},
            values={"D_inf": ext.value, "max_fit_residual": ext.max_residual},
            residual=abs(ext.value),
            tolerance=tol,
            passed=abs(ext.value) <= tol,
        )
    )
    return Verdict(
        name=f"{name}-extrapolates-to-zero",
        passed=abs(ext.value) <= tol,
        detail=f"|{limit}| = {abs(ext.value):.3e} vs {tol:.1e}",
        case_ids=ids + (case_id,),
    )


def run_duality(config: ExperimentConfig):
    spec = RegionSpec(config.arcs)
    arc_flag = config.r_convention == "arc"

    def case(n, corr) -> CaseRecord:
        rep = entropy_deficit(corr, spec, config.c, arc_flag)
        return CaseRecord(
            case_id=f"duality-N{n}",
            inputs={"N": n, "c": config.c, "r_convention": config.r_convention},
            values={
                "S_I": rep.s_region,
                "S_Icomp": rep.s_complement,
                "eta": rep.eta,
                "G_I": rep.g_region,
                "G_Icomp": rep.g_complement,
                "D": rep.deficit,
                "mu": rep.mu,
                "D_hat": rep.dual_deficit,
            },
            residual=abs(rep.deficit),
        )

    cases, timings = _per_size(config, case)
    verdicts = _decreasing(
        "deficit-magnitude-decreasing", "|D| sequence", cases,
        [abs(c.values["D"]) for c in cases],
    )
    verdicts.append(_limit(config, cases, "D", "D_inf", "duality", "deficit"))
    return cases, verdicts, timings


def run_sweep(config: ExperimentConfig):
    (a1, b1), (a2, _) = RegionSpec(config.arcs).arcs
    specs = {l: RegionSpec(((a1, b1), (a2, a2 + l))) for l in config.sweep_lengths}
    arc_flag = config.r_convention == "arc"
    tol = config.effective_tolerance

    def size_cases(n, corr) -> list[CaseRecord]:
        memo: dict = {}  # the fixed first arc is evaluated once per size
        cases = []
        for length in config.sweep_lengths:
            value = product_state_relative_entropy(corr, specs[length], memo)
            cases.append(
                CaseRecord(
                    case_id=f"sweep-N{n}-l{length:g}",
                    inputs={"N": n, "second_arc_length": length},
                    values={"eta": cross_ratio(specs[length], arc_flag), "S_product": value},
                    residual=max(0.0, -value),
                    tolerance=tol,
                    passed=value >= -tol,
                )
            )
        return cases

    per_size, timings = _per_size(config, size_cases)
    cases = [c for group in per_size for c in group]
    verdicts = [
        _group_verdict(
            "product-relative-entropy-nonnegative",
            cases,
            detail=f"min S = {min((c.values['S_product'] for c in cases), default=0.0):.3e}",
        )
    ]
    return cases, verdicts, timings


def run_cfit(config: ExperimentConfig):
    tol = config.effective_tolerance

    def case(n, corr) -> CaseRecord:
        lengths = list(config.lengths) or [
            n // 16, n // 8, 3 * n // 16, n // 4, 3 * n // 8, n // 2
        ]
        entropies = [region_entropy(corr, np.arange(l)) for l in lengths]
        fit = central_charge_fit(lengths, entropies, n)
        return _residual_case(
            f"cfit-N{n}",
            {"N": n, "lengths": lengths},
            {
                "c_hat": fit.c_hat,
                "intercept": fit.intercept,
                "fit_residual_norm": fit.residual_norm,
            },
            abs(fit.c_hat - 1.0),
            tol,
        )

    cases, timings = _per_size(config, case)
    verdicts = [
        _group_verdict(
            "central-charge-near-one",
            cases,
            detail=f"c_hat at largest N: {cases[-1].values['c_hat']:.6f}",
        )
    ]
    return cases, verdicts, timings


def run_shrink(config: ExperimentConfig):
    spec = RegionSpec(config.arcs)
    tol = config.effective_tolerance

    def size_run(n, corr) -> tuple[list[CaseRecord], Verdict]:
        report = shrink_experiment(corr, spec, config.arc_index, list(config.schedule))
        cases = [
            CaseRecord(
                case_id=f"shrink-N{n}-step{k:02d}",
                inputs={"N": n, "length": step.length, "sites": step.sites_in_arc},
                values={"S_product": step.value, "target": report.target, "gap": step.gap},
                residual=abs(step.gap),
            )
            for k, step in enumerate(report.steps)
        ]
        final_gap = abs(report.gaps[-1])
        verdict = Verdict(
            name=f"shrink-gap-closes-N{n}",
            passed=report.eventually_monotone and final_gap <= tol,
            detail=(
                f"final gap {final_gap:.3e} vs {tol:.1e}, "
                f"monotone from step {report.monotone_from}"
            ),
            case_ids=tuple(c.case_id for c in cases),
        )
        return cases, verdict

    results, timings = _per_size(config, size_run)
    cases = [c for group, _ in results for c in group]
    return cases, [verdict for _, verdict in results], timings


def run_collapse(config: ExperimentConfig):
    rng = np.random.default_rng([config.seed, 10])
    family = equal_eta_family(RegionSpec(config.arcs), config.family_size, rng)
    check_sites(config.sizes, family[1:])
    tol = config.effective_tolerance
    largest = max(config.sizes)

    def case(n, corr) -> CaseRecord:
        rep = cross_ratio_collapse(
            corr, family, use_arc_length=config.r_convention == "arc"
        )
        values = {"eta": rep.eta, "spread": rep.spread}
        for j, v in enumerate(rep.values):
            values[f"S_geometry{j}"] = v
        # The tolerance binds at the largest size; the smaller sizes are
        # there to exhibit the trend.
        return CaseRecord(
            case_id=f"collapse-N{n}",
            inputs={"N": n, "family_size": len(family)},
            values=values,
            residual=rep.spread,
            tolerance=tol if n == largest else None,
            passed=rep.spread <= tol if n == largest else None,
        )

    cases, timings = _per_size(config, case)
    verdicts = [
        _group_verdict(
            "equal-eta-values-collapse",
            cases,
            detail=f"spread {cases[-1].values['spread']:.3e} vs {tol:.1e} at N={largest}",
        )
    ]
    verdicts += _decreasing(
        "collapse-spread-decreasing", "spreads", cases, [c.values["spread"] for c in cases]
    )
    return cases, verdicts, timings


def run_twod(config: ExperimentConfig):
    left = RegionSpec(config.arcs)
    right = RegionSpec(config.right_arcs)
    arc_flag = config.r_convention == "arc"

    def case(n, corr) -> CaseRecord:
        rep_l = entropy_deficit(corr, left, config.c, arc_flag)
        rep_r = entropy_deficit(corr, right, config.c, arc_flag)
        # For a product of two chiral nets, double cones factor into left
        # and right arcs of equal count (validate_config checks it), and
        # the regularized entropy and the deficit add.
        deficit = rep_l.deficit + rep_r.deficit
        return CaseRecord(
            case_id=f"twod-N{n}",
            inputs={"N": n, "c": config.c},
            values={
                "D_left": rep_l.deficit,
                "D_right": rep_r.deficit,
                "D_2d": deficit,
                "G_2d": rep_l.g_region + rep_r.g_region,
            },
            residual=abs(deficit),
        )

    cases, timings = _per_size(config, case)
    verdicts = [_limit(config, cases, "D_2d", "D_2d,inf", "twod", "two-d-deficit")]
    return cases, verdicts, timings

