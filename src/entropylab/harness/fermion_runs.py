"""The six fermion runners: lattice experiments on the free-fermion chain.

The lattice computes quantities (entropies, relative entropies, the
deficit, geometry and fits); the runners here compose the experiments
from them: the region or regions at each size, the cases and the
verdicts.  ``validate_config`` has built and checked every region they
evaluate, at every size, when the config was parsed, so a runner repeats
none of its argument checks; only collapse's Moebius images, drawn here
from a seeded generator, are checked when the run starts, by the same
``check_sites``.  The runners share their pieces: ``_per_size``
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
    entropy_deficit,
    equal_eta_family,
    finite_size_extrapolate,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
)
from ..regions import arc_range, shrink_arcs, swept_arcs
from .config import ExperimentConfig, cfit_lengths, check_sites
from .report import CaseRecord, Verdict
from .runner import _group_verdict, _residual_case

ETA_TOLERANCE = 1e-12  # how far the cross ratios of a collapse family may differ


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
    eta = cross_ratio(spec) if len(spec.arcs) == 2 else None

    def case(n, corr) -> CaseRecord:
        rep = entropy_deficit(corr, spec, config.c)
        # Constant columns the perfbench references still hold; they go when those are regenerated.
        return CaseRecord(
            case_id=f"duality-N{n}",
            inputs={"N": n, "c": config.c, "r_convention": "chord"},
            values={
                "S_I": rep.s_region,
                "S_Icomp": rep.s_complement,
                "eta": eta,
                "G_I": rep.g_region,
                "G_Icomp": rep.g_complement,
                "D": rep.deficit,
                "mu": 1.0,
                "D_hat": 0.0,
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
    spec = RegionSpec(config.arcs)
    specs = {l: RegionSpec(swept_arcs(spec, l)) for l in config.sweep_lengths}
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
                    values={"eta": cross_ratio(specs[length]), "S_product": value},
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
        lengths = cfit_lengths(n)
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
    """S(omega, omega-product) while one arc's length runs the schedule.

    The scheduled arc keeps its left endpoint; the target is the value of
    the remaining arcs alone, which the steps approach as the arc shrinks
    away.  The final step of a schedule of two or more may leave the arc
    without sites, as ``validate_config`` allows, and then equals the target.
    """
    schedule = config.schedule
    others, arcs = shrink_arcs(RegionSpec(config.arcs), config.arc_index, schedule)
    tol = config.effective_tolerance

    def size_run(n, corr) -> tuple[list[CaseRecord], Verdict]:
        # The fixed arcs enter every step; one memo evaluates each site set once.
        memo: dict = {}
        target = product_state_relative_entropy(corr, RegionSpec(others), memo)
        cases = []
        for k, (length, arc) in enumerate(zip(schedule, arcs)):
            sites = arc_range(n, arc)[1]
            if sites == 0 and 0 < k == len(schedule) - 1:
                value = target
            else:
                value = product_state_relative_entropy(corr, RegionSpec(others + [arc]), memo)
            cases.append(
                CaseRecord(
                    case_id=f"shrink-N{n}-step{k:02d}",
                    inputs={"N": n, "length": length, "sites": sites},
                    values={"S_product": value, "target": target, "gap": value - target},
                    residual=abs(value - target),
                )
            )
        monotone_from = _monotone_from([c.values["gap"] for c in cases])
        final_gap = cases[-1].residual
        verdict = Verdict(
            name=f"shrink-gap-closes-N{n}",
            passed=monotone_from < max(1, len(cases) - 1) and final_gap <= tol,
            detail=f"final gap {final_gap:.3e} vs {tol:.1e}, monotone from step {monotone_from}",
            case_ids=tuple(c.case_id for c in cases),
        )
        return cases, verdict

    results, timings = _per_size(config, size_run)
    cases = [c for group, _ in results for c in group]
    return cases, [verdict for _, verdict in results], timings


def _monotone_from(gaps) -> int:
    """The least k from which no gap exceeds the one before it by more than
    1e-12: one past the last such rise, or 0 if there is none."""
    rises = (i for i in reversed(range(len(gaps) - 1)) if gaps[i + 1] > gaps[i] + 1e-12)
    return next(rises, -1) + 1


def run_collapse(config: ExperimentConfig):
    """Product-state relative entropies of a family of equal-cross-ratio
    regions, and their spread, at each size."""
    rng = np.random.default_rng([config.seed, 10])
    family = equal_eta_family(RegionSpec(config.arcs), config.family_size, rng)
    check_sites(config.sizes, family[1:])
    # Equal cross ratios are the hypothesis that makes the values comparable.
    etas = [cross_ratio(spec) for spec in family]
    if max(etas) - min(etas) > ETA_TOLERANCE:
        raise ValueError(
            f"cross ratios differ beyond tolerance: spread {max(etas) - min(etas):.3e}"
        )
    eta = float(np.mean(etas))
    tol = config.effective_tolerance
    largest = max(config.sizes)

    def case(n, corr) -> CaseRecord:
        entropies = [product_state_relative_entropy(corr, spec) for spec in family]
        spread = max(entropies) - min(entropies)
        values = {"eta": eta, "spread": spread}
        for j, v in enumerate(entropies):
            values[f"S_geometry{j}"] = v
        # The tolerance binds at the largest size; the smaller sizes are
        # there to exhibit the trend.
        return CaseRecord(
            case_id=f"collapse-N{n}",
            inputs={"N": n, "family_size": len(family)},
            values=values,
            residual=spread,
            tolerance=tol if n == largest else None,
            passed=spread <= tol if n == largest else None,
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

    def case(n, corr) -> CaseRecord:
        rep_l = entropy_deficit(corr, left, config.c)
        rep_r = entropy_deficit(corr, right, config.c)
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

