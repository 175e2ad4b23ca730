"""Acceptance battery.

One test per shipped guarantee, each at its stated tolerance and budget.
Every test prints a single summary line with the measured numbers so a
verbose run doubles as a calibration record.
"""

import math
import time

import numpy as np
import pytest

from entropylab.findim import (
    ConditionalExpectationMap,
    VectorStateData,
    build_algebra,
    check_entropy_identity,
    compose_expectations,
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
from entropylab.harness import ExperimentConfig, fermion_runs
from entropylab.harness.findim_runs import index_targets
from entropylab.harness.runner import run_experiment
from entropylab.lattice import (
    RegionSpec,
    central_charge_fit,
    entropy_deficit,
    finite_size_extrapolate,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
)
from oracles import (
    exact_diagonalization_entropies,
    lattice_region,
    leg_average,
    pimsner_popa_check,
    quasi_basis,
)

TWO_ARCS = RegionSpec([(0.30, 1.45), (2.65, 4.10)])
RIGHT_ARCS = RegionSpec([(0.50, 1.70), (3.00, 4.40)])
THREE_ARCS = RegionSpec([(0.2, 1.1), (2.0, 2.9), (4.1, 5.3)])


def _line(num, name, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {name}: {flag} ({detail})")


def test_criterion_01_spatial_entropy_equals_trace_form():
    shapes = [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 4), (4, 4), (3, 5)]
    worst = 0.0
    t0 = time.perf_counter()
    for k in range(200):
        rng = np.random.default_rng([101, k])
        a, b = shapes[k % len(shapes)]
        alg = build_algebra([(a, b)]).conjugated(random_unitary(a * b, rng))
        v = rng.normal(size=a * b) + 1j * rng.normal(size=a * b)
        omega = VectorStateData(alg, v / np.linalg.norm(v))
        sigma = random_faithful_state(alg, rng)
        gap = abs(
            relative_entropy_spatial(omega, sigma)
            - relative_entropy_umegaki(omega.state(), sigma)
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _line(1, "spatial-vs-trace-form x200", ok, f"worst {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_difference_identity():
    worst = 0.0
    t0 = time.perf_counter()
    for k in range(100):
        rng = np.random.default_rng([102, k])
        rep = entropy_difference_identity(
            random_difference_instance(rng, side=(2, 3, 4)[k % 3])
        )
        worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _line(2, "difference-identity x100", ok, f"worst {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_03_chain_additivity():
    worst = 0.0
    t0 = time.perf_counter()
    for k in range(100):
        rng = np.random.default_rng([103, k])
        rep = entropy_additivity_chain(random_chain_instance(rng))
        worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6
    _line(3, "chain-additivity x100", ok, f"worst {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-6


def test_criterion_04_entropy_property_suite():
    chain = check_entropy_identity(1, np.random.default_rng([104, 1]))
    filt = check_entropy_identity(2, np.random.default_rng([104, 2]))
    bound = check_entropy_identity(3, np.random.default_rng([104, 3]))
    tensor = check_entropy_identity(5, np.random.default_rng([104, 5]))
    worst_mono = 0.0
    for k in range(200):
        mono = check_entropy_identity(4, np.random.default_rng([104, 4, k]))
        worst_mono = max(worst_mono, mono.residual)
    seq = filt.values["sequence"]
    final_exact = seq[-1] == filt.values["full"]
    ok = (
        chain.residual <= 1e-8
        and final_exact
        and bound.residual <= 1e-9
        and worst_mono <= 1e-9
        and tensor.residual <= 1e-8
    )
    _line(
        4,
        "property-suite",
        ok,
        f"chain {chain.residual:.2e}, filtration exact {final_exact}, "
        f"bound {bound.residual:.2e}, mono x200 {worst_mono:.2e}, "
        f"tensor {tensor.residual:.2e}",
    )
    assert chain.residual <= 1e-8
    assert final_exact
    assert bound.residual <= 1e-9
    assert worst_mono <= 1e-9
    assert tensor.residual <= 1e-8


def test_criterion_05_index_battery():
    worst_order = 0.0
    worst_dual = 0.0
    for label, order, target in index_targets():
        e = ConditionalExpectationMap(build_algebra([(target.ambient_dim, 1)]), target)
        got = float(kosaki_index(e))
        worst_order = max(worst_order, abs(got - order))
        qb = quasi_basis(e, np.random.default_rng(105))
        worst_dual = max(worst_dual, abs(qb.index_value - got))

    n1 = build_algebra([(8, 2)])
    f1 = leg_average(n1, 4, 2, 2)
    f2 = leg_average(f1.target, 2, 2, 4)
    i1, i2 = kosaki_index(f1), kosaki_index(f2)
    ic = kosaki_index(compose_expectations(f1, f2))
    mult_err = abs(ic - i1 * i2) / (i1 * i2)

    pp = pimsner_popa_check(f1, samples=500, rng=np.random.default_rng(106))
    control = pimsner_popa_check(
        f1, samples=50, rng=np.random.default_rng(107), bound=1.0
    )

    ok = (
        worst_order <= 1e-9
        and worst_dual <= 1e-8
        and mult_err <= 1e-8
        and pp.passed
        and not control.passed
    )
    _line(
        5,
        "index-battery",
        ok,
        f"|index-order| {worst_order:.2e}, dual-route {worst_dual:.2e}, "
        f"multiplicativity {mult_err:.2e}, operator bound worst {pp.worst_eigenvalue:.2e} "
        f"over {pp.samples} samples, tight-bound control fails {not control.passed}",
    )
    assert worst_order <= 1e-9
    assert worst_dual <= 1e-8
    assert mult_err <= 1e-8
    assert pp.passed
    assert not control.passed  # the inequality must be rejected past the true bound


def _random_spec(rng, max_arcs=2):
    arcs = []
    cursor = rng.uniform(0.0, 0.6)
    for _ in range(rng.integers(1, max_arcs + 1)):
        start = cursor + rng.uniform(0.2, 0.6)
        end = start + rng.uniform(0.4, 1.2)
        arcs.append((start, end))
        cursor = end
    if arcs[-1][1] >= 2.0 * math.pi:
        raise ValueError("ran off the circle")
    return RegionSpec(arcs)


def test_criterion_06_gaussian_matches_exact_diagonalization():
    worst = 0.0
    checked = 0
    t0 = time.perf_counter()
    for n in (8, 10):
        corr = ground_state_correlations(n)
        rng = np.random.default_rng([108, n])
        attempts = 0
        while checked < (12 if n == 8 else 24) and attempts < 80:
            attempts += 1
            try:
                spec = _random_spec(rng)
                exact = exact_diagonalization_entropies(n, spec)
                sites = lattice_region(n, spec)
            except ValueError:
                continue
            gap = abs(exact.region_entropy - region_entropy(corr, sites))
            if len(spec.arcs) > 1:
                gap = max(
                    gap,
                    abs(
                        exact.product_relative_entropy
                        - product_state_relative_entropy(corr, spec)
                    ),
                )
            worst = max(worst, gap)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and checked >= 20 and elapsed < 60.0
    _line(
        6,
        "gaussian-vs-exact",
        ok,
        f"worst |dS| {worst:.3e} over {checked} regions, {elapsed:.2f}s",
    )
    assert checked >= 20
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_07_purity_region_vs_complement():
    n = 512
    corr = ground_state_correlations(n)
    rng = np.random.default_rng(109)
    worst = 0.0
    checked = 0
    while checked < 50:
        try:
            spec = _random_spec(rng, max_arcs=3)
            inside = lattice_region(n, spec)
            outside = lattice_region(n, spec.complement())
        except ValueError:
            continue
        gap = abs(region_entropy(corr, inside) - region_entropy(corr, outside))
        worst = max(worst, gap)
        checked += 1
    ok = worst <= 1e-8
    _line(7, "purity S(A)=S(A')", ok, f"worst {worst:.3e} over {checked} regions, N={n}")
    assert worst <= 1e-8


def test_criterion_08_two_interval_deficit_vanishes():
    sizes = (256, 512, 1024, 2048)
    t0 = time.perf_counter()
    deficits = []
    for n in sizes:
        corr = ground_state_correlations(n)
        deficits.append(entropy_deficit(corr, TWO_ARCS, c=2.0).deficit)
    elapsed = time.perf_counter() - t0
    magnitudes = [abs(d) for d in deficits]
    monotone = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    extrap = finite_size_extrapolate(list(zip(sizes, deficits)))
    ok = monotone and abs(extrap.value) <= 5e-3 and elapsed < 180.0
    _line(
        8,
        "two-interval-deficit",
        ok,
        "D = " + " ".join(f"{d:+.3e}" for d in deficits)
        + f", |D_inf| {abs(extrap.value):.3e}, {elapsed:.1f}s",
    )
    assert monotone
    assert abs(extrap.value) <= 5e-3
    assert elapsed < 180.0


def test_criterion_09_central_charge_at_large_size():
    n = 2048
    corr = ground_state_correlations(n)
    lengths = [n // 16, n // 8, 3 * n // 16, n // 4, 3 * n // 8, n // 2]
    entropies = []
    for l in lengths:
        spec = RegionSpec([(0.0, 2.0 * math.pi * l / n - 1e-9)])
        entropies.append(region_entropy(corr, lattice_region(n, spec)))
    fit = central_charge_fit(lengths, entropies, n)
    err = abs(fit.c_hat - 1.0)
    ok = err <= 0.02
    _line(9, "central-charge-fit", ok, f"c_hat {fit.c_hat:.6f}, |c_hat-1| {err:.2e}, N={n}")
    assert err <= 0.02


def test_criterion_10_cross_ratio_collapse(monkeypatch):
    sizes = (256, 512, 1024)
    config = ExperimentConfig(
        kind="collapse", sizes=sizes, arcs=TWO_ARCS.arcs, family_size=3, seed=7
    )
    spreads = {n: c.values["spread"] for n, c in zip(sizes, run_experiment(config).cases)}
    decreasing = spreads[512] < spreads[256] and spreads[1024] < spreads[512]

    corr = ground_state_correlations(1024)
    control_spec = RegionSpec([(0.30, 1.00), (2.65, 4.60)])
    monkeypatch.setattr(
        fermion_runs, "equal_eta_family", lambda spec, count, rng: [TWO_ARCS, control_spec]
    )
    with pytest.raises(ValueError, match="cross ratios differ"):
        run_experiment(config._replace(sizes=(1024,)))
    control_gap = abs(
        product_state_relative_entropy(corr, TWO_ARCS)
        - product_state_relative_entropy(corr, control_spec)
    )

    ok = spreads[1024] <= 1e-2 and decreasing and control_gap > 1e-2
    _line(
        10,
        "cross-ratio-collapse",
        ok,
        f"spread@1024 {spreads[1024]:.3e}, decreasing {decreasing}, "
        f"distinct-eta control gap {control_gap:.3e}",
    )
    assert spreads[1024] <= 1e-2
    assert decreasing
    assert control_gap > 1e-2  # different cross ratios must not collapse


def test_criterion_11_shrinking_interval():
    schedule = tuple(0.9 * 0.62**k for k in range(10))
    config = ExperimentConfig(
        kind="shrink", sizes=(1024,), arcs=THREE_ARCS.arcs, arc_index=0, schedule=schedule
    )
    report = run_experiment(config)
    final_gap = report.cases[-1].values["gap"]
    # The verdict: the gaps are eventually monotone and the final one is within 1e-2.
    (verdict,) = report.verdicts
    _line(
        11,
        "shrinking-interval",
        verdict.passed,
        f"{verdict.detail} after {len(schedule)} steps",
    )
    assert final_gap <= 1e-2
    assert verdict.passed


def test_criterion_12_two_dimensional_deficit():
    sizes = (256, 512, 1024)
    config = ExperimentConfig(
        kind="two-d", sizes=sizes, arcs=TWO_ARCS.arcs, right_arcs=RIGHT_ARCS.arcs, c=2.0
    )
    points = []
    exact_additive = True
    for n, case in zip(sizes, run_experiment(config).cases):
        corr = ground_state_correlations(n)
        left = entropy_deficit(corr, TWO_ARCS, c=2.0)
        right = entropy_deficit(corr, RIGHT_ARCS, c=2.0)
        exact_additive = exact_additive and (
            case.values["D_2d"] == left.deficit + right.deficit
            and case.values["G_2d"] == left.g_region + right.g_region
        )
        points.append((n, case.values["D_2d"]))
    extrap = finite_size_extrapolate(points)
    ok = exact_additive and abs(extrap.value) <= 1e-2
    _line(
        12,
        "two-dimensional-deficit",
        ok,
        f"chiral additivity exact {exact_additive}, |D2d_inf| {abs(extrap.value):.3e}",
    )
    assert exact_additive
    assert abs(extrap.value) <= 1e-2
