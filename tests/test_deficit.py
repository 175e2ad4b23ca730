"""Regularized entropies, the region/complement deficit, and the fits."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from entropylab.harness import ExperimentConfig, parse_config
from entropylab.harness.runner import run_experiment
from entropylab.lattice import (
    RegionSpec,
    central_charge_fit,
    chord_length,
    cross_ratio,
    entropy_deficit,
    finite_size_extrapolate,
    ground_state_correlations,
    interval_lengths,
    product_state_relative_entropy,
    region_entropy,
)
from entropylab.lattice import gaussian
from oracles import lattice_region, regularized_entropy

TWO_ARCS = RegionSpec([(0.30, 1.45), (2.65, 4.10)])


def _geometry(spec, c):
    """(c/6) sum ln r over the interval lengths of ``spec``."""
    return (c / 6.0) * math.fsum(math.log(r) for r in interval_lengths(spec))


def test_deficit_report_fields():
    corr = ground_state_correlations(128)
    report = entropy_deficit(corr, TWO_ARCS, c=2.0)
    assert report._fields == ("s_region", "s_complement", "g_region", "g_complement", "deficit")
    assert report.g_region == _geometry(TWO_ARCS, 2.0) - report.s_region
    assert report.g_complement == (
        _geometry(TWO_ARCS.complement(), 2.0) - report.s_complement
    )
    assert report.deficit == report.g_region - report.g_complement


def _continuum_mutual_information(spec):
    """Casini-Fosco-Huerta (2005) two-interval mutual information of the
    massless Dirac fermion on the circle, with chord lengths r:
    (1/3) ln[r(a1, a2) r(b1, b2) / (r(a1, b2) r(b1, a2))]."""
    (a1, b1), (a2, b2) = spec.arcs
    ratio = chord_length(a1, a2) * chord_length(b1, b2)
    ratio /= chord_length(a1, b2) * chord_length(b1, a2)
    return math.log(ratio) / 3.0


CONTINUUM_TOL = 3e-4


@pytest.mark.parametrize("n", [2048, 4096, 8192])
def test_mutual_information_matches_continuum(n):
    got = product_state_relative_entropy(ground_state_correlations(n), TWO_ARCS)
    assert abs(got - _continuum_mutual_information(TWO_ARCS)) < CONTINUUM_TOL


def test_continuum_tolerance_binds_at_small_size():
    got = product_state_relative_entropy(ground_state_correlations(512), TWO_ARCS)
    assert abs(got - _continuum_mutual_information(TWO_ARCS)) > CONTINUUM_TOL


def test_deficit_two_routes_agree():
    """The deficit recombined through the cross ratio,
    -(c/6) ln eta - S_region + S_complement, agrees to 1e-12."""
    for n in (256, 1024):
        corr = ground_state_correlations(n)
        report = entropy_deficit(corr, TWO_ARCS, c=2.0)
        s_i, s_j = report.s_region, report.s_complement
        via_eta = -(2.0 / 6.0) * math.log(cross_ratio(TWO_ARCS)) - s_i + s_j
        assert abs(report.deficit - via_eta) <= 1e-12


def test_deficit_evaluates_the_shared_union_once(monkeypatch):
    # Two arcs, two complement arcs and one union: by purity the region's
    # union and the complement's union share a single entropy.
    evaluated = []

    def recording(corr, sites):
        evaluated.append(tuple(sites))
        return region_entropy(corr, sites)

    monkeypatch.setattr(gaussian, "region_entropy", recording)
    corr = ground_state_correlations(256)
    report = entropy_deficit(corr, TWO_ARCS, c=2.0)
    assert len(evaluated) == len(set(evaluated)) == 5
    assert report.s_region == product_state_relative_entropy(corr, TWO_ARCS)
    assert report.s_complement == product_state_relative_entropy(corr, TWO_ARCS.complement())


def test_deficit_three_arcs_has_no_eta():
    """A duality run reads eta off its two-arc region once; three arcs have none."""
    spec = RegionSpec([(0.2, 1.1), (2.0, 2.9), (4.1, 5.3)])
    corr = ground_state_correlations(128)
    report = entropy_deficit(corr, spec, c=2.0)
    assert report.g_region == _geometry(spec, 2.0) - report.s_region
    for arcs, eta in ((spec.arcs, None), (TWO_ARCS.arcs, cross_ratio(TWO_ARCS))):
        run = run_experiment(ExperimentConfig(kind="duality", sizes=(128, 256), arcs=arcs))
        assert [case.values["eta"] for case in run.cases] == [eta, eta]


def test_deficit_requires_two_arcs():
    corr = ground_state_correlations(64)
    with pytest.raises(ValueError):
        entropy_deficit(corr, RegionSpec([(0.0, 1.0)]), c=2.0)


def test_deficit_rejects_nonpositive_charge():
    corr = ground_state_correlations(64)
    with pytest.raises(ValueError):
        entropy_deficit(corr, TWO_ARCS, c=0.0)
    with pytest.raises(ValueError):
        regularized_entropy(corr, TWO_ARCS, c=-1.0)


def test_regularized_entropy_single_arc_is_geometry_term():
    corr = ground_state_correlations(64)
    spec = RegionSpec([(0.3, 1.45)])
    lengths = 2.0 * math.sin((1.45 - 0.3) / 2.0)
    got = regularized_entropy(corr, spec, c=2.0)
    assert got == pytest.approx((2.0 / 6.0) * math.log(lengths), abs=1e-12)


def test_deficit_shrinks_with_size():
    values = {}
    for n in (256, 512, 1024):
        corr = ground_state_correlations(n)
        values[n] = abs(entropy_deficit(corr, TWO_ARCS, c=2.0).deficit)
    assert values[512] < values[256]
    assert values[1024] < values[512]


def test_two_dimensional_deficit_is_additive():
    """The two-d runner's D_2d and G_2d are the sums, bit for bit, of the
    two chiral entropy_deficit values."""
    right = RegionSpec([(0.5, 1.7), (3.0, 4.4)])
    config = ExperimentConfig(
        kind="two-d", sizes=(256,), arcs=TWO_ARCS.arcs, right_arcs=right.arcs, c=2.0
    )
    (case,) = run_experiment(config).cases
    corr = ground_state_correlations(256)
    left = entropy_deficit(corr, TWO_ARCS, c=2.0)
    right = entropy_deficit(corr, right, c=2.0)
    assert case.values["D_2d"] == left.deficit + right.deficit
    assert case.values["G_2d"] == left.g_region + right.g_region


def _duality(sizes):
    return run_experiment(
        ExperimentConfig(kind="duality", sizes=sizes, arcs=TWO_ARCS.arcs, c=2.0)
    )


def test_two_sizes_bound_the_deficit_at_each_size():
    """With fewer than 3 sizes nothing is extrapolated: |D| is bounded at
    every size, and the size cases stay unchecked."""
    report = _duality((1024, 2048))
    limit = report.verdicts[-1]
    assert limit.name == "deficit-within-tolerance" and limit.passed
    assert limit.detail == "max |D| = 2.800e-03 vs 5.0e-03"
    assert [c.case_id for c in report.cases] == ["duality-N1024", "duality-N2048"]
    assert all(c.tolerance is None and c.passed is None for c in report.cases)

    report = _duality((256, 512))
    limit = report.verdicts[-1]
    assert limit.name == "deficit-within-tolerance" and not limit.passed
    assert limit.detail == "max |D| = 1.076e-02 vs 5.0e-03"
    assert report.failing_case_ids() == ["duality-N256", "duality-N512"]


def test_three_sizes_extrapolate_the_deficit():
    report = _duality((256, 512, 1024))
    limit = report.verdicts[-1]
    assert limit.name == "deficit-extrapolates-to-zero" and limit.passed
    assert report.cases[-1].case_id == "duality-extrapolation"
    assert limit.case_ids[-1] == "duality-extrapolation"


def test_two_sizes_bound_the_two_dimensional_deficit():
    right = RegionSpec([(0.5, 1.7), (3.0, 4.4)])
    config = ExperimentConfig(
        kind="two-d", sizes=(1024, 2048), arcs=TWO_ARCS.arcs, right_arcs=right.arcs, c=2.0
    )
    (limit,) = run_experiment(config).verdicts
    assert limit.name == "two-d-deficit-within-tolerance" and limit.passed
    assert limit.detail == "max |D_2d| = 5.786e-03 vs 1.0e-02"


def test_central_charge_fit_near_unity():
    n = 512
    corr = ground_state_correlations(n)
    lengths = [n // 16, n // 8, 3 * n // 16, n // 4, 3 * n // 8, n // 2]
    entropies = []
    for l in lengths:
        spec = RegionSpec([(0.0, 2.0 * math.pi * l / n - 1e-9)])
        entropies.append(region_entropy(corr, lattice_region(n, spec)))
    fit = central_charge_fit(lengths, entropies, n)
    assert fit.c_hat == pytest.approx(1.0, abs=0.02)


def test_central_charge_fit_requires_enough_lengths():
    with pytest.raises(ValueError, match="at least 6"):
        central_charge_fit([8, 16, 24], [0.1, 0.2, 0.3], 64)


def test_central_charge_fit_rejects_degenerate_design():
    with pytest.raises(ValueError, match="degenerate"):
        central_charge_fit([16] * 6, [0.5] * 6, 64)


def test_extrapolation_recovers_synthetic_model():
    sizes = [64, 128, 256, 512]
    points = [(n, 0.25 + 3.0 / n - 7.0 / n**2) for n in sizes]
    out = finite_size_extrapolate(points)
    assert out.value == pytest.approx(0.25, abs=1e-10)
    assert out.coefficients[1] == pytest.approx(3.0, rel=1e-8)
    assert out.coefficients[2] == pytest.approx(-7.0, rel=1e-6)
    assert out.max_residual < 1e-12


def test_extrapolation_input_validation():
    with pytest.raises(ValueError, match="at least 3"):
        finite_size_extrapolate([(64, 0.1), (128, 0.05)])
    with pytest.raises(ValueError, match="strictly increasing"):
        finite_size_extrapolate([(128, 0.1), (64, 0.2), (256, 0.05)])


def test_extrapolated_deficit_is_small():
    points = []
    for n in (256, 512, 1024):
        corr = ground_state_correlations(n)
        points.append((n, entropy_deficit(corr, TWO_ARCS, c=2.0).deficit))
    out = finite_size_extrapolate(points)
    assert abs(out.value) < 5e-3


def test_lattice_large_matches_the_benchmark_reference():
    """The lattice-large benchmark config, run in-process, has the reference's
    case ids and verdicts, and every value within 1e-9 of it."""
    root = Path(__file__).resolve().parent.parent / "perfbench"
    reference = json.loads((root / "reference" / "lattice-large.json").read_text())
    want = reference["duality"]["seeds"]["0"]["cases"]
    report = run_experiment(parse_config(root / "configs" / "lattice-large" / "duality.ini"))
    assert report.passed
    assert [c.case_id for c in report.cases] == [c["case_id"] for c in want]
    for got, case in zip(report.cases, want):
        assert got.passed is case["passed"], got.case_id
        assert got.values.keys() == case["values"].keys(), got.case_id
        for key, value in case["values"].items():
            np.testing.assert_allclose(
                got.values[key], value, rtol=0, atol=1e-9, err_msg=f"{got.case_id}.{key}"
            )
        assert abs(got.residual - case["residual"]) <= 1e-9, got.case_id
