"""Shrinking-interval and cross-ratio-collapse experiments."""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropylab.lattice import (
    RegionSpec,
    cross_ratio,
    cross_ratio_collapse,
    equal_eta_family,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
    shrink_experiment,
)
from entropylab.harness import ExperimentConfig, run_experiment
from entropylab.lattice import gaussian
from entropylab.lattice.experiments import _monotone_from

THREE_ARCS = RegionSpec([(0.2, 1.1), (2.0, 2.9), (4.1, 5.3)])
SCHEDULE = [0.9 * 0.62**k for k in range(8)]


def test_shrink_gaps_close():
    corr = ground_state_correlations(512)
    report = shrink_experiment(corr, THREE_ARCS, arc_index=0, schedule=SCHEDULE)
    assert len(report.steps) == len(SCHEDULE)
    assert report.eventually_monotone
    assert report.gaps[-1] < report.gaps[0]
    assert report.gaps[-1] < 5e-2


def test_shrink_evaluates_each_site_set_once(monkeypatch):
    # The harness-replay shrink geometry at N = 512: the fixed arcs enter
    # every step, and the last two steps hold the same single site, so 43
    # entropies reduce to 21 distinct site sets.
    evaluated = []

    def recording(corr, sites):
        evaluated.append(tuple(sites))
        return region_entropy(corr, sites)

    monkeypatch.setattr(gaussian, "region_entropy", recording)
    schedule = [0.9, 0.558, 0.346, 0.2145, 0.133, 0.0825, 0.0511, 0.0317, 0.0197, 0.0122]
    report = shrink_experiment(ground_state_correlations(512), THREE_ARCS, 0, schedule)
    assert len(evaluated) == len(set(evaluated)) == 21
    assert report.steps[-1].value == report.steps[-2].value


def test_sweep_evaluates_each_site_set_once(monkeypatch):
    # The harness-replay cross-ratio-sweep geometry: per size the fixed first
    # arc enters every swept region, so 24 entropies reduce to 18 site sets.
    evaluated = []

    def recording(corr, sites):
        evaluated.append((corr.n_sites, tuple(sites)))
        return region_entropy(corr, sites)

    monkeypatch.setattr(gaussian, "region_entropy", recording)
    config = ExperimentConfig(
        kind="cross-ratio-sweep",
        sizes=(64, 128),
        arcs=((0.30, 1.45), (2.65, 4.10)),
        sweep_lengths=(0.6, 0.9, 1.2, 1.5),
    )
    assert run_experiment(config).passed
    assert len(evaluated) == len(set(evaluated)) == 18


def test_shrink_target_is_remaining_arcs():
    corr = ground_state_correlations(128)
    report = shrink_experiment(corr, THREE_ARCS, arc_index=1, schedule=[0.9, 0.5])
    others = RegionSpec([THREE_ARCS.arcs[0], THREE_ARCS.arcs[2]])
    assert report.target == pytest.approx(
        product_state_relative_entropy(corr, others), abs=1e-14
    )


def test_shrink_keeps_left_endpoint():
    corr = ground_state_correlations(128)
    report = shrink_experiment(corr, THREE_ARCS, arc_index=0, schedule=[0.7])
    # one step at length 0.7 equals evaluating the region with that arc replaced
    arc = (0.2, 0.9)
    spec = RegionSpec([arc, THREE_ARCS.arcs[1], THREE_ARCS.arcs[2]])
    assert report.steps[0].value == pytest.approx(
        product_state_relative_entropy(corr, spec), abs=1e-14
    )


def test_shrink_final_step_may_empty_the_arc():
    corr = ground_state_correlations(64)
    tiny = 2.0 * np.pi / 64 / 10.0
    report = shrink_experiment(corr, THREE_ARCS, arc_index=0, schedule=[0.9, tiny])
    assert report.steps[-1].sites_in_arc == 0
    assert report.steps[-1].value == report.target
    assert report.steps[-1].gap == 0.0


def test_shrink_rejects_early_empty_step():
    corr = ground_state_correlations(64)
    tiny = 2.0 * np.pi / 64 / 10.0
    # the shared site check of product_state_relative_entropy refuses it
    with pytest.raises(ValueError, match=r"^arc \(0.2, 0.2098\) holds no sites at N = 64$"):
        shrink_experiment(corr, THREE_ARCS, arc_index=0, schedule=[tiny, 0.9])


def _monotone_from_by_definition(gaps) -> int:
    """The least k such that gaps[i + 1] <= gaps[i] + 1e-12 for every i >= k."""
    return next(
        k
        for k in range(len(gaps))
        if all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(k, len(gaps) - 1))
    )


_GAP_STEPS = st.sampled_from([0.0, 5e-13, -5e-13, 1e-12, 2e-12, 1e-3, -1e-3]) | st.floats(-1.0, 1.0)


@given(st.floats(-1.0, 1.0), st.lists(_GAP_STEPS, max_size=12))
@example(0.5, [])  # one step
@example(0.5, [0.0, 0.0])  # ties
@example(0.5, [5e-13, -1e-3, 5e-13])  # rises below 1e-12
@example(0.5, [1e-3, -1e-3, 0.0])
@settings(max_examples=300, deadline=None)
def test_property_monotone_from_is_the_definition(start, steps):
    gaps = list(accumulate(steps, initial=start))
    assert _monotone_from(gaps) == _monotone_from_by_definition(gaps)


def test_shrink_input_validation():
    corr = ground_state_correlations(64)
    with pytest.raises(ValueError, match="empty schedule"):
        shrink_experiment(corr, THREE_ARCS, arc_index=0, schedule=[])
    with pytest.raises(ValueError, match="out of range"):
        shrink_experiment(corr, THREE_ARCS, arc_index=3, schedule=[0.5])
    with pytest.raises(ValueError, match="strictly between"):
        shrink_experiment(corr, THREE_ARCS, arc_index=0, schedule=[7.0])
    with pytest.raises(ValueError, match="besides the scheduled"):
        shrink_experiment(corr, RegionSpec([(0.0, 1.0)]), arc_index=0, schedule=[0.5])


def test_collapse_equal_eta_family():
    spec = RegionSpec([(0.30, 1.45), (2.65, 4.10)])
    rng = np.random.default_rng(7)
    family = equal_eta_family(spec, 3, rng)
    corr = ground_state_correlations(512)
    report = cross_ratio_collapse(corr, family)
    assert len(report.values) == 4
    assert report.eta == pytest.approx(cross_ratio(spec), rel=1e-9)
    assert report.spread == max(report.values) - min(report.values)
    assert report.spread < 5e-2


def test_collapse_spread_decreases_with_size():
    spec = RegionSpec([(0.30, 1.45), (2.65, 4.10)])
    rng = np.random.default_rng(7)
    family = equal_eta_family(spec, 3, rng)
    spreads = [
        cross_ratio_collapse(ground_state_correlations(n), family).spread
        for n in (256, 512, 1024)
    ]
    assert spreads[1] < spreads[0]
    assert spreads[2] < spreads[1]


def test_collapse_rejects_distinct_cross_ratios():
    corr = ground_state_correlations(128)
    control = [
        RegionSpec([(0.30, 1.45), (2.65, 4.10)]),
        RegionSpec([(0.30, 1.00), (2.65, 4.60)]),
    ]
    with pytest.raises(ValueError, match="cross ratios differ"):
        cross_ratio_collapse(corr, control)


def test_collapse_needs_two_geometries():
    corr = ground_state_correlations(64)
    with pytest.raises(ValueError, match="at least two"):
        cross_ratio_collapse(corr, [RegionSpec([(0.30, 1.45), (2.65, 4.10)])])
