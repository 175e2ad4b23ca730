"""Shrinking-interval and cross-ratio-collapse experiments, run through the harness."""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropylab.harness import ConfigError, ExperimentConfig, run_experiment
from entropylab.harness import fermion_runs
from entropylab.harness.cli import main
from entropylab.harness.fermion_runs import _monotone_from
from entropylab.lattice import (
    RegionSpec,
    cross_ratio,
    equal_eta_family,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
)
from entropylab.lattice import gaussian

THREE_ARCS = RegionSpec([(0.2, 1.1), (2.0, 2.9), (4.1, 5.3)])
TWO_ARCS = RegionSpec([(0.30, 1.45), (2.65, 4.10)])
SCHEDULE = [0.9 * 0.62**k for k in range(8)]


def _shrink(n, schedule, arc_index=0):
    """The shrink run of THREE_ARCS at N = ``n``: one case per step."""
    config = ExperimentConfig(
        kind="shrink", sizes=(n,), arcs=THREE_ARCS.arcs, arc_index=arc_index,
        schedule=tuple(schedule),
    )
    return run_experiment(config)


def _collapse(sizes):
    """The collapse run of TWO_ARCS and three Moebius images: one case per size."""
    config = ExperimentConfig(
        kind="collapse", sizes=tuple(sizes), arcs=TWO_ARCS.arcs, family_size=3, seed=7
    )
    return run_experiment(config)


def test_shrink_gaps_close():
    report = _shrink(512, SCHEDULE)
    gaps = [c.values["gap"] for c in report.cases]
    assert len(gaps) == len(SCHEDULE)
    assert _monotone_from(gaps) < len(gaps) - 1  # eventually monotone
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 5e-2


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
    report = _shrink(512, schedule)
    assert len(evaluated) == len(set(evaluated)) == 21
    assert report.cases[-1].values["S_product"] == report.cases[-2].values["S_product"]


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
    report = _shrink(128, [0.9, 0.5], arc_index=1)
    others = RegionSpec([THREE_ARCS.arcs[0], THREE_ARCS.arcs[2]])
    target = product_state_relative_entropy(ground_state_correlations(128), others)
    for case in report.cases:
        assert case.values["target"] == pytest.approx(target, abs=1e-14)


def test_shrink_keeps_left_endpoint():
    report = _shrink(128, [0.7])
    # one step at length 0.7 equals evaluating the region with that arc replaced
    arc = (0.2, 0.9)
    spec = RegionSpec([arc, THREE_ARCS.arcs[1], THREE_ARCS.arcs[2]])
    assert report.cases[0].values["S_product"] == pytest.approx(
        product_state_relative_entropy(ground_state_correlations(128), spec), abs=1e-14
    )


def test_shrink_final_step_may_empty_the_arc():
    # The last step may leave the scheduled arc without sites; the step then
    # equals the target and the gap closes exactly.
    for schedule in ([0.9, 2.0 * np.pi / 64 / 10.0], [0.5, 0.001]):
        report = _shrink(64, schedule)
        assert report.passed, schedule
        last = report.cases[-1]
        assert last.inputs["sites"] == 0
        assert last.values["S_product"] == last.values["target"]
        assert last.values["gap"] == 0.0


def test_shrink_rejects_early_empty_step():
    tiny = 2.0 * np.pi / 64 / 10.0
    # the config refuses it when it is built, with the site check that
    # product_state_relative_entropy shares, and a lone step alike
    for schedule in ([tiny, 0.9], [tiny]):
        with pytest.raises(ConfigError, match=r"^arc \(0.2, 0.2098\) holds no sites at N = 64$"):
            _shrink(64, schedule)


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


def test_collapse_equal_eta_family():
    (case,) = _collapse([512]).cases
    values = [v for key, v in case.values.items() if key.startswith("S_geometry")]
    assert len(values) == 4
    assert case.values["eta"] == pytest.approx(cross_ratio(TWO_ARCS), rel=1e-9)
    assert case.values["spread"] == max(values) - min(values)
    assert case.values["spread"] < 5e-2


def test_collapse_spread_decreases_with_size():
    spreads = [c.values["spread"] for c in _collapse([256, 512, 1024]).cases]
    assert spreads[1] < spreads[0]
    assert spreads[2] < spreads[1]


def test_collapse_rejects_distinct_cross_ratios(monkeypatch):
    control = [
        RegionSpec([(0.30, 1.45), (2.65, 4.10)]),
        RegionSpec([(0.30, 1.00), (2.65, 4.60)]),
    ]
    monkeypatch.setattr(fermion_runs, "equal_eta_family", lambda spec, count, rng: control)
    with pytest.raises(ValueError, match="cross ratios differ"):
        _collapse([128])


def test_collapse_family_with_short_chords_runs(tmp_path):
    """A family whose cross ratios differ by rounding alone runs: here eta is
    107.6 and the spread 2.0e-12, a relative 1.9e-14 (the old absolute
    1e-12 bound raised on it)."""
    path = tmp_path / "collapse.ini"
    path.write_text(
        "[experiment]\nkind = collapse\nsizes = 128\n"
        "arcs = 1.14907 1.22816, 5.05459 5.42973\nseed = 14\nfamily_size = 2\n"
    )
    assert main(["fermion", "collapse", "--config", str(path), "--no-cache"]) in (0, 1)


def test_family_eta_bound_holds_on_random_regions():
    rng = np.random.default_rng(37)
    for _ in range(2000):
        x = np.sort(rng.uniform(0.0, 2 * np.pi, 4))
        family = equal_eta_family(RegionSpec([(x[0], x[1]), (x[2], x[3])]), 3, rng)
        eta = fermion_runs._family_eta(family)
        assert eta == pytest.approx(cross_ratio(family[0]), rel=1e-12)
