import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entropylab.lattice import (
    RegionSpec,
    chord_length,
    cross_ratio,
    equal_eta_family,
    interval_lengths,
    mobius_region,
)
from entropylab.regions import arc_range, complement_runs, linear_runs
from oracles import arc_sites, lattice_region, mask_arc_sites, rotated_region

TWO_PI = 2.0 * math.pi


def test_region_sorts_and_normalizes():
    spec = RegionSpec([(4.0, 5.0), (0.5 + TWO_PI, 1.5 + TWO_PI)])
    assert spec.arcs[0][0] == pytest.approx(0.5)
    assert spec.arcs[0][1] == pytest.approx(1.5)
    assert spec.arcs[1] == (4.0, 5.0)


def test_region_wraps_when_end_before_start():
    spec = RegionSpec([(6.0, 1.0)])
    a, b = spec.arcs[0]
    assert a == pytest.approx(6.0)
    assert b == pytest.approx(1.0)


def test_region_rejects_overlap():
    with pytest.raises(ValueError):
        RegionSpec([(0.0, 2.0), (1.0, 3.0)])


@pytest.mark.parametrize("end", [math.nan, math.inf, -math.inf])
def test_region_rejects_non_finite_endpoints(end):
    with pytest.raises(ValueError, match="finite"):
        RegionSpec([(0.3, 1.45), (2.65, end)])
    with pytest.raises(ValueError, match="finite"):
        RegionSpec([(end, 1.45)])


def test_region_rejects_zero_length_arc():
    with pytest.raises(ValueError):
        RegionSpec([(1.0, 1.0)])
    with pytest.raises(ValueError, match="^degenerate interval$"):
        chord_length(1.0, 1.0)


def test_complement_is_exact_involution():
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    back = spec.complement().complement()
    # the same stored floats come back, not approximations
    assert back.arcs == spec.arcs


@pytest.mark.parametrize(
    "arcs, stored",
    [
        ([(-1e-20, 1.0), (2.0, 3.0)], ((0.0, 1.0), (2.0, 3.0))),
        ([(2.0, -1e-20)], ((2.0, 0.0),)),
        ([(-5e-324, 1.0)], ((0.0, 1.0),)),
    ],
)
def test_endpoints_just_below_zero_are_stored_as_zero(arcs, stored):
    # x % 2pi rounds to 2pi itself for x just below 0
    spec = RegionSpec(arcs)
    assert spec.arcs == stored
    assert all(0.0 <= x < TWO_PI for arc in spec.arcs for x in arc)
    assert spec.complement().complement().arcs == spec.arcs


def test_linear_runs_split_at_site_zero_and_merge_where_they_touch():
    # on 8 sites: 3 sites from 6 (wrapping), 2 from 2 and 1 from 4
    assert linear_runs(8, [(6, 3), (2, 2), (4, 1)]) == ((0, 1), (2, 3), (6, 2))
    assert complement_runs(8, ((0, 1), (2, 3), (6, 2))) == ((1, 1), (5, 1))
    assert complement_runs(8, ((3, 2),)) == ((0, 3), (5, 3))
    assert linear_runs(8, [(5, 0)]) == () and complement_runs(8, ()) == ((0, 8),)


def test_complement_of_single_arc_wraps():
    spec = RegionSpec([(1.0, 2.0)])
    comp = spec.complement()
    assert len(comp.arcs) == 1
    assert comp.arcs[0][0] == pytest.approx(2.0)
    assert comp.arcs[0][1] == pytest.approx(1.0)


def test_arc_sites_half_open():
    sites = arc_sites(8, (0.0, math.pi / 2))  # sites at k*pi/4
    # includes theta = 0 (start), excludes theta = pi/2 (end)
    assert list(sites) == [0, 1]


@st.composite
def _site_endpoint(draw, n):
    """An angle on some lattice, k*(2pi/N0) or 2pi*k/N0, or anywhere, moved by a few ulps."""
    n0 = draw(st.sampled_from([n, n // 2, 2 * n, 8, 16, 64, 256]) | st.integers(1, 70000))
    k = draw(st.integers(0, n0))
    x = draw(
        st.sampled_from([k * (TWO_PI / n0), TWO_PI * k / n0])
        | st.floats(0.0, TWO_PI, exclude_max=True)
    )
    ulps = draw(st.integers(-2, 2))
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _arc_on_lattice(draw):
    n = 2 * draw(st.integers(4, 32768))
    return n, (draw(_site_endpoint(n)), draw(_site_endpoint(n)))


@given(_arc_on_lattice())
@settings(max_examples=400, deadline=None)
# x / step rounds to 3.0 while 3 * step < x: first_at corrects k upward
@example((22, (math.nextafter(3 * (2 * math.pi / 22), 7.0), 2.0)))
def test_property_arc_range_is_the_float_mask(case):
    # every end is decided by the mask's own comparison, ties and wrapping
    # arcs included, so the site sets are bitwise the mask's
    n, arc = case
    first, count = arc_range(n, arc)
    expected = mask_arc_sites(n, arc)
    assert 0 <= first < n and 0 <= count <= n
    assert sorted((first + j) % n for j in range(count)) == expected.tolist()
    sites = arc_sites(n, arc)
    assert sites.dtype == expected.dtype and np.array_equal(sites, expected)


def test_lattice_region_and_complement_partition():
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    inside = lattice_region(16, spec)
    outside = lattice_region(16, spec.complement())
    assert sorted(np.concatenate([inside, outside]).tolist()) == list(range(16))


def test_lattice_region_errors():
    with pytest.raises(ValueError, match="holds no sites at N = 8"):
        lattice_region(8, RegionSpec([(0.01, 0.02)]))  # no site inside
    with pytest.raises(ValueError, match="leaves no site outside it at N = 8"):
        lattice_region(8, RegionSpec([(0.0, TWO_PI - 1e-9)]))  # empty complement


def test_chord_versus_arc_length():
    # The half circle's chord, not its arc length pi.
    assert chord_length(0.0, math.pi) == pytest.approx(2.0)


def test_interval_lengths_respect_convention():
    spec = RegionSpec([(0.0, math.pi)])
    assert interval_lengths(spec)[0] == pytest.approx(2.0)


def test_cross_ratio_requires_two_arcs():
    with pytest.raises(ValueError):
        cross_ratio(RegionSpec([(0.0, 1.0)]))


def test_cross_ratio_rotation_invariant():
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    eta = cross_ratio(spec)
    for angle in (0.7, 2.9, 5.5):
        assert cross_ratio(rotated_region(spec, angle)) == pytest.approx(eta, abs=1e-12)


@given(
    st.floats(min_value=0.02, max_value=0.42),
    st.floats(min_value=0.0, max_value=TWO_PI),
)
@settings(max_examples=40, deadline=None)
def test_property_mobius_preserves_cross_ratio(radius, angle):
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    pull = radius * complex(math.cos(angle), math.sin(angle))
    moved = mobius_region(spec, pull, phase=angle / 2)
    assert cross_ratio(moved) == pytest.approx(cross_ratio(spec), rel=1e-9)


def test_mobius_rejects_pull_outside_disk():
    with pytest.raises(ValueError):
        mobius_region(RegionSpec([(0.0, 1.0), (2.0, 3.0)]), 1.2 + 0j, 0.0)


def test_equal_eta_family_all_share_eta():
    rng = np.random.default_rng(0)
    spec = RegionSpec([(0.3, 1.45), (2.65, 4.1)])
    family = equal_eta_family(spec, 4, rng)
    assert len(family) == 5
    assert family[0] is spec
    etas = [cross_ratio(r) for r in family]
    assert max(etas) - min(etas) < 1e-10
    # the images are genuinely different regions
    assert any(r.arcs != spec.arcs for r in family[1:])
