"""One chain-size rule and one site check, shared by the config and the lattice.

``entropylab.regions`` states both.  A config refuses a size or a region
exactly when the lattice does, with the same message, and the test
oracle ``lattice_region`` refuses what both refuse.
"""

import math

import numpy as np
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from entropylab.harness import ConfigError, ExperimentConfig
from entropylab.harness.config import check_sites
from entropylab.lattice import RegionSpec, ground_state_correlations, product_state_relative_entropy
from oracles import lattice_region, mask_arc_sites

TWO_PI = 2.0 * math.pi
# Both arcs and both arcs of the complement hold a site at every even N >= 8.
FIXED_ARCS = ((0.30, 1.45), (2.65, 4.10))


def _message(call, errors):
    """The message of the ``errors`` exception ``call()`` raises, or None."""
    try:
        call()
    except errors as exc:
        return str(exc)
    return None


@st.composite
def _regions(draw):
    """One to three arcs whose ends are site angles of some small chain, or
    anywhere: arcs without sites, and arcs that leave none outside, are
    common at N <= 40."""
    count = draw(st.integers(1, 3))
    end = st.floats(0.0, TWO_PI, exclude_max=True) | st.builds(
        lambda m, k: k * (TWO_PI / m) % TWO_PI, st.integers(2, 40), st.integers(0, 39)
    )
    ends = sorted(draw(st.lists(end, min_size=2 * count, max_size=2 * count, unique=True)))
    if draw(st.booleans()):  # pair the ends from the second one: the last arc wraps
        ends = ends[1:] + ends[:1]
    try:
        return RegionSpec(list(zip(ends[::2], ends[1::2])))
    except ValueError:
        reject()


@st.composite
def _covering_regions(draw):
    """One to three arcs apart by gaps narrower than most site spacings, so
    that many leave no site outside them."""
    count = draw(st.integers(1, 3))
    gaps = draw(st.lists(st.floats(1e-6, 0.3), min_size=count, max_size=count))
    length = (TWO_PI - sum(gaps)) / count
    arcs, start = [], draw(st.floats(0.0, TWO_PI, exclude_max=True))
    for gap in gaps:
        arcs.append((start, start + length))
        start += length + gap
    try:
        return RegionSpec(arcs)
    except ValueError:
        reject()


@given(st.integers(2, 40), _regions() | _covering_regions())
@example(6, RegionSpec([(0.5, 2.0)]))
@example(16, RegionSpec([(0.01, 0.02), (1.0, 3.0)]))
@example(8, RegionSpec([(0.0, TWO_PI - 1e-9)]))
@settings(max_examples=300, deadline=None)
def test_property_config_and_lattice_share_the_site_rule(n, spec):
    size_error = _message(
        lambda: ExperimentConfig(kind="duality", sizes=(n,), arcs=FIXED_ARCS), ConfigError
    )
    assert size_error == _message(lambda: ground_state_correlations(n), ValueError)
    assert size_error in (None, f"sizes must be even and at least 8, got {n}")
    assert (size_error is None) == (n % 2 == 0 and n >= 8)

    site_error = _message(lambda: check_sites((n,), [spec]), ConfigError)
    if size_error is None:
        corr = ground_state_correlations(n)
        assert site_error == _message(
            lambda: product_state_relative_entropy(corr, spec), ValueError
        )

    assert _message(lambda: lattice_region(n, spec), ValueError) == (size_error or site_error)
    if size_error is None and site_error is None:
        union = np.concatenate([mask_arc_sites(n, arc) for arc in spec.arcs])
        assert np.array_equal(lattice_region(n, spec), np.sort(union))
