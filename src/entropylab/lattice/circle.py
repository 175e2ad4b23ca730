"""Circle geometry: lengths, cross ratios and Moebius images of arc regions.

Regions are unions of arcs given in continuum angles.
``entropylab.regions`` assigns their lattice sites, by a half-open
convention so that a region and its complement always partition the
chain, and holds the chain-size rule and the site checks.  Lengths are
chords |e^{ia} - e^{ib}|, the conformal distance on the circle: only with
it do the UV terms of a region and its complement cancel and is the
two-interval cross ratio Moebius invariant.  Lengths and the cross ratio
are computed from the continuum endpoints, never from site counts.
"""

from __future__ import annotations

import math

import numpy as np

from ..regions import TWO_PI, RegionSpec

MAX_PULL = 0.45  # the largest |pull| of an equal_eta_family image

__all__ = [
    "RegionSpec",
    "chord_length",
    "interval_lengths",
    "cross_ratio",
    "mobius_region",
    "equal_eta_family",
]


def chord_length(a: float, b: float) -> float:
    """|e^{ia} - e^{ib}|, the chord between two circle points."""
    value = 2.0 * abs(math.sin((b - a) / 2.0))
    if value == 0.0:
        raise ValueError("degenerate interval")
    return value


def interval_lengths(spec: RegionSpec) -> tuple[float, ...]:
    return tuple(chord_length(a, b) for a, b in spec.arcs)


def cross_ratio(spec: RegionSpec) -> float:
    """eta = r_J1 r_J2 / (r_I1 r_I2) for a two-interval region with complement J."""
    if len(spec.arcs) != 2:
        raise ValueError("cross ratio is defined for two-interval regions")
    r_in = interval_lengths(spec)
    r_out = interval_lengths(spec.complement())
    return (r_out[0] * r_out[1]) / (r_in[0] * r_in[1])


def mobius_region(spec: RegionSpec, pull: complex, phase: float) -> RegionSpec:
    """Image of the region under the disk automorphism z -> e^{i phase}(z - pull)/(1 - conj(pull) z).

    Automorphisms of the disk preserve the circle, its orientation, and
    the cross ratio of any four boundary points, so the image of a
    two-interval region has exactly the same eta.
    """
    if abs(pull) >= 1.0:
        raise ValueError("pull point must lie inside the unit disk")

    def image(theta: float) -> float:
        z = complex(math.cos(theta), math.sin(theta))
        w = (z - pull) / (1.0 - pull.conjugate() * z)
        return (math.atan2(w.imag, w.real) + phase) % TWO_PI

    return RegionSpec([(image(a), image(b)) for a, b in spec.arcs])


def equal_eta_family(spec: RegionSpec, count: int, rng: np.random.Generator) -> list[RegionSpec]:
    """The region plus ``count`` Moebius images of it, all sharing its cross ratio."""
    family = [spec]
    for _ in range(count):
        radius = MAX_PULL * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, TWO_PI)
        pull = radius * complex(math.cos(angle), math.sin(angle))
        family.append(mobius_region(spec, pull, phase=rng.uniform(0.0, TWO_PI)))
    return family
