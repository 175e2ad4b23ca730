"""Circle geometry: lattice sites, arc regions and conformal invariants.

Regions are unions of arcs given in continuum angles; lattice sites are
assigned by a half-open convention so that a region and its complement
always partition the chain.  ``arc_sites`` and ``lattice_region`` expand
the runs that ``regions.linear_runs`` makes of ``regions.arc_range``.
Lengths (chord by default, arc length behind a flag) and the two-interval
cross ratio are computed from the continuum endpoints, never from site
counts.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ..regions import TWO_PI, RegionSpec, arc_range, linear_runs

MAX_PULL = 0.45  # the largest |pull| of an equal_eta_family image

__all__ = [
    "LatticeCircle",
    "RegionSpec",
    "lattice_region",
    "arc_sites",
    "chord_length",
    "arc_length",
    "interval_lengths",
    "cross_ratio",
    "mobius_region",
    "equal_eta_family",
]


class LatticeCircle(namedtuple("LatticeCircle", "n_sites")):
    """Evenly spaced sites on the unit circle, antiperiodic fermion sector."""

    __slots__ = ()

    def __new__(cls, n_sites: int):
        if n_sites < 8 or n_sites % 2:
            raise ValueError("site count must be even and at least 8")
        return super().__new__(cls, n_sites)


def run_sites(runs, step: int = 1) -> np.ndarray:
    """The sites of ``(first, count)`` runs with the given step, in run order."""
    parts = [np.arange(first, first + step * count, step) for first, count in runs]
    return np.concatenate(parts) if parts else np.arange(0)


def arc_sites(circle: LatticeCircle, arc: tuple[float, float]) -> np.ndarray:
    """Sorted sites with angle in [a, b), where an arc with b <= a wraps through 0."""
    return run_sites(linear_runs(circle.n_sites, [arc_range(circle.n_sites, arc)]))


def lattice_region(circle: LatticeCircle, spec: RegionSpec) -> np.ndarray:
    """Sorted site indices of the region; errors on empty region or complement."""
    n = circle.n_sites
    sites = run_sites(linear_runs(n, [arc_range(n, arc) for arc in spec.arcs]))
    if sites.size == 0:
        raise ValueError("region resolves to fewer than 1 site")
    if sites.size == n:
        raise ValueError("region leaves no complement sites")
    return sites


def chord_length(a: float, b: float) -> float:
    """|e^{ia} - e^{ib}|, the chord between two circle points."""
    value = 2.0 * abs(math.sin((b - a) / 2.0))
    if value == 0.0:
        raise ValueError("degenerate interval")
    return value


def arc_length(a: float, b: float) -> float:
    value = (b - a) % TWO_PI
    if value == 0.0:
        raise ValueError("degenerate interval")
    return value


def interval_lengths(spec: RegionSpec, use_arc_length: bool = False) -> tuple[float, ...]:
    measure = arc_length if use_arc_length else chord_length
    return tuple(measure(a, b) for a, b in spec.arcs)


def cross_ratio(spec: RegionSpec, use_arc_length: bool = False) -> float:
    """eta = r_J1 r_J2 / (r_I1 r_I2) for a two-interval region with complement J."""
    if len(spec.arcs) != 2:
        raise ValueError("cross ratio is defined for two-interval regions")
    r_in = interval_lengths(spec, use_arc_length)
    r_out = interval_lengths(spec.complement(), use_arc_length)
    return (r_out[0] * r_out[1]) / (r_in[0] * r_in[1])


def mobius_region(spec: RegionSpec, pull: complex, phase: float = 0.0) -> RegionSpec:
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
