"""Regions on the circle: unions of disjoint arcs in angle coordinates.

Standard library only, so that the harness checks a config's arcs by the
separation and arc -> site rules the lattice engine builds its regions
with, without loading numpy.  ``check_size`` is the one chain-size rule
and ``site_ranges`` the one site check, that every arc holds a site and
the region leaves one outside it: the config and the lattice both raise
their errors.  ``swept_arcs`` and ``shrink_arcs`` are the
one formula each for the regions a cross-ratio sweep and a shrink run
evaluate: the config check and the run both build them here.
``linear_runs`` and ``complement_runs`` build the lattice's one region
representation, a site set as its sorted ``(first, count)`` runs of
consecutive sites on [0, N), from ``arc_range``.
``entropylab.lattice`` re-exports RegionSpec.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

__all__ = [
    "RegionSpec",
    "arc_range",
    "check_size",
    "complement_runs",
    "linear_runs",
    "shrink_arcs",
    "site_ranges",
    "swept_arcs",
]


class RegionSpec:
    """A union of disjoint arcs on the circle, in angle coordinates.

    Arcs are stored sorted by starting angle, endpoints normalized into
    [0, 2pi); an arc whose stored end lies at or before its start wraps
    through angle zero.  Consecutive arcs must be separated by gaps of
    positive length, so the complement is again a valid RegionSpec and
    ``spec.complement().complement()`` returns the identical endpoints.
    """

    def __init__(self, arcs) -> None:
        cleaned = []
        for a, b in arcs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("arc endpoints must be finite")
            # x % 2pi is 2pi itself for x just below 0: that angle is 0
            a = float(a) % TWO_PI % TWO_PI
            b = float(b) % TWO_PI % TWO_PI
            if a == b:
                raise ValueError("degenerate arc (zero or full length)")
            cleaned.append((a, b))
        cleaned.sort()
        ends = []
        for a, b in cleaned:
            ends.append(b if b > a else b + TWO_PI)
        for k in range(len(cleaned)):
            next_start = cleaned[k + 1][0] if k + 1 < len(cleaned) else cleaned[0][0] + TWO_PI
            if ends[k] >= next_start:
                raise ValueError("arcs must be separated by gaps of positive length")
        self.arcs: tuple[tuple[float, float], ...] = tuple(cleaned)

    def __repr__(self) -> str:
        inner = ", ".join(f"({a:.6f}, {b:.6f})" for a, b in self.arcs)
        return f"RegionSpec([{inner}])"

    def complement(self) -> "RegionSpec":
        """The complementary arcs, re-pairing the same stored endpoints."""
        n = len(self.arcs)
        gaps = [(self.arcs[k][1], self.arcs[(k + 1) % n][0]) for k in range(n)]
        return RegionSpec(gaps)


def arc_range(n: int, arc: tuple[float, float]) -> tuple[int, int]:
    """The sites of ``arc`` on N = ``n`` sites as one run ``(first, count)``.

    Site k sits at angle ``k * (2pi/n)`` and lies in the arc [a, b) (which
    wraps through 0 when b <= a) when that float is ``>= a`` and ``< b``.
    The angles grow with k, so each end is the first site at or past it.
    The sites are first, first + 1, ..., first + count - 1, modulo n.
    """
    step = TWO_PI / n

    def first_at(x: float) -> int:  # the least k in [0, n] with k * step >= x, n if none
        k = min(max(math.ceil(x / step), 0), n)
        while k > 0 and (k - 1) * step >= x:
            k -= 1
        while k < n and k * step < x:
            k += 1
        return k

    a, b = arc
    lo, hi = first_at(a), first_at(b)
    return lo % n, hi - lo if a < b else n - lo + hi


def check_size(n: int) -> None:
    """Raise ValueError unless N = ``n`` is a chain size: even, so that the
    chain fills half its modes with no zero mode, and at least 8."""
    if n % 2 or n < 8:
        raise ValueError(f"sizes must be even and at least 8, got {n}")


def site_ranges(n: int, spec: RegionSpec) -> list[tuple[int, int]]:
    """The ``arc_range`` of each arc of ``spec`` on N = ``n`` sites.

    Raises ValueError unless every arc holds a site and the region leaves
    a site outside it, the sites its complement needs.
    """
    ranges = [arc_range(n, arc) for arc in spec.arcs]
    for (a, b), (_, count) in zip(spec.arcs, ranges):
        if count == 0:
            raise ValueError(f"arc ({a:.4g}, {b:.4g}) holds no sites at N = {n}")
    if sum(count for _, count in ranges) == n:
        arcs = ", ".join(f"({a:.4g}, {b:.4g})" for a, b in spec.arcs)
        raise ValueError(f"region {arcs} leaves no site outside it at N = {n}")
    return ranges


def linear_runs(n: int, ranges) -> tuple[tuple[int, int], ...]:
    """The sites of ``(first, count)`` ranges on N = ``n`` sites as runs on [0, n).

    The ranges are disjoint and count their sites modulo n, as
    ``arc_range`` gives them; one that wraps splits at site 0.  The runs
    come sorted, and runs that touch are merged, so a set of sites has
    exactly one run tuple.
    """
    pieces = []
    for first, count in ranges:
        tail = min(count, n - first)  # the sites before the wrap through 0
        pieces += [(first, tail), (0, count - tail)]
    runs = []
    for first, count in sorted(piece for piece in pieces if piece[1]):
        if runs and first == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + count)
        else:
            runs.append((first, count))
    return tuple(runs)


def complement_runs(n: int, runs) -> tuple[tuple[int, int], ...]:
    """The gaps between the sorted, merged ``runs`` on [0, n), as runs."""
    gaps, end = [], 0
    for first, count in runs:
        if first > end:
            gaps.append((end, first - end))
        end = first + count
    if end < n:
        gaps.append((end, n - end))
    return tuple(gaps)


def swept_arcs(spec: RegionSpec, length: float) -> tuple[tuple[float, float], ...]:
    """The arcs a cross-ratio sweep evaluates at ``length``: the first arc of
    the two-arc ``spec`` and its second arc, from its start, ``length`` long."""
    (a1, b1), (a2, _) = spec.arcs
    return ((a1, b1), (a2, a2 + length))


def shrink_arcs(spec: RegionSpec, arc_index: int, schedule) -> tuple[list, list]:
    """The fixed arcs of a shrink run and its scheduled arc at each length.

    The scheduled arc keeps the start of ``spec.arcs[arc_index]`` and takes
    each ``schedule`` length in turn, its end normalized into [0, 2pi); the
    fixed arcs are the others of ``spec``.
    """
    start = spec.arcs[arc_index][0]
    others = [arc for k, arc in enumerate(spec.arcs) if k != arc_index]
    return others, [(start, (start + length) % TWO_PI) for length in schedule]
