"""Regions on the circle: unions of disjoint arcs in angle coordinates.

Standard library only, so that the harness checks a config's arcs by the
same separation rule the lattice engine builds its regions with, without
loading numpy.  ``entropylab.lattice`` re-exports :class:`RegionSpec`.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

__all__ = ["RegionSpec"]


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
            a = float(a) % TWO_PI
            b = float(b) % TWO_PI
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

    def __eq__(self, other) -> bool:
        return isinstance(other, RegionSpec) and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash(self.arcs)

    def complement(self) -> "RegionSpec":
        """The complementary arcs, re-pairing the same stored endpoints."""
        n = len(self.arcs)
        gaps = [(self.arcs[k][1], self.arcs[(k + 1) % n][0]) for k in range(n)]
        return RegionSpec(gaps)
