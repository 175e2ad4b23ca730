"""Regions on the circle: unions of disjoint arcs in angle coordinates.

Standard library only, so that the harness checks a config's arcs by the
separation and arc -> site rules the lattice engine builds its regions
with, without loading numpy.  ``entropylab.lattice`` re-exports RegionSpec.
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

__all__ = ["RegionSpec", "arc_range"]


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
