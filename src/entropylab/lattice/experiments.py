"""Sequence experiments: interval shrinking and cross-ratio collapse."""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from ..regions import arc_range, shrink_arcs
from .circle import TWO_PI, RegionSpec, cross_ratio
from .gaussian import CorrelationMatrix, product_state_relative_entropy

ETA_TOLERANCE = 1e-12  # how far the cross ratios of a collapse family may differ

__all__ = [
    "ShrinkStep",
    "ShrinkReport",
    "shrink_experiment",
    "CollapseReport",
    "cross_ratio_collapse",
]


class ShrinkStep(namedtuple("ShrinkStep", "length sites_in_arc value gap")):
    """One step of a shrink schedule: the arc's length and site count, the
    value there and its gap to the target."""

    __slots__ = ()


class ShrinkReport(namedtuple("ShrinkReport", "steps target monotone_from")):
    """The steps, a tuple of ShrinkStep, their target, and the first step
    from which the gaps no longer grow."""

    __slots__ = ()

    @property
    def gaps(self) -> tuple[float, ...]:
        return tuple(step.gap for step in self.steps)

    @property
    def eventually_monotone(self) -> bool:
        return self.monotone_from < max(1, len(self.steps) - 1)


def shrink_experiment(
    corr: CorrelationMatrix,
    spec: RegionSpec,
    arc_index: int,
    schedule: list[float],
) -> ShrinkReport:
    """Track S(omega, omega-product) while one arc's length runs a schedule.

    ``arc_index`` refers to the sorted arcs of ``spec``; the arc keeps its
    left endpoint and its length is replaced by each schedule entry in
    turn.  The target is the product-state relative entropy of the
    remaining arcs alone, which the value approaches as the scheduled arc
    shrinks away.  Only the final step may leave the arc without sites.
    """
    if not schedule:
        raise ValueError("empty schedule")
    if not 0 <= arc_index < len(spec.arcs):
        raise ValueError("arc index out of range")
    others, arcs = shrink_arcs(spec, arc_index, schedule)
    if not others:
        raise ValueError("need at least one arc besides the scheduled one")
    # The fixed arcs enter every step; one memo evaluates each site set once.
    memo: dict = {}
    target = product_state_relative_entropy(corr, RegionSpec(others), memo)

    steps = []
    for position, (length, arc) in enumerate(zip(schedule, arcs)):
        if not 0 < length < TWO_PI:
            raise ValueError("schedule lengths must lie strictly between 0 and 2*pi")
        occupied = arc_range(corr.n_sites, arc)[1]
        if occupied == 0:
            if position != len(schedule) - 1:
                raise ValueError("schedule empties the arc before the final step")
            value = target
        else:
            value = product_state_relative_entropy(corr, RegionSpec(others + [arc]), memo)
        steps.append(
            ShrinkStep(
                length=length,
                sites_in_arc=occupied,
                value=value,
                gap=value - target,
            )
        )

    gaps = [s.gap for s in steps]
    monotone_from = len(steps) - 1
    for k in range(len(steps)):
        if all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(k, len(steps) - 1)):
            monotone_from = k
            break
    return ShrinkReport(steps=tuple(steps), target=target, monotone_from=monotone_from)


class CollapseReport(namedtuple("CollapseReport", "eta values spread")):
    """The shared cross ratio, one value per geometry, and their spread."""

    __slots__ = ()


def cross_ratio_collapse(
    corr: CorrelationMatrix,
    specs: list[RegionSpec],
    use_arc_length: bool = False,
) -> CollapseReport:
    """Product-state relative entropies of several equal-cross-ratio regions.

    All regions must have two arcs and the same eta within ``ETA_TOLERANCE``
    (that is the hypothesis that makes the values comparable); the report
    carries the maximum pairwise spread.
    """
    if len(specs) < 2:
        raise ValueError("need at least two geometries to compare")
    etas = [cross_ratio(spec, use_arc_length) for spec in specs]
    if max(etas) - min(etas) > ETA_TOLERANCE:
        raise ValueError(
            f"cross ratios differ beyond tolerance: spread {max(etas) - min(etas):.3e}"
        )
    values = tuple(product_state_relative_entropy(corr, spec) for spec in specs)
    return CollapseReport(
        eta=float(np.mean(etas)),
        values=values,
        spread=max(values) - min(values),
    )
