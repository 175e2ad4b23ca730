"""Regularized entropy of arc unions and the region/complement deficit.

The regularized entropy of a union of arcs is (c/6) sum_i ln r_i minus the
relative entropy to the product of marginals; the deficit is its mismatch
between a region and its complement.  Geometry terms use continuum
endpoints, entropies use the lattice, and only the UV-finite combination
is ever compared across sizes.  For the critical chain studied here the
deficit is expected to vanish with N.  This module computes the deficit at
one size; the duality and two-d runners of ``entropylab.harness`` compose
the sizes and the N -> infinity verdict.

The duality and two-d experiments read c = 2, so (c/6) ln r is
(1/3) ln r: the same coefficient as the c-fit predictor (c_hat/3) ln r at
its fitted c_hat = 1.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .circle import RegionSpec, interval_lengths
from .gaussian import CorrelationMatrix, product_state_relative_entropy

__all__ = [
    "DeficitReport",
    "entropy_deficit",
]


class DeficitReport(
    namedtuple("DeficitReport", "s_region s_complement g_region g_complement deficit")
):
    """Relative entropies and regularized entropies of a region and its
    complement at one size, and their deficit."""

    __slots__ = ()


def _geometry_term(lengths: tuple[float, ...], c: float) -> float:
    return (c / 6.0) * math.fsum(math.log(r) for r in lengths)


def entropy_deficit(
    corr: CorrelationMatrix,
    spec: RegionSpec,
    c: float,
) -> DeficitReport:
    """Deficit between the region and its complement.

    For two arcs the deficit equals -(c/6) ln eta - S_region + S_complement
    with eta = ``cross_ratio(spec)``, the same expression rearranged (the
    tests hold the two to 1e-12).
    """
    if c <= 0:
        raise ValueError("central charge must be positive")
    if len(spec.arcs) < 2:
        raise ValueError("deficit needs at least two arcs")
    comp = spec.complement()
    # The complement's sites are the region's complement (half-open arcs),
    # so by purity the two unions share one entropy, evaluated once.
    memo: dict = {}
    s_region = product_state_relative_entropy(corr, spec, memo)
    s_complement = product_state_relative_entropy(corr, comp, memo)
    g_region = _geometry_term(interval_lengths(spec), c) - s_region
    g_complement = _geometry_term(interval_lengths(comp), c) - s_complement
    return DeficitReport(
        s_region=s_region,
        s_complement=s_complement,
        g_region=g_region,
        g_complement=g_complement,
        deficit=g_region - g_complement,
    )
