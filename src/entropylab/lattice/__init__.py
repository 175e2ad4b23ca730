"""Free-fermion chain on a circle: Gaussian entropies, deficits, scaling.

The lattice computes quantities: entropies and relative entropies of arc
unions, the region/complement deficit, the geometry of arcs and the fits.
The experiments that compose them, over sizes, schedules and families of
regions, are the runners of ``entropylab.harness``.

Result records are named tuples, not dataclasses: importing
``dataclasses`` and decorating each class would add to the start-up of
every computing CLI call.
"""

from .circle import (
    RegionSpec,
    chord_length,
    cross_ratio,
    equal_eta_family,
    interval_lengths,
    mobius_region,
)
from .deficit import DeficitReport, entropy_deficit
from .gaussian import (
    CorrelationMatrix,
    ground_state_correlations,
    product_state_relative_entropy,
    region_entropy,
)
from .scaling import (
    CentralChargeFit,
    Extrapolation,
    central_charge_fit,
    finite_size_extrapolate,
)

__all__ = [
    "RegionSpec",
    "chord_length",
    "cross_ratio",
    "equal_eta_family",
    "interval_lengths",
    "mobius_region",
    "DeficitReport",
    "entropy_deficit",
    "CorrelationMatrix",
    "ground_state_correlations",
    "product_state_relative_entropy",
    "region_entropy",
    "CentralChargeFit",
    "Extrapolation",
    "central_charge_fit",
    "finite_size_extrapolate",
]
