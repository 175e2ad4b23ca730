"""Free-fermion chain on a circle: Gaussian entropies, deficits, scaling.

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
from .experiments import (
    CollapseReport,
    ShrinkReport,
    ShrinkStep,
    cross_ratio_collapse,
    shrink_experiment,
)
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
    "CollapseReport",
    "ShrinkReport",
    "ShrinkStep",
    "cross_ratio_collapse",
    "shrink_experiment",
    "CorrelationMatrix",
    "ground_state_correlations",
    "product_state_relative_entropy",
    "region_entropy",
    "CentralChargeFit",
    "Extrapolation",
    "central_charge_fit",
    "finite_size_extrapolate",
]
