"""Finite-dimensional operator algebras, weights, expectations and the
relative-entropy machinery built on them.

Result records are named tuples, not dataclasses: importing
``dataclasses`` and decorating each class would add to the start-up of
every computing CLI call.
"""

from .algebras import (
    BlockStructure,
    MatrixBlockAlgebra,
    build_algebra,
)
from .expectations import ConditionalExpectationMap, compose_expectations
from .identities import (
    ChainInstance,
    CheckReport,
    DifferenceInstance,
    check_entropy_identity,
    entropy_additivity_chain,
    entropy_difference_identity,
    random_chain_instance,
    random_difference_instance,
    random_unitary,
)
from .index import dual_weight, kosaki_index
from .spatial import (
    relative_entropy_spatial,
    relative_entropy_umegaki,
)
from .states import (
    VectorStateData,
    WeightDensity,
    canonical_density,
    random_faithful_state,
    random_unit_vector,
)

__all__ = [
    "BlockStructure",
    "MatrixBlockAlgebra",
    "build_algebra",
    "ConditionalExpectationMap",
    "compose_expectations",
    "ChainInstance",
    "CheckReport",
    "DifferenceInstance",
    "check_entropy_identity",
    "entropy_additivity_chain",
    "entropy_difference_identity",
    "random_chain_instance",
    "random_difference_instance",
    "random_unitary",
    "dual_weight",
    "kosaki_index",
    "relative_entropy_spatial",
    "relative_entropy_umegaki",
    "VectorStateData",
    "WeightDensity",
    "canonical_density",
    "random_faithful_state",
    "random_unit_vector",
]
