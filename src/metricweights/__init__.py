"""Weights, maximal operators, and Whitney geometry on finite metric measure spaces.

The package revolves around one object, MetricMeasureSpace, and the canonical
enumeration of its distinct balls; every characteristic and the doubling
constant is a supremum over that enumeration, taken by CanonicalBallSet.sup.
On top of it:

* maximal: restricted maximal operators and the power-of-maximal weight
  construction;
* weights: induced and domain weight-class characteristics, reverse Holder
  constants, self-improvement searches;
* factorization: two-factor decomposition of a weight via an iterated
  maximal-operator series;
* extension: extending a weight from a subset to the whole space with
  control of its global characteristic;
* whitney: covers of proper domains, ball chains, quasihyperbolic distances;
* studies: refinement families tying the above together;
* io / cli: versioned JSON artifacts and the command-line front end.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    FormatError,
    MetricWeightsError,
)
from .extension import (
    ExtensionReport,
    RestrictionReport,
    check_extension_condition,
    restrict_weight_report,
    wolff_extend,
)
from .factorization import FactorizationResult, a1_bounds, jones_factorize, rdf_apply_T
from .maximal import coifman_rochberg_weight, maximal_fn
from .space import (
    Ball,
    MetricMeasureSpace,
    build_grid_space,
    canonical_balls,
    doubling_constant,
    space_from_matrix,
    validate_space,
)
from .weights import (
    CharacteristicReport,
    ConditionReport,
    ap_domain_characteristic,
    ap_tilde_characteristic,
    conjugate_exponent,
    power_weight,
    reverse_holder_constant,
    self_improve_epsilon,
)
from .whitney import (
    DomainSpec,
    WhitneyCover,
    chain_weight_ratio,
    check_cover_invariants,
    make_domain,
    qh_distance,
    qh_distances,
    shortest_chain_length,
    whitney_cover,
    witness_intersection_ball,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "CharacteristicReport",
    "ConditionReport",
    "ConvergenceError",
    "DomainError",
    "DomainSpec",
    "ExtensionReport",
    "FactorizationResult",
    "FormatError",
    "MetricMeasureSpace",
    "MetricWeightsError",
    "RestrictionReport",
    "WhitneyCover",
    "a1_bounds",
    "ap_domain_characteristic",
    "ap_tilde_characteristic",
    "build_grid_space",
    "canonical_balls",
    "chain_weight_ratio",
    "check_cover_invariants",
    "check_extension_condition",
    "coifman_rochberg_weight",
    "conjugate_exponent",
    "doubling_constant",
    "jones_factorize",
    "make_domain",
    "maximal_fn",
    "power_weight",
    "qh_distance",
    "qh_distances",
    "rdf_apply_T",
    "restrict_weight_report",
    "reverse_holder_constant",
    "self_improve_epsilon",
    "shortest_chain_length",
    "space_from_matrix",
    "validate_space",
    "whitney_cover",
    "witness_intersection_ball",
    "wolff_extend",
]
