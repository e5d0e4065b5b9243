"""Weight-function calculus for white-noise triples at desk scale.

Legendre transforms and duals of growth functions, weight-sequence
admissibility, higher-order Bell numbers, a finite-dimensional chaos
model with S-/T-transform growth-bound checks, and Monte Carlo
integrability diagnostics for measures with known characteristic
functionals.
"""

from .weights import (
    CONSISTENT,
    VIOLATED,
    ClassMembership,
    ConvexityReport,
    DomainError,
    FunctionEquivalenceReport,
    PrecisionError,
    WeightFunction,
    bell_weight,
    check_log_x2_convex,
    classify,
    custom_table,
    from_callable,
    from_config,
    func_equivalent,
    log_k,
    power_exp,
    sqrt_log_weight,
)
from .legendre import (
    EquivalenceReport,
    TransformResult,
    UnboundedError,
    dual_function,
    dual_weight,
    legendre_transform,
    log_factorial,
    seq_equivalent,
    verify_dual_sequence,
)
from .sequences import (
    A1Report,
    A2Report,
    SandwichReport,
    WeightSequence,
    alpha_from_u,
    bell_numbers,
    check_A1,
    check_A2,
    remark_inclusion_bounds,
    stirling_sandwich,
)
from .chaos import (
    BoundCheckReport,
    ChaosVector,
    FiniteGaussianModel,
    PremiseError,
    chaos_vector,
    check_dist_bound,
    check_test_bound,
    coherent_state,
    dist_norm,
    hs_norm_inclusion,
    pairing,
    point_eval,
    s_transform,
    t_transform,
    test_norm,
)
from .measures import (
    IntegrabilityReport,
    MeasureModel,
    PositiveDefiniteReport,
    SamplerValidationError,
    check_positive_definite,
    integrability_check,
    mittag_leffler,
    poisson_char,
    sample,
    validate_sampler,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
