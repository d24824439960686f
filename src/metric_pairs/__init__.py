"""Hausdorff and Gromov-Hausdorff distances for finite metric pairs and tuples.

Finite metric spaces with distinguished subsets, admissible gluings of two
spaces, certified distance brackets, approximation and rough-isometry search,
covering/packing certificates, and a chained-gluing lab, plus a batch CLI.
"""

from .chain_lab import ChainGluing, LimitProxy, build_chain, chain_convergence_report, limit_proxy
from .counting import (
    CountingProfile,
    check_count_transfer,
    covering_inner,
    covering_outer,
    family_certificate,
    packing,
    separation,
)
from .errors import (
    ChainLengthMismatch,
    DifferentAmbient,
    DisconnectedGraph,
    DomainTooSmall,
    EmptyConstraintSet,
    EmptyLimit,
    GlueMismatch,
    GluingInfeasible,
    InvalidBracket,
    InvalidSubset,
    LengthMismatch,
    MetricPairsError,
    MetricValidationError,
    MetricViolation,
    NegativeRadius,
    NetLengthMismatch,
    NonPositiveEpsilon,
    PreconditionViolated,
    ResolutionTooCoarse,
    ShortcutDetected,
    SizeLimitExceeded,
)
from .gh_solver import (
    ApproximationPair,
    ConvergenceSchedule,
    DistanceBracket,
    RoughIsometryWitness,
    approx_search,
    complete_distortion_map,
    gh_compact_pair,
    gh_compact_tuple,
    gh_truncated_pair,
    min_approx_eps,
    pair_isometry_search,
    rough_isometry_search,
    validate_approximation,
    verify_convergence,
)
from .gluing import (
    CrossMetric,
    EpsAdmissibilityReport,
    check_eps_admissible,
    glue_from_approximation,
    glue_from_constraints,
    glue_from_nets,
    glue_from_rough_isometry,
    transfer_subset,
)
from .hausdorff import MetricPair, MetricTuple, hausdorff, hausdorff_between, pair_hausdorff, tuple_hausdorff
from .metric_core import (
    FiniteMetricSpace,
    SubsetRef,
    WeightedGraph,
    ball,
    diam,
    find_violations,
    restrict,
    same_space,
    shortest_path_closure,
    validate_metric,
)

__version__ = "0.1.0"
