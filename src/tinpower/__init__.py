"""Exact GDoF-region analysis and power control for K-user interference
networks under treat-interference-as-noise operation, including channels with
per-receiver state uncertainty."""

from .channel import (
    CompoundChannel,
    RegularChannel,
    TinViolation,
    from_entrywise_sets,
    from_joint_set,
    is_regular,
    regular_counterpart,
    subnetwork,
    tin_optimal,
    validate,
)
from .errors import (
    CertificateError,
    ChannelValidationError,
    EmptyRegionError,
    GuardExceededError,
    InfeasibleTargetError,
    NonConvergenceError,
)
from .potential import PotentialGraph, ShortestPathResult, U, build_full, shortest_paths
from .power import (
    GgpcTrace,
    GgpcUpdate,
    GsfpcTrace,
    PowerSolution,
    achieved_gdof,
    oracle_globally_optimal,
    solve_power,
)
from .rates import RateReport, rates, sweep
from .region import (
    Constraint,
    RegionConstraints,
    decide,
    improvable_users,
    member,
    pareto,
    region_constraints,
    sum_gdof,
    symmetric_gdof,
)
from .rationals import gdof_tuple, parse_rational, power_exponents, render_rational

__all__ = [
    # channels
    "CompoundChannel", "RegularChannel", "TinViolation", "from_entrywise_sets",
    "from_joint_set", "is_regular", "regular_counterpart", "subnetwork",
    "tin_optimal", "validate",
    # errors
    "CertificateError", "ChannelValidationError", "EmptyRegionError",
    "GuardExceededError", "InfeasibleTargetError", "NonConvergenceError",
    # potential graphs
    "PotentialGraph", "ShortestPathResult", "U", "build_full", "shortest_paths",
    # power control
    "GgpcTrace", "GgpcUpdate", "GsfpcTrace", "PowerSolution", "achieved_gdof",
    "oracle_globally_optimal", "solve_power",
    # finite-SNR rates (``rates`` is the function; it shadows the submodule)
    "RateReport", "rates", "sweep",
    # region
    "Constraint", "RegionConstraints", "decide", "improvable_users", "member",
    "pareto", "region_constraints", "sum_gdof", "symmetric_gdof",
    # rationals
    "gdof_tuple", "parse_rational", "power_exponents", "render_rational",
]
