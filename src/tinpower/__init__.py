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
    PolyhedralViolationError,
)
from .potential import (
    PotentialGraph,
    ShortestPathResult,
    U,
    build_full,
    build_reduced,
    shortest_paths,
)
from .power import (
    GgpcTrace,
    GgpcUpdate,
    GsfpcTrace,
    PowerSolution,
    achieved_gdof,
    achieved_gdof_polyhedral,
    locally_optimal,
    oracle_globally_optimal,
    solve_power,
)
from .rates import GdofLimitResult, RateReport, gdof_limit_check, rates, sweep
from .region import (
    Constraint,
    RegionConstraints,
    circuit_bound,
    decide,
    enumerate_cycles,
    improvable_users,
    member,
    member_star,
    pareto,
    region_constraints,
    sum_gdof,
    symmetric_gdof,
)
from .rationals import gdof_tuple, parse_rational, power_exponents, render_rational

__all__ = [name for name in dir() if not name.startswith("_")]
