"""Power-exponent evaluation and control.

Transmit powers are written P**r_k with r_k <= 0. All control logic runs on
exact rationals: argmin tie sets and fixed points are decided without any
tolerance, which is what makes simultaneous user fixing well defined.

Three controls are provided. The synchronous fixed-point iteration (gsfpc)
converges to a locally optimal allocation from the shortest-path start. The
K-update scheme (ggpc) lowers all still-active users by the largest uniform
amount that keeps every target met, freezes the users that hit their limit,
and terminates with the unique componentwise-minimal achieving allocation.
Both read only the regular counterpart's matrix, whose row k gives user k's
worst-state TIN rate; ``achieved_gdof`` keeps the per-state definition, which
certificates check independently of the counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .channel import is_regular, regular_counterpart, subnetwork, validate
from .errors import (
    GuardExceededError,
    InfeasibleTargetError,
    NonConvergenceError,
    PolyhedralViolationError,
)
from .potential import build_reduced, shortest_paths
from .rationals import gdof_tuple, parse_rational, power_exponents, render_rational

ZERO = Fraction(0)

GSFPC_MAX_ITERATIONS = 10_000
ORACLE_MAX_POINTS = 2_000_000
ORACLE_MAX_SCALED = 1 << 40  # keeps int64 grid arithmetic overflow-free


def _rate_exponent(vec, r, k) -> Fraction:
    """User k's TIN rate expression at one receiver state: its signal level
    minus the strongest interference level, taken as at least the noise
    level 0."""
    worst = max((vec[j] + r[j] for j in range(len(r)) if j != k), default=ZERO)
    return vec[k] + r[k] - max(worst, ZERO)


def _worst_state(channel, r, k) -> Fraction:
    """User k's TIN rate expression in its worst receiver state."""
    return min(_rate_exponent(vec, r, k) for vec in channel.receivers[k])


def achieved_gdof(channel, r) -> tuple[Fraction, ...]:
    """Per-user GDoF when all interference is treated as noise, worst state."""
    validate(channel)
    r = power_exponents(r, channel.K)
    return tuple(max(_worst_state(channel, r, k), ZERO) for k in range(channel.K))


def achieved_gdof_polyhedral(channel, r) -> tuple[Fraction, ...]:
    """Unclamped variant; raises when some user's rate expression is negative
    (the allocation lies outside the polyhedral-valid set)."""
    validate(channel)
    r = power_exponents(r, channel.K)
    out = tuple(_worst_state(channel, r, k) for k in range(channel.K))
    for k, value in enumerate(out):
        if value < 0:
            state = next(l for l, vec in enumerate(channel.receivers[k])
                         if _rate_exponent(vec, r, k) == value)
            raise PolyhedralViolationError(
                f"user {k} state {state} has negative rate expression {value}",
                user=k, state=state)
    return out


def _require_positive(d) -> None:
    if any(x == 0 for x in d):
        raise ValueError(
            "targets must be strictly positive here; deactivate zero-GDoF "
            "users first (see solve_power)")


def _initial_allocation(channel, d) -> tuple[Fraction, ...]:
    """Shortest-path start; raises with the circuit witness when infeasible."""
    sp = shortest_paths(build_reduced(channel, d))
    if not sp.feasible:
        raise InfeasibleTargetError(
            f"target ({', '.join(map(render_rational, d))}) is outside the "
            f"polyhedral region",
            cycle=sp.negative_cycle, cycle_length=sp.cycle_length)
    return sp.l_dst


@dataclass(frozen=True)
class GsfpcTrace:
    """Fixed-point iteration history: componentwise non-increasing iterates;
    when converged the last two coincide."""

    iterates: tuple[tuple[Fraction, ...], ...]
    converged: bool
    iterations: int


def gsfpc(channel, d) -> tuple[tuple[Fraction, ...], GsfpcTrace]:
    """Synchronous fixed-point power control on any (possibly multi-state)
    channel.

    Each round sets every user's exponent to the smallest value meeting its
    target against the current interference. From the shortest-path start the
    iterates decrease and reach an exact fixed point, which is locally optimal
    and dominates every local optimum below the start.
    """
    a = regular_counterpart(channel).matrix
    d = gdof_tuple(d, channel.K)
    _require_positive(d)
    r = _initial_allocation(channel, d)
    iterates = [r]
    for n in range(GSFPC_MAX_ITERATIONS):
        nxt = tuple(r[k] + d[k] - _rate_exponent(row, r, k) for k, row in enumerate(a))
        iterates.append(nxt)
        if nxt == r:
            return nxt, GsfpcTrace(tuple(iterates), True, n + 1)
        r = nxt
    trace = GsfpcTrace(tuple(iterates), False, GSFPC_MAX_ITERATIONS)
    raise NonConvergenceError(
        f"no exact fixed point within {GSFPC_MAX_ITERATIONS} iterations",
        trace=trace)


@dataclass(frozen=True)
class GgpcUpdate:
    """One update: the uniform power drop, the users newly fixed, and the
    allocation / achieved GDoF right after."""

    delta: Fraction
    fixed: tuple[int, ...]
    r: tuple[Fraction, ...]
    achieved: tuple[Fraction, ...]


@dataclass(frozen=True)
class GgpcTrace:
    r0: tuple[Fraction, ...]
    updates: tuple[GgpcUpdate, ...]


def ggpc(channel, d) -> tuple[tuple[Fraction, ...], GgpcTrace]:
    """K-update control (Nash/global optimum).

    Every update applies the largest uniform power reduction that keeps all
    still-active users at or above target, then freezes the whole argmin set.
    Terminates within K updates; each frozen user achieves its target exactly
    from the moment it is fixed. On a multi-state channel the margins are read
    from the regular counterpart's rows, which equal each user's worst state,
    so every user ends with at least one state meeting its target exactly.
    """
    a = regular_counterpart(channel).matrix
    d = gdof_tuple(d, channel.K)
    _require_positive(d)
    r0 = _initial_allocation(channel, d)
    r = list(r0)
    active = set(range(channel.K))
    fixed: list[int] = []
    updates: list[GgpcUpdate] = []
    while active:
        margins = {
            i: r[i] + a[i][i] - d[i] - max([ZERO] + [a[i][m] + r[m] for m in fixed])
            for i in sorted(active)}
        delta = min(margins.values())
        newly = tuple(sorted(i for i in active if margins[i] == delta))
        for i in active:
            r[i] -= delta
        active -= set(newly)
        fixed.extend(newly)
        achieved = tuple(max(_rate_exponent(row, r, k), ZERO) for k, row in enumerate(a))
        updates.append(GgpcUpdate(delta, newly, tuple(r), achieved))
    return tuple(r), GgpcTrace(r0, tuple(updates))


def locally_optimal(channel, r, d) -> bool:
    """True iff no user can unilaterally lower its exponent and keep its
    target: each r_k must equal its closed-form unilateral minimum."""
    a = regular_counterpart(channel).matrix
    r = power_exponents(r, channel.K)
    d = gdof_tuple(d, channel.K)
    rate_exps = tuple(_rate_exponent(row, r, k) for k, row in enumerate(a))
    if any(max(x, ZERO) < t for x, t in zip(rate_exps, d)):
        raise ValueError("allocation does not achieve the target tuple")
    return rate_exps == d


def _scaled_int(value: Fraction, scale: int) -> int:
    scaled = value * scale
    assert scaled.denominator == 1
    return int(scaled)


def oracle_globally_optimal(channel, r, d, grid_step, floor) -> bool:
    """Exhaustive grid check that nothing achieving ``d`` undercuts ``r``.

    Deliberately independent of the control algorithms: scans every grid
    allocation in [floor, 0]^K and looks for one that achieves the target with
    some coordinate strictly below r. The sweep runs on exactly scaled int64
    arrays, so it is both fast and free of rounding. Intended for small K and
    coarse grids; guarded on grid size and scale.
    """
    validate(channel)
    r = power_exponents(r, channel.K)
    d = gdof_tuple(d, channel.K)
    step = parse_rational(grid_step)
    bottom = parse_rational(floor)
    if step <= 0:
        raise ValueError("grid_step must be positive")
    if bottom >= 0:
        raise ValueError("floor must be negative")
    K = channel.K

    levels = []
    i = 0
    while -i * step >= bottom:
        levels.append(-i * step)
        i += 1
    if len(levels) ** K > ORACLE_MAX_POINTS:
        raise GuardExceededError(
            f"grid of {len(levels)}^{K} = {len(levels) ** K} points exceeds "
            f"the search guard of {ORACLE_MAX_POINTS}")

    denoms = [step.denominator]
    denoms += [x.denominator for x in r] + [x.denominator for x in d]
    for states in channel.receivers:
        for vec in states:
            denoms += [x.denominator for x in vec]
    scale = lcm(*denoms)
    alpha = [
        [[_scaled_int(x, scale) for x in vec] for vec in states]
        for states in channel.receivers]
    magnitude = max(abs(v) for row in alpha for vec in row for v in vec)
    if magnitude > ORACLE_MAX_SCALED:
        raise GuardExceededError(
            f"scaled strength magnitude {magnitude} exceeds the integer guard "
            f"of {ORACLE_MAX_SCALED}")

    grid = np.array([_scaled_int(v, scale) for v in levels], dtype=np.int64)
    axes = [
        grid.reshape(tuple(len(levels) if j == k else 1 for j in range(K)))
        for k in range(K)]

    feasible = None
    for k in range(K):
        per_user = None
        for vec in alpha[k]:
            if K == 1:
                interference = np.zeros(1, dtype=np.int64)
            else:
                interference = None
                for j in range(K):
                    if j == k:
                        continue
                    term = vec[j] + axes[j]
                    interference = term if interference is None else np.maximum(
                        interference, term)
                interference = np.maximum(interference, 0)
            value = vec[k] + axes[k] - interference
            per_user = value if per_user is None else np.minimum(per_user, value)
        ok = np.maximum(per_user, 0) >= _scaled_int(d[k], scale)
        feasible = ok if feasible is None else feasible & ok

    undercut = None
    for k in range(K):
        below = axes[k] < _scaled_int(r[k], scale)
        undercut = below if undercut is None else undercut | below
    return not bool(np.any(feasible & undercut))


@dataclass(frozen=True)
class PowerSolution:
    """Allocation with possibly deactivated users.

    ``allocation[i]`` is None for users switched off (zero target); they are
    reported as "silent" rather than with a finite exponent.
    """

    algorithm: str
    allocation: tuple[Fraction | None, ...]
    silent: tuple[int, ...]
    via_counterpart: bool
    trace: GgpcTrace | GsfpcTrace | None


ALGORITHMS = ("sp", "gsfpc", "ggpc", "ggpc-c")


def solve_power(channel, d, algorithm: str) -> PowerSolution:
    """Run one of the named controls, deactivating zero-target users first.

    "sp" returns the shortest-path allocation itself. "ggpc" and "ggpc-c" run
    the same control, which reads the regular counterpart either way; "ggpc"
    on a multi-state channel flags this in ``via_counterpart``, "ggpc-c" does
    not.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")
    validate(channel)
    d = gdof_tuple(d, channel.K)
    active = [i for i, x in enumerate(d) if x > 0]
    silent = tuple(i for i, x in enumerate(d) if x == 0)
    if not active:
        return PowerSolution(algorithm, (None,) * channel.K, silent, False, None)
    sub = subnetwork(channel, active) if silent else channel
    d_sub = [d[i] for i in active]

    trace: GgpcTrace | GsfpcTrace | None = None
    if algorithm == "sp":
        r_sub = _initial_allocation(sub, gdof_tuple(d_sub))
    elif algorithm == "gsfpc":
        r_sub, trace = gsfpc(sub, d_sub)
    else:
        r_sub, trace = ggpc(sub, d_sub)
    via_counterpart = algorithm == "ggpc" and not is_regular(sub)

    allocation: list[Fraction | None] = [None] * channel.K
    for pos, user in enumerate(active):
        allocation[user] = r_sub[pos]
    return PowerSolution(algorithm, tuple(allocation), silent, via_counterpart, trace)
