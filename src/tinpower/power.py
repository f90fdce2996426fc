"""Power-exponent evaluation and control.

Transmit powers are written P**r_k with r_k <= 0. All control logic is exact:
the loops run on the int lengths of the potential graph that :func:`decide`
builds for their start and return rationals, so argmin tie sets and fixed
points need no tolerance, which makes simultaneous user fixing well defined.

Three controls are provided. The synchronous fixed-point iteration (gsfpc)
converges to a locally optimal allocation from the shortest-path start. The
K-update scheme (ggpc) lowers all still-active users by the largest uniform
amount that keeps every target met, freezes the users that hit their limit,
and terminates with the unique componentwise-minimal achieving allocation.
Both read only that graph of the regular counterpart, where user k's edges
give its worst-state TIN rate; ``achieved_gdof`` keeps the per-state
definition, which certificates check independently of the counterpart.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import NamedTuple

# numpy serves only elementwise int work here, never BLAS. Its OpenBLAS would
# start a worker pool at import that spins for a while on the other cores, so
# a short CLI call paid for a second core and slowed whenever that core was
# busy. One BLAS thread, unless the caller chose a count, keeps it to one.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402  (after the thread count above)

from .channel import CompoundChannel, is_regular, receiver_levels, subnetwork
from .errors import (
    CertificateError,
    GuardExceededError,
    InfeasibleTargetError,
    NonConvergenceError,
)
from .potential import U
from .rationals import (
    gdof_tuple,
    lcm_scaled,
    parse_rational,
    power_exponents,
    render_rational,
)
from .region import decide

ZERO = Fraction(0)

GSFPC_MAX_ITERATIONS = 10_000
ORACLE_MAX_POINTS = 2_000_000
ORACLE_MAX_SCALED = 1 << 40  # keeps int64 grid arithmetic overflow-free


def achieved_gdof(channel, r) -> tuple[Fraction, ...]:
    """Per-user GDoF when all interference is treated as noise, worst state.
    User k's TIN rate expression in each of its states is computed on the
    int levels of :func:`receiver_levels`: its signal level minus the
    strongest interference level, taken as at least the noise level 0."""
    out = []
    for k, (scale, levels) in enumerate(
            receiver_levels(channel, power_exponents(r, channel.K))):
        worst = min(x[k] - max([0, *x[:k], *x[k + 1:]]) for x in levels)
        out.append(Fraction(max(worst, 0), scale))
    return tuple(out)


def certify_allocation(channel, r, d) -> tuple[Fraction, ...]:
    """The per-state :func:`achieved_gdof` of allocation ``r``, a "yes"
    certificate: a miss of the coerced target ``d`` raises
    CertificateError."""
    achieved = achieved_gdof(channel, r)
    if any(a < t for a, t in zip(achieved, d, strict=True)):
        raise CertificateError("the allocation does not achieve the target")
    return achieved


class GsfpcTrace(NamedTuple):
    """Fixed-point iteration history: componentwise non-increasing iterates;
    when converged the last two coincide."""

    iterates: tuple[tuple[Fraction, ...], ...]
    converged: bool
    iterations: int


def _user_edges(graph) -> list[dict[int, int]]:
    """Each user's edges on a graph with one vertex per user, as ``{t: w}``:
    its length ``w`` to user ``t``, and to ``u`` (vertex ``K``) at ``t = K``."""
    out: list[dict[int, int]] = [{} for _ in range(graph.K)]
    for s, t, w in graph.edges:
        if s < graph.K:
            out[s][t] = w
    return out


def _gsfpc(verdict) -> tuple[tuple[Fraction, ...], GsfpcTrace]:
    """Synchronous fixed-point power control on a "yes" verdict's graph.

    Each round sets every user's exponent to the smallest value meeting its
    target against the current interference: ``x_k = max(x_t - w_kt)`` over
    k's edges ``k -> t``, with ``x_u = 0``. From the shortest-path start the
    iterates decrease and reach an exact fixed point, which is locally
    optimal and dominates every local optimum below the start. Rounds run on
    the graph's int lengths, from the verdict's int potentials.
    """
    scale, out = verdict.graph.scale, _user_edges(verdict.graph)
    x = [*verdict.potentials]
    iterates = [verdict.sp.l_dst]
    for n in range(GSFPC_MAX_ITERATIONS):
        nxt = [*(max([x[t] - w for t, w in edges.items()]) for edges in out), 0]
        iterates.append(tuple(Fraction(v, scale) for v in nxt[:-1]))
        if nxt == x:
            return iterates[-1], GsfpcTrace(tuple(iterates), True, n + 1)
        x = nxt
    trace = GsfpcTrace(tuple(iterates), False, GSFPC_MAX_ITERATIONS)
    raise NonConvergenceError(
        f"no exact fixed point within {GSFPC_MAX_ITERATIONS} iterations",
        trace=trace)


class GgpcUpdate(NamedTuple):
    """One update: the uniform power drop, the users newly fixed, and the
    allocation / achieved GDoF right after."""

    delta: Fraction
    fixed: tuple[int, ...]
    r: tuple[Fraction, ...]
    achieved: tuple[Fraction, ...]


class GgpcTrace(NamedTuple):
    r0: tuple[Fraction, ...]
    updates: tuple[GgpcUpdate, ...]


def _ggpc(verdict, d) -> tuple[tuple[Fraction, ...], GgpcTrace]:
    """K-update control (Nash/global optimum) on a "yes" verdict for ``d``.

    Every update applies the largest uniform power reduction that keeps all
    still-active users at or above target, then freezes the whole argmin set.
    Terminates within K updates; each frozen user achieves its target exactly
    from the moment it is fixed. On a multi-state channel the counterpart's
    rows equal each user's worst state, so every user ends with at least one
    state meeting its target exactly.

    On the graph's ints, user k achieves ``d_k + r_k + min(w_kt - r_t)``
    over its edges ``k -> t`` (``r_u = 0``), clamped at 0. ``cap[k]`` is
    that least term over ``u`` and the fixed users; ``moving[k]``, over all
    of k's edges at the start, rises by every ``delta``. An active user's
    margin is thus ``r_k + cap[k]``. The terms of ``moving`` for ``u`` and
    for users fixed since are stale, but only ever too high, so
    ``min(cap[k], moving[k])`` is exact. Each update costs O(K).
    """
    K, scale, out = verdict.graph.K, verdict.graph.scale, _user_edges(verdict.graph)
    need, r = verdict.graph.on_lattice(d), [*verdict.potentials]
    cap = [edges[K] for edges in out]
    moving = [min([w - r[t] for t, w in edges.items()]) for edges in out]
    active = set(range(K))
    updates: list[GgpcUpdate] = []
    while active:
        margins = {i: r[i] + cap[i] for i in sorted(active)}
        delta = min(margins.values())
        newly = tuple(i for i, x in margins.items() if x == delta)
        for i in active:
            r[i] -= delta
        moving = [x + delta for x in moving]
        active -= set(newly)
        cap = [min([c, *(edges[m] - r[m] for m in newly if m != k)])
               for k, (c, edges) in enumerate(zip(cap, out))]
        achieved = tuple(
            Fraction(max(need[k] + r[k] + min(cap[k], moving[k]), 0), scale)
            for k in range(K))
        updates.append(GgpcUpdate(Fraction(delta, scale), newly,
                                  tuple(Fraction(x, scale) for x in r[:K]), achieved))
    return updates[-1].r, GgpcTrace(verdict.sp.l_dst, tuple(updates))


def oracle_globally_optimal(channel, r, d, grid_step, floor) -> bool:
    """Exhaustive grid check that nothing achieving ``d`` undercuts ``r``.

    Deliberately independent of the control algorithms: scans every grid
    allocation in [floor, 0]^K and looks for one that achieves the target with
    some coordinate strictly below r. The sweep runs on exactly scaled int64
    arrays, so it is both fast and free of rounding. Intended for small K and
    coarse grids; guarded on grid size and scale.
    """
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

    _, (_, levels, r, d, *vectors) = lcm_scaled(
        [step], levels, r, d, *(vec for states in channel.receivers for vec in states))
    vectors = iter(vectors)
    alpha = [[next(vectors) for _ in states] for states in channel.receivers]
    magnitude = max(abs(v) for row in alpha for vec in row for v in vec)
    if magnitude > ORACLE_MAX_SCALED:
        raise GuardExceededError(
            f"scaled strength magnitude {magnitude} exceeds the integer guard "
            f"of {ORACLE_MAX_SCALED}")

    grid = np.array(levels, dtype=np.int64)
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
        ok = np.maximum(per_user, 0) >= d[k]
        feasible = ok if feasible is None else feasible & ok

    undercut = None
    for k in range(K):
        below = axes[k] < r[k]
        undercut = below if undercut is None else undercut | below
    return not bool(np.any(feasible & undercut))


class PowerSolution(NamedTuple):
    """Allocation with possibly deactivated users.

    ``allocation[i]`` is None for users switched off (zero target); they are
    reported as "silent" rather than with a finite exponent. ``achieved`` is
    its per-state :func:`achieved_gdof` on the active users, 0 when silent.
    """

    algorithm: str
    allocation: tuple[Fraction | None, ...]
    silent: tuple[int, ...]
    via_counterpart: bool
    trace: GgpcTrace | GsfpcTrace | None
    achieved: tuple[Fraction, ...] = ()


ALGORITHMS = ("sp", "gsfpc", "ggpc", "ggpc-c")


def check_algorithm(algorithm: str) -> None:
    """Refuse a control name outside :data:`ALGORITHMS` (``ValueError``)."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {ALGORITHMS}")


def active_subnetwork(channel, d) -> tuple[list[int], CompoundChannel, tuple[Fraction, ...]]:
    """The users with a non-zero target in the GDoF tuple ``d`` (at least
    one), the subnetwork of them that the controls decide and run on (the
    channel itself when no target is zero), and their targets."""
    active = [i for i, x in enumerate(d) if x > 0]
    sub = subnetwork(channel, active) if len(active) < channel.K else channel
    return active, sub, tuple(d[i] for i in active)


def solve_power(channel, d, algorithm: str) -> PowerSolution:
    """Run one of the named controls, deactivating zero-target users first.

    Every control starts from the shortest-path allocation ("sp" returns it)
    that ``decide`` gives on the active subnetwork. Its counterpart is a
    submatrix of the channel's, so an infeasible target's circuit and bound,
    renumbered to the channel's users, keep their length and rhs. "ggpc" and
    "ggpc-c" run the same control, which reads the regular counterpart
    either way; "ggpc" on a multi-state channel flags this in
    ``via_counterpart``, "ggpc-c" does not. An allocation whose per-state
    achieved GDoF misses the target raises :class:`CertificateError`.
    """
    check_algorithm(algorithm)
    d = gdof_tuple(d, channel.K)
    silent = tuple(i for i, x in enumerate(d) if x == 0)
    if len(silent) == channel.K:
        return PowerSolution(algorithm, (None,) * channel.K, silent, False, None,
                             (ZERO,) * channel.K)
    active, sub, d_sub = active_subnetwork(channel, d)
    verdict = decide(sub, d_sub)
    if not verdict.sp.feasible:
        raise InfeasibleTargetError(
            f"target ({', '.join(map(render_rational, d))}) is outside the "
            f"polyhedral region",
            cycle=tuple(v if v == U else (active[v[0]], v[1])
                        for v in verdict.sp.negative_cycle),
            cycle_length=verdict.sp.cycle_length,
            bound=verdict.bound.relabel(active))
    r_sub, trace = verdict.sp.l_dst, None
    if algorithm == "gsfpc":
        r_sub, trace = _gsfpc(verdict)
    elif algorithm != "sp":
        r_sub, trace = _ggpc(verdict, d_sub)
    via_counterpart = algorithm == "ggpc" and not is_regular(sub)
    achieved_sub = certify_allocation(sub, r_sub, d_sub)

    allocation: list[Fraction | None] = [None] * channel.K
    achieved = [ZERO] * channel.K
    for pos, user in enumerate(active):
        allocation[user], achieved[user] = r_sub[pos], achieved_sub[pos]
    return PowerSolution(algorithm, tuple(allocation), silent, via_counterpart, trace,
                         tuple(achieved))
