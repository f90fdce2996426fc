"""Shared channel builders and random instance generators."""

from __future__ import annotations

import random
from fractions import Fraction

import tinpower as tp

F = Fraction


def asym3() -> tp.CompoundChannel:
    """3-user single-state channel; per receiver the stronger interfering
    link is twice the weaker one. TIN-optimal with a known region."""
    return tp.CompoundChannel.from_lists([
        [["2", "0.8", "0.4"]],
        [["1.2", "2", "0.6"]],
        [["0.4", "0.2", "1"]],
    ])


def comp2() -> tp.CompoundChannel:
    """2-user channel, receiver 1 with two states."""
    return tp.CompoundChannel.from_lists([
        [["1", "0.5"], ["0.8", "0.2"]],
        [["0.5", "1"]],
    ])


def mix3() -> tp.CompoundChannel:
    """3-user single-state channel used for the control-trace anchors."""
    return tp.CompoundChannel.from_lists([
        [["2", "0.4", "1"]],
        [["0.5", "1", "0.5"]],
        [["0.4", "0.5", "1.5"]],
    ])


def sym4() -> tp.CompoundChannel:
    """Fully symmetric 4-user channel: direct links 2, cross links 1."""
    rows = [[["2" if j == i else "1" for j in range(4)]] for i in range(4)]
    return tp.CompoundChannel.from_lists(rows)


def lopsided2() -> tp.CompoundChannel:
    """2-user channel whose single-state counterpart passes the
    weak-interference test while the multi-state original fails it: one state
    of receiver 1 carries heavy interference that collapses in the
    counterpart's minimum power-level gain."""
    return tp.CompoundChannel.from_lists([
        [["4", "2"], ["1", "0"]],
        [["0", "1"]],
    ])


def single(alpha) -> tp.CompoundChannel:
    return tp.CompoundChannel.from_lists([[[alpha]]])


def grid_value(rng: random.Random, hi: Fraction, step: Fraction = F("0.1"),
               lo: Fraction = F(0)) -> Fraction:
    n = int((hi - lo) / step)
    return lo + rng.randint(0, n) * step


def random_compound(rng: random.Random, K: int | None = None, max_states: int = 3,
                    alpha_max: Fraction = F(2), diag_min: Fraction = F(0),
                    step: Fraction = F("0.1")) -> tp.CompoundChannel:
    """Random channel on a decimal grid. Duplicate states collapse on load,
    so the realized state counts may be below max_states."""
    K = K if K is not None else rng.randint(1, 4)
    receivers = []
    for k in range(K):
        states = []
        for _ in range(rng.randint(1, max_states)):
            vec = [grid_value(rng, alpha_max, step) for _ in range(K)]
            vec[k] = grid_value(rng, alpha_max, step, lo=diag_min)
            states.append(vec)
        receivers.append(states)
    return tp.CompoundChannel.from_lists(receivers)


def primes_above(low: int, count: int) -> list[int]:
    """The first ``count`` primes greater than ``low``, by trial division."""
    out: list[int] = []
    n = low
    while len(out) < count:
        n += 1
        if all(n % p for p in range(2, int(n ** 0.5) + 1)):
            out.append(n)
    return out


def prime_denominator_channel(rng: random.Random, K: int) -> tp.CompoundChannel:
    """Single-state channel whose K*K entries have distinct prime
    denominators (the first K*K primes above 100), cross links in (0, 1/2)
    and direct links in (1, 2): the lcm of the entries' denominators is as
    large as K*K entries allow, the hardest case for lcm-scaled ints."""
    dens = iter(primes_above(100, K * K))
    rows = []
    for k in range(K):
        row = []
        for j in range(K):
            p = next(dens)
            row.append(F(rng.randint(p + 1, 2 * p - 1) if j == k
                         else rng.randint(1, p // 2), p))
        rows.append([row])
    return tp.CompoundChannel.from_lists(rows)


def random_tin_optimal(rng: random.Random, K: int | None = None,
                       max_states: int = 3) -> tp.CompoundChannel:
    """Random channel guaranteed to pass the weak-interference condition:
    cross links at most 0.5, direct links at least 1.0."""
    K = K if K is not None else rng.randint(2, 4)
    receivers = []
    for k in range(K):
        states = []
        for _ in range(rng.randint(1, max_states)):
            vec = [grid_value(rng, F("0.5")) for _ in range(K)]
            vec[k] = grid_value(rng, F(2), lo=F(1))
            states.append(vec)
        receivers.append(states)
    return tp.CompoundChannel.from_lists(receivers)


def feasible_grid_target(rng: random.Random, channel: tp.CompoundChannel,
                         step: Fraction = F("0.1")):
    """A strictly positive grid tuple inside the polyhedral region, or None.

    Starts from the largest symmetric grid point and randomly pushes single
    coordinates up while membership holds.
    """
    try:
        sym = tp.symmetric_gdof(channel)
    except tp.EmptyRegionError:
        return None
    base = (sym // step) * step
    if base <= 0:
        return None
    d = [base] * channel.K
    cons = tp.region_constraints(channel)
    for _ in range(3 * channel.K):
        k = rng.randrange(channel.K)
        d[k] += step
        if not tp.member(channel, d, cons)[0]:
            d[k] -= step
    return tuple(d)


def boundary_targets(channel: tp.CompoundChannel, v, step: Fraction = F("0.01")):
    """The targets ``t * v`` at the last multiple t of ``step`` inside the
    region and at the first one outside, found by bisection on ``decide``.
    The region must be nonempty."""
    def inside(n):
        return tp.decide(channel, [n * step * x for x in v]).sp.feasible

    lo, hi = 0, 1
    while inside(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return tuple(lo * step * x for x in v), tuple(hi * step * x for x in v)


def pareto_target(rng: random.Random, channel: tp.CompoundChannel,
                  start=None):
    """Push a member tuple to the Pareto frontier by exact greedy tightening."""
    cons = tp.region_constraints(channel)
    if any(c.rhs < 0 for c in cons.constraints):
        return None
    d = list(start) if start is not None else [F(0)] * channel.K
    order = list(range(channel.K))
    rng.shuffle(order)
    for k in order:
        gain = min(c.slack(d) for c in cons.constraints if k in c.users)
        d[k] += gain
    return tuple(d)


def in_full_region(channel, d) -> bool:
    """Membership in the full achievable region, where zero-target users may
    be switched off: ``solve_power`` switches them all off, which is at least
    as permissive as any smaller shutdown set, and raises on a target outside."""
    try:
        tp.solve_power(channel, d, "sp")
    except tp.InfeasibleTargetError:
        return False
    return True
