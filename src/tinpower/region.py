"""Explicit polyhedral geometry of the achievable GDoF region.

The region with all users active is cut out by per-user upper bounds plus one
sum bound per cyclic sequence of users; state uncertainty collapses through
the regular counterpart. Yes/no questions (membership, Pareto optimality) are
decided on the reduced potential graph, whose circuits are exactly these
bounds; the sum and symmetric optima solve one LP over its potentials (Geng,
Naderializadeh, Avestimehr and Jafar, IEEE T-IT 2015). The enumerated list
serves only the export. Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .channel import CompoundChannel, regular_counterpart, subnetwork
from .errors import EmptyRegionError, GuardExceededError
from .potential import (
    U,
    PotentialGraph,
    ShortestPathResult,
    build_reduced,
    shortest_paths,
)
from .rationals import gdof_tuple, render_rational

# Cyclic-sequence counts grow super-exponentially; beyond this only the graph
# route (membership, Pareto, the optima) answers.
CYCLE_GUARD_K = 10

ZERO = Fraction(0)


@dataclass(frozen=True)
class Constraint:
    """One inequality: the sum of d over ``users`` is bounded by ``rhs``.

    ``cycle`` records the generating cyclic sequence (None for a per-user
    bound). Indices are 0-based.
    """

    users: tuple[int, ...]
    rhs: Fraction
    cycle: tuple[int, ...] | None = None

    def lhs(self, d) -> Fraction:
        return sum((d[i] for i in self.users), start=ZERO)

    def slack(self, d) -> Fraction:
        return self.rhs - self.lhs(d)

    def holds(self, d) -> bool:
        return self.lhs(d) <= self.rhs

    def export_line(self, K: int) -> str:
        members = set(self.users)
        terms = " + ".join(
            f"{'1' if i in members else '0'}*d{i + 1}" for i in range(K))
        return f"{terms} <= {render_rational(self.rhs)}"


@dataclass(frozen=True)
class RegionConstraints:
    """Deduplicated, deterministically ordered inequality list."""

    K: int
    constraints: tuple[Constraint, ...]

    def export(self) -> str:
        return "\n".join(c.export_line(self.K) for c in self.constraints)


def enumerate_cycles(K: int) -> list[tuple[int, ...]]:
    """All cyclic orders of every subset of >= 2 users, one canonical rotation
    each (starting at the subset's smallest member). 0-based indices."""
    if K < 1:
        raise ValueError("K must be positive")
    if K > CYCLE_GUARD_K:
        raise GuardExceededError(
            f"cycle enumeration guarded at K <= {CYCLE_GUARD_K} (got {K})")
    out: list[tuple[int, ...]] = []
    for m in range(2, K + 1):
        for subset in combinations(range(K), m):
            for perm in permutations(subset[1:]):
                out.append((subset[0],) + perm)
    return out


def cycle_bound(a, cycle) -> Constraint:
    """The region bound of one cyclic sequence on the counterpart matrix
    ``a``; a single user gives that user's per-user bound."""
    m = len(cycle)
    if m == 1:
        return Constraint(tuple(cycle), a[cycle[0]][cycle[0]])
    rhs = sum(
        (a[cycle[i]][cycle[i]] - a[cycle[i]][cycle[(i + 1) % m]] for i in range(m)),
        start=ZERO)
    return Constraint(tuple(sorted(cycle)), rhs, cycle=tuple(cycle))


def region_constraints(channel: CompoundChannel) -> RegionConstraints:
    """Inequality description of the region with every user active.

    One upper bound per user plus one bound per cyclic sequence, evaluated on
    the regular counterpart. Exactly coinciding inequalities are merged.
    """
    a = regular_counterpart(channel).matrix
    K = channel.K
    raw = [cycle_bound(a, (i,)) for i in range(K)]
    raw += [cycle_bound(a, cyc) for cyc in enumerate_cycles(K)]
    unique: dict[tuple[tuple[int, ...], Fraction], Constraint] = {}
    for c in raw:
        unique.setdefault((c.users, c.rhs), c)
    return RegionConstraints(K, tuple(sorted(
        unique.values(), key=lambda c: (len(c.users), c.users, c.rhs))))


def circuit_bound(channel, circuit) -> Constraint:
    """The region bound that a negative circuit of ``build_reduced(channel,
    d)`` shows ``d`` to violate.

    The circuit's users, in circuit order and rotated to start at the
    smallest, form that bound's cyclic sequence: a circuit over users alone
    is as long as the bound's right-hand side minus their targets. A circuit
    through ``u`` is at least as long as the cycle that closes it (cross
    strengths are >= 0), so that cycle is violated too; ``u -> k -> u``
    gives k's per-user bound.
    """
    users = [v[0] for v in circuit if v != U]
    first = users.index(min(users))
    return cycle_bound(regular_counterpart(channel).matrix,
                       users[first:] + users[:first])


def member(channel, d, constraints: RegionConstraints | None = None,
           ) -> tuple[bool, Constraint | None]:
    """Region membership; on failure also returns one violated inequality.

    Decided by Bellman-Ford on the reduced potential graph, whose negative
    circuit names the violated bound. An explicit ``constraints`` list is
    scanned instead, in order (the enumeration reference).
    """
    if constraints is None:
        sp = shortest_paths(build_reduced(channel, d))
        if sp.feasible:
            return True, None
        return False, circuit_bound(channel, sp.negative_cycle)
    target = gdof_tuple(d, constraints.K)
    for c in constraints.constraints:
        if not c.holds(target):
            return False, c
    return True, None


def member_star(channel: CompoundChannel, d) -> bool:
    """Membership in the full achievable region, where users with zero target
    may be switched off entirely (removing their interference).

    Deactivating every zero-target user is at least as permissive as any
    smaller shutdown set, so a single subnetwork test decides the whole union
    over shutdown sets.
    """
    target = gdof_tuple(d, channel.K)
    active = [i for i, x in enumerate(target) if x > 0]
    if not active:
        return True
    ok, _ = member(subnetwork(channel, active), [target[i] for i in active])
    return ok


def tight_users(graph: PotentialGraph, sp: ShortestPathResult) -> frozenset[int]:
    """Users on some tight region bound at a feasible target: exactly the
    users on a zero-length circuit of its potential graph.

    Under the shortest-path potentials (``l[u] = 0``) every reduced edge
    length ``w + l[s] - l[t]`` is >= 0 and a circuit's length is the sum of
    its reduced lengths, so the zero-length circuits are the circuits of
    zero-reduced edges. A vertex lies on one when it reaches itself in the
    transitive closure of those edges (Warshall's algorithm on bit rows).
    """
    level = {v: ZERO if v == U else sp.l_dst[v[0]] for v in graph.vertices}
    index = {v: i for i, v in enumerate(graph.vertices)}
    reach = [0] * len(graph.vertices)
    for s, t, w in graph.edges:
        if w + level[s] - level[t] == 0:
            reach[index[s]] |= 1 << index[t]
    for k in range(len(reach)):
        for i in range(len(reach)):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    return frozenset(
        v[0] for v, i in index.items() if v != U and reach[i] >> i & 1)


def pareto(channel, d, constraints: RegionConstraints | None = None) -> bool:
    """True when no single coordinate can be increased while staying in the
    region, i.e. every user participates in some tight constraint.

    Decided on the reduced potential graph (:func:`tight_users`); an
    explicit ``constraints`` list is scanned instead (the enumeration
    reference).
    """
    if constraints is None:
        graph = build_reduced(channel, d)
        sp = shortest_paths(graph)
        if sp.feasible:
            return len(tight_users(graph, sp)) == channel.K
        violated = circuit_bound(channel, sp.negative_cycle)
    else:
        target = gdof_tuple(d, constraints.K)
        ok, violated = member(channel, target, constraints)
        if ok:
            tight = {u for c in constraints.constraints if c.slack(target) == 0
                     for u in c.users}
            return len(tight) == constraints.K
    raise ValueError(
        f"pareto requires a member tuple; violated: {violated.export_line(channel.K)}")


def _potential_rows(channel) -> list[tuple[list[Fraction], Fraction]]:
    """The region as rows ``coeffs . (d, s) <= rhs`` over ``d, s >= 0``: one
    per edge ``x -> y`` out of a user of the reduced graph, the potential
    constraint ``l[y] <= l[x] + w - d_x`` with ``l = l0 - s``. Bellman-Ford
    at ``d = 0`` gives ``l0``, the greatest feasible potentials at any
    ``d >= 0``, so ``s >= 0`` loses nothing and each rhs, the edge's reduced
    length under ``l0``, is ``>= 0``."""
    K = channel.K
    graph = build_reduced(channel, (ZERO,) * K)
    sp = shortest_paths(graph)
    if not sp.feasible:  # a negative circuit at d = 0 is a negative sum bound
        raise EmptyRegionError(
            "polyhedral region is empty (a sum bound is negative)")
    level = {v: ZERO if v == U else sp.l_dst[v[0]] for v in graph.vertices}
    rows = []
    for src, dst, w in graph.edges:
        if src == U:
            continue
        coeffs = [ZERO] * (2 * K)
        coeffs[src[0]] += 1
        coeffs[K + src[0]] += 1
        if dst != U:
            coeffs[K + dst[0]] -= 1
        rows.append((coeffs, w + level[src] - level[dst]))
    return rows


def _lex_max(rows, objectives) -> tuple[Fraction, ...]:
    """The lexicographic maximum of ``objectives`` over ``x >= 0`` with
    ``coeffs . x <= rhs`` (every ``rhs >= 0``): simplex from the origin on a
    condensed tableau whose rows, objectives included, read ``basic = value
    - sum(entry * nonbasic)``. A column with lexicographically negative
    objective entries enters; Bland's rule (least entering label, ratio ties
    to the least basic label; slacks are labelled from n) terminates."""
    n, m = len(objectives[0]), len(rows)
    tab = [[Fraction(c) for c in coeffs] + [Fraction(rhs)] for coeffs, rhs in rows]
    tab += [[-Fraction(c) for c in obj] + [ZERO] for obj in objectives]
    basic, nonbasic = list(range(n, n + m)), list(range(n))
    while entering := [c for c in range(n)
                       if next((row[c] for row in tab[m:] if row[c]), 0) < 0]:
        c = min(entering, key=lambda c: nonbasic[c])
        r = min((i for i in range(m) if tab[i][c] > 0),
                key=lambda i: (tab[i][-1] / tab[i][c], basic[i]))
        p = tab[r][c]
        tab[r] = [x / p for x in tab[r]]
        tab[r][c] = 1 / p
        for i, row in enumerate(tab):
            if i != r and row[c]:
                f = row[c]
                tab[i] = [x - f * y for x, y in zip(row, tab[r])]
                tab[i][c] = -f / p
        basic[r], nonbasic[c] = nonbasic[c], basic[r]
    value = dict(zip(basic, (row[-1] for row in tab)))
    return tuple(value.get(label, ZERO) for label in range(n))


def sum_gdof(channel) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact maximum of the GDoF sum over the region, with one maximizer:
    one LP over the potential form. Among maximizers the lexicographically
    greatest is returned (objectives: the sum, then d1, ..., dK), which
    makes ties deterministic."""
    K = channel.K
    objectives = [[1] * K + [0] * K]
    objectives += [[int(i == k) for i in range(2 * K)] for k in range(K)]
    d = _lex_max(_potential_rows(channel), objectives)[:K]
    return sum(d, start=ZERO), d


def symmetric_gdof(channel) -> Fraction:
    """Largest t with (t, ..., t) in the region: the LP of :func:`sum_gdof`
    with every target replaced by t. It equals the least rhs per user over
    the region's inequalities."""
    K = channel.K
    rows = [([sum(c[:K])] + c[K:], rhs) for c, rhs in _potential_rows(channel)]
    return _lex_max(rows, [[1] + [0] * K])[0]
