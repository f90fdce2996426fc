"""Explicit polyhedral geometry of the achievable GDoF region.

The region with all users active is cut out by per-user upper bounds plus one
sum bound per cyclic sequence of users; state uncertainty collapses through
the regular counterpart. Yes/no questions (membership, Pareto optimality) are
decided on the reduced potential graph, whose circuits are exactly these
bounds; the enumerated list serves the export and the optima. Everything here
is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

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
# route (membership, Pareto) answers.
CYCLE_GUARD_K = 10

# Cap on the active-set combinations scanned by sum_gdof.
VERTEX_ENUM_LIMIT = 400_000

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
    seen: set[tuple[tuple[int, ...], Fraction]] = set()
    unique = []
    for c in raw:
        key = (c.users, c.rhs)
        if key not in seen:
            seen.add(key)
            unique.append(c)
    unique.sort(key=lambda c: (len(c.users), c.users, c.rhs))
    return RegionConstraints(K, tuple(unique))


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


def _solve_square(rows: list[tuple[tuple[Fraction, ...], Fraction]],
                  ) -> tuple[Fraction, ...] | None:
    """Solve a K x K rational linear system; None when singular."""
    n = len(rows)
    mat = [list(coeffs) + [rhs] for coeffs, rhs in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col]
        mat[col] = [x / inv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return tuple(mat[r][n] for r in range(n))


def sum_gdof(channel) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact maximum of the GDoF sum over the region, with one maximizer.

    Enumerates active sets of K constraints (region inequalities plus
    non-negativity), keeping the best vertex. Among optimal vertices the
    lexicographically greatest is returned, which makes ties deterministic.
    """
    cons = region_constraints(channel)
    K = cons.K
    if any(c.rhs < 0 for c in cons.constraints):
        raise EmptyRegionError(
            "polyhedral region is empty (a sum bound is negative)")
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for c in cons.constraints:
        members = set(c.users)
        rows.append((tuple(Fraction(int(i in members)) for i in range(K)), c.rhs))
    for i in range(K):
        rows.append((tuple(Fraction(-int(j == i)) for j in range(K)), ZERO))
    active_sets = comb(len(rows), K)
    if active_sets > VERTEX_ENUM_LIMIT:
        raise GuardExceededError(
            f"sum-GDoF active-set enumeration too large for K={K}: "
            f"C({len(rows)}, {K}) = {active_sets} active sets, "
            f"limit {VERTEX_ENUM_LIMIT}")
    best: tuple[Fraction, tuple[Fraction, ...]] | None = None
    for combo in combinations(range(len(rows)), K):
        point = _solve_square([rows[i] for i in combo])
        if point is None:
            continue
        if any(x < 0 for x in point):
            continue
        if not all(coeffs_dot(point, coeffs) <= rhs for coeffs, rhs in rows):
            continue
        key = (sum(point, start=ZERO), point)
        if best is None or key > best:
            best = key
    assert best is not None  # origin is always a vertex when all rhs >= 0
    return best


def coeffs_dot(point, coeffs) -> Fraction:
    return sum((p * c for p, c in zip(point, coeffs)), start=ZERO)


def symmetric_gdof(channel) -> Fraction:
    """Largest t with (t, ..., t) in the region: the minimum over constraints
    of rhs divided by the number of participating users."""
    cons = region_constraints(channel)
    best = min(c.rhs / len(c.users) for c in cons.constraints)
    if best < 0:
        raise EmptyRegionError(
            "polyhedral region is empty (a sum bound is negative)")
    return best
