"""Explicit polyhedral geometry of the achievable GDoF region.

The region with all users active is cut out by per-user upper bounds plus one
sum bound per cyclic sequence of users; state uncertainty collapses through
the regular counterpart. Every yes/no question is decided by :func:`decide`
on its potential graph, whose circuits are exactly these bounds (Geng,
Naderializadeh, Avestimehr and Jafar, IEEE T-IT 2015). The symmetric
optimum is a short sequence of these decisions; the sum optimum is one
min-cost circulation on the d = 0 graph, the dual of the LP over its
potentials. The enumerated list serves only the export, which takes it one
user set at a time: one depth-first search per user set carries each
sequence's bound as an int prefix sum on the lattice of the counterpart's
ints (:func:`counterpart_lattice`, which every decision reads too), and only
the bounds kept after merging coinciding ones become rationals. Every result
is an exact rational.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .channel import CompoundChannel, counterpart_lattice
from .errors import CertificateError, EmptyRegionError, GuardExceededError
from .potential import U, PotentialGraph, ShortestPathResult, lattice_graph, shortest_paths
from .rationals import gdof_tuple, render_rational

# Cyclic-sequence counts grow super-exponentially; beyond this only the graph
# route (membership, Pareto, the optima) answers.
CYCLE_GUARD_K = 10

ZERO = Fraction(0)

EMPTY_REGION = "polyhedral region is empty (a sum bound is negative)"


class Constraint(NamedTuple):
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

    def relabel(self, users) -> "Constraint":
        return Constraint(tuple(users[i] for i in self.users), self.rhs,
                          self.cycle and tuple(users[i] for i in self.cycle))

    def export_line(self, K: int, terms: str | None = None) -> str:
        """``1*d1 + 0*d2 + ... <= rhs``; ``terms``, when given, is the
        left-hand side already rendered."""
        return f"{terms or _terms(self.users, K)} <= {render_rational(self.rhs)}"


def _terms(users, K: int) -> str:
    """The left-hand side ``1*d1 + 0*d2 + ...`` of a bound on ``users``."""
    members = set(users)
    return " + ".join(f"{'1' if i in members else '0'}*d{i + 1}" for i in range(K))


def bound_lines(K: int, constraints: Iterable[Constraint],
                ) -> Iterator[tuple[Constraint, str]]:
    """Each of ``constraints`` with its :meth:`Constraint.export_line`, one at a
    time; the terms of a user set are rendered once for a run of bounds on
    it, as the bounds of :class:`RegionConstraints` come."""
    users = terms = None
    for c in constraints:
        if c.users != users:
            users, terms = c.users, _terms(c.users, K)
        yield c, c.export_line(K, terms)


class RegionConstraints(NamedTuple):
    """Deduplicated, deterministically ordered inequality list."""

    K: int
    constraints: tuple[Constraint, ...]

    def export_lines(self) -> Iterator[str]:
        """Each constraint's :meth:`Constraint.export_line`, one at a time
        (:func:`bound_lines`), so a caller can write the list without
        holding it."""
        return (line for _, line in bound_lines(self.K, self.constraints))

    def export(self) -> str:
        return "\n".join(self.export_lines())


def cycle_bound(cp, cycle) -> Constraint:
    """The region bound of one cyclic sequence on the counterpart ``cp``
    (:func:`counterpart_lattice`), its rhs summed as ints; a single user
    gives that user's per-user bound."""
    scale, a = cp
    m = len(cycle)
    if m == 1:
        return Constraint(tuple(cycle), Fraction(a[cycle[0]][cycle[0]], scale))
    rhs = sum(a[cycle[i]][cycle[i]] - a[cycle[i]][cycle[(i + 1) % m]] for i in range(m))
    return Constraint(tuple(sorted(cycle)), Fraction(rhs, scale), cycle=tuple(cycle))


def _cycle_bounds(cp) -> Iterator[Constraint]:
    """Every per-user and cyclic-sequence bound of the counterpart ``cp``
    (:func:`counterpart_lattice`), exactly coinciding ones merged, in the
    order of :class:`RegionConstraints`, one user set at a time.

    The per-user bounds come first; then, by length and in
    :func:`itertools.combinations` order, each user set's sequences, found
    by :func:`_set_cycles` and sorted by rhs. Only the gains ``a_ii - a_ij``
    on the counterpart's lattice and one set's sequences are held at a time.
    """
    scale, rows = cp
    K = len(rows)
    gain = [[row[i] - x for x in row] for i, row in enumerate(rows)]
    for i in range(K):
        yield Constraint((i,), Fraction(rows[i][i], scale))
    for m in range(2, K + 1):
        for users in combinations(range(K), m):
            first = _set_cycles(gain, users)
            for rhs in sorted(first):
                yield Constraint(users, Fraction(rhs, scale), first[rhs])


def _set_cycles(gain, users) -> dict[int, tuple[int, ...]]:
    """The cyclic sequences through exactly ``users`` (increasing), by the
    int rhs of their bound on the lattice of ``gain``: the first met of each.

    Sequences are canonical rotations, starting at the smallest user. A
    depth-first search extends each by a user not yet on it, in increasing
    order, carrying the gains along it as an int prefix sum; the gain back to
    the start closes it. It thus meets the sequences in lexicographic order.
    The last two users are placed inline, in both orders.
    """
    s, rest = users[0], users[1:]
    back = [g[s] for g in gain]
    if len(rest) == 1:
        return {gain[s][rest[0]] + back[rest[0]]: users}
    first: dict[int, tuple[int, ...]] = {}
    path = [s]

    def extend(left, prefix):
        row = gain[path[-1]]
        if len(left) == 2:
            for j, k in (left, left[::-1]):
                rhs = prefix + row[j] + gain[j][k] + back[k]
                if rhs not in first:
                    first[rhs] = (*path, j, k)
            return
        for n, j in enumerate(left):
            path.append(j)
            extend(left[:n] + left[n + 1:], prefix + row[j])
            path.pop()

    extend(rest, 0)
    # the closure holds itself and `first`: free both on return, not at a gc pass
    del extend
    return first


def bounds(channel: CompoundChannel) -> Iterator[Constraint]:
    """The bounds of :func:`region_constraints`, in its order, one user set
    at a time. The K guard is checked here, before the first bound is
    asked for."""
    if channel.K > CYCLE_GUARD_K:
        raise GuardExceededError(
            f"cycle enumeration guarded at K <= {CYCLE_GUARD_K} (got {channel.K})")
    return _cycle_bounds(counterpart_lattice(channel))


def region_constraints(channel: CompoundChannel) -> RegionConstraints:
    """Inequality description of the region with every user active.

    One upper bound per user plus one bound per cyclic sequence, evaluated on
    the regular counterpart. Exactly coinciding inequalities are merged.
    """
    return RegionConstraints(channel.K, tuple(bounds(channel)))


def circuit_bound(cp, circuit) -> Constraint:
    """The region bound that a negative circuit of the potential graph of
    the counterpart ``cp`` shows its target to violate.

    The circuit's users, in circuit order and rotated to start at the
    smallest, form that bound's cyclic sequence: a circuit over users alone
    is as long as the bound's right-hand side minus their targets. A circuit
    through ``u`` is at least as long as the cycle that closes it (cross
    strengths are >= 0), so that cycle is violated too; ``u -> k -> u``
    gives k's per-user bound.
    """
    users = [v[0] for v in circuit if v != U]
    first = users.index(min(users))
    return cycle_bound(cp, users[first:] + users[:first])


class Verdict(NamedTuple):
    """Bellman-Ford's answer on the regular counterpart's potential graph,
    whose lengths are ints on its ``scale``; ``sp`` reports rationals. A
    "yes" carries ``potentials``, its shortest-path lengths as ints on that
    lattice with ``u``'s 0 last (``u`` being vertex K), under which no edge's
    reduced length ``w + p[s] - p[t]`` is negative; a "no" carries ``bound``,
    the bound its circuit names (:func:`circuit_bound`). :func:`_decide`
    checks both where it builds them."""

    graph: PotentialGraph
    sp: ShortestPathResult
    bound: Constraint | None
    potentials: tuple[int, ...] | None


def decide(channel, d) -> Verdict:
    """Is ``d`` in the region with every user active? The one decision route:
    the counterpart is computed once (:func:`counterpart_lattice`) and serves
    the graph and the bound, which ``d`` must strictly violate. Either answer
    is certified here (else :class:`CertificateError`)."""
    return _decide(counterpart_lattice(channel), gdof_tuple(d, channel.K))


def _decide(cp, d) -> Verdict:
    """:func:`decide` on the counterpart ``cp`` at the GDoF tuple ``d``. As a
    circuit is as long as the sum of its reduced lengths, a "yes" is
    certified by one pass over the edges under its potentials (a negative
    reduced length, or potentials off the graph's lattice, raise)."""
    scale, rows = cp
    graph = lattice_graph(scale, rows, (1,) * len(rows), d)
    sp = shortest_paths(graph)
    if sp.feasible:
        p = (*graph.on_lattice(sp.l_dst), 0)
        for s, t, w in graph.edges:
            if w + p[s] < p[t]:
                raise CertificateError("the shortest-path potentials leave a negative edge")
        return Verdict(graph, sp, None, p)
    bound = circuit_bound(cp, sp.negative_cycle)
    if bound.holds(d):
        raise CertificateError(
            f"the target satisfies the circuit's bound {bound.export_line(len(rows))}")
    return Verdict(graph, sp, bound, None)


def member(channel, d, constraints: RegionConstraints | None = None,
           ) -> tuple[bool, Constraint | None]:
    """Region membership; on failure also returns one violated inequality.

    Decided by :func:`decide`, which certifies either answer; a "no" names
    the bound its negative circuit violates. An explicit ``constraints``
    list is scanned instead, in order (the enumeration reference).
    """
    if constraints is None:
        verdict = decide(channel, d)
        return verdict.sp.feasible, verdict.bound
    target = gdof_tuple(d, constraints.K)
    for c in constraints.constraints:
        if not c.holds(target):
            return False, c
    return True, None


def improvable_users(verdict: Verdict) -> tuple[int, ...]:
    """The users a member target can still raise alone: those on no tight
    region bound, i.e. on no zero-length circuit of its potential graph.

    Every reduced edge length under the verdict's potentials is >= 0
    (:func:`decide` checks it), so the zero-length circuits are the circuits
    of zero-reduced edges. A vertex lies on one when it reaches itself in
    the transitive closure of those edges (Warshall's algorithm on bit rows).
    """
    K, p = verdict.graph.K, verdict.potentials
    reach = [0] * (K + 1)  # u is vertex K
    for s, t, w in verdict.graph.edges:
        if w + p[s] == p[t]:
            reach[s] |= 1 << t
    for k in range(len(reach)):
        for i in range(len(reach)):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    return tuple(k for k in range(K) if not reach[k] >> k & 1)


def pareto(channel, d, constraints: RegionConstraints | None = None) -> bool:
    """True when no single coordinate can be increased while staying in the
    region, i.e. every user participates in some tight constraint.

    Decided by :func:`decide`, which certifies its answer, and on a "yes"
    by :func:`improvable_users`; an explicit ``constraints`` list is scanned
    instead (the enumeration reference).
    """
    if constraints is None:
        verdict = decide(channel, d)
        if verdict.sp.feasible:
            return not improvable_users(verdict)
        violated = verdict.bound
    else:
        target = gdof_tuple(d, constraints.K)
        ok, violated = member(channel, target, constraints)
        if ok:
            tight = {u for c in constraints.constraints if c.slack(target) == 0
                     for u in c.users}
            return len(tight) == constraints.K
    raise ValueError(
        f"pareto requires a member tuple; violated: {violated.export_line(channel.K)}")


def sum_gdof(channel) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact maximum of the GDoF sum over the region, with one maximizer.
    Among maximizers the lexicographically greatest is returned (objectives:
    the sum, then d1, ..., dK), which makes ties deterministic.

    By LP duality the largest ``sum(w_k * d_k)`` over the potential form is
    the least cost of a circulation on the d = 0 graph with each user split
    into ``k_in -> k_out`` (cost 0, flow at least ``w_k``). The other arcs,
    ``k_out -> j_in``, ``k_out -> u`` and ``u -> k_in``, cost their reduced
    lengths under the d = 0 verdict's potentials, which :func:`decide` has
    checked to be >= 0, so the potentials ``p`` start at 0. Successive
    shortest paths send each ``w_k`` from ``k_out`` back to a ``k_in`` by
    Dijkstra on the reduced costs (Ahuja, Magnanti and Orlin, *Network
    Flows*, 1993); the final potentials are optimal, and ``d_k = p(k_in) -
    p(k_out)`` on the graph's lattice."""
    K = channel.K
    verdict = decide(channel, (ZERO,) * K)
    if not verdict.sp.feasible:  # a negative circuit at d = 0 is a negative sum bound
        raise EmptyRegionError(EMPTY_REGION)
    # The potential form is a system of difference constraints (totally
    # unimodular), so every vertex of the region lies on the graph's lattice,
    # with coordinates in [0, A] for A the largest scaled direct strength.
    # Two vertices then differ by one of 2A + 1 values per coordinate, and
    # base B = 2A + 1 digits rank them by (sum, d1, ..., dK): one solve with
    # w_k = B^K + B^(K-1-k) finds the lexicographically greatest maximizer.
    base = 2 * max(w for _, t, w in verdict.graph.edges if t == K) + 1
    n = 2 * K + 1  # k_in is k, k_out is K + k, u (graph vertex K) is 2K
    arcs = [(k, K + k, 0) for k in range(K)]
    level = verdict.potentials
    arcs += [(K + s, t if t < K else n - 1, w + level[s] - level[t])
             for s, t, w in verdict.graph.edges]
    out, into = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, (s, t, x) in enumerate(arcs):
        out[s].append((i, t, x, 1))
        into[t].append((i, s, -x, -1))
    weight = [base ** K + base ** (K - 1 - k) for k in range(K)]
    excess, flow, p = [-w for w in weight] + weight + [0], [0] * len(arcs), [0] * n
    for s in range(K, 2 * K):
        while excess[s]:
            dist, pred, todo = {s: 0}, {}, {s}
            while excess[v := min(todo, key=dist.__getitem__)] >= 0:
                todo.remove(v)
                for i, t, x, sign in out[v] + [arc for arc in into[v] if flow[arc[0]]]:
                    reach = dist[v] + x + p[v] - p[t]
                    if t not in dist or reach < dist[t]:
                        dist[t], pred[t] = reach, (v, i, sign)
                        todo.add(t)
            # v is the nearest deficit; nodes not settled by then move as far
            # as v, which keeps every reduced cost >= 0
            p = [x + min(dist.get(w, dist[v]), dist[v]) for w, x in enumerate(p)]
            path, t = [], v
            while t != s:
                t, i, sign = pred[t]
                path.append((i, sign))
            push = min([excess[s], -excess[v]] + [flow[i] for i, sign in path if sign < 0])
            for i, sign in path:
                flow[i] += sign * push
            excess[s] -= push
            excess[v] += push
    d = tuple(Fraction(p[k] - p[K + k], verdict.graph.scale) for k in range(K))
    return sum(d, start=ZERO), d


def symmetric_gdof(channel) -> Fraction:
    """Largest t with (t, ..., t) in the region: Dinkelbach's iteration on
    :func:`decide`, every decision on the one counterpart computed here. From
    its least direct strength, each "no" names a bound that (t, ..., t)
    violates, and t drops to that bound's rhs per user, strictly below the
    last t. The first "yes", certified by :func:`decide`, ends it: the bound
    that set t must be tight there, so no larger t is in the region (else
    :class:`CertificateError`). A t below 0 means the region is empty."""
    cp = counterpart_lattice(channel)
    (scale, a), K = cp, channel.K
    k = min(range(K), key=lambda i: a[i][i])
    t, bound = Fraction(a[k][k], scale), cycle_bound(cp, (k,))
    while t >= 0:
        verdict = _decide(cp, (t,) * K)
        if verdict.sp.feasible:
            if bound.slack((t,) * K) != 0:
                raise CertificateError(f"the bound {bound.export_line(K)} "
                                       f"is not tight at {render_rational(t)}")
            return t
        bound = verdict.bound
        t = bound.rhs / len(bound.users)
    raise EmptyRegionError(EMPTY_REGION)
