"""Independent brute-force oracles and per-state references.

The oracles deliberately avoid the package's analytic routes (inequality
lists, Bellman-Ford): membership is decided by scanning a power grid against
the rate expressions, and shortest paths by enumerating simple paths. The
grid scans run on exactly scaled integers, so comparisons are exact.

The inequality list itself has a reference: every cyclic sequence of every
user subset, enumerated by ``itertools`` and summed on ``Fraction``s, where
the package runs one depth-first search on ints.

The ``region`` command's report has a reference that builds it whole: the
document as one dict printed by ``json.dumps(indent=2)``, or its lines
joined, where the command streams each bound as it renders it.

The optimum references scan the enumerated inequality list instead of the
potential graph: the sum optimum over every vertex (active sets of K
inequalities), the symmetric optimum as the least rhs per user, and a KKT
certificate for a claimed sum maximizer. The sum optimum has a second
reference that reaches past K = 4: the potential form as one LP, solved by a
simplex on ``Fraction`` tableaus, where the package solves its dual, a
min-cost circulation on the graph's ints.

The channel-layer references compute the regular counterpart, the full
graph's edge lengths and the per-state achieved GDoF on ``Fraction``s
themselves, where the package computes ints on an lcm lattice: each
receiver's own for the counterpart and the achieved GDoF, one for the whole
graph. The local-optimality test reads the same per-state rate expressions.

A graph's int lengths are compared as the rationals they stand for
(:func:`fraction_edges`), so a reference need not share the package's
lattice.

The control references run the power-control updates over every receiver
state instead of the regular counterpart's rows, starting from the full
per-state graph's shortest paths as found by :func:`bellman_ford_fractions`,
the package's Bellman-Ford loop kept on ``Fraction`` lengths. The global
optimum has a reference with no updates at all: minus each user's distance
to ``u`` on that graph.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import numpy as np

import tinpower as tp
from tinpower.cli import EXIT_OK, _constraint_data, _render_vec
from tinpower.region import EMPTY_REGION, Constraint, RegionConstraints

F = Fraction

# Chunk bound for the power-grid sweep (elements per block).
_BLOCK_ELEMENTS = 4_000_000


def _scaled(value: Fraction, scale: int) -> int:
    out = value * scale
    assert out.denominator == 1
    return int(out)


def grid_member_polyhedral(channel, d, step: Fraction = F("0.05"),
                           floor: Fraction = F(-5)) -> bool:
    """Exhaustive search for a grid power allocation whose unclamped rate
    expression meets d for every user in every state.

    Complete only when some achieving allocation lies on the grid above
    ``floor``; callers pick generator ranges that guarantee this.
    """
    K = channel.K
    levels = []
    i = 0
    while -i * step >= floor:
        levels.append(-i * step)
        i += 1
    denoms = [step.denominator] + [x.denominator for x in d]
    for states in channel.receivers:
        for vec in states:
            denoms += [x.denominator for x in vec]
    scale = lcm(*denoms)
    grid = np.array([_scaled(v, scale) for v in levels], dtype=np.int32)
    alpha = [[[_scaled(x, scale) for x in vec] for vec in states]
             for states in channel.receivers]
    need = [_scaled(x, scale) for x in d]
    G = len(grid)

    if K == 1:
        worst = None
        for vec in alpha[0]:
            v = vec[0] + grid
            worst = v if worst is None else np.minimum(worst, v)
        return bool(np.any(worst >= need[0]))

    axes = [grid.reshape(tuple(G if j == k else 1 for j in range(1, K)))
            for k in range(1, K)]

    def term(j, r0):
        return r0 if j == 0 else axes[j - 1]

    block = max(1, _BLOCK_ELEMENTS // (G ** (K - 1)))
    for lo in range(0, G, block):
        r0 = grid[lo:lo + block].reshape((-1,) + (1,) * (K - 1))
        feasible = None
        for k in range(K):
            for vec in alpha[k]:
                interference = None
                for j in range(K):
                    if j == k:
                        continue
                    t = vec[j] + term(j, r0)
                    interference = t if interference is None else np.maximum(
                        interference, t)
                interference = np.maximum(interference, 0)
                ok = vec[k] + term(k, r0) - interference >= need[k]
                feasible = ok if feasible is None else feasible & ok
        if np.any(feasible):
            return True
    return False


def fraction_edges(graph) -> tuple:
    """The edges of a ``tp.PotentialGraph`` with each int length ``w`` read
    as the rational ``w / graph.scale`` it stands for."""
    return tuple((s, t, F(w, graph.scale)) for s, t, w in graph.edges)


def _edge_weights(graph) -> dict:
    return {(s, t): w for s, t, w in fraction_edges(graph)}


def min_path_by_enumeration(graph, src, dst) -> Fraction | None:
    """Minimum length over all simple paths src -> dst (DFS). Meaningful only
    when the graph has no negative circuit."""
    weight = _edge_weights(graph)
    best: list[Fraction | None] = [None]

    def walk(node, seen, length):
        if node == dst:
            if best[0] is None or length < best[0]:
                best[0] = length
            return
        for nxt in graph.vertices:
            if nxt in seen or (node, nxt) not in weight:
                continue
            walk(nxt, seen | {nxt}, length + weight[(node, nxt)])

    walk(src, {src}, F(0))
    return best[0]


def all_circuits_nonnegative(graph) -> bool:
    """Enumerate every simple directed circuit (one canonical rotation each)
    and test its length. Exponential; for small graphs only."""
    weight = _edge_weights(graph)
    verts = list(graph.vertices)
    n = len(verts)
    for size in range(2, n + 1):
        for subset in combinations(range(n), size):
            for perm in permutations(subset[1:]):
                nodes = [verts[subset[0]]] + [verts[i] for i in perm]
                total = F(0)
                ok = True
                for i, node in enumerate(nodes):
                    edge = (node, nodes[(i + 1) % size])
                    if edge not in weight:
                        ok = False
                        break
                    total += weight[edge]
                if ok and total < 0:
                    return False
    return True


def bellman_ford_fractions(graph) -> tp.ShortestPathResult:
    """``tp.shortest_paths`` on the ``Fraction`` lengths themselves
    (:func:`fraction_edges`) rather than the graph's ints: the same
    relaxation order, detection round, predecessor walk and consistency
    checks, so the same result."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    edges = [(index[s], index[t], w) for s, t, w in fraction_edges(graph)]
    weight = {(s, t): w for s, t, w in edges}

    dist: list[Fraction | None] = [None] * n
    pred: list[int | None] = [None] * n
    dist[index[tp.U]] = F(0)
    for _ in range(n - 1):
        changed = False
        for s, t, w in edges:
            if dist[s] is not None and (dist[t] is None or dist[s] + w < dist[t]):
                dist[t] = dist[s] + w
                pred[t] = s
                changed = True
        if not changed:
            break

    start = None
    for s, t, w in edges:
        if dist[s] is not None and dist[s] + w < dist[t]:
            dist[t] = dist[s] + w
            pred[t] = s
            start = t
            break

    if start is not None:
        node = start
        for _ in range(n):
            node = pred[node]
        cycle = [node]
        walk = pred[node]
        while walk != node:
            cycle.append(walk)
            walk = pred[walk]
        cycle.reverse()  # predecessor walk runs against edge direction
        length = sum(
            weight[(cycle[i], cycle[(i + 1) % len(cycle)])]
            for i in range(len(cycle)))
        if length >= 0:
            raise tp.CertificateError("extracted circuit is not negative")
        return tp.ShortestPathResult(
            False, None, tuple(graph.vertices[i] for i in cycle), length)

    l_dst = []
    for k in range(graph.K):
        values = {dist[index[v]] for v in graph.vertices if v != tp.U and v[0] == k}
        if len(values) != 1:
            raise tp.CertificateError(f"states of user {k + 1} disagree on distance")
        l_dst.append(values.pop())
    return tp.ShortestPathResult(True, tuple(l_dst), None, None)


def enumerate_cycles(K: int) -> list[tuple[int, ...]]:
    """All cyclic orders of every subset of >= 2 users, one canonical rotation
    each (starting at the subset's smallest member). 0-based indices."""
    out: list[tuple[int, ...]] = []
    for m in range(2, K + 1):
        for subset in combinations(range(K), m):
            for perm in permutations(subset[1:]):
                out.append((subset[0],) + perm)
    return out


def cycle_bound_fractions(a, cycle) -> Constraint:
    """``tinpower.region.cycle_bound`` on the counterpart matrix ``a`` of
    ``Fraction``s: the region bound of one cyclic sequence, its rhs summed
    as rationals; a single user gives that user's per-user bound."""
    m = len(cycle)
    if m == 1:
        return Constraint(tuple(cycle), a[cycle[0]][cycle[0]])
    rhs = sum(
        (a[cycle[i]][cycle[i]] - a[cycle[i]][cycle[(i + 1) % m]] for i in range(m)),
        start=F(0))
    return Constraint(tuple(sorted(cycle)), rhs, cycle=tuple(cycle))


def region_constraints_fractions(channel) -> RegionConstraints:
    """:func:`tinpower.region_constraints` with each bound summed on its own:
    the per-user bounds, then one :func:`cycle_bound_fractions` per
    enumerated cycle, merged on (users, rhs) with the first bound of each
    kept."""
    a = tp.regular_counterpart(channel).matrix
    K = channel.K
    raw = [cycle_bound_fractions(a, (i,)) for i in range(K)]
    raw += [cycle_bound_fractions(a, cyc) for cyc in enumerate_cycles(K)]
    unique: dict[tuple[tuple[int, ...], Fraction], Constraint] = {}
    for c in raw:
        unique.setdefault((c.users, c.rhs), c)
    return RegionConstraints(K, tuple(sorted(
        unique.values(), key=lambda c: (len(c.users), c.users, c.rhs))))


def cmd_region_whole(args, cf) -> int:
    """``tinpower.cli.cmd_region`` with the report built whole before it is
    printed: one dict per bound, each line from :meth:`Constraint.export_line`,
    the head and the print written here rather than taken from ``cli``."""
    cons = tp.region_constraints(cf.channel)
    lines = [c.export_line(cons.K) for c in cons.constraints]
    data = {
        "command": "region",
        "channel": cf.name,
        "constraints": [
            _constraint_data(c, line) for c, line in zip(cons.constraints, lines)],
    }
    try:
        total, maximizer = tp.sum_gdof(cf.channel)
        symmetric = tp.symmetric_gdof(cf.channel)
        data["sum_gdof"] = tp.render_rational(total)
        data["sum_gdof_maximizer"] = _render_vec(maximizer)
        data["symmetric_gdof"] = tp.render_rational(symmetric)
        lines.append(f"# sum GDoF {tp.render_rational(total)} at "
                     f"({', '.join(_render_vec(maximizer))})")
        lines.append(f"# symmetric GDoF {tp.render_rational(symmetric)}")
    except tp.EmptyRegionError:
        data["empty"] = True
        lines.append("# region is empty")
    print(json.dumps(data, indent=2) if args.json else "\n".join(lines))
    return EXIT_OK


def state_rate(vec, r, k) -> Fraction:
    """User k's TIN rate expression at the receiver state ``vec``: signal
    level minus the strongest of the interference levels and the noise
    level 0."""
    others = [j for j in range(len(r)) if j != k]
    return vec[k] + r[k] - max([F(0)] + [vec[j] + r[j] for j in others])


def worst_state_rate(channel, r, k) -> Fraction:
    """User k's TIN rate expression minimised over its receiver states."""
    return min(state_rate(vec, r, k) for vec in channel.receivers[k])


def locally_optimal(channel, r, d) -> bool:
    """True iff ``r`` achieves ``d`` and no user can lower its exponent alone
    and keep its target: each worst-state rate expression equals its target."""
    r, d = tp.power_exponents(r, channel.K), tp.gdof_tuple(d, channel.K)
    rates = tuple(worst_state_rate(channel, r, k) for k in range(channel.K))
    if any(max(x, F(0)) < t for x, t in zip(rates, d)):
        raise ValueError("allocation does not achieve the target tuple")
    return rates == d


def achieved_gdof_fractions(channel, r) -> tuple[Fraction, ...]:
    """``tp.achieved_gdof``: each user's worst-state rate, clamped at 0."""
    return tuple(max(worst_state_rate(channel, r, k), F(0)) for k in range(channel.K))


def regular_counterpart_fractions(channel) -> tuple[tuple[Fraction, ...], ...]:
    """``tp.regular_counterpart(channel).matrix``: per receiver the weakest
    direct strength, and per cross link that minus the least gain (direct
    minus cross) over the receiver's states."""
    rows = []
    for k, states in enumerate(channel.receivers):
        direct = min(vec[k] for vec in states)
        rows.append(tuple(
            direct if j == k else direct - min(vec[k] - vec[j] for vec in states)
            for j in range(channel.K)))
    return tuple(rows)


def full_graph_fractions(channel, d) -> tp.PotentialGraph:
    """``tp.build_full`` with every edge length computed on ``Fraction``s,
    edges in the same order, and held as ints on the lcm of the lengths'
    own denominators."""
    d = tp.gdof_tuple(d, channel.K)
    K, receivers = channel.K, channel.receivers
    vertices = [(k, l) for k in range(K) for l in range(len(receivers[k]))]
    vertices.append(tp.U)
    edges = []
    for k in range(K):
        for l in range(len(receivers[k])):
            for l2 in range(len(receivers[k])):
                if l2 != l:
                    edges.append(((k, l), (k, l2), F(0)))
    for k in range(K):
        for l, vec in enumerate(receivers[k]):
            for j in range(K):
                if j == k:
                    continue
                for lj in range(len(receivers[j])):
                    edges.append(((k, l), (j, lj), vec[k] - vec[j] - d[k]))
    for k in range(K):
        for l, vec in enumerate(receivers[k]):
            edges.append(((k, l), tp.U, vec[k] - d[k]))
    for k in range(K):
        for l in range(len(receivers[k])):
            edges.append((tp.U, (k, l), F(0)))
    scale = lcm(*(w.denominator for _, _, w in edges))
    return tp.PotentialGraph(K, tuple(vertices),
                             tuple((s, t, _scaled(w, scale)) for s, t, w in edges), scale)


def gsfpc_step_per_state(channel, r, d) -> tuple[Fraction, ...]:
    """One synchronous fixed-point round: every exponent moves by its user's
    worst-state surplus over the target."""
    return tuple(
        r[k] + d[k] - worst_state_rate(channel, r, k) for k in range(channel.K))


def ggpc_per_state(channel, d):
    """The K-update control with each margin taken over every receiver state
    (the worst state counts), started from the Fraction full graph and
    with each trace row's achieved GDoF from :func:`achieved_gdof_fractions`,
    so no step runs the package's int code. Returns ``(r, GgpcTrace)``."""
    d = tp.gdof_tuple(d, channel.K)
    r0 = bellman_ford_fractions(full_graph_fractions(channel, d)).l_dst
    r = list(r0)
    active = set(range(channel.K))
    fixed: list[int] = []
    updates = []
    while active:
        margins = {}
        for i in sorted(active):
            per_state = []
            for vec in channel.receivers[i]:
                noise = max([F(0)] + [vec[m] + r[m] for m in fixed])
                per_state.append(r[i] + vec[i] - d[i] - noise)
            margins[i] = min(per_state)
        delta = min(margins.values())
        newly = tuple(sorted(i for i in active if margins[i] == delta))
        for i in active:
            r[i] -= delta
        active -= set(newly)
        fixed.extend(newly)
        updates.append(tp.GgpcUpdate(
            delta, newly, tuple(r), achieved_gdof_fractions(channel, r)))
    return tuple(r), tp.GgpcTrace(r0, tuple(updates))


def least_allocation_by_distances(channel, d) -> tuple[Fraction, ...]:
    """The componentwise-minimal allocation achieving ``d``, by shortest
    paths alone: every allocation meeting every state's rate expression
    satisfies ``r_k >= r_t - w_kt`` over the full graph's edges ``k -> t``
    (``r_u = 0``), so ``r_k >= -(k's distance to u)``, and that bound is
    met. The distances to ``u`` are :func:`bellman_ford_fractions` from
    ``u`` on the :func:`full_graph_fractions` graph with every edge
    reversed."""
    graph = full_graph_fractions(channel, d)
    reversed_graph = tp.PotentialGraph(
        graph.K, graph.vertices, tuple((t, s, w) for s, t, w in graph.edges), graph.scale)
    return tuple(-x for x in bellman_ford_fractions(reversed_graph).l_dst)


def _solve_square(rows) -> tuple[Fraction, ...] | None:
    """Solve a K x K rational linear system ``(coeffs, rhs)``; None when
    singular."""
    n = len(rows)
    mat = [[F(x) for x in coeffs] + [F(rhs)] for coeffs, rhs in rows]
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


def _bound_rows(cons) -> list:
    """The region inequalities and d >= 0 as ``(coeffs, rhs)`` rows. Of the
    bounds on one user set only the least rhs is kept: a larger one is never
    active inside the region, so the vertices stay the same."""
    K = cons.K
    least: dict[tuple[int, ...], Fraction] = {}
    for c in cons.constraints:
        coeffs = tuple(int(i in c.users) for i in range(K))
        least[coeffs] = min(least.get(coeffs, c.rhs), c.rhs)
    rows = list(least.items())
    rows += [(tuple(-int(j == i) for j in range(K)), F(0)) for i in range(K)]
    return rows


def _require_nonempty(cons) -> None:
    if any(c.rhs < 0 for c in cons.constraints):
        raise tp.EmptyRegionError(
            "polyhedral region is empty (a sum bound is negative)")


def sum_gdof_by_vertices(channel) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The sum optimum over every vertex of the enumerated inequality list:
    each active set of K rows (bounds and d >= 0) with a unique solution
    inside the region is a vertex, and the best vertex by (sum, point) wins.
    Cost is C(rows, K) linear solves; for K <= 4."""
    cons = tp.region_constraints(channel)
    _require_nonempty(cons)
    rows = _bound_rows(cons)
    best = None
    for combo in combinations(rows, cons.K):
        point = _solve_square(combo)
        if point is None or any(x < 0 for x in point):
            continue
        if not all(sum(p * c for p, c in zip(point, coeffs)) <= rhs
                   for coeffs, rhs in rows):
            continue
        key = (sum(point, start=F(0)), point)
        if best is None or key > best:
            best = key
    return best


def _potential_rows(channel) -> list[tuple[list[Fraction], Fraction]]:
    """The region as rows ``coeffs . (d, s) <= rhs`` over ``d, s >= 0``: one
    per edge ``x -> y`` out of a user of the reduced graph, the potential
    constraint ``l[y] <= l[x] + w - d_x`` with ``l = l0 - s``. Bellman-Ford
    at ``d = 0`` gives ``l0``, the greatest feasible potentials at any
    ``d >= 0``, so ``s >= 0`` loses nothing and each rhs, the edge's reduced
    length under ``l0``, is ``>= 0``."""
    K = channel.K
    verdict = tp.decide(channel, (F(0),) * K)
    if not verdict.sp.feasible:  # a negative circuit at d = 0 is a negative sum bound
        raise tp.EmptyRegionError(EMPTY_REGION)
    rows = []
    for src, dst, x in verdict.reduced_edges():
        if src == tp.U:
            continue
        coeffs = [F(0)] * (2 * K)
        coeffs[src[0]] += 1
        coeffs[K + src[0]] += 1
        if dst != tp.U:
            coeffs[K + dst[0]] -= 1
        rows.append((coeffs, F(x, verdict.graph.scale)))
    return rows


def _lex_max(rows, objectives) -> tuple[Fraction, ...]:
    """The lexicographic maximum of ``objectives`` over ``x >= 0`` with
    ``coeffs . x <= rhs`` (every ``rhs >= 0``): simplex from the origin on a
    condensed tableau whose rows, objectives included, read ``basic = value
    - sum(entry * nonbasic)``. A column with lexicographically negative
    objective entries enters; Bland's rule (least entering label, ratio ties
    to the least basic label; slacks are labelled from n) terminates. Zero
    entries are kept as they are at each pivot, not rebuilt."""
    n, m = len(objectives[0]), len(rows)
    tab = [[F(c) for c in coeffs] + [F(rhs)] for coeffs, rhs in rows]
    tab += [[-F(c) for c in obj] + [F(0)] for obj in objectives]
    basic, nonbasic = list(range(n, n + m)), list(range(n))
    while entering := [c for c in range(n)
                       if next((row[c] for row in tab[m:] if row[c]), 0) < 0]:
        c = min(entering, key=lambda c: nonbasic[c])
        r = min((i for i in range(m) if tab[i][c] > 0),
                key=lambda i: (tab[i][-1] / tab[i][c], basic[i]))
        p = tab[r][c]
        tab[r] = [x / p if x else x for x in tab[r]]
        tab[r][c] = 1 / p
        for i, row in enumerate(tab):
            if i != r and row[c]:
                f = row[c]
                tab[i] = [x - f * y if y else x for x, y in zip(row, tab[r])]
                tab[i][c] = -f / p
        basic[r], nonbasic[c] = nonbasic[c], basic[r]
    value = dict(zip(basic, (row[-1] for row in tab)))
    return tuple(value.get(label, F(0)) for label in range(n))


def sum_gdof_by_simplex(channel) -> tuple[Fraction, tuple[Fraction, ...]]:
    """``tp.sum_gdof`` as one LP over the potential form, solved by a
    Bland's-rule simplex on ``Fraction`` tableaus: the sum, then d1, ...,
    dK, each maximized in turn, so the same lexicographically greatest
    maximizer. No graph algorithm past the d = 0 verdict."""
    K = channel.K
    objectives = [[1] * K + [0] * K]
    objectives += [[int(i == k) for i in range(2 * K)] for k in range(K)]
    d = _lex_max(_potential_rows(channel), objectives)[:K]
    return sum(d, start=F(0)), d


def symmetric_gdof_by_bounds(channel) -> Fraction:
    """The least rhs per participating user over the enumerated list."""
    cons = tp.region_constraints(channel)
    _require_nonempty(cons)
    return min(c.rhs / len(c.users) for c in cons.constraints)


def sum_optimal(channel, x) -> bool:
    """KKT certificate for a claimed sum maximizer: the all-ones objective
    is a non-negative combination of the rows active at ``x`` (some K of
    them are linearly independent when ``x`` is a vertex)."""
    cons = tp.region_constraints(channel)
    active = [(coeffs, rhs) for coeffs, rhs in _bound_rows(cons)
              if sum(p * c for p, c in zip(x, coeffs)) == rhs]
    for combo in combinations(active, cons.K):
        columns = [(tuple(c[i] for c, _ in combo), 1) for i in range(cons.K)]
        y = _solve_square(columns)
        if y is not None and all(v >= 0 for v in y):
            return True
    return False
