"""Independent brute-force oracles and per-state references.

The oracles deliberately avoid the package's analytic routes (inequality
lists, Bellman-Ford): membership is decided by scanning a power grid against
the rate expressions, and shortest paths by enumerating simple paths. The
grid scans run on exactly scaled integers, so comparisons are exact.

The control references run the power-control updates over every receiver
state instead of the regular counterpart's rows, starting from the full
per-state graph's shortest paths.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import numpy as np

import tinpower as tp

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


def _edge_weights(graph) -> dict:
    return {(s, t): w for s, t, w in graph.edges}


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


def _worst_state_rate(channel, r, k) -> Fraction:
    """User k's TIN rate expression minimised over its receiver states."""
    others = [j for j in range(channel.K) if j != k]
    return min(vec[k] + r[k] - max([F(0)] + [vec[j] + r[j] for j in others])
               for vec in channel.receivers[k])


def gsfpc_step_per_state(channel, r, d) -> tuple[Fraction, ...]:
    """One synchronous fixed-point round: every exponent moves by its user's
    worst-state surplus over the target."""
    return tuple(
        r[k] + d[k] - _worst_state_rate(channel, r, k) for k in range(channel.K))


def ggpc_per_state(channel, d):
    """The K-update control with each margin taken over every receiver state
    (the worst state counts) and each trace row's achieved GDoF from the
    per-state ``achieved_gdof``. Returns ``(r, GgpcTrace)``."""
    d = tp.gdof_tuple(d, channel.K)
    r0 = tp.shortest_paths(tp.build_full(channel, d)).l_dst
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
            delta, newly, tuple(r), tp.achieved_gdof(channel, r)))
    return tuple(r), tp.GgpcTrace(r0, tuple(updates))
