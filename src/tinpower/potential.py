"""Difference-constraint graphs for GDoF feasibility.

A target tuple is achievable by the polyhedral scheme exactly when every
directed circuit of its graph has non-negative length. Bellman-Ford both
decides this and yields the shortest-path lengths from the source vertex,
which double as the canonical power initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .channel import regular_counterpart, validate
from .rationals import gdof_tuple, render_rational

U = "u"
Vertex = Union[str, tuple[int, int]]

ZERO = Fraction(0)


def vertex_label(v: Vertex) -> str:
    """Human-readable vertex name; user/state indices are printed 1-based."""
    return v if v == U else f"v{v[0] + 1}[{v[1] + 1}]"


@dataclass(frozen=True)
class PotentialGraph:
    """Complete digraph over per-(user, state) vertices plus the source ``u``.

    Edge lengths: zero between states of one user, (direct - cross) - d_k
    across users, direct - d_k into ``u``, and zero out of ``u``.
    """

    K: int
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[Vertex, Vertex, Fraction], ...]

    def dump(self) -> str:
        """Edge list as text, one "src dst length" line per edge."""
        return "\n".join(
            f"{vertex_label(s)} {vertex_label(t)} {render_rational(w)}"
            for s, t, w in self.edges)


@dataclass(frozen=True)
class ShortestPathResult:
    """Either per-user shortest-path lengths from ``u`` (all <= 0), or a
    negative-circuit witness whose recomputed length is strictly negative."""

    feasible: bool
    l_dst: tuple[Fraction, ...] | None
    negative_cycle: tuple[Vertex, ...] | None
    cycle_length: Fraction | None


def build_full(channel, d) -> PotentialGraph:
    """Graph over every (user, state) pair. Cost grows with state counts, so
    production paths prefer :func:`build_reduced`; this one serves diagnostics
    and equivalence tests."""
    validate(channel)
    target = gdof_tuple(d, channel.K)
    K, receivers = channel.K, channel.receivers
    vertices: list[Vertex] = [
        (k, l) for k in range(K) for l in range(len(receivers[k]))]
    vertices.append(U)
    edges: list[tuple[Vertex, Vertex, Fraction]] = []
    for k in range(K):
        for l in range(len(receivers[k])):
            for l2 in range(len(receivers[k])):
                if l2 != l:
                    edges.append(((k, l), (k, l2), ZERO))
    for k in range(K):
        for l, vec in enumerate(receivers[k]):
            for j in range(K):
                if j == k:
                    continue
                for lj in range(len(receivers[j])):
                    edges.append(((k, l), (j, lj), vec[k] - vec[j] - target[k]))
    for k in range(K):
        for l, vec in enumerate(receivers[k]):
            edges.append(((k, l), U, vec[k] - target[k]))
    for k in range(K):
        for l in range(len(receivers[k])):
            edges.append((U, (k, l), ZERO))
    return PotentialGraph(K, tuple(vertices), tuple(edges))


def build_reduced(channel, d) -> PotentialGraph:
    """K+1-vertex graph of the regular counterpart.

    Feasibility and every shortest-path length from ``u`` agree exactly with
    the full graph, at a cost independent of the state counts.
    """
    return build_full(regular_counterpart(channel), d)


def shortest_paths(graph: PotentialGraph) -> ShortestPathResult:
    """Bellman-Ford from ``u`` with one extra detection round.

    Arithmetic is exact, so the negative-circuit test is exact. Any valid
    negative circuit is an acceptable witness; the one returned comes from
    walking the predecessor chain.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    edges = [(index[s], index[t], w) for s, t, w in graph.edges]
    weight = {(s, t): w for s, t, w in edges}

    dist: list[Fraction | None] = [None] * n
    pred: list[int | None] = [None] * n
    dist[index[U]] = ZERO
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
            raise AssertionError("extracted circuit is not negative")
        return ShortestPathResult(
            False, None, tuple(graph.vertices[i] for i in cycle), length)

    l_dst = []
    for k in range(graph.K):
        values = {dist[index[v]] for v in graph.vertices if v != U and v[0] == k}
        if len(values) != 1:
            raise AssertionError(f"states of user {k} disagree on distance")
        l_dst.append(values.pop())
    return ShortestPathResult(True, tuple(l_dst), None, None)
