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

from .errors import CertificateError
from .rationals import gdof_tuple, lcm_scaled, render_rational

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
    production paths build it on the regular counterpart (one state per
    user): the reduced graph, whose feasibility and shortest-path lengths
    from ``u`` agree exactly with the full graph's. User k's edge lengths
    read only receiver k's states and ``d[k]``, so they are computed on
    their own lcm lattice (:func:`lcm_scaled`)."""
    target = gdof_tuple(d, channel.K)
    K, receivers = channel.K, channel.receivers
    vertices: list[Vertex] = [
        (k, l) for k in range(K) for l in range(len(receivers[k]))]
    vertices.append(U)
    # per (k, l): the lengths (direct - cross) - d_k to each user j, and
    # direct - d_k into u
    lengths: dict[Vertex, tuple[list[Fraction], Fraction]] = {}
    for k, states in enumerate(receivers):
        scale, (need, *vecs) = lcm_scaled([target[k]], *states)
        for l, vec in enumerate(vecs):
            top = vec[k] - need[0]
            lengths[k, l] = [Fraction(top - x, scale) for x in vec], Fraction(top, scale)
    edges: list[tuple[Vertex, Vertex, Fraction]] = []
    for k in range(K):
        for l in range(len(receivers[k])):
            for l2 in range(len(receivers[k])):
                if l2 != l:
                    edges.append(((k, l), (k, l2), ZERO))
    for k in range(K):
        for l in range(len(receivers[k])):
            cross = lengths[k, l][0]
            for j in range(K):
                if j == k:
                    continue
                for lj in range(len(receivers[j])):
                    edges.append(((k, l), (j, lj), cross[j]))
    for k in range(K):
        for l in range(len(receivers[k])):
            edges.append(((k, l), U, lengths[k, l][1]))
    for k in range(K):
        for l in range(len(receivers[k])):
            edges.append((U, (k, l), ZERO))
    return PotentialGraph(K, tuple(vertices), tuple(edges))


def shortest_paths(graph: PotentialGraph) -> ShortestPathResult:
    """Bellman-Ford from ``u`` with one extra detection round.

    The loop runs on the edge lengths as ints on their lcm lattice
    (:func:`lcm_scaled`) and reads distances back as rationals, so the
    negative-circuit test is exact. Any valid negative circuit is an
    acceptable witness; the one returned comes from walking the predecessor
    chain.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    scale, (lengths,) = lcm_scaled(w for _, _, w in graph.edges)
    edges = [(index[s], index[t], w) for (s, t, _), w in zip(graph.edges, lengths)]
    weight = {(s, t): w for s, t, w in edges}

    dist: list[int | None] = [None] * n
    pred: list[int | None] = [None] * n
    dist[index[U]] = 0
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
            raise CertificateError("extracted circuit is not negative")
        return ShortestPathResult(
            False, None, tuple(graph.vertices[i] for i in cycle), Fraction(length, scale))

    values: list[set[int]] = [set() for _ in range(graph.K)]
    for v, x in zip(graph.vertices, dist):
        if v != U:
            values[v[0]].add(x)
    for k, found in enumerate(values):
        if len(found) != 1:
            raise CertificateError(f"states of user {k + 1} disagree on distance")
    return ShortestPathResult(
        True, tuple(Fraction(found.pop(), scale) for found in values), None, None)
