"""Difference-constraint graphs for GDoF feasibility.

A target tuple is achievable by the polyhedral scheme exactly when every
directed circuit of its graph has non-negative length. Bellman-Ford both
decides this and yields the shortest-path lengths from the source vertex,
which double as the canonical power initialization.

A graph's edge lengths are ints on one lcm lattice, written with its
``scale``: :func:`lattice_graph` writes them from strength rows already held
as ints and scales only the target, Bellman-Ford adds and compares the ints
as they are, and only the reported lengths are read back as rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from .channel import receiver_levels
from .errors import CertificateError
from .rationals import gdof_tuple, lcm_scaled, one_lattice, render_rational

U = "u"
Vertex = Union[str, tuple[int, int]]


def vertex_label(v: Vertex) -> str:
    """Human-readable vertex name; user/state indices are printed 1-based."""
    return v if v == U else f"v{v[0] + 1}[{v[1] + 1}]"


class PotentialGraph(NamedTuple):
    """Complete digraph over per-(user, state) vertices plus the source ``u``,
    labelled in ``vertices`` (``u`` last); each edge ``(i, j, w)`` runs from
    the vertex at index ``i`` to the one at ``j``.

    Edge lengths: zero between states of one user, (direct - cross) - d_k
    across users, direct - d_k into ``u``, and zero out of ``u``. Each is an
    int on the lattice ``scale``: a length ``w`` stands for ``w / scale``.
    """

    K: int
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int, int], ...]
    scale: int

    def dump(self, users=None) -> str:
        """Edge list as text, one "src dst length" line per edge, lengths as
        rationals; each user ``i`` is named as ``users[i]`` when given."""
        names = [vertex_label(v if users is None or v == U else (users[v[0]], v[1]))
                 for v in self.vertices]
        return "\n".join(
            f"{names[s]} {names[t]} "
            f"{render_rational(Fraction(w, self.scale))}" for s, t, w in self.edges)

    def on_lattice(self, values) -> list[int]:
        """Each of ``values`` times ``scale``, an int (else raises)."""
        scaled = [x * self.scale for x in values]
        if any(x.denominator != 1 for x in scaled):
            raise CertificateError("a value is off the graph's lattice")
        return [x.numerator for x in scaled]


class ShortestPathResult(NamedTuple):
    """Either per-user shortest-path lengths from ``u`` (all <= 0), or a
    negative-circuit witness whose recomputed length is strictly negative."""

    feasible: bool
    l_dst: tuple[Fraction, ...] | None
    negative_cycle: tuple[Vertex, ...] | None
    cycle_length: Fraction | None


def build_full(channel, d) -> PotentialGraph:
    """Graph over every (user, state) pair. Cost grows with state counts, so
    decisions write it for the regular counterpart (one state per user):
    the reduced graph, whose feasibility and shortest-path lengths from
    ``u`` agree exactly with the full graph's. The states are the levels at
    full power (:func:`receiver_levels`), put on one lattice."""
    return lattice_graph(*one_lattice(receiver_levels(channel, [0] * channel.K)),
                         channel.state_counts, gdof_tuple(d, channel.K))


def lattice_graph(scale, rows, counts, d) -> PotentialGraph:
    """The graph at the GDoF tuple ``d`` of ``counts[k]`` states per user k,
    whose strength vectors are ``rows``, as ints on the lattice ``scale``.
    Only ``d`` is scaled, onto the lcm of ``scale`` and its denominators
    (:func:`lcm_scaled`), and the lengths are written as ints on it."""
    K = len(counts)
    lattice, (need,) = lcm_scaled(d, scale=scale)
    if lattice != scale:
        up = lattice // scale
        rows = [[x * up for x in row] for row in rows]
    pairs = [(k, l) for k in range(K) for l in range(counts[k])]
    user = [k for k, _ in pairs]
    ends = list(range(len(pairs)))  # each index one int object, shared by its edges
    top = [vec[k] - need[k] for k, vec in zip(user, rows)]  # direct - d_k
    edges = [(v, w, 0) for v in ends for w in ends if user[w] == user[v] and w != v]
    edges += [(v, w, x - vec[user[w]]) for v, vec, x in zip(ends, rows, top)
              for w in ends if user[w] != user[v]]
    u = len(pairs)
    edges += [(v, u, x) for v, x in zip(ends, top)]
    edges += [(u, v, 0) for v in ends]
    return PotentialGraph(K, (*pairs, U), tuple(edges), lattice)


def shortest_paths(graph: PotentialGraph) -> ShortestPathResult:
    """Bellman-Ford from ``u`` with one extra detection round.

    The loop adds and compares the int edge lengths as they are, so the
    negative-circuit test is exact, and reads the distances and the
    circuit's length back as rationals over ``graph.scale``. Any valid
    negative circuit is an acceptable witness; the one returned comes from
    walking the predecessor chain.
    """
    n, scale = len(graph.vertices), graph.scale
    dist: list[int | None] = [None] * n
    pred: list[int | None] = [None] * n
    dist[-1] = 0  # u is the last vertex
    for _ in range(n - 1):
        changed = False
        for s, t, w in graph.edges:
            if dist[s] is not None and (dist[t] is None or dist[s] + w < dist[t]):
                dist[t] = dist[s] + w
                pred[t] = s
                changed = True
        if not changed:
            break

    start = None
    for s, t, w in graph.edges:
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
        succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
        weight = {s: w for s, t, w in graph.edges if succ.get(s) == t}
        length = sum(weight.values())
        if length >= 0:
            raise CertificateError("extracted circuit is not negative")
        return ShortestPathResult(
            False, None, tuple(graph.vertices[i] for i in cycle), Fraction(length, scale))

    values: list[set[int]] = [set() for _ in range(graph.K)]
    for v, x in zip(graph.vertices, dist[:-1]):  # every vertex but u
        values[v[0]].add(x)
    for k, found in enumerate(values):
        if len(found) != 1:
            raise CertificateError(f"states of user {k + 1} disagree on distance")
    return ShortestPathResult(
        True, tuple(Fraction(found.pop(), scale) for found in values), None, None)
