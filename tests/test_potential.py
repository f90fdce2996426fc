import random
import tracemalloc
from fractions import Fraction as F

import pytest

import tinpower as tp
from tinpower.potential import U

from fixtures import (
    boundary_targets,
    grid_value,
    prime_denominator_channel,
    random_compound,
    random_tin_optimal,
)
from oracles import (
    all_circuits_nonnegative,
    bellman_ford_fractions,
    fraction_edges,
    full_graph_fractions,
    min_path_by_enumeration,
)


def edge_map(graph):
    return {(s, t): w for s, t, w in fraction_edges(graph)}


def test_full_graph_structure_two_state(comp2):
    g = tp.build_full(comp2, ["0.5", "0.5"])
    assert set(g.vertices) == {(0, 0), (0, 1), (1, 0), U}
    w = edge_map(g)
    # intra-user edges, both directions, zero length
    assert w[((0, 0), (0, 1))] == 0 and w[((0, 1), (0, 0))] == 0
    # cross edges carry (direct - cross) - d of the source user's state
    assert w[((0, 0), (1, 0))] == F(1) - F("0.5") - F("0.5")
    assert w[((0, 1), (1, 0))] == F("0.8") - F("0.2") - F("0.5")
    assert w[((1, 0), (0, 0))] == w[((1, 0), (0, 1))] == F(1) - F("0.5") - F("0.5")
    # edges into u carry direct - d; edges out of u are zero
    assert w[((0, 0), U)] == F("0.5") and w[((0, 1), U)] == F("0.3")
    assert w[((1, 0), U)] == F("0.5")
    assert all(w[(U, v)] == 0 for v in g.vertices if v != U)
    # complete digraph: (sum L_k + 1) vertices, n*(n-1) directed pairs minus
    # nothing (u has both directions everywhere)
    assert len(g.vertices) == 4
    assert len(g.edges) == 2 + 4 + 3 + 3


def test_full_graph_symmetric(sym4):
    g = tp.build_full(sym4, [1, 1, 1, 1])
    w = edge_map(g)
    for k in range(4):
        for j in range(4):
            if j != k:
                assert w[((k, 0), (j, 0))] == 0
        assert w[((k, 0), U)] == 1


def test_full_graph_single_user():
    ch = tp.CompoundChannel.from_lists([[["1"]]])
    g = tp.build_full(ch, ["0.4"])
    w = edge_map(g)
    assert set(g.vertices) == {(0, 0), U}
    assert w[((0, 0), U)] + w[(U, (0, 0))] == F("0.6")


def test_reduced_graph_cross_lengths(mix3):
    g = tp.build_full(tp.regular_counterpart(mix3), ["0.5", "0.6", "0.7"])
    w = edge_map(g)
    expected = {
        (0, 1): F("1.1"), (0, 2): F("0.5"),
        (1, 0): F("-0.1"), (1, 2): F("-0.1"),
        (2, 0): F("0.4"), (2, 1): F("0.3"),
    }
    for (k, j), value in expected.items():
        assert w[((k, 0), (j, 0))] == value


def test_reduced_graph_two_state(comp2):
    g = tp.build_full(tp.regular_counterpart(comp2), ["0.5", "0.5"])
    w = edge_map(g)
    assert w[((0, 0), (1, 0))] == 0
    assert w[((1, 0), (0, 0))] == 0
    assert w[((0, 0), U)] == F("0.3")
    assert w[((1, 0), U)] == F("0.5")


def test_reduced_equals_full_for_regular(asym3):
    d = [1, 1, 1]
    full = tp.build_full(asym3, d)
    reduced = tp.build_full(tp.regular_counterpart(asym3), d)
    assert set(fraction_edges(full)) == set(fraction_edges(reduced))


def test_shortest_paths_walkthrough(mix3):
    g = tp.build_full(tp.regular_counterpart(mix3), ["0.5", "0.6", "0.7"])
    sp = tp.shortest_paths(g)
    assert sp.feasible
    assert sp.l_dst == (F("-0.1"), F(0), F("-0.1"))


def test_shortest_paths_asym3(asym3):
    g = tp.build_full(tp.regular_counterpart(asym3), [1, 1, 1])
    sp = tp.shortest_paths(g)
    assert sp.feasible
    assert sp.l_dst == (F("-0.4"), F("-0.2"), F(0))
    # cross-check against exhaustive simple-path enumeration
    for k in range(3):
        assert min_path_by_enumeration(g, U, (k, 0)) == sp.l_dst[k]


def test_negative_cycle_witness(asym3):
    g = tp.build_full(tp.regular_counterpart(asym3), [2, 2, 0])
    sp = tp.shortest_paths(g)
    assert not sp.feasible
    assert sp.cycle_length < 0
    # recompute the witness length straight from the edge list
    w = edge_map(g)
    cyc = sp.negative_cycle
    total = sum(w[(cyc[i], cyc[(i + 1) % len(cyc)])] for i in range(len(cyc)))
    assert total == sp.cycle_length == F(-2)
    assert set(cyc) == {(0, 0), (1, 0)}


def test_dimension_mismatch_rejected(asym3):
    with pytest.raises(ValueError):
        tp.build_full(asym3, [1, 1])
    with pytest.raises(ValueError):
        tp.build_full(asym3, [1, 1, -1])


def test_reduction_equality_random():
    rng = random.Random(21)
    for _ in range(60):
        ch = random_compound(rng)
        d = [rng.choice(["0", "0.3", "0.6", "1", "1.5"]) for _ in range(ch.K)]
        full = tp.shortest_paths(tp.build_full(ch, d))
        cp = tp.regular_counterpart(ch)
        reduced = tp.shortest_paths(tp.build_full(cp, d))
        assert full.feasible == reduced.feasible
        if full.feasible:
            assert full.l_dst == reduced.l_dst
            assert all(x <= 0 for x in full.l_dst)


def test_feasibility_matches_circuit_enumeration():
    rng = random.Random(22)
    for _ in range(25):
        ch = random_compound(rng, K=rng.randint(1, 3), max_states=2)
        d = [rng.choice(["0", "0.4", "0.8", "1.2"]) for _ in range(ch.K)]
        g = tp.build_full(ch, d)
        sp = tp.shortest_paths(g)
        assert sp.feasible == all_circuits_nonnegative(g)


def test_shortest_paths_match_fraction_loop_seeded():
    # the loop on lcm-scaled ints returns the Fraction loop's result: the
    # same distances, or the same witness circuit and length, on the full
    # per-state graph just inside and just outside the region
    rng = random.Random(24)
    channels = [random_tin_optimal(rng, K=K, max_states=2) for K in (1, 2, 5, 10, 20, 40)]
    channels.append(prime_denominator_channel(rng, 20))
    for ch in channels:
        v = [grid_value(rng, F(1), lo=F("0.5")) for _ in range(ch.K)]
        for d, feasible in zip(boundary_targets(ch, v), (True, False)):
            graph = tp.build_full(ch, d)
            sp = tp.shortest_paths(graph)
            assert sp == bellman_ford_fractions(graph)
            assert sp.feasible == feasible


def test_edges_index_the_vertices_seeded():
    # each edge is (i, j, w) with i and j indices into `vertices`, u last;
    # read through the labels, the full, reduced and decision graphs are
    # the Fraction reference's edges, in order
    rng = random.Random(25)
    for K in (1, 2, 3, 5, 8, 13):
        ch = random_compound(rng, K=K)
        d = [grid_value(rng, F(1), F(1, 7)) for _ in range(K)]
        cp = tp.regular_counterpart(ch)
        for graph, reference in ((tp.build_full(ch, d), ch), (tp.build_full(cp, d), cp),
                                 (tp.decide(ch, d).graph, cp)):
            n = len(graph.vertices)
            assert graph.vertices[-1] == U
            assert all(type(s) is int and type(t) is int and 0 <= s < n and 0 <= t < n
                       and s != t for s, t, _ in graph.edges)
            assert fraction_edges(graph) == fraction_edges(full_graph_fractions(reference, d))


def test_shortest_paths_allocates_little_beside_its_graph():
    # Bellman-Ford relaxes the graph's own edges: it copies no edge list and
    # keeps no label or weight table beside them
    K = 200
    cp = tp.regular_counterpart(random_tin_optimal(random.Random(26), K=K, max_states=1))
    tracemalloc.start()
    try:
        graph = tp.build_full(cp, [F(1, 100)] * K)
        size, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        sp = tp.shortest_paths(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sp.feasible
    assert peak <= 1.5 * size, (peak, size)


def test_states_of_one_user_share_distance(comp2):
    g = tp.build_full(comp2, ["0.5", "0.5"])
    sp = tp.shortest_paths(g)
    assert sp.feasible  # internal consistency assert would fire otherwise


def test_dump_format(mix3):
    g = tp.build_full(tp.regular_counterpart(mix3), ["0.5", "0.6", "0.7"])
    lines = g.dump().splitlines()
    assert len(lines) == len(g.edges)
    assert all(len(line.split()) == 3 for line in lines)
    assert any(line.startswith("v1[1] v2[1] ") for line in lines)
    assert any(line == "v2[1] v1[1] -0.1" for line in lines)
