import random
from fractions import Fraction as F

import pytest

import tinpower as tp

from fixtures import (
    boundary_targets,
    feasible_grid_target,
    grid_value,
    prime_denominator_channel,
    random_compound,
    random_tin_optimal,
    single,
)
from oracles import (
    achieved_gdof_fractions,
    bellman_ford_fractions,
    fraction_edges,
    full_graph_fractions,
    ggpc_per_state,
    gsfpc_step_per_state,
    least_allocation_by_distances,
    locally_optimal,
    regular_counterpart_fractions,
    worst_state_rate,
)


def test_achieved_gdof_two_state(comp2):
    assert tp.achieved_gdof(comp2, ["-0.3", "-0.3"]) == (F("0.5"), F("0.5"))


def test_achieved_gdof_full_power(sym4):
    assert tp.achieved_gdof(sym4, [0, 0, 0, 0]) == (F(1),) * 4


def test_achieved_gdof_single_user():
    assert tp.achieved_gdof(single("1"), [0]) == (F(1),)


def test_achieved_gdof_clamps_at_zero():
    ch = tp.CompoundChannel.from_lists([[["0.5", "2"]], [["0", "1"]]])
    d = tp.achieved_gdof(ch, [0, 0])
    assert d[0] == 0 and d[1] == 1


def test_polyhedral_matches_full_when_positive(comp2):
    assert tp.achieved_gdof(comp2, ["-0.3", "-0.3"]) == (F("0.5"), F("0.5"))


def test_polyhedral_walkthrough(mix3):
    out = tp.achieved_gdof(mix3, ["-1.2", "-0.4", "-0.7"])
    assert out == (F("0.5"), F("0.6"), F("0.7"))


def test_gsfpc_full_power_fixed_point(sym4):
    sol = tp.solve_power(sym4, [1, 1, 1, 1], "gsfpc")
    r, trace = sol.allocation, sol.trace
    assert r == (F(0),) * 4
    assert trace.converged and trace.iterations == 1
    assert trace.iterates[0] == trace.iterates[1] == r


def test_gsfpc_iterate_staircase():
    ch = tp.CompoundChannel.from_lists([[["1", "0.5"]], [["0.5", "1"]]])
    sol = tp.solve_power(ch, ["0.4", "0.4"], "gsfpc")
    r, trace = sol.allocation, sol.trace
    assert r == (F("-0.6"), F("-0.6"))
    first = [it[0] for it in trace.iterates]
    assert first == [F(0), F("-0.1"), F("-0.2"), F("-0.3"), F("-0.4"),
                     F("-0.5"), F("-0.6"), F("-0.6")]


def test_gsfpc_walkthrough(mix3):
    sol = tp.solve_power(mix3, ["0.5", "0.6", "0.7"], "gsfpc")
    r, trace = sol.allocation, sol.trace
    assert r == (F("-1.2"), F("-0.4"), F("-0.7"))
    assert trace.converged
    assert trace.iterates.index(r) <= 8


def test_gsfpc_rejects_infeasible(asym3):
    with pytest.raises(tp.InfeasibleTargetError) as err:
        tp.solve_power(asym3, [2, 2, "0.5"], "gsfpc")
    assert err.value.cycle_length < 0


def test_gsfpc_monotone_and_locally_optimal_random():
    rng = random.Random(51)
    checked = 0
    while checked < 25:
        ch = random_compound(rng, K=rng.randint(1, 4))
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        checked += 1
        sol = tp.solve_power(ch, d, "gsfpc")
        r, trace = sol.allocation, sol.trace
        for a, b in zip(trace.iterates, trace.iterates[1:]):
            assert all(x >= y for x, y in zip(a, b))
        assert locally_optimal(ch, r, d)


def test_ggpc_walkthrough_trace(mix3):
    sol = tp.solve_power(mix3, ["0.5", "0.6", "0.7"], "ggpc")
    r, trace = sol.allocation, sol.trace
    assert trace.r0 == (F("-0.1"), F(0), F("-0.1"))
    deltas = [u.delta for u in trace.updates]
    fixed = [u.fixed for u in trace.updates]
    assert deltas == [F("0.4"), F("0.2"), F("0.5")]
    assert fixed == [(1,), (2,), (0,)]
    assert trace.updates[0].r == (F("-0.5"), F("-0.4"), F("-0.5"))
    assert trace.updates[0].achieved == (F(1), F("0.6"), F("0.9"))
    assert trace.updates[1].r == (F("-0.7"), F("-0.4"), F("-0.7"))
    assert trace.updates[1].achieved == (F(1), F("0.6"), F("0.7"))
    assert r == (F("-1.2"), F("-0.4"), F("-0.7"))
    assert tp.achieved_gdof(mix3, r) == (F("0.5"), F("0.6"), F("0.7"))


def test_ggpc_simultaneous_tie(sym4):
    sol = tp.solve_power(sym4, [1, 1, 1, 1], "ggpc")
    r, trace = sol.allocation, sol.trace
    assert len(trace.updates) == 1
    assert trace.updates[0].fixed == (0, 1, 2, 3)
    assert trace.updates[0].delta == 1
    assert r == (F(-1),) * 4


def test_ggpc_zero_delta_update(asym3):
    sol = tp.solve_power(asym3, [1, 1, 1], "ggpc")
    r, trace = sol.allocation, sol.trace
    assert trace.r0 == (F("-0.4"), F("-0.2"), F(0))
    assert [u.delta for u in trace.updates] == [F(0), F("0.2")]
    assert [u.fixed for u in trace.updates] == [(2,), (0, 1)]
    assert r == (F("-0.6"), F("-0.4"), F(0))
    for u in trace.updates:
        assert u.achieved == (F(1), F(1), F(1))


def test_ggpc_compound_two_state(comp2):
    sol = tp.solve_power(comp2, ["0.5", "0.5"], "ggpc")
    r, trace = sol.allocation, sol.trace
    assert r == (F("-0.3"), F("-0.3"))
    assert [u.delta for u in trace.updates] == [F("0.3"), F(0)]
    assert [u.fixed for u in trace.updates] == [(0,), (1,)]
    # every state of the fixed user meets the target exactly
    for vec in comp2.receivers[0]:
        inner = vec[0] + r[0] - max(F(0), vec[1] + r[1])
        assert inner == F("0.5")


def test_ggpc_compound_equals_counterpart_route(comp2):
    # allocation and trace match the per-state worst-margin reference, on the
    # channel and on its counterpart alike
    expected = ggpc_per_state(comp2, ["0.5", "0.5"])
    for ch in (comp2, tp.regular_counterpart(comp2)):
        sol = tp.solve_power(ch, ["0.5", "0.5"], "ggpc")
        assert (sol.allocation, sol.trace) == expected


def test_ggpc_compound_collapses_on_regular(mix3):
    d = ["0.5", "0.6", "0.7"]
    sol = tp.solve_power(mix3, d, "ggpc")
    assert (sol.allocation, sol.trace) == ggpc_per_state(mix3, d)


def assert_controls_match_references(ch, d):
    """``ggpc`` and ``ggpc-c`` give ``ggpc_per_state``'s allocation and
    trace, and every ``gsfpc`` iterate is one per-state round of the last;
    returns the ggpc updates."""
    expected = ggpc_per_state(ch, d)
    for alg in ("ggpc", "ggpc-c"):
        sol = tp.solve_power(ch, d, alg)
        assert (sol.allocation, sol.trace) == expected
    trace = tp.solve_power(ch, d, "gsfpc").trace
    assert trace.converged and trace.iterates[0] == expected[1].r0
    for prev, nxt in zip(trace.iterates, trace.iterates[1:]):
        assert nxt == gsfpc_step_per_state(ch, prev, d)
    return expected[1].updates


def test_controls_match_per_state_reference_seeded():
    rng = random.Random(58)
    checked = 0
    while checked < 40:
        ch = random_compound(rng, K=rng.randint(1, 5))
        if tp.is_regular(ch):
            continue
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        checked += 1
        assert_controls_match_references(ch, d)
        for alg in ("ggpc", "ggpc-c"):
            assert tp.solve_power(ch, d, alg).via_counterpart == (alg == "ggpc")
        trace = tp.solve_power(ch, d, "gsfpc").trace
        for prev, nxt in zip(trace.iterates, trace.iterates[1:]):
            assert locally_optimal(ch, prev, d) == (nxt == prev)
        # a silent user: the controls run on the others' subnetwork
        if ch.K > 1:
            off = rng.randrange(ch.K)
            active = [k for k in range(ch.K) if k != off]
            sub_r, _ = ggpc_per_state(
                tp.subnetwork(ch, active), [d[k] for k in active])
            sol = tp.solve_power(ch, [0 if k == off else x for k, x in enumerate(d)],
                                 "ggpc")
            assert [sol.allocation[k] for k in active] == list(sub_r)
            assert sol.allocation[off] is None


@pytest.mark.parametrize("K", [20, 40])
def test_controls_match_per_state_reference_large(K):
    # at these sizes most updates read a receiver's running maximum after
    # fixed users have left stale terms in it; the target sits on the region
    # boundary, where updates tie and drop by zero
    rng = random.Random(K)
    ch = random_tin_optimal(rng, K=K, max_states=2)
    v = [grid_value(rng, F(1), lo=F("0.5")) for _ in range(K)]
    inside, _ = boundary_targets(ch, v)
    updates = assert_controls_match_references(ch, inside)
    assert any(len(u.fixed) > 1 for u in updates)
    assert any(u.delta == 0 for u in updates)


def test_prime_denominators_match_fraction_references():
    # 3600 entries with distinct prime denominators make the lcm lattice as
    # fine as it gets; answers must not change. 0.605 and 0.606 are the
    # symmetric targets on either side of this channel's boundary.
    ch = prime_denominator_channel(random.Random(60), 60)
    for t, feasible in ((F("0.605"), True), (F("0.606"), False)):
        d = [t] * 60
        verdict = tp.decide(ch, d)
        assert verdict.sp == bellman_ford_fractions(verdict.graph)
        assert verdict.sp.feasible == feasible
    sol = tp.solve_power(ch, [F("0.605")] * 60, "ggpc")
    assert (sol.allocation, sol.trace) == ggpc_per_state(ch, [F("0.605")] * 60)


def test_ggpc_is_minus_the_distances_to_u_seeded():
    # the grid oracle stops at 2e6 points; distances to u certify the global
    # optimum at any K, on and off the region boundary
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        ch = random_compound(rng, K=rng.randint(1, 6))
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        checked += 1
        assert tp.solve_power(ch, d, "ggpc").allocation == (
            least_allocation_by_distances(ch, d))


@pytest.mark.parametrize("K", [20, 40, 60])
def test_ggpc_is_minus_the_distances_to_u_large(K):
    rng = random.Random(K)
    ch = random_tin_optimal(rng, K=K, max_states=2)
    v = [grid_value(rng, F(1), lo=F("0.5")) for _ in range(K)]
    inside, _ = boundary_targets(ch, v)
    assert tp.solve_power(ch, inside, "ggpc").allocation == (
        least_allocation_by_distances(ch, inside))


def rational_graph(graph):
    """A potential graph as the rationals it stands for, whatever its lattice."""
    return graph.K, graph.vertices, fraction_edges(graph)


def test_channel_layer_matches_fraction_references_seeded():
    # the counterpart, the full graph's edge lengths, the reduced graph that
    # `decide` writes from the counterpart's ints and the per-state
    # achieved GDoF run on each receiver's own lcm lattice; they must equal
    # their Fraction definitions on decimal grids (K 1-40, 1-3 states), on
    # prime denominators, and under allocations with negative entries, some
    # of whose worst-state rate expressions are clamped at 0
    rng = random.Random(61)
    channels = [random_compound(rng, K=K, step=F(1, 100))
                for K in (1, 2, 3, 5, 8, 13, 20, 40)]
    channels += [random_compound(rng, K=rng.randint(1, 6)) for _ in range(40)]
    channels.append(prime_denominator_channel(random.Random(60), 60))
    clamped = 0
    for ch in channels:
        K = ch.K
        matrix = regular_counterpart_fractions(ch)
        cp = tp.regular_counterpart(ch)
        assert cp.matrix == matrix
        d = [grid_value(rng, F(1), F(1, 7)) for _ in range(K)]
        assert rational_graph(tp.build_full(ch, d)) == rational_graph(
            full_graph_fractions(ch, d))
        counterpart = tp.CompoundChannel(K, tuple((row,) for row in matrix))
        assert rational_graph(tp.build_full(cp, d)) == rational_graph(
            full_graph_fractions(counterpart, d))
        assert rational_graph(tp.decide(ch, d).graph) == rational_graph(
            full_graph_fractions(counterpart, d))
        for r in ([F(0)] * K, [-grid_value(rng, F(3), F(1, 3)) for _ in range(K)]):
            assert tp.achieved_gdof(ch, r) == achieved_gdof_fractions(ch, r)
            clamped += any(worst_state_rate(ch, r, k) < 0 for k in range(K))
    assert clamped >= 10


def test_ggpc_trace_invariants_random():
    rng = random.Random(52)
    checked = 0
    while checked < 30:
        ch = random_compound(rng, K=rng.randint(1, 4))
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        checked += 1
        sol = tp.solve_power(ch, d, "ggpc")
        r, trace = sol.allocation, sol.trace
        assert len(trace.updates) <= ch.K
        seen = []
        for u in trace.updates:
            assert u.delta >= 0
            assert all(a >= t for a, t in zip(u.achieved, d))
            for i in u.fixed:
                assert u.achieved[i] == d[i]
            seen.extend(u.fixed)
        assert sorted(seen) == list(range(ch.K))
        final = trace.updates[-1]
        assert final.achieved == tp.achieved_gdof(ch, r)
        # once fixed, a user stays exactly at target through later updates
        for idx, u in enumerate(trace.updates):
            for later in trace.updates[idx:]:
                for i in u.fixed:
                    assert later.achieved[i] == d[i]


def test_shortest_path_dominance_random():
    rng = random.Random(53)
    checked = 0
    while checked < 30:
        ch = random_compound(rng, K=rng.randint(1, 4))
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        checked += 1
        sp = tp.shortest_paths(tp.build_full(tp.regular_counterpart(ch), d))
        achieved = tp.achieved_gdof(ch, sp.l_dst)
        assert all(a >= t for a, t in zip(achieved, d))


def test_shortest_path_allocation_locally_optimal_on_frontier():
    # for Pareto-optimal positive targets the shortest-path start is already
    # a locally optimal allocation
    from fixtures import pareto_target

    rng = random.Random(57)
    checked = 0
    while checked < 25:
        ch = random_compound(rng, K=rng.randint(1, 4), diag_min=F("0.5"))
        d = pareto_target(rng, ch)
        if d is None or any(x == 0 for x in d):
            continue
        assert tp.pareto(ch, d)
        checked += 1
        sp = tp.shortest_paths(tp.build_full(tp.regular_counterpart(ch), d))
        assert locally_optimal(ch, sp.l_dst, d)


def test_locally_optimal_examples(mix3):
    d = ["0.5", "0.6", "0.7"]
    assert locally_optimal(mix3, ["-1.2", "-0.4", "-0.7"], d)
    assert not locally_optimal(mix3, ["-0.1", "0", "-0.1"], d)
    with pytest.raises(ValueError):
        locally_optimal(mix3, ["-2", "-2", "-2"], d)


def test_gsfpc_fixed_point_is_locally_optimal(comp2):
    r = tp.solve_power(comp2, ["0.5", "0.4"], "gsfpc").allocation
    assert locally_optimal(comp2, r, ["0.5", "0.4"])


def test_oracle_confirms_walkthrough(mix3):
    d = ["0.5", "0.6", "0.7"]
    assert tp.oracle_globally_optimal(mix3, ["-1.2", "-0.4", "-0.7"], d, "0.1", -3)
    assert not tp.oracle_globally_optimal(mix3, ["-0.1", "0", "-0.1"], d, "0.1", -3)


def test_oracle_single_user():
    # among achieving allocations, optimal exactly when r equals d - alpha
    ch = single("1")
    assert tp.oracle_globally_optimal(ch, [0], ["1"], "0.1", -3) is True
    assert tp.oracle_globally_optimal(ch, ["-0.4"], ["0.6"], "0.1", -3) is True
    assert tp.oracle_globally_optimal(ch, ["-0.2"], ["0.6"], "0.1", -3) is False


def test_oracle_guard():
    ch = random_compound(random.Random(54), K=4)
    with pytest.raises(tp.GuardExceededError) as exc:
        tp.oracle_globally_optimal(ch, [0, 0, 0, 0], [0, 0, 0, 0], "0.01", -10)
    assert f"1001^4 = {1001 ** 4} points" in str(exc.value)
    assert str(tp.power.ORACLE_MAX_POINTS) in str(exc.value)
    huge = tp.CompoundChannel.from_lists([[[str(2 ** 41)]]])
    with pytest.raises(tp.GuardExceededError) as exc:
        tp.oracle_globally_optimal(huge, [0], [1], "1", -1)
    assert str(2 ** 41) in str(exc.value)
    assert str(tp.power.ORACLE_MAX_SCALED) in str(exc.value)


def test_oracle_rejects_bad_parameters(mix3):
    with pytest.raises(ValueError):
        tp.oracle_globally_optimal(mix3, [0, 0, 0], [1, 1, 1], 0, -1)
    with pytest.raises(ValueError):
        tp.oracle_globally_optimal(mix3, [0, 0, 0], [1, 1, 1], "0.1", 1)


def test_gsfpc_dominates_grid_local_optima():
    # the fixed point must sit above every grid-found local optimum below r(0)
    rng = random.Random(55)
    ch = tp.CompoundChannel.from_lists([[["1", "0.5"]], [["0.5", "1"]]])
    d = (F("0.4"), F("0.4"))
    sol = tp.solve_power(ch, d, "gsfpc")
    r_star, trace = sol.allocation, sol.trace
    r0 = trace.iterates[0]
    step = F("0.1")
    grid = [-step * i for i in range(0, 16)]
    for a in grid:
        for b in grid:
            cand = (a, b)
            if any(x > y for x, y in zip(cand, r0)):
                continue
            ach = tp.achieved_gdof(ch, cand)
            if all(x >= y for x, y in zip(ach, d)) and locally_optimal(ch, cand, d):
                assert all(x >= y for x, y in zip(r_star, cand))


def test_power_exponents_validation():
    with pytest.raises(ValueError):
        tp.power_exponents([0, "0.1"])
    with pytest.raises(ValueError):
        tp.power_exponents([0], K=2)


def test_solve_power_silent_users(asym3):
    sol = tp.solve_power(asym3, [1, 0, 1], "ggpc")
    assert sol.silent == (1,)
    assert sol.allocation[1] is None
    active = [sol.allocation[0], sol.allocation[2]]
    sub = tp.subnetwork(asym3, [0, 2])
    achieved = tp.achieved_gdof(sub, active)
    assert all(a >= F(1) for a in achieved)


def test_solve_power_all_silent(asym3):
    sol = tp.solve_power(asym3, [0, 0, 0], "sp")
    assert sol.allocation == (None, None, None)


def test_solve_power_sp(mix3):
    sol = tp.solve_power(mix3, ["0.5", "0.6", "0.7"], "sp")
    assert sol.allocation == (F("-0.1"), F(0), F("-0.1"))
    assert sol.trace is None


def test_solve_power_ggpc_routes_compound_through_counterpart(comp2):
    sol = tp.solve_power(comp2, ["0.5", "0.5"], "ggpc")
    assert sol.via_counterpart
    assert sol.allocation == (F("-0.3"), F("-0.3"))
    direct = tp.solve_power(comp2, ["0.5", "0.5"], "ggpc-c")
    assert not direct.via_counterpart
    assert direct.allocation == sol.allocation


def test_solve_power_unknown_algorithm(mix3):
    with pytest.raises(ValueError):
        tp.solve_power(mix3, [1, 1, 1], "newton")


def test_counterpart_preserves_achieved_gdof_random():
    rng = random.Random(56)
    for _ in range(40):
        ch = random_compound(rng)
        cp = tp.regular_counterpart(ch)
        r = [-fixtures_grid(rng) for _ in range(ch.K)]
        assert tp.achieved_gdof(ch, r) == tp.achieved_gdof(cp, r)


def fixtures_grid(rng):
    return F(rng.randint(0, 20), 10)


BOGUS_BELLMAN_FORD = {
    # a start from which even ggpc misses (1, 1, 1) on asym3
    "start": tp.ShortestPathResult(True, (F(-10), F(-10), F(0)), None, None),
    # a circuit whose bound (1, 1, 1) satisfies
    "circuit": tp.ShortestPathResult(False, None, ((0, 0), (1, 0)), F(-1)),
}
LIBRARY_VERDICTS = {
    "member": lambda ch, d: tp.member(ch, d),
    "pareto": lambda ch, d: tp.pareto(ch, d),
    "sum_gdof": lambda ch, d: tp.sum_gdof(ch),
    "symmetric_gdof": lambda ch, d: tp.symmetric_gdof(ch),
    "solve_power-sp": lambda ch, d: tp.solve_power(ch, d, "sp"),
    "solve_power-ggpc": lambda ch, d: tp.solve_power(ch, d, "ggpc"),
}


@pytest.mark.parametrize("bogus", sorted(BOGUS_BELLMAN_FORD))
@pytest.mark.parametrize("verdict", sorted(LIBRARY_VERDICTS))
def test_library_verdicts_check_their_certificates(asym3, monkeypatch, verdict, bogus):
    import tinpower.region as region

    sp = BOGUS_BELLMAN_FORD[bogus]
    monkeypatch.setattr(region, "shortest_paths", lambda graph: sp)
    with pytest.raises(tp.CertificateError):
        LIBRARY_VERDICTS[verdict](asym3, [1, 1, 1])


def test_solve_power_reports_per_state_achieved_seeded():
    # multi-state channels, K 1-5, targets with a zero entry and all zero
    rng = random.Random(74)
    solved = 0
    for n in range(60):
        K = 1 + n % 5
        ch = random_tin_optimal(rng, K=K) if n % 2 else random_compound(
            rng, K=K, alpha_max=F(1), diag_min=F(1, 2))
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        d = list(d)
        if ch.K > 1:
            d[rng.randrange(ch.K)] = F(0)
        for target in (d, [F(0)] * ch.K):
            active = [i for i, x in enumerate(target) if x > 0]
            for alg in ("sp", "gsfpc", "ggpc", "ggpc-c"):
                sol = tp.solve_power(ch, target, alg)
                expected = [F(0)] * ch.K
                if active:
                    values = tp.achieved_gdof(tp.subnetwork(ch, active),
                                              [sol.allocation[i] for i in active])
                    for i, value in zip(active, values):
                        expected[i] = value
                assert sol.achieved == tuple(expected)
                assert all(a >= t for a, t in zip(sol.achieved, target))
                solved += 1
    assert solved >= 300  # 42 of the 60 channels have a feasible grid target
