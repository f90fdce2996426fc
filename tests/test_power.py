import random
from fractions import Fraction as F

import pytest

import tinpower as tp

from fixtures import feasible_grid_target, random_compound, single


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
    assert tp.achieved_gdof_polyhedral(comp2, ["-0.3", "-0.3"]) == (F("0.5"), F("0.5"))


def test_polyhedral_rejects_negative_expression():
    ch = tp.CompoundChannel.from_lists([[["1", "0"]], [["0", "1"]]])
    with pytest.raises(tp.PolyhedralViolationError) as err:
        tp.achieved_gdof_polyhedral(ch, ["-1.5", "0"])
    assert err.value.user == 0 and err.value.state == 0


def test_polyhedral_walkthrough(mix3):
    out = tp.achieved_gdof_polyhedral(mix3, ["-1.2", "-0.4", "-0.7"])
    assert out == (F("0.5"), F("0.6"), F("0.7"))


def test_gsfpc_full_power_fixed_point(sym4):
    r, trace = tp.gsfpc(sym4, [1, 1, 1, 1])
    assert r == (F(0),) * 4
    assert trace.converged and trace.iterations == 1
    assert trace.iterates[0] == trace.iterates[1] == r


def test_gsfpc_iterate_staircase():
    ch = tp.CompoundChannel.from_lists([[["1", "0.5"]], [["0.5", "1"]]])
    r, trace = tp.gsfpc(ch, ["0.4", "0.4"])
    assert r == (F("-0.6"), F("-0.6"))
    first = [it[0] for it in trace.iterates]
    assert first == [F(0), F("-0.1"), F("-0.2"), F("-0.3"), F("-0.4"),
                     F("-0.5"), F("-0.6"), F("-0.6")]


def test_gsfpc_walkthrough(mix3):
    r, trace = tp.gsfpc(mix3, ["0.5", "0.6", "0.7"])
    assert r == (F("-1.2"), F("-0.4"), F("-0.7"))
    assert trace.converged
    assert trace.iterates.index(r) <= 8


def test_gsfpc_rejects_infeasible(asym3):
    with pytest.raises(tp.InfeasibleTargetError) as err:
        tp.gsfpc(asym3, [2, 2, "0.5"])
    assert err.value.cycle_length < 0


def test_gsfpc_rejects_zero_target(asym3):
    with pytest.raises(ValueError):
        tp.gsfpc(asym3, [1, 1, 0])


def test_gsfpc_monotone_and_locally_optimal_random():
    rng = random.Random(51)
    checked = 0
    while checked < 25:
        ch = random_compound(rng, K=rng.randint(1, 4))
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        checked += 1
        r, trace = tp.gsfpc(ch, d)
        for a, b in zip(trace.iterates, trace.iterates[1:]):
            assert all(x >= y for x, y in zip(a, b))
        assert tp.locally_optimal(ch, r, d)


def test_ggpc_walkthrough_trace(mix3):
    r, trace = tp.ggpc(mix3, ["0.5", "0.6", "0.7"])
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
    r, trace = tp.ggpc(sym4, [1, 1, 1, 1])
    assert len(trace.updates) == 1
    assert trace.updates[0].fixed == (0, 1, 2, 3)
    assert trace.updates[0].delta == 1
    assert r == (F(-1),) * 4


def test_ggpc_zero_delta_update(asym3):
    r, trace = tp.ggpc(asym3, [1, 1, 1])
    assert trace.r0 == (F("-0.4"), F("-0.2"), F(0))
    assert [u.delta for u in trace.updates] == [F(0), F("0.2")]
    assert [u.fixed for u in trace.updates] == [(2,), (0, 1)]
    assert r == (F("-0.6"), F("-0.4"), F(0))
    for u in trace.updates:
        assert u.achieved == (F(1), F(1), F(1))


def test_ggpc_compound_two_state(comp2):
    r, trace = tp.ggpc(comp2, ["0.5", "0.5"])
    assert r == (F("-0.3"), F("-0.3"))
    assert [u.delta for u in trace.updates] == [F("0.3"), F(0)]
    assert [u.fixed for u in trace.updates] == [(0,), (1,)]
    # every state of the fixed user meets the target exactly
    for vec in comp2.receivers[0]:
        inner = vec[0] + r[0] - max(F(0), vec[1] + r[1])
        assert inner == F("0.5")


def test_ggpc_compound_equals_counterpart_route(comp2):
    direct, _ = tp.ggpc(comp2, ["0.5", "0.5"])
    via, _ = tp.ggpc(tp.regular_counterpart(comp2), ["0.5", "0.5"])
    assert direct == via


def test_ggpc_compound_collapses_on_regular(mix3):
    a, _ = tp.ggpc(mix3, ["0.5", "0.6", "0.7"])
    b, _ = tp.ggpc(mix3, ["0.5", "0.6", "0.7"])
    assert a == b


def test_ggpc_trace_invariants_random():
    rng = random.Random(52)
    checked = 0
    while checked < 30:
        ch = random_compound(rng, K=rng.randint(1, 4))
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        checked += 1
        r, trace = tp.ggpc(ch, d)
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
        sp = tp.shortest_paths(tp.build_reduced(ch, d))
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
        sp = tp.shortest_paths(tp.build_reduced(ch, d))
        assert tp.locally_optimal(ch, sp.l_dst, d)


def test_locally_optimal_examples(mix3):
    d = ["0.5", "0.6", "0.7"]
    assert tp.locally_optimal(mix3, ["-1.2", "-0.4", "-0.7"], d)
    assert not tp.locally_optimal(mix3, ["-0.1", "0", "-0.1"], d)
    with pytest.raises(ValueError):
        tp.locally_optimal(mix3, ["-2", "-2", "-2"], d)


def test_gsfpc_fixed_point_is_locally_optimal(comp2):
    r, _ = tp.gsfpc(comp2, ["0.5", "0.4"])
    assert tp.locally_optimal(comp2, r, ["0.5", "0.4"])


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
    with pytest.raises(tp.GuardExceededError):
        tp.oracle_globally_optimal(ch, [0, 0, 0, 0], [0, 0, 0, 0], "0.01", -10)


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
    r_star, trace = tp.gsfpc(ch, d)
    r0 = trace.iterates[0]
    step = F("0.1")
    grid = [-step * i for i in range(0, 16)]
    for a in grid:
        for b in grid:
            cand = (a, b)
            if any(x > y for x, y in zip(cand, r0)):
                continue
            ach = tp.achieved_gdof(ch, cand)
            if all(x >= y for x, y in zip(ach, d)) and tp.locally_optimal(ch, cand, d):
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
