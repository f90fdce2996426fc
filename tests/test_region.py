import random
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import pytest

import tinpower as tp

from fixtures import (
    grid_value,
    in_full_region,
    pareto_target,
    prime_denominator_channel,
    random_compound,
    random_tin_optimal,
    single,
)
from oracles import (
    cycle_bound_fractions,
    enumerate_cycles,
    grid_member_polyhedral,
    region_constraints_fractions,
    sum_gdof_by_simplex,
    sum_gdof_by_vertices,
    sum_optimal,
    symmetric_gdof_by_bounds,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import random_channel  # noqa: E402


def test_enumerate_cycles_three_users():
    assert set(enumerate_cycles(3)) == {
        (0, 1), (0, 2), (1, 2), (0, 1, 2), (0, 2, 1)}


def test_enumerate_cycles_two_users():
    assert enumerate_cycles(2) == [(0, 1)]


def test_enumerate_cycles_count_four_users():
    cycles = enumerate_cycles(4)
    assert len(cycles) == 20
    assert len(set(cycles)) == 20


def test_enumerate_cycles_guard():
    ch = random_tin_optimal(random.Random(46), K=11, max_states=1)
    with pytest.raises(tp.GuardExceededError, match=r"K <= 10 \(got 11\)"):
        tp.region_constraints(ch)


def _grid_channel(rng, K, states, cross_max, step):
    """Direct strengths in [1, 2] and cross strengths in [0, cross_max] on a
    grid of ``step``; each receiver has ``states`` draws (duplicates merge)."""
    return tp.CompoundChannel.from_lists([
        [[grid_value(rng, F(2), step, lo=F(1)) if j == k else grid_value(rng, cross_max, step)
          for j in range(K)] for _ in range(states)]
        for k in range(K)])


def test_region_constraints_match_fraction_enumeration_seeded():
    # the depth-first search on ints keeps the bounds that summing every
    # enumerated cycle on Fractions keeps: same users, rhs, cycle and order.
    # Coarse grids repeat strengths, so many cycles of one user set tie on
    # rhs and the first of them in permutation order must be the one kept.
    rng = random.Random(47)
    channels = [_grid_channel(rng, K, states, F(cross_max), F(step))
                for K in range(1, 8) for states in (1, 2, 3)
                for cross_max in ("0.5", "1") for step in ("0.5", "0.25", "0.1", "0.01")]
    channels += [_grid_channel(rng, 8, states, F(cross_max), F("0.5"))
                 for states, cross_max in ((1, "0.5"), (2, "1"))]
    channels.append(_grid_channel(rng, 9, 2, F(1), F("0.01")))
    channels += [prime_denominator_channel(rng, K) for K in (3, 6)]
    tied = 0
    for ch in channels:
        got, want = tp.region_constraints(ch), region_constraints_fractions(ch)
        assert got.K == want.K == ch.K
        assert [(c.users, c.rhs, c.cycle) for c in got.constraints] == [
            (c.users, c.rhs, c.cycle) for c in want.constraints]
        tied += len(got.constraints) < ch.K + len(enumerate_cycles(ch.K))
    assert len(channels) >= 150 and tied >= 80


def test_region_constraints_asym3(asym3):
    cons = tp.region_constraints(asym3)
    as_pairs = {(c.users, c.rhs) for c in cons.constraints}
    assert as_pairs == {
        ((0,), F(2)), ((1,), F(2)), ((2,), F(1)),
        ((0, 1), F(2)), ((0, 2), F("2.2")), ((1, 2), F("2.2")),
        ((0, 1, 2), F("3.2")),
    }
    assert len(cons.constraints) == 7  # the two 3-cycles coincide and merge


def test_region_constraints_two_state(comp2):
    cons = tp.region_constraints(comp2)
    assert {(c.users, c.rhs) for c in cons.constraints} == {
        ((0,), F("0.8")), ((1,), F(1)), ((0, 1), F(1))}


def test_region_constraints_single_user():
    cons = tp.region_constraints(single("0.7"))
    assert [(c.users, c.rhs) for c in cons.constraints] == [((0,), F("0.7"))]


def test_region_constraints_match_counterpart_random():
    rng = random.Random(31)
    for _ in range(40):
        ch = random_compound(rng)
        direct = tp.region_constraints(ch)
        via = tp.region_constraints(tp.regular_counterpart(ch).channel)
        assert direct == via


def test_member_examples(asym3):
    assert tp.member(asym3, [1, 1, 1])[0]
    ok, violated = tp.member(asym3, ["1.5", "1", "0.5"])
    assert not ok
    assert violated.users == (0, 1) and violated.rhs == 2
    assert tp.member(asym3, [0, 0, 0])[0]


def test_member_export_lines(asym3):
    cons = tp.region_constraints(asym3)
    lines = cons.export().splitlines()
    assert "1*d1 + 1*d2 + 0*d3 <= 2" in lines
    assert "1*d1 + 1*d2 + 1*d3 <= 3.2" in lines
    assert len(lines) == 7


def test_member_star_deactivation():
    ch = tp.CompoundChannel.from_lists([[["1", "0.6"]], [["0.6", "1"]]])
    assert in_full_region(ch, [1, 0])
    assert not tp.member(ch, [1, 0])[0]  # with user 2 active the pair bound bites
    assert in_full_region(ch, [0, 0])


def test_member_star_equals_union_over_subsets():
    # switching off every zero-target user, as solve_power does, decides the
    # union over all shutdown sets
    rng = random.Random(32)
    for _ in range(40):
        ch = random_compound(rng, K=rng.randint(1, 3))
        d = [rng.choice(["0", "0", "0.3", "0.7"]) for _ in range(ch.K)]
        zeros = [i for i, x in enumerate(d) if x == "0"]
        expected = False
        for m in range(len(zeros) + 1):
            for removed in combinations(zeros, m):
                keep = [i for i in range(ch.K) if i not in removed]
                if not keep:
                    expected = True
                    break
                ok, _ = tp.member(
                    tp.subnetwork(ch, keep), [d[i] for i in keep])
                if ok:
                    expected = True
                    break
            if expected:
                break
        assert in_full_region(ch, d) == expected


def test_member_star_matches_member_when_tin_optimal(sym4):
    rng = random.Random(33)
    for _ in range(30):
        d = [grid_value(rng, F(2)) for _ in range(4)]
        assert in_full_region(sym4, d) == tp.member(sym4, d)[0]


def test_member_star_downward_closed():
    rng = random.Random(34)
    for _ in range(30):
        ch = random_compound(rng, K=rng.randint(1, 3))
        d = [grid_value(rng, F(1)) for _ in range(ch.K)]
        if not in_full_region(ch, d):
            continue
        smaller = [x / 2 if rng.random() < 0.5 else x for x in d]
        assert in_full_region(ch, smaller)


def test_strong_interference_empties_the_region():
    # a negative cycle bound leaves nothing achievable, and both routes and
    # the optimizers agree on that
    ch = tp.CompoundChannel.from_lists([[["1", "2"]], [["2", "1"]]])
    cons = tp.region_constraints(ch)
    assert min(c.rhs for c in cons.constraints) == F(-2)
    assert not tp.member(ch, [0, 0])[0]
    assert not tp.shortest_paths(
        tp.build_full(tp.regular_counterpart(ch), [0, 0])).feasible
    with pytest.raises(tp.EmptyRegionError):
        tp.sum_gdof(ch)
    with pytest.raises(tp.EmptyRegionError):
        tp.symmetric_gdof(ch)
    assert in_full_region(ch, [1, 0])  # one user alone still works


def test_pareto_examples(asym3):
    assert tp.pareto(asym3, [1, 1, 1])
    assert not tp.pareto(asym3, ["0.5", "0.5", "0.5"])
    assert not tp.pareto(asym3, [0, 0, 0])
    with pytest.raises(ValueError):
        tp.pareto(asym3, [3, 3, 3])


def test_sum_gdof_asym3(asym3):
    total, maximizer = tp.sum_gdof(asym3)
    assert total == 3
    assert maximizer == (F("1.2"), F("0.8"), F(1))
    assert tp.member(asym3, maximizer)[0]
    assert sum(maximizer) == total


def test_sum_gdof_sym4(sym4):
    total, maximizer = tp.sum_gdof(sym4)
    assert total == 4
    assert maximizer == (F(1), F(1), F(1), F(1))


def test_sum_gdof_single_user():
    total, maximizer = tp.sum_gdof(single("1"))
    assert total == 1 and maximizer == (F(1),)


def test_sum_gdof_maximizer_is_best_random():
    rng = random.Random(35)
    for _ in range(25):
        ch = random_compound(rng, K=rng.randint(1, 3))
        cons = tp.region_constraints(ch)
        if any(c.rhs < 0 for c in cons.constraints):
            with pytest.raises(tp.EmptyRegionError):
                tp.sum_gdof(ch)
            continue
        total, maximizer = tp.sum_gdof(ch)
        assert tp.member(ch, maximizer, cons)[0]
        # no grid point does better
        for _ in range(40):
            d = [grid_value(rng, F(2)) for _ in range(ch.K)]
            if tp.member(ch, d, cons)[0]:
                assert sum(d) <= total


def test_symmetric_gdof_values(asym3, sym4):
    assert tp.symmetric_gdof(sym4) == 1
    assert tp.symmetric_gdof(asym3) == 1
    assert tp.symmetric_gdof(single("0.7")) == F("0.7")


def test_symmetric_gdof_is_tight(asym3):
    s = tp.symmetric_gdof(asym3)
    assert tp.member(asym3, [s] * 3)[0]
    assert not tp.member(asym3, [s + F(1, 100)] * 3)[0]


def test_symmetric_gdof_checks_its_last_bound(asym3, monkeypatch):
    # (1, 1, 1) at user 3's direct strength is decided "yes" at once, so
    # user 3's bound, which set t = 1, must be tight there; a looser one is
    # refused
    import tinpower.region as region

    real = region.cycle_bound
    monkeypatch.setattr(region, "cycle_bound", lambda a, cycle: real(
        a, cycle)._replace(rhs=real(a, cycle).rhs + 1))
    with pytest.raises(tp.CertificateError, match="is not tight at 1"):
        tp.symmetric_gdof(asym3)


def test_a_yes_carries_checked_int_potentials(asym3, monkeypatch):
    # a "yes" carries its shortest-path lengths scaled onto the graph's
    # lattice, u's 0 last, and `_decide` refuses potentials off that lattice
    # or under which an edge's reduced length w + p[s] - p[t] is negative
    import tinpower.region as region

    verdict = tp.decide(asym3, [1, 1, 1])
    graph, p = verdict.graph, verdict.potentials
    assert p == tuple(x * graph.scale for x in (*verdict.sp.l_dst, F(0)))
    assert all(type(x) is int for x in p)
    assert min(w + p[s] - p[t] for s, t, w in graph.edges) == 0
    assert tp.decide(asym3, [2, 2, 2]).potentials is None
    real = region.shortest_paths
    for l_dst, message in [((F(-1, 3 * graph.scale), F(0), F(0)), "off the graph's lattice"),
                           ((F(-1), F(0), F(0)), "leave a negative edge")]:
        monkeypatch.setattr(region, "shortest_paths",
                            lambda g, l_dst=l_dst: real(g)._replace(l_dst=l_dst))
        with pytest.raises(tp.CertificateError, match=message):
            tp.decide(asym3, [1, 1, 1])


def test_member_allocates_no_more_than_its_decision():
    # the "yes" is checked in `decide` by one pass that keeps no edge list,
    # so `member` holds nothing beside the decision's own graph
    K = 200
    ch = tp.CompoundChannel.from_lists(random_channel(random.Random(2), K, (1, 1)))
    d = [F(1, 100)] * K
    peaks = []
    for answer in (tp.decide, tp.member):
        tracemalloc.start()
        try:
            answer(ch, d)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_a_counterpart_is_its_own(comp2):
    cp = tp.regular_counterpart(comp2)
    assert tp.regular_counterpart(cp) is cp


def test_symmetric_gdof_builds_one_counterpart(monkeypatch):
    # every decision of the Dinkelbach loop runs on the counterpart computed
    # once up front, as ints: no channel is built, so none is checked
    import tinpower.channel as channel
    import tinpower.region as region

    ch = random_tin_optimal(random.Random(5), K=6, max_states=2)
    assert not tp.is_regular(ch)
    checked, built, decided = [], [], []
    real_validate, real_decide = channel.validate, region._decide
    real_counterpart = region.counterpart_lattice
    monkeypatch.setattr(channel, "validate",
                        lambda c: checked.append(c) or real_validate(c))
    monkeypatch.setattr(region, "counterpart_lattice",
                        lambda c: built.append(c) or real_counterpart(c))
    monkeypatch.setattr(region, "_decide",
                        lambda cp, d: decided.append(cp) or real_decide(cp, d))
    t = tp.symmetric_gdof(ch)
    monkeypatch.undo()
    assert t == symmetric_gdof_by_bounds(ch)
    assert len(decided) >= 2 and len({id(cp) for cp in decided}) == 1
    assert built == [ch] and checked == []


def realizations(channel) -> list[tp.RegularChannel]:
    """Every single-state channel that takes one state per receiver."""
    return [tp.RegularChannel(channel.K, tuple((v,) for v in pick))
            for pick in product(*channel.receivers)]


def test_counterpart_region_is_the_realizations_intersection_seeded():
    # the paper's theorem: each bound's rhs on the counterpart is the least
    # rhs of that bound over all prod |S_k| realizations, since receiver k
    # adds one gain per cycle and takes its minimum alone; so a target is in
    # the channel's region exactly when it is in every realization's
    rng = random.Random(92)
    answers = {True: 0, False: 0}
    compound = 0
    for _ in range(60):
        ch = random_compound(rng, K=rng.randint(1, 4), max_states=3, diag_min=F(1))
        reals = realizations(ch)
        compound += len(reals) > 1
        a = tp.regular_counterpart(ch).matrix
        for cycle in [(k,) for k in range(ch.K)] + enumerate_cycles(ch.K):
            assert cycle_bound_fractions(a, cycle).rhs == min(
                cycle_bound_fractions(r.matrix, cycle).rhs for r in reals)
        for _ in range(5):
            d = [grid_value(rng, F("0.5")) for _ in range(ch.K)]
            feasible = tp.decide(ch, d).sp.feasible
            assert feasible == all(tp.decide(r, d).sp.feasible for r in reals)
            answers[feasible] += 1
    assert compound >= 40 and min(answers.values()) >= 50


def test_region_downward_closed_random():
    rng = random.Random(36)
    for _ in range(40):
        ch = random_compound(rng)
        cons = tp.region_constraints(ch)
        d = [grid_value(rng, F(2)) for _ in range(ch.K)]
        if not tp.member(ch, d, cons)[0]:
            continue
        smaller = [x * F(rng.randint(0, 4), 4) for x in d]
        assert tp.member(ch, smaller, cons)[0]


def test_membership_matches_graph_feasibility_random():
    rng = random.Random(37)
    for _ in range(60):
        ch = random_compound(rng)
        d = [grid_value(rng, F(2)) for _ in range(ch.K)]
        ok, _ = tp.member(ch, d, tp.region_constraints(ch))
        sp = tp.shortest_paths(tp.build_full(tp.regular_counterpart(ch), d))
        assert ok == sp.feasible


def test_graph_verdicts_match_enumeration_seeded():
    # the graph route (member, pareto, improvable_users) against the enumerated
    # inequality list on multi-state channels up to K = 7, at grid,
    # symmetric, frontier and sum-maximizer targets; direct strengths of 1
    # and cross strengths <= 1 keep every region non-empty
    rng = random.Random(41)
    for n in range(36):
        ch = random_compound(rng, K=1 + n % 7, alpha_max=F(1), diag_min=F(1))
        cons = tp.region_constraints(ch)
        bounds = {(c.users, c.rhs) for c in cons.constraints}
        targets = [[grid_value(rng, F("1.5")) for _ in range(ch.K)] for _ in range(6)]
        targets += [[tp.symmetric_gdof(ch)] * ch.K, pareto_target(rng, ch)]
        targets.append(tp.sum_gdof(ch)[1])
        for d in targets:
            d = tp.gdof_tuple(d, ch.K)
            ok, violated = tp.member(ch, d)
            assert ok == tp.member(ch, d, cons)[0]
            if not ok:
                assert (violated.users, violated.rhs) in bounds
                assert not violated.holds(d)
                with pytest.raises(ValueError, match="requires a member tuple"):
                    tp.pareto(ch, d)
                continue
            improvable = set(tp.improvable_users(tp.decide(ch, d)))
            assert set(range(ch.K)) - improvable == {
                u for c in cons.constraints if c.slack(d) == 0 for u in c.users}
            assert tp.pareto(ch, d) == tp.pareto(ch, d, cons) == (not improvable)


def test_optima_match_vertex_enumeration_seeded():
    # the sum's circulation and the symmetric optimum against the vertex
    # enumeration of the inequality list, including the lexicographically
    # greatest maximizer and empty regions (about half of these channels
    # have a negative sum bound)
    rng = random.Random(43)
    empty = 0
    for n in range(60):
        ch = random_compound(rng, K=1 + n % 4, alpha_max=F(rng.choice([1, 2])),
                             diag_min=F(rng.choice([0, 1])))
        try:
            expected = (sum_gdof_by_vertices(ch), symmetric_gdof_by_bounds(ch))
        except tp.EmptyRegionError:
            empty += 1
            for optimum in (tp.sum_gdof, tp.symmetric_gdof):
                with pytest.raises(tp.EmptyRegionError, match="a sum bound is negative"):
                    optimum(ch)
            continue
        assert (tp.sum_gdof(ch), tp.symmetric_gdof(ch)) == expected
    assert 10 <= empty <= 50


def test_optima_certified_at_five_to_seven_users():
    rng = random.Random(44)
    for n in range(6):
        ch = random_compound(rng, K=5 + n % 3, alpha_max=F(1), diag_min=F(1))
        cons = tp.region_constraints(ch)
        total, maximizer = tp.sum_gdof(ch)
        assert sum(maximizer) == total and min(maximizer) >= 0
        assert tp.member(ch, maximizer)[0] and tp.member(ch, maximizer, cons)[0]
        assert sum_optimal(ch, maximizer)
        assert tp.symmetric_gdof(ch) == min(
            c.rhs / len(c.users) for c in cons.constraints)


def test_sum_gdof_matches_the_simplex_seeded():
    # the circulation against the potential-form LP past the vertex
    # enumeration's reach: K 5-10, 1-3 states, cross strengths up to 0.5, 1
    # and 2 against direct strengths 1-4, so some regions are empty
    rng = random.Random(47)
    empty, answered = 0, set()
    for n in range(36):
        cross_max = ("0.5", "1", "2")[n % 3]
        ch = tp.CompoundChannel.from_lists(
            random_channel(rng, 5 + n % 6, (1, 3), cross_max=cross_max, direct=("1", "4")))
        try:
            expected = sum_gdof_by_simplex(ch)
        except tp.EmptyRegionError:
            empty += 1
            with pytest.raises(tp.EmptyRegionError, match="a sum bound is negative"):
                tp.sum_gdof(ch)
            continue
        assert tp.sum_gdof(ch) == expected
        answered.add(cross_max)
    assert empty and answered == {"0.5", "1", "2"}


def test_sum_gdof_past_the_old_reach():
    # K = 20, far past the vertex enumeration: the simplex reference's
    # optimum, at a member maximizer on which no user can still be raised alone
    ch = tp.CompoundChannel.from_lists(random_channel(random.Random(20), 20, (2, 2)))
    total, maximizer = tp.sum_gdof(ch)
    assert (total, maximizer) == sum_gdof_by_simplex(ch)
    verdict = tp.decide(ch, maximizer)
    assert verdict.sp.feasible
    assert tp.improvable_users(verdict) == ()


def test_optima_never_enumerate(monkeypatch):
    import tinpower.region as region

    def refuse(a):
        raise AssertionError("cycle enumeration reached")

    monkeypatch.setattr(region, "_cycle_bounds", refuse)
    rng = random.Random(45)
    for K in (5, 12):
        ch = random_tin_optimal(rng, K=K, max_states=2)
        total, maximizer = tp.sum_gdof(ch)
        sym = tp.symmetric_gdof(ch)
        assert tp.member(ch, maximizer)[0] and tp.member(ch, [sym] * K)[0]
        assert not tp.member(ch, [sym + F(1, 100)] * K)[0]
        assert K * sym <= total == sum(maximizer)


# Completeness of the grid oracle needs every feasible target to have a grid
# witness above the floor; a shortest-path witness is bounded below by
# -(K-1) * (alpha_max + d_max), so alpha <= 1, d <= 0.6 keeps K=4 above -5.
def test_membership_matches_grid_power_search_small_k():
    rng = random.Random(38)
    for _ in range(24):
        ch = random_compound(rng, K=rng.randint(1, 3), alpha_max=F("1.5"))
        d = [grid_value(rng, F(1)) for _ in range(ch.K)]
        assert tp.member(ch, d)[0] == grid_member_polyhedral(ch, d)


def test_membership_matches_grid_power_search_four_users():
    rng = random.Random(39)
    for _ in range(2):
        ch = random_compound(rng, K=4, max_states=2, alpha_max=F(1))
        for _ in range(2):
            d = [grid_value(rng, F("0.6")) for _ in range(4)]
            assert tp.member(ch, d)[0] == grid_member_polyhedral(ch, d)
