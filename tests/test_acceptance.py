"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All exact claims are checked on rationals with zero tolerance; the finite-SNR
claims use the stated windows.
"""

import random
from fractions import Fraction as F

import tinpower as tp

from fixtures import (
    asym3,
    feasible_grid_target,
    grid_value,
    lopsided2,
    mix3,
    pareto_target,
    random_compound,
    sym4,
)


def _report(num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {desc}", flush=True)
    assert not failures, f"criterion {num}: " + " | ".join(failures)


def _check(failures: list, condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def _random_instance(rng: random.Random) -> tp.CompoundChannel:
    return random_compound(
        rng,
        K=rng.randint(1, 4),
        max_states=3,
        alpha_max=F(2),
        diag_min=rng.choice([F(0), F("0.5"), F(1)]),
    )


def test_criterion_1_control_trace_reproduction():
    failures = []
    ch = mix3()
    target = (F("0.5"), F("0.6"), F("0.7"))
    r, trace = tp.ggpc(ch, target)
    _check(failures, trace.r0 == (F("-0.1"), F(0), F("-0.1")),
           f"initial allocation {trace.r0}")
    _check(failures, [u.delta for u in trace.updates] == [F("0.4"), F("0.2"), F("0.5")],
           f"deltas {[u.delta for u in trace.updates]}")
    _check(failures, [u.fixed for u in trace.updates] == [(1,), (2,), (0,)],
           f"fixing order {[u.fixed for u in trace.updates]}")
    _check(failures, trace.updates[0].r == (F("-0.5"), F("-0.4"), F("-0.5")),
           f"first update allocation {trace.updates[0].r}")
    _check(failures, trace.updates[0].achieved == (F(1), F("0.6"), F("0.9")),
           f"first update achieved {trace.updates[0].achieved}")
    _check(failures, trace.updates[1].r == (F("-0.7"), F("-0.4"), F("-0.7")),
           f"second update allocation {trace.updates[1].r}")
    _check(failures, trace.updates[1].achieved == (F(1), F("0.6"), F("0.7")),
           f"second update achieved {trace.updates[1].achieved}")
    _check(failures, r == (F("-1.2"), F("-0.4"), F("-0.7")), f"final allocation {r}")
    _check(failures, tp.achieved_gdof(ch, r) == target,
           f"final achieved {tp.achieved_gdof(ch, r)}")
    _report(1, "K-update control trace reproduced exactly", failures)


def test_criterion_2_region_reproduction():
    failures = []
    ch = asym3()
    # fixture structure: per receiver the stronger interfering link is twice
    # the weaker one, and the weak-interference condition holds
    matrix = tp.regular_counterpart(ch).matrix
    for k in range(3):
        cross = sorted(matrix[k][j] for j in range(3) if j != k)
        _check(failures, cross[1] == 2 * cross[0],
               f"receiver {k} interferer ratio {cross}")
    _check(failures, tp.tin_optimal(ch)[0], "fixture not TIN-optimal")

    cons = tp.region_constraints(ch)
    expected = {
        ((0,), F(2)), ((1,), F(2)), ((2,), F(1)),
        ((0, 1), F(2)), ((0, 2), F("2.2")), ((1, 2), F("2.2")),
        ((0, 1, 2), F("3.2")),
    }
    got = {(c.users, c.rhs) for c in cons.constraints}
    _check(failures, got == expected, f"constraint set {sorted(got)}")
    _check(failures, len(cons.constraints) == 7,
           f"{len(cons.constraints)} constraints after merging")
    total, _ = tp.sum_gdof(ch)
    _check(failures, total == 3, f"sum GDoF {total}")
    _check(failures, tp.symmetric_gdof(ch) == 1,
           f"symmetric GDoF {tp.symmetric_gdof(ch)}")
    _check(failures, tp.symmetric_gdof(sym4()) == 1,
           f"symmetric GDoF (symmetric channel) {tp.symmetric_gdof(sym4())}")
    _report(2, "region inequalities and optima reproduced exactly", failures)


def test_criterion_3_finite_snr_reproduction():
    failures = []
    ch = sym4()
    target = (F(1),) * 4
    r_ggpc, _ = tp.ggpc(ch, target)
    _check(failures, r_ggpc == (F(-1),) * 4, f"ggpc allocation {r_ggpc}")
    full = tp.rates(ch, (F(0),) * 4, 1000)
    backed = tp.rates(ch, r_ggpc, 1000)
    loss = (full.min_rate - backed.min_rate) / full.min_rate
    _check(failures, 0.044 <= loss <= 0.054, f"symmetric-rate loss {loss:.4f}")
    r_gsfpc, _ = tp.gsfpc(ch, target)
    _check(failures, r_gsfpc == (F(0),) * 4, f"gsfpc allocation {r_gsfpc}")
    _report(3, "finite-SNR symmetric-rate loss in [0.044, 0.054], "
               "fixed point at full power", failures)


def test_criterion_4_equivalence_properties():
    failures = []
    rng = random.Random(1004)
    counterpart_targets = 0
    for idx in range(500):
        ch = _random_instance(rng)
        cp = tp.regular_counterpart(ch)
        cons = tp.region_constraints(ch)

        # (a) inequality membership vs graph feasibility, full and reduced
        for _ in range(2):
            d = tuple(grid_value(rng, F(2)) for _ in range(ch.K))
            ok = tp.member(ch, d, cons)[0]
            full = tp.shortest_paths(tp.build_full(ch, d))
            reduced = tp.shortest_paths(tp.build_reduced(ch, d))
            if not (ok == full.feasible == reduced.feasible):
                failures.append(
                    f"instance {idx}: routes disagree on {d}: "
                    f"{ok}/{full.feasible}/{reduced.feasible}")
                break
            if full.feasible and full.l_dst != reduced.l_dst:
                failures.append(f"instance {idx}: l_dst differs on {d}")
                break

        # (b) the counterpart preserves achieved GDoF for any valid r
        for _ in range(10):
            r = tuple(-grid_value(rng, F(2)) for _ in range(ch.K))
            if tp.achieved_gdof(ch, r) != tp.achieved_gdof(cp, r):
                failures.append(f"instance {idx}: achieved GDoF differs at {r}")
                break

        # (c) compound control equals control on the counterpart
        d = feasible_grid_target(rng, ch)
        if d is not None:
            counterpart_targets += 1
            r_c, _ = tp.ggpc(ch, d)
            r_r, _ = tp.ggpc(cp, d)
            if r_c != r_r:
                failures.append(f"instance {idx}: control outputs differ on {d}")
        if len(failures) > 5:
            break
    _check(failures, counterpart_targets >= 150,
           f"only {counterpart_targets} instances had positive feasible targets")
    _report(4, "membership/graph equivalence, counterpart-preserved GDoF, "
               f"matching control outputs (500 instances, "
               f"{counterpart_targets} with targets)", failures)


def test_criterion_5_global_optimality_oracle():
    failures = []
    rng = random.Random(1005)
    confirmed = 0
    attempts = 0
    while confirmed < 100 and attempts < 3000:
        attempts += 1
        ch = random_compound(
            rng, K=rng.randint(1, 3), max_states=3,
            alpha_max=F("1.5"), diag_min=rng.choice([F("0.5"), F(1)]))
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        confirmed += 1
        r_c, _ = tp.ggpc(ch, d)
        r_r, _ = tp.ggpc(tp.regular_counterpart(ch), d)
        if r_c != r_r:
            failures.append(f"control outputs differ on {d}")
        if not tp.oracle_globally_optimal(ch, r_c, d, F("0.1"), F(-5)):
            failures.append(f"grid search found an undercutting achiever for {d}")
        if len(failures) > 5:
            break
    _check(failures, confirmed == 100, f"only {confirmed} feasible targets found")
    _report(5, "grid oracle confirms the control output on 100 targets", failures)


def test_criterion_6_shortest_path_dominance():
    failures = []
    rng = random.Random(1006)
    tested = 0
    while tested < 100:
        ch = _random_instance(rng)
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        tested += 1
        sp = tp.shortest_paths(tp.build_reduced(ch, d))
        achieved = tp.achieved_gdof(ch, sp.l_dst)
        if not all(a >= t for a, t in zip(achieved, d)):
            failures.append(f"{d}: shortest-path allocation achieves {achieved}")
        if len(failures) > 5:
            break
    for ch, d in ((mix3(), (F("0.5"), F("0.6"), F("0.7"))),
                  (asym3(), (F(1), F(1), F(1)))):
        sp = tp.shortest_paths(tp.build_reduced(ch, d))
        achieved = tp.achieved_gdof(ch, sp.l_dst)
        _check(failures, all(a >= t for a, t in zip(achieved, d)),
               f"anchor {d}: achieved {achieved}")
    _report(6, "shortest-path allocation dominates every feasible target "
               "(100 random + anchors)", failures)


def test_criterion_7_pareto_full_power():
    failures = []
    rng = random.Random(1007)
    tested = 0
    while tested < 100:
        ch = _random_instance(rng)
        d = pareto_target(rng, ch)
        if d is None:
            continue
        if not tp.pareto(ch, d):
            failures.append(f"greedy tightening missed the frontier at {d}")
            break
        tested += 1
        sp = tp.shortest_paths(tp.build_reduced(ch, d))
        if not sp.feasible or max(sp.l_dst) != 0:
            failures.append(f"{d}: l_dst {sp.l_dst} has no full-power user")
        if len(failures) > 5:
            break
    _report(7, "every Pareto-optimal target leaves one user at full power "
               "(100 instances)", failures)


def test_criterion_8_fixed_point_behavior():
    failures = []
    rng = random.Random(1008)
    tested = 0
    while tested < 50:
        ch = _random_instance(rng)
        d = feasible_grid_target(rng, ch)
        if d is None:
            continue
        tested += 1
        r_fix, trace = tp.gsfpc(ch, d)
        for a, b in zip(trace.iterates, trace.iterates[1:]):
            if not all(x >= y for x, y in zip(a, b)):
                failures.append(f"{d}: iterates not non-increasing")
                break
        if not tp.locally_optimal(ch, r_fix, d):
            failures.append(f"{d}: fixed point not locally optimal")
        r_min, _ = tp.ggpc(ch, d)
        if not all(x >= y for x, y in zip(r_fix, r_min)):
            failures.append(f"{d}: fixed point below the global optimum")
        if len(failures) > 5:
            break
    ch = mix3()
    r_fix, trace = tp.gsfpc(ch, ("0.5", "0.6", "0.7"))
    _check(failures, r_fix == (F("-1.2"), F("-0.4"), F("-0.7")),
           f"anchor fixed point {r_fix}")
    _check(failures, trace.iterates.index(r_fix) <= 8,
           f"anchor needed {trace.iterates.index(r_fix)} iterations")
    _report(8, "fixed-point iterates decrease to a locally optimal point above "
               "the global optimum (50 instances + anchor)", failures)


def test_criterion_9_weak_interference_implication():
    failures = []
    rng = random.Random(1009)
    antecedent = 0
    for idx in range(200):
        if rng.random() < 0.5:
            ch = random_compound(rng, K=rng.randint(2, 4), max_states=3,
                                 alpha_max=F("0.5"))
            # lift the direct links so the condition often holds
            lifted = [
                [[str(x + (F(1) if i == k else F(0))) for i, x in enumerate(vec)]
                 for vec in states]
                for k, states in enumerate(ch.receivers)]
            ch = tp.CompoundChannel.from_lists(lifted)
        else:
            ch = _random_instance(rng)
        if tp.tin_optimal(ch)[0]:
            antecedent += 1
            if not tp.tin_optimal(tp.regular_counterpart(ch).channel)[0]:
                failures.append(f"instance {idx}: counterpart lost the condition")
    _check(failures, antecedent >= 40,
           f"only {antecedent} instances satisfied the condition")
    fixture = lopsided2()
    _check(failures, not tp.tin_optimal(fixture)[0],
           "constructed fixture unexpectedly passes the condition")
    _check(failures, tp.tin_optimal(tp.regular_counterpart(fixture).channel)[0],
           "constructed fixture's counterpart fails the condition")
    _report(9, "condition propagates to the counterpart (200 instances, "
               f"{antecedent} antecedents) and the converse fails on a fixture",
            failures)


def test_criterion_10_gdof_limit():
    failures = []
    ch = mix3()
    r, _ = tp.ggpc(ch, ("0.5", "0.6", "0.7"))
    result = tp.gdof_limit_check(ch, r, [10**6])
    for norm, target in zip(result.normalized[-1], (0.5, 0.6, 0.7)):
        _check(failures, abs(norm - target) < 0.02,
               f"normalized rate {norm:.4f} vs {target}")
    _report(10, "normalized rates at P=1e6 within 0.02 of the target", failures)
