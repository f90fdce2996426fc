import math
from fractions import Fraction as F

import pytest

import tinpower as tp

from fixtures import single


def test_symmetric_full_power_closed_form(sym4):
    report = tp.rates(sym4, [0, 0, 0, 0], 1000)
    expected = math.log2(1 + 1e6 / (1 + 3e3))
    for rate in report.rates:
        assert rate == pytest.approx(expected, abs=1e-12)
    assert report.sum_rate == pytest.approx(4 * expected, abs=1e-9)
    assert report.min_rate == pytest.approx(expected, abs=1e-12)
    assert report.total_power == pytest.approx(4.0)


def test_symmetric_backed_off_closed_form(sym4):
    report = tp.rates(sym4, [-1, -1, -1, -1], 1000)
    expected = math.log2(251)  # 1 + 1000/(1 + 3)
    for rate in report.rates:
        assert rate == pytest.approx(expected, abs=1e-12)
    assert report.total_power == pytest.approx(4e-3)


def test_point_to_point_closed_form():
    report = tp.rates(single("1"), [0], 100)
    assert report.rates[0] == pytest.approx(math.log2(101), abs=1e-12)


def test_two_state_worst_state_limits():
    ch = tp.CompoundChannel.from_lists([[["1", "0.5"], ["0.8", "0.2"]], [["0.5", "1"]]])
    report = tp.rates(ch, [F("-0.3"), F("-0.3")], 1000)
    logp = math.log2(1000.0)
    state_rates = []
    for akk, akj in ((1.0, 0.5), (0.8, 0.2)):
        num = 2.0 ** ((akk - 0.3) * logp)
        den = 1 + 2.0 ** ((akj - 0.3) * logp)
        state_rates.append(math.log2(1 + num / den))
    assert report.rates[0] == pytest.approx(min(state_rates), abs=1e-12)


def test_symmetric_rate_loss_window(sym4):
    full = tp.rates(sym4, [0, 0, 0, 0], 1000)
    backed = tp.rates(sym4, [-1, -1, -1, -1], 1000)
    loss = (full.min_rate - backed.min_rate) / full.min_rate
    assert 0.044 <= loss <= 0.054


def test_energy_efficiency_gap(sym4):
    full = tp.rates(sym4, [0, 0, 0, 0], 1000)
    backed = tp.rates(sym4, [-1, -1, -1, -1], 1000)
    assert backed.efficiency > 100 * full.efficiency
    assert backed.total_power == pytest.approx(4e-3)
    assert full.total_power == pytest.approx(4.0)


def test_rates_requires_p_above_one(sym4):
    with pytest.raises(ValueError):
        tp.rates(sym4, [0, 0, 0, 0], 1)


def test_sweep_appends_baseline_and_sorts(mix3):
    rows = tp.sweep(mix3, [("ggpc", (F("-1.2"), F("-0.4"), F("-0.7")))], [100, 1000])
    names = [name for name, _ in rows]
    assert names == ["full_power", "full_power", "ggpc", "ggpc"]
    powers = [report.P for _, report in rows]
    assert powers == [100, 1000, 100, 1000]


def test_sweep_single_allocation_single_p(sym4):
    rows = tp.sweep(sym4, [("mine", (F(0),) * 4)], [50])
    assert [name for name, _ in rows] == ["full_power", "mine"]
    assert rows[0][1].rates == rows[1][1].rates


def normalized(ch, r, P) -> list[float]:
    """The rates R_k / log2(P) at nominal power P."""
    return [rate / math.log2(P) for rate in tp.rates(ch, r, P).rates]


def test_gdof_limit_walkthrough(mix3):
    r = ["-1.2", "-0.4", "-0.7"]
    achieved = tp.achieved_gdof(mix3, r)
    assert achieved == (F("0.5"), F("0.6"), F("0.7"))
    for norm, target in zip(normalized(mix3, r, 10**6), achieved):
        assert abs(norm - target) < 0.02


def test_gdof_limit_full_power(sym4):
    # the interferer-count constant makes convergence slow: the gap at P is
    # essentially log2(3)/log2(P), about 0.06 at 1e8
    closed = math.log2(1 + 1e16 / (1 + 3e8)) / math.log2(1e8)
    for norm in normalized(sym4, [0, 0, 0, 0], 10**8):
        assert norm == pytest.approx(closed, abs=1e-9)
    for norm in normalized(sym4, [0, 0, 0, 0], 10**48):
        assert abs(norm - 1.0) < 0.01


def test_gdof_limit_point_to_point():
    assert abs(normalized(single("1"), [0], 10**9)[0] - 1.0) < 1e-6


def test_normalized_rates_approach_limit(mix3):
    r = ["-1.2", "-0.4", "-0.7"]
    rows = [normalized(mix3, r, P) for P in (10**2, 10**3, 10**4, 10**5, 10**6)]
    for k, target in enumerate(tp.achieved_gdof(mix3, r)):
        gaps = [abs(row[k] - target) for row in rows]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def test_point_to_point_rate_increasing_in_exponent():
    ch = single("1")
    values = [tp.rates(ch, [F(-i, 10)], 1000).rates[0] for i in range(10)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_efficiency_dominates_full_power_at_same_gdof():
    # when the full-power GDoF tuple is adopted as the target, the minimal
    # allocation achieving it is at least as energy efficient at P >= 1000
    import random

    from fixtures import random_compound

    rng = random.Random(61)
    checked = 0
    while checked < 20:
        ch = random_compound(rng, K=rng.randint(1, 3), diag_min=F(1))
        target = tp.achieved_gdof(ch, [0] * ch.K)
        if any(x == 0 for x in target):
            continue
        checked += 1
        r = tp.solve_power(ch, target, "ggpc").allocation
        full = tp.rates(ch, [0] * ch.K, 1000)
        backed = tp.rates(ch, r, 1000)
        assert backed.efficiency >= full.efficiency


def test_huge_strength_levels_stay_finite():
    ch = tp.CompoundChannel.from_lists([[["300", "150"]], [["150", "300"]]])
    report = tp.rates(ch, [0, 0], 10**6)
    logp = math.log2(1e6)
    for rate in report.rates:
        assert math.isfinite(rate)
        assert rate == pytest.approx((300 - 150) * logp, rel=1e-9)


def test_levels_are_the_floats_of_their_fractions():
    # a sweep converts each allocation's levels once, from ints on each
    # receiver's lcm lattice; every level must be the same double as float()
    # of the Fraction vec[j] + r[j], so rate tables do not move
    import random

    from fixtures import prime_denominator_channel, random_compound
    from tinpower.rates import _levels

    rng = random.Random(65)
    channels = [prime_denominator_channel(rng, 12)]
    channels += [random_compound(rng, K=rng.randint(1, 6), step=F(1, 7))
                 for _ in range(20)]
    for ch in channels:
        r = [-F(rng.randint(0, 10**6), rng.choice([3, 7, 10**5 + 3]))
             for _ in range(ch.K)]
        levels, exponents = _levels(ch, r)
        assert exponents == [float(x) for x in r]
        assert levels == [[[float(v + x) for v, x in zip(vec, r)] for vec in states]
                          for states in ch.receivers]
        assert _levels(ch, [-F(10**400)] + [F(0)] * (ch.K - 1)) is None
