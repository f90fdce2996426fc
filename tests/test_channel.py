import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tinpower as tp
from fixtures import comp2, lopsided2, random_compound, random_tin_optimal, sym4


def test_validate_minimal_channel():
    ch = tp.CompoundChannel.from_lists([[["1"]]])
    assert tp.validate(ch) is None
    assert ch.K == 1 and ch.state_counts == (1,)


def test_validate_dimension_mismatch():
    ch = tp.CompoundChannel(2, (((F(1), F(0), F(0)),), ((F(0), F(1)),)))
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.validate(ch)
    assert err.value.receiver == 0 and err.value.state == 0


def test_validate_negative_strength():
    ch = tp.CompoundChannel(2, (((F("-0.5"), F(0)),), ((F(0), F(1)),)))
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.validate(ch)
    assert err.value.receiver == 0
    assert "negative" in str(err.value)


def test_validate_empty_state_set():
    ch = tp.CompoundChannel(1, ((),))
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.validate(ch)
    assert err.value.receiver == 0


def test_duplicate_states_dropped_on_load():
    ch = tp.CompoundChannel.from_lists(
        [[["1", "0.5"], ["1", "0.5"], ["0.8", "0.2"]], [["0.5", "1"]]])
    assert ch.state_counts == (2, 1)


def test_floats_parse_via_decimal_rendering():
    ch = tp.CompoundChannel.from_lists([[[0.1]]])
    assert ch.receivers[0][0][0] == F(1, 10)


def test_tin_optimal_symmetric(sym4):
    ok, witness = tp.tin_optimal(sym4)
    assert ok and witness is None


def test_tin_optimal_strong_interference_false():
    ch = tp.CompoundChannel.from_lists([[["1", "0.6"]], [["0.6", "1"]]])
    ok, witness = tp.tin_optimal(ch)
    assert not ok
    assert witness.user in (0, 1)
    # the witness must actually violate the inequality it names
    direct = ch.receivers[witness.user][witness.state][witness.user]
    caused = ch.receivers[witness.in_user][witness.in_state][witness.user]
    received = ch.receivers[witness.user][witness.state][witness.out_user]
    assert direct < caused + received


def test_tin_optimal_two_state(comp2):
    ok, _ = tp.tin_optimal(comp2)
    assert ok
    # exhaustive restatement of the condition over all state combinations
    for i in range(comp2.K):
        for li, vec in enumerate(comp2.receivers[i]):
            for j in range(comp2.K):
                if j == i:
                    continue
                for lj, other in enumerate(comp2.receivers[j]):
                    received = max(vec[k] for k in range(comp2.K) if k != i)
                    assert vec[i] >= other[i] + received


def test_counterpart_two_state(comp2):
    cp = tp.regular_counterpart(comp2)
    assert cp.matrix == ((F("0.8"), F("0.3")), (F("0.5"), F(1)))


def test_counterpart_identity_on_regular(sym4):
    cp = tp.regular_counterpart(sym4)
    assert cp.channel == sym4


def test_counterpart_mixes_states():
    # direct link from one state, power-level gain from the other
    ch = tp.CompoundChannel.from_lists(
        [[["2", "1"], ["1.5", "0.2"]], [["0", "1"]]])
    cp = tp.regular_counterpart(ch)
    assert cp.matrix[0] == (F("1.5"), F("0.5"))


def test_counterpart_idempotent_random():
    rng = random.Random(7)
    for _ in range(50):
        ch = random_compound(rng)
        once = tp.regular_counterpart(ch)
        twice = tp.regular_counterpart(once.channel)
        assert once.matrix == twice.matrix


def test_counterpart_minima_bounds_random():
    rng = random.Random(8)
    for _ in range(50):
        ch = random_compound(rng)
        matrix = tp.regular_counterpart(ch).matrix
        for k, states in enumerate(ch.receivers):
            assert all(matrix[k][k] <= vec[k] for vec in states)
            for j in range(ch.K):
                if j != k:
                    assert matrix[k][j] <= max(vec[j] for vec in states)
                    assert matrix[k][j] >= 0


def test_tin_optimal_propagates_to_counterpart():
    rng = random.Random(9)
    hits = 0
    for _ in range(100):
        ch = random_tin_optimal(rng) if rng.random() < 0.5 else random_compound(rng)
        if tp.tin_optimal(ch)[0]:
            hits += 1
            assert tp.tin_optimal(tp.regular_counterpart(ch).channel)[0]
    assert hits >= 20


def test_tin_optimal_converse_fails(lopsided2):
    assert not tp.tin_optimal(lopsided2)[0]
    assert tp.tin_optimal(tp.regular_counterpart(lopsided2).channel)[0]


def test_from_joint_set_projects_rows():
    joint = tp.JointStateSet.from_lists([
        [["1", "0.5"], ["0.3", "1"]],
        [["0.8", "0.2"], ["0.4", "1.1"]],
    ])
    ch = tp.from_joint_set(joint)
    assert ch.state_counts == (2, 2)
    assert ch.receivers[0] == ((F(1), F("0.5")), (F("0.8"), F("0.2")))


def test_from_joint_set_single_state_is_regular():
    joint = tp.JointStateSet.from_lists([[["1", "0.5"], ["0.3", "1"]]])
    ch = tp.from_joint_set(joint)
    assert tp.is_regular(ch)


def test_from_joint_set_dedups_coinciding_rows():
    joint = tp.JointStateSet.from_lists([
        [["1", "0.5"], ["0.3", "1"]],
        [["0.8", "0.2"], ["0.3", "1"]],
    ])
    ch = tp.from_joint_set(joint)
    assert ch.state_counts == (2, 1)


def test_from_joint_set_state_count_bound():
    rng = random.Random(10)
    for _ in range(20):
        K = rng.randint(1, 3)
        mats = [
            [[rng.choice(["0", "0.5", "1"]) for _ in range(K)] for _ in range(K)]
            for _ in range(rng.randint(1, 4))]
        joint = tp.JointStateSet.from_lists(mats)
        ch = tp.from_joint_set(joint)
        assert all(n <= len(mats) for n in ch.state_counts)


def test_from_entrywise_sets_min_max():
    sets = tp.EntrywiseSets.from_lists(
        [[["1", "2"], ["0.1", "0.5"]], [["0.3"], ["1"]]])
    reg = tp.from_entrywise_sets(sets)
    assert reg.matrix == ((F(1), F("0.5")), (F("0.3"), F(1)))


def test_from_entrywise_sets_singletons():
    sets = tp.EntrywiseSets.from_lists([[["1.5"], ["0.2"]], [["0.4"], ["2"]]])
    assert tp.from_entrywise_sets(sets).matrix == (
        (F("1.5"), F("0.2")), (F("0.4"), F(2)))


def test_from_entrywise_sets_three_user_offdiag():
    grid = [[["2"] if i == j else ["0", "1"] for j in range(3)] for i in range(3)]
    reg = tp.from_entrywise_sets(tp.EntrywiseSets.from_lists(grid))
    for i in range(3):
        for j in range(3):
            assert reg.matrix[i][j] == (F(2) if i == j else F(1))


def test_subnetwork_projects_and_dedups():
    ch = tp.CompoundChannel.from_lists([
        [["1", "0.5", "0.2"], ["1", "0.5", "0.9"]],
        [["0.3", "1", "0.1"]],
        [["0.2", "0.4", "2"]],
    ])
    sub = tp.subnetwork(ch, [0, 1])
    assert sub.K == 2
    assert sub.state_counts == (1, 1)  # the two states coincide after projection
    assert sub.receivers[0][0] == (F(1), F("0.5"))


def test_regular_channel_rejects_multi_state(comp2):
    with pytest.raises(tp.ChannelValidationError):
        tp.RegularChannel.of(comp2)


@given(st.lists(
    st.fractions(min_value=0, max_value=4).map(lambda q: q.limit_denominator(20)),
    min_size=2, max_size=9))
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(values):
    for q in values:
        assert tp.parse_rational(tp.render_rational(q)) == q


MIX3_MATRIX = [["2", "0.4", "1"], ["0.5", "1", "0.5"], ["0.4", "0.5", "1.5"]]
MIX3_TARGET = ["0.5", "0.6", "0.7"]


def _ggpc_allocation(ch):
    return tp.ggpc(ch, MIX3_TARGET)[0]


CHANNEL_CALLS = {
    "validate": tp.validate,
    "is_regular": tp.is_regular,
    "tin_optimal": tp.tin_optimal,
    "regular_counterpart": tp.regular_counterpart,
    "subnetwork": lambda ch: tp.subnetwork(ch, [0, 2]),
    "build_full": lambda ch: tp.build_full(ch, MIX3_TARGET),
    "build_reduced": lambda ch: tp.build_reduced(ch, MIX3_TARGET),
    "region_constraints": tp.region_constraints,
    "member": lambda ch: tp.member(ch, MIX3_TARGET),
    "member_star": lambda ch: tp.member_star(ch, ["0.5", "0", "0.7"]),
    "pareto": lambda ch: tp.pareto(ch, MIX3_TARGET),
    "sum_gdof": tp.sum_gdof,
    "symmetric_gdof": tp.symmetric_gdof,
    "achieved_gdof": lambda ch: tp.achieved_gdof(ch, ["-0.1", "0", "-0.2"]),
    "achieved_gdof_polyhedral":
        lambda ch: tp.achieved_gdof_polyhedral(ch, _ggpc_allocation(ch)),
    "gsfpc": lambda ch: tp.gsfpc(ch, MIX3_TARGET),
    "ggpc": lambda ch: tp.ggpc(ch, MIX3_TARGET),
    "locally_optimal":
        lambda ch: tp.locally_optimal(ch, _ggpc_allocation(ch), MIX3_TARGET),
    "oracle_globally_optimal": lambda ch: tp.oracle_globally_optimal(
        ch, _ggpc_allocation(ch), MIX3_TARGET, "0.1", "-1"),
    "solve_power": lambda ch: [
        tp.solve_power(ch, ["0.5", "0", "0.7"], alg)
        for alg in ("sp", "gsfpc", "ggpc", "ggpc-c")],
    "rates": lambda ch: tp.rates(ch, ["-0.1", "0", "-0.2"], 100),
    "sweep": lambda ch: tp.sweep(ch, [("x", ["-0.1", "0", "-0.2"])], [10, 100]),
    "gdof_limit_check":
        lambda ch: tp.gdof_limit_check(ch, ["-0.1", "0", "-0.2"], [10, 100]),
}


@pytest.mark.parametrize("name", CHANNEL_CALLS)
def test_regular_channel_reads_as_its_channel(name):
    call = CHANNEL_CALLS[name]
    reg = tp.RegularChannel.from_matrix(MIX3_MATRIX)
    assert call(reg) == call(reg.channel)
