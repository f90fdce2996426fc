import random
from fractions import Fraction as F
from types import ModuleType

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
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.CompoundChannel(2, (((F(1), F(0), F(0)),), ((F(0), F(1)),)))
    assert err.value.receiver == 0 and err.value.state == 0


def test_validate_negative_strength():
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.CompoundChannel(2, (((F("-0.5"), F(0)),), ((F(0), F(1)),)))
    assert err.value.receiver == 0
    assert "negative" in str(err.value)


@pytest.mark.parametrize("entry, shown", [(F(-3, 2), "-1.5"), (-2, "-2"), (-0.1, "-0.1")],
                         ids=["fraction", "int", "float"])
def test_validate_negative_entry_of_each_number_type(entry, shown):
    # the sign is read off the numerator where there is one; a float has
    # none and is compared as it is, and is shown as it is written
    tp.CompoundChannel(2, (((1, 0.0), (F(1), 0)), ((0.5, F(1)),)))
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.CompoundChannel(2, (((1, 0.5), (F(1), entry)), ((0, 1),)))
    assert (err.value.receiver, err.value.state, str(err.value)) == (
        0, 1, f"receiver 0 state 1 has negative strength {shown}")


def test_validate_rejects_bool_user_count():
    with pytest.raises(tp.ChannelValidationError):
        tp.validate(tp.CompoundChannel(True, (((F(1),),),)))


def test_validate_empty_state_set():
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.CompoundChannel(1, ((),))
    assert err.value.receiver == 0


@pytest.mark.parametrize("build, receiver, state, message", [
    (lambda valid: tp.CompoundChannel(2, valid.receivers[:1] + (
        ((F(0), F(1)), (F(1, 2), F(-1, 3))),)),
     1, 1, "receiver 1 state 1 has negative strength -1/3"),
    (lambda valid: valid._replace(K=3), None, None, "expected 3 receivers, got 2"),
    (lambda valid: tp.CompoundChannel._make((3, valid.receivers)), None, None,
     "expected 3 receivers, got 2"),
], ids=["negative-entry", "replaced-K", "made-K"])
def test_channels_are_checked_when_built(build, receiver, state, message):
    valid = tp.CompoundChannel.from_lists([[["1", "0.5"]], [["0.5", "1"]]])
    with pytest.raises(tp.ChannelValidationError) as err:
        build(valid)
    assert (err.value.receiver, err.value.state, str(err.value)) == (
        receiver, state, message)


def test_duplicate_states_dropped_on_load():
    ch = tp.CompoundChannel.from_lists(
        [[["1", "0.5"], ["1", "0.5"], ["0.8", "0.2"]], [["0.5", "1"]]])
    assert ch.state_counts == (2, 1)
    # equal values merge however they are written, first occurrences in order
    ch = tp.CompoundChannel.from_lists(
        [[["0.8", "0.2"], ["1", "0.5"], ["1/1", "1/2"], ["4/5", "0.20"]], [["0.5", "1"]]])
    assert ch.receivers[0] == ((F("0.8"), F("0.2")), (F(1), F("0.5")))


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


def test_regular_channel_refuses_a_multi_state_channel(comp2):
    # its matrix reads state 0 and regular_counterpart returns it as it is,
    # so a multi-state channel must not get in: not through the
    # constructor, `_make` or `_replace(receivers=...)`
    for build in (lambda channel: tp.RegularChannel(*channel), tp.RegularChannel._make,
                  lambda channel: tp.regular_counterpart(channel)._replace(
                      receivers=channel.receivers)):
        with pytest.raises(tp.ChannelValidationError, match="one state per receiver"):
            build(comp2)


def test_a_regular_channel_is_a_checked_compound_channel(comp2):
    # one value, checked once where it is built: no wrapper to unwrap
    built = {
        "regular_counterpart": tp.regular_counterpart(comp2),
        "from_matrix": tp.RegularChannel.from_matrix([["0.8", "0.3"], ["0.5", "1"]]),
        "from_entrywise_sets": tp.from_entrywise_sets(
            [[["0.8", "1"], ["0.3"]], [["0.5"], ["1", "2"]]]),
    }
    for name, regular in built.items():
        assert type(regular) is tp.RegularChannel, name
        assert isinstance(regular, tp.CompoundChannel), name
        assert regular.channel is regular, name
        assert regular == tp.CompoundChannel(*regular), name
        assert regular.matrix == ((F("0.8"), F("0.3")), (F("0.5"), F(1))), name
    with pytest.raises(tp.ChannelValidationError, match="expected 2 receivers"):
        tp.RegularChannel(2, comp2.receivers[:1])


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
    ch = tp.from_joint_set([
        [["1", "0.5"], ["0.3", "1"]],
        [["0.8", "0.2"], ["0.4", "1.1"]],
    ])
    assert ch.state_counts == (2, 2)
    assert ch.receivers[0] == ((F(1), F("0.5")), (F("0.8"), F("0.2")))


def test_from_joint_set_single_state_is_regular():
    ch = tp.from_joint_set([[["1", "0.5"], ["0.3", "1"]]])
    assert tp.is_regular(ch)


def test_from_joint_set_dedups_coinciding_rows():
    ch = tp.from_joint_set([
        [["1", "0.5"], ["0.3", "1"]],
        [["0.8", "0.2"], ["0.3", "1"]],
    ])
    assert ch.state_counts == (2, 1)


def test_from_joint_set_state_count_bound():
    rng = random.Random(10)
    for _ in range(20):
        K = rng.randint(1, 3)
        mats = [
            [[rng.choice(["0", "0.5", "1"]) for _ in range(K)] for _ in range(K)]
            for _ in range(rng.randint(1, 4))]
        ch = tp.from_joint_set(mats)
        assert all(n <= len(mats) for n in ch.state_counts)


def test_from_entrywise_sets_min_max():
    reg = tp.from_entrywise_sets(
        [[["1", "2"], ["0.1", "0.5"]], [["0.3"], ["1"]]])
    assert reg.matrix == ((F(1), F("0.5")), (F("0.3"), F(1)))


def test_from_entrywise_sets_singletons():
    grid = [[["1.5"], ["0.2"]], [["0.4"], ["2"]]]
    assert tp.from_entrywise_sets(grid).matrix == (
        (F("1.5"), F("0.2")), (F("0.4"), F(2)))


def test_from_entrywise_sets_three_user_offdiag():
    grid = [[["2"] if i == j else ["0", "1"] for j in range(3)] for i in range(3)]
    reg = tp.from_entrywise_sets(grid)
    for i in range(3):
        for j in range(3):
            assert reg.matrix[i][j] == (F(2) if i == j else F(1))


@pytest.mark.parametrize("convert, data", [
    (tp.from_joint_set, []),
    (tp.from_joint_set, [[["1", "0"], ["0", "1"]], [["1", "0"]]]),      # rows
    (tp.from_joint_set, [[["1", "0"], ["0"]]]),                         # ragged row
    (tp.from_joint_set, [[["1", "0"], ["0", "1"]], [["1", "-0.5"], ["0", "1"]]]),
    (tp.from_entrywise_sets, [[["1"], []], [["0"], ["1"]]]),            # empty cell
    (tp.from_entrywise_sets, [[["1"], ["-0.5", "1"]], [["0"], ["1"]]]),  # max hides it
    (tp.from_entrywise_sets, [[["1"], ["0"]], [["1"]]]),                # ragged grid
    (tp.from_entrywise_sets, [["12"]]),                                 # string cell
    (tp.from_entrywise_sets, [[[None]]]),                               # null literal
], ids=["joint-empty", "joint-rows", "joint-ragged", "joint-negative",
        "entrywise-empty-cell", "entrywise-negative", "entrywise-ragged",
        "entrywise-string-cell", "entrywise-null-literal"])
def test_converters_reject_malformed_sets(convert, data):
    with pytest.raises(tp.ChannelValidationError):
        convert(data)


@pytest.mark.parametrize("grid, receiver, message", [
    ([["12"]], 0, "entry (0,0) must be a list or tuple"),
    ([[["1"], ["0"]], None], 1, "row 1 must be a list or tuple"),
    ([[["1"], ["0"]], [["0"], [None]]], 1,
     "entry (1,1): cannot interpret NoneType as a rational"),
    ([[["1"], ["0", "x"]], [["0"], ["1"]]], 0,
     "entry (0,1): not a decimal or p/q rational: 'x'"),
], ids=["string-cell", "null-row", "null-literal", "bad-literal"])
def test_entrywise_refusals_name_the_entry(grid, receiver, message):
    # a string cell is no set, though it iterates: it is refused, not read
    # by character, and a refused literal is never a bare TypeError
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.from_entrywise_sets(grid)
    assert (str(err.value), err.value.receiver) == (message, receiver)


@pytest.mark.parametrize("convert, data, message", [
    (tp.CompoundChannel.from_lists, [["12"], ["34"]], "receiver 1 has a non-array state"),
    (tp.from_joint_set, [["12", "34"]], "receiver 1 has a non-array state"),
    (tp.RegularChannel.from_matrix, ["12", "34"], "receiver 1 has a non-array state"),
    (tp.CompoundChannel.from_lists, ["12"], 'receiver 1: "states" must be an array'),
    (tp.CompoundChannel.from_lists, [[["1", "x"]]],
     "receiver 1: not a decimal or p/q rational: 'x'"),
    (tp.CompoundChannel.from_lists, [[["1", None]]],
     "receiver 1: cannot interpret NoneType as a rational"),
    (tp.CompoundChannel.from_lists, [[["1", "0.5"]], [["0.5", "1"], "y"]],
     "receiver 2 has a non-array state"),
], ids=["lists-string-states", "joint-string-rows", "matrix-string-rows", "lists-string",
        "lists-bad-literal", "lists-null-literal", "lists-second-receiver"])
def test_literal_lists_are_refused_naming_the_receiver(convert, data, message):
    # a string is no state, though it iterates: it is refused, not read by
    # character, and a refused literal is a plain ValueError, never a TypeError
    with pytest.raises(ValueError) as err:
        convert(data)
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_literal_lists_may_be_tuples():
    lists = tp.CompoundChannel.from_lists([[["1", "0.5"], [1, 0.5]], [["0.5", "1"]]])
    tuples = tp.CompoundChannel.from_lists(((("1", "0.5"), (1, 0.5)), (("0.5", "1"),)))
    assert lists == tuples and lists.state_counts == (1, 1)


@pytest.mark.parametrize("convert, data", [
    (tp.RegularChannel.from_matrix, [["1", "0.5"], ["0.3", "1"]]),
    (tp.from_entrywise_sets, [[["1", "2"], ["0.1", "0.5"]], [["0.3"], ["1"]]]),
], ids=["from-matrix", "entrywise"])
def test_converters_validate_once(convert, data, monkeypatch):
    import tinpower.channel as channel

    checked = []
    real = channel.validate
    monkeypatch.setattr(channel, "validate", lambda ch: checked.append(ch) or real(ch))
    convert(data)
    assert len(checked) == 1


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
    return tp.solve_power(ch, MIX3_TARGET, "ggpc").allocation


CHANNEL_CALLS = {
    "validate": tp.validate,
    "is_regular": tp.is_regular,
    "tin_optimal": tp.tin_optimal,
    "regular_counterpart": tp.regular_counterpart,
    "subnetwork": lambda ch: tp.subnetwork(ch, [0, 2]),
    "build_full": lambda ch: tp.build_full(ch, MIX3_TARGET),
    "region_constraints": tp.region_constraints,
    "member": lambda ch: tp.member(ch, MIX3_TARGET),
    "pareto": lambda ch: tp.pareto(ch, MIX3_TARGET),
    "sum_gdof": tp.sum_gdof,
    "symmetric_gdof": tp.symmetric_gdof,
    "achieved_gdof": lambda ch: tp.achieved_gdof(ch, ["-0.1", "0", "-0.2"]),
    "gsfpc": lambda ch: tp.solve_power(ch, MIX3_TARGET, "gsfpc"),
    "ggpc": lambda ch: tp.solve_power(ch, MIX3_TARGET, "ggpc"),
    "oracle_globally_optimal": lambda ch: tp.oracle_globally_optimal(
        ch, _ggpc_allocation(ch), MIX3_TARGET, "0.1", "-1"),
    "solve_power": lambda ch: [
        tp.solve_power(ch, ["0.5", "0", "0.7"], alg)
        for alg in ("sp", "gsfpc", "ggpc", "ggpc-c")],
    "rates": lambda ch: tp.rates(ch, ["-0.1", "0", "-0.2"], 100),
    "sweep": lambda ch: tp.sweep(ch, [("x", ["-0.1", "0", "-0.2"])], [10, 100]),
}


@pytest.mark.parametrize("name", CHANNEL_CALLS)
def test_regular_channel_reads_as_its_channel(name):
    call = CHANNEL_CALLS[name]
    reg = tp.RegularChannel.from_matrix(MIX3_MATRIX)
    assert call(reg) == call(tp.CompoundChannel(*reg))


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate edit of this list;
    # submodules are reached as attributes, never exported (``rates`` is the
    # function, which shadows its submodule)
    assert sorted(tp.__all__) == sorted([
        "CompoundChannel", "RegularChannel", "TinViolation", "from_entrywise_sets",
        "from_joint_set", "is_regular", "regular_counterpart", "subnetwork",
        "tin_optimal", "validate",
        "CertificateError", "ChannelValidationError", "EmptyRegionError",
        "GuardExceededError", "InfeasibleTargetError", "NonConvergenceError",
        "PotentialGraph", "ShortestPathResult", "U", "build_full", "shortest_paths",
        "GgpcTrace", "GgpcUpdate", "GsfpcTrace", "PowerSolution", "achieved_gdof",
        "oracle_globally_optimal", "solve_power",
        "RateReport", "rates", "sweep",
        "Constraint", "RegionConstraints", "decide", "improvable_users", "member",
        "pareto", "region_constraints", "sum_gdof", "symmetric_gdof",
        "gdof_tuple", "parse_rational", "power_exponents", "render_rational",
    ])
    assert all(not isinstance(getattr(tp, name), ModuleType) for name in tp.__all__)
