"""CLI contract fuzzing: generated channel documents and flags through every
command.

Each example writes one channel document (valid, with one malformed field, or
with one hostile number) and runs one command on it through ``cli.main``,
with flags that command declares. The exit code must stay in {0, 1, 2} (a 3
would be a failed certificate, a bug), no exception may escape, and every
``rates`` CSV value must be finite. A flag a command does not declare exits 2.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tinpower.cli import ALGORITHMS, main

CHANNELS = Path(__file__).parent.parent / "channels"

# every command also takes --channel
DECLARED = {
    "validate": {"--json"},
    "tin-check": {"--json"},
    "counterpart": {"--json"},
    "feasible": {"--target", "--json", "--debug-graph"},
    "region": {"--json"},
    "pareto": {"--target", "--json"},
    "power": {"--target", "--alg", "--json", "--debug-graph"},
    "rates": {"--target", "--alg", "--alloc", "--P"},
}
COMMANDS = list(DECLARED)

DIRECT = st.sampled_from(["0.5", "1", "1.5", "2", 2, 1.2])
CROSS = st.sampled_from(["0", "0.2", "0.5", "1", "1/3", 0, 0.7])
HOSTILE = st.sampled_from([
    -1, "-0.5", "1e400", "1e-400", "1e1000000", 10 ** 40, "inf", "nan",
    float("inf"), float("nan"), "1/0", "abc", "", None, True, [], {}])
GDOF = st.sampled_from(["0", "0.1", "0.2", "0.3", "0.5", "1", "1/3"])
EXPONENTS = st.sampled_from(["0", "-0.2", "-0.5", "-1", "-1/3", "-400"])
BAD_VALUES = st.sampled_from(["-0.5", "0.5", "2", "1e400", "-1e400", "nan",
                              "inf", "1/0", "x", ""])
POWERS = st.sampled_from(["10", "1000", "100,1000", "10,1e6"])
BAD_POWERS = st.sampled_from(["1", "0.5", "nan", "inf", "1e400", "x", ""])


@st.composite
def channel_documents(draw, malformed):
    K = draw(st.integers(1, 3))
    receivers = [
        {"states": [[draw(DIRECT if j == k else CROSS) for j in range(K)]
                    for _ in range(draw(st.integers(1, 2)))]}
        for k in range(K)]
    doc = {"K": K, "receivers": receivers}
    if draw(st.booleans()):
        doc["targets"] = [[draw(GDOF) for _ in range(K)]]
    if not malformed:
        return doc
    k = draw(st.integers(0, K - 1))
    mutation = draw(st.sampled_from([
        "number", "number", "K", "receivers", "states", "state", "targets",
        "target", "document", "missing"]))
    if mutation == "number":
        state = receivers[k]["states"][0]
        state[draw(st.integers(0, K - 1))] = draw(HOSTILE)
    elif mutation == "K":
        doc["K"] = draw(st.sampled_from(
            [True, "2", 0, -1, 2.5, None, K + 1, 10 ** 9]))
    elif mutation == "receivers":
        doc["receivers"] = draw(st.sampled_from([None, 3, {}, [None], [[]]]))
    elif mutation == "states":
        receivers[k]["states"] = draw(st.sampled_from([3, None, [], "x", {}]))
    elif mutation == "state":
        receivers[k]["states"][0] = draw(st.sampled_from(
            [3, None, [], ["1"] * (K + 1), {}]))
    elif mutation == "targets":
        doc["targets"] = draw(st.sampled_from([5, None, "1,1", {}]))
    elif mutation == "target":
        doc["targets"] = [draw(st.sampled_from(
            [None, [], [{"a": 1}], "11", [-1] * K, ["nan"] * K]))]
    elif mutation == "document":
        return draw(st.sampled_from([[], 3, "x", None]))
    elif mutation == "missing":
        del doc[draw(st.sampled_from(["K", "receivers"]))]
    return doc


FLAG_FLAWS = ["long target", "short target", "bad target entry", "long alloc",
              "bad alloc entry", "bogus alg", "bad P", "missing flag"]


@st.composite
def invocations(draw, malformed):
    """A command with the flags it declares, out of target, algorithm,
    powers, sometimes an explicit allocation, ``--json`` and
    ``--debug-graph``; at most one of them flawed."""
    doc = draw(channel_documents(malformed))
    K = doc.get("K") if isinstance(doc, dict) else None
    K = K if isinstance(K, int) and 1 <= K <= 3 else 2
    command = draw(st.sampled_from(COMMANDS + ["power", "rates"]))
    target = [draw(GDOF) for _ in range(K)]
    alloc = [draw(EXPONENTS) for _ in range(K)]
    algs = draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1,
                         max_size=2 if command == "rates" else 1))
    powers = draw(POWERS)
    flaw = draw(st.sampled_from([None] * len(FLAG_FLAWS) + FLAG_FLAWS))
    if flaw == "long target":
        target.append(draw(GDOF))
    elif flaw == "short target":
        target.pop()
    elif flaw == "bad target entry":
        target[draw(st.integers(0, K - 1))] = draw(BAD_VALUES)
    elif flaw == "long alloc":
        alloc.append(draw(EXPONENTS))
    elif flaw == "bad alloc entry":
        alloc[draw(st.integers(0, K - 1))] = draw(BAD_VALUES)
    elif flaw == "bogus alg":
        algs.append("bogus")
    elif flaw == "bad P":
        powers = draw(BAD_POWERS)
    values = {"--target": ",".join(target), "--alg": ",".join(algs), "--P": powers}
    if flaw == "missing flag":
        del values[draw(st.sampled_from(sorted(values)))]
    if draw(st.booleans()) or flaw in ("long alloc", "bad alloc entry"):
        values["--alloc"] = ",".join(alloc)
    declared = DECLARED[command]
    flags = [f"{flag}={value}" for flag, value in values.items() if flag in declared]
    flags += [flag for flag in ("--json", "--debug-graph")
              if flag in declared and draw(st.booleans())]
    return doc, command, flags


@pytest.mark.parametrize("malformed", [False, True])
@given(data=st.data())
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_cli_contract_holds_on_generated_documents(tmp_path_factory, malformed, data):
    doc, command, flags = data.draw(invocations(malformed))
    path = tmp_path_factory.mktemp("fuzz") / "channel.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--channel", str(path), *flags])
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if command == "rates" and code == 0:
        header, *rows = out.getvalue().splitlines()
        assert header.startswith("alloc,P,user,rate")
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row.split(",")[1:]), row


# a call each command completes, to which one undeclared flag is added
COMPLETE = {
    "feasible": ["--target", "0.5,0.5"],
    "pareto": ["--target", "0.5,0.5"],
    "power": ["--target", "0.5,0.5", "--alg", "ggpc"],
    "rates": ["--target", "0.5,0.5", "--alg", "ggpc", "--P", "100"],
}
FLAG_VALUES = {"--target": "0.5,0.5", "--alg": "sp", "--alloc": "-0.1,-0.1",
               "--P": "100", "--json": None, "--debug-graph": None}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in COMMANDS for flag in FLAG_VALUES
    if flag not in DECLARED[command]])
def test_undeclared_flags_exit_2(capsys, command, flag):
    value = FLAG_VALUES[flag]
    argv = [command, "--channel", str(CHANNELS / "comp2.json"), *COMPLETE.get(command, [])]
    argv.append(flag if value is None else f"{flag}={value}")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err
