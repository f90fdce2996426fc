import json
from pathlib import Path

import pytest

import tinpower as tp
from tinpower.cli import main

CHANNELS = Path(__file__).parent.parent / "channels"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--channel", str(CHANNELS / "comp2.json"))
    assert code == 0
    assert "channel OK" in out


def test_validate_negative_strength(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {
        "K": 2,
        "receivers": [{"states": [["-0.5", "1"]]}, {"states": [["0", "1"]]}],
    })
    code, out, _ = run(capsys, "validate", "--channel", path, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["error"]["receiver"] == 1


def test_validate_dimension_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {
        "K": 2,
        "receivers": [{"states": [["1", "0", "0"]]}, {"states": [["0", "1"]]}],
    })
    code, out, _ = run(capsys, "validate", "--channel", path)
    assert code == 1
    assert "expected 2" in out


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"K": 2,')
    code, _, err = run(capsys, "validate", "--channel", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "--channel", "/no/such/file.json")
    assert code == 2


def test_tin_check_true(capsys):
    code, out, _ = run(capsys, "tin-check", "--channel", str(CHANNELS / "comp2.json"))
    assert code == 0
    assert "yes" in out


def test_tin_check_false_with_witness(tmp_path, capsys):
    path = write(tmp_path, "strong.json", {
        "K": 2,
        "receivers": [{"states": [["1", "0.6"]]}, {"states": [["0.6", "1"]]}],
    })
    code, out, _ = run(capsys, "tin-check", "--channel", path, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["tin_optimal"] is False
    assert set(doc["witness"]) >= {"user", "state"}


def test_counterpart_values_and_round_trip(tmp_path, capsys):
    code, out, _ = run(
        capsys, "counterpart", "--channel", str(CHANNELS / "comp2.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["receivers"][0]["states"] == [["0.8", "0.3"]]
    assert doc["receivers"][1]["states"] == [["0.5", "1"]]
    # the emitted document re-parses to exactly the counterpart channel
    reparsed = tp.CompoundChannel.from_lists(
        [rx["states"] for rx in doc["receivers"]], K=doc["K"])
    source = tp.CompoundChannel.from_lists(
        [[["1", "0.5"], ["0.8", "0.2"]], [["0.5", "1"]]])
    assert reparsed == tp.regular_counterpart(source).channel
    # and the file is itself loadable by every command
    path = write(tmp_path, "cp.json", doc)
    code2, out2, _ = run(capsys, "counterpart", "--channel", path, "--json")
    assert code2 == 0
    assert json.loads(out2)["receivers"] == doc["receivers"]


def test_feasible_yes(capsys):
    code, out, _ = run(
        capsys, "feasible", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "1,1,1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True and doc["routes_agree"] is True
    assert doc["l_dst"] == ["-0.4", "-0.2", "0"]


def test_feasible_no_with_witnesses(capsys):
    code, out, _ = run(
        capsys, "feasible", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "2,2,0", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["violated_constraint"]["users"] == [1, 2]
    assert doc["violated_constraint"]["rhs"] == "2"
    assert doc["negative_cycle"]["length"] == "-2"


def test_feasible_dimension_mismatch_exits_2(capsys):
    code, _, err = run(
        capsys, "feasible", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "1,1")
    assert code == 2


def test_region_export(capsys):
    code, out, _ = run(capsys, "region", "--channel", str(CHANNELS / "asym3.json"))
    assert code == 0
    lines = out.splitlines()
    assert "1*d1 + 1*d2 + 0*d3 <= 2" in lines
    assert "1*d1 + 1*d2 + 1*d3 <= 3.2" in lines
    assert "# sum GDoF 3 at (1.2, 0.8, 1)" in lines
    assert "# symmetric GDoF 1" in lines


def test_region_json_matches_text_numbers(capsys):
    code, out, _ = run(
        capsys, "region", "--channel", str(CHANNELS / "asym3.json"), "--json")
    doc = json.loads(out)
    assert doc["sum_gdof"] == "3"
    assert doc["symmetric_gdof"] == "1"
    rhs = sorted(c["rhs"] for c in doc["constraints"])
    assert rhs == sorted(["2", "2", "1", "2", "2.2", "2.2", "3.2"])


def test_pareto_yes_and_no(capsys):
    code, out, _ = run(
        capsys, "pareto", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "1,1,1")
    assert code == 0
    code2, out2, _ = run(
        capsys, "pareto", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "0.5,0.5,0.5", "--json")
    assert code2 == 1
    doc = json.loads(out2)
    assert doc["member"] is True and doc["pareto"] is False
    assert doc["improvable_users"]


def test_pareto_outside_region(capsys):
    code, out, _ = run(
        capsys, "pareto", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "3,3,3", "--json")
    assert code == 1
    assert json.loads(out)["member"] is False


def test_power_ggpc_trace(capsys):
    code, out, _ = run(
        capsys, "power", "--channel", str(CHANNELS / "mix3.json"),
        "--target", "0.5,0.6,0.7", "--alg", "ggpc", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["allocation"] == ["-1.2", "-0.4", "-0.7"]
    assert doc["trace"]["initial"] == ["-0.1", "0", "-0.1"]
    assert [u["delta"] for u in doc["trace"]["updates"]] == ["0.4", "0.2", "0.5"]
    assert [u["fixed"] for u in doc["trace"]["updates"]] == [[2], [3], [1]]
    assert doc["achieved"] == ["0.5", "0.6", "0.7"]


def test_power_sp(capsys):
    code, out, _ = run(
        capsys, "power", "--channel", str(CHANNELS / "mix3.json"),
        "--target", "0.5,0.6,0.7", "--alg", "sp", "--json")
    doc = json.loads(out)
    assert doc["allocation"] == ["-0.1", "0", "-0.1"]
    assert doc["trace"] is None


def test_power_ggpc_compound_via_counterpart(capsys):
    code, out, _ = run(
        capsys, "power", "--channel", str(CHANNELS / "comp2.json"),
        "--target", "0.5,0.5", "--alg", "ggpc", "--json")
    doc = json.loads(out)
    assert doc["via_counterpart"] is True
    assert doc["allocation"] == ["-0.3", "-0.3"]
    code2, out2, _ = run(
        capsys, "power", "--channel", str(CHANNELS / "comp2.json"),
        "--target", "0.5,0.5", "--alg", "ggpc-c", "--json")
    doc2 = json.loads(out2)
    assert doc2["via_counterpart"] is False
    assert doc2["allocation"] == doc["allocation"]


def test_power_zero_target_silent_user(capsys):
    code, out, _ = run(
        capsys, "power", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "1,0,1", "--alg", "ggpc", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["allocation"][1] == "silent"
    assert doc["silent_users"] == [2]
    assert doc["achieved"][1] == "0"


def test_power_infeasible_target(capsys):
    code, out, _ = run(
        capsys, "power", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "2,2,0.5", "--alg", "gsfpc", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["negative_cycle"]["vertices"]


def test_power_gsfpc_trace(capsys):
    code, out, _ = run(
        capsys, "power", "--channel", str(CHANNELS / "mix3.json"),
        "--target", "0.5,0.6,0.7", "--alg", "gsfpc", "--json")
    doc = json.loads(out)
    assert doc["allocation"] == ["-1.2", "-0.4", "-0.7"]
    assert doc["trace"]["converged"] is True
    assert doc["trace"]["iterates"][0] == ["-0.1", "0", "-0.1"]


def test_debug_graph_dump(capsys):
    code, _, err = run(
        capsys, "feasible", "--channel", str(CHANNELS / "comp2.json"),
        "--target", "0.5,0.5", "--debug-graph")
    assert code == 0
    assert "# reduced potential graph" in err
    assert "# full potential graph" in err
    assert any(len(line.split()) == 3 for line in err.splitlines())


def test_route_disagreement_exits_3(capsys, monkeypatch):
    # the two feasibility routes cannot disagree for real inputs, so force it
    import tinpower.cli as cli

    monkeypatch.setattr(cli, "member", lambda ch, d, cons=None: (False, None))
    code, _, err = run(
        capsys, "feasible", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "1,1,1")
    assert code == 3
    assert "cross-check" in err


def test_rates_csv_gap(capsys):
    code, out, _ = run(
        capsys, "rates", "--channel", str(CHANNELS / "sym4.json"),
        "--alg", "sp,ggpc", "--target", "1,1,1,1", "--P", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alloc,P,user,rate,sum_rate,min_rate,total_power,efficiency"
    rows = [line.split(",") for line in lines[1:]]
    names = {row[0] for row in rows}
    # sp resolves to full power, which the baseline row already covers
    assert names == {"full_power", "ggpc"}
    by_name = {name: [r for r in rows if r[0] == name] for name in names}
    assert len(by_name["ggpc"]) == 4
    full_min = float(by_name["full_power"][0][5])
    ggpc_min = float(by_name["ggpc"][0][5])
    loss = (full_min - ggpc_min) / full_min
    assert 0.044 <= loss <= 0.054


def test_rates_explicit_zero_allocation_baseline_only(capsys):
    code, out, _ = run(
        capsys, "rates", "--channel", str(CHANNELS / "sym4.json"),
        "--alloc", "0,0,0,0", "--P", "1000")
    assert code == 0
    rows = out.splitlines()[1:]
    assert all(row.startswith("full_power,") for row in rows)
    assert len(rows) == 4


def test_rates_uses_file_targets(capsys):
    code, out, _ = run(
        capsys, "rates", "--channel", str(CHANNELS / "mix3.json"),
        "--alg", "ggpc", "--P", "100,1000,10000")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    ggpc_rows = [r for r in rows if r[0] == "ggpc"]
    assert len(ggpc_rows) == 9  # 3 users x 3 powers


def test_rates_normalized_rates_approach_target(capsys):
    import math

    code, out, _ = run(
        capsys, "rates", "--channel", str(CHANNELS / "asym3.json"),
        "--alg", "ggpc", "--target", "1,1,1", "--P", "100,1000,10000")
    rows = [line.split(",") for line in out.splitlines()[1:] if line.startswith("ggpc")]
    for user in ("1", "2", "3"):
        ordered = sorted((r for r in rows if r[2] == user), key=lambda r: float(r[1]))
        norms = [abs(float(r[3]) / math.log2(float(r[1])) - 1.0) for r in ordered]
        assert norms[0] > norms[-1]


def test_rates_requires_positive_targets(capsys):
    code, _, err = run(
        capsys, "rates", "--channel", str(CHANNELS / "asym3.json"),
        "--alg", "ggpc", "--target", "1,0,1", "--P", "1000")
    assert code == 2


def test_rates_requires_alloc_or_alg(capsys):
    code, _, err = run(
        capsys, "rates", "--channel", str(CHANNELS / "asym3.json"), "--P", "1000")
    assert code == 2


@pytest.mark.parametrize("command, strength, flags", [
    ("validate", float("inf"), []),     # JSON Infinity
    ("validate", float("nan"), []),     # JSON NaN
    ("validate", "inf", []),
    ("validate", "1/0", []),
    ("validate", "1e1000000", []),      # exponent beyond the parse limit
    ("feasible", "2", ["--target", "1/0,0.5"]),
    ("rates", "1e400", ["--alloc=-0.1,-0.1", "--P", "10"]),
    ("rates", "2", ["--alloc=-0.1,-0.1", "--P", "1e400"]),
    ("rates", "2", ["--alloc=-0.1,-0.1", "--P", "nan"]),
])
def test_hostile_numbers_exit_2(tmp_path, capsys, command, strength, flags):
    path = write(tmp_path, "hostile.json", {
        "K": 2,
        "receivers": [{"states": [[strength, "0.5"]]}, {"states": [["0.5", "1"]]}],
    })
    code, _, err = run(capsys, command, "--channel", path, *flags)
    assert code == 2
    assert "Traceback" not in err
