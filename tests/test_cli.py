import contextlib
import gc
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import tinpower as tp
from tinpower import cli
from tinpower.cli import ALGORITHMS, load_channel_file, main

from fixtures import (
    grid_value,
    in_full_region,
    prime_denominator_channel,
    random_compound,
    random_tin_optimal,
)
from oracles import bellman_ford_fractions, cmd_region_whole, fraction_edges

ROOT = Path(__file__).resolve().parent.parent
CHANNELS = ROOT / "channels"


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
    assert doc["error"]["message"] == "receiver 1 state 1 has negative strength -0.5"


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
    assert run(capsys, "validate", "--channel", str(path)) == (
        2, "", f"error: {path}: JSON parse error at line 1, column 9: "
               "Expecting property name enclosed in double quotes\n")


TWO_USERS = [{"states": [["1", "0.5"]]}, {"states": [["0.5", "1"]]}]


# every refusal of a parsed document names the file
@pytest.mark.parametrize("doc, message", [
    ([], "channel document must be a JSON object"),
    ({"receivers": TWO_USERS}, 'channel document is missing "K"'),
    ({"K": 2}, 'channel document is missing "receivers"'),
    ({"K": True, "receivers": [{"states": [["1"]]}]}, '"K" must be an integer'),
    ({"K": 2, "receivers": {}}, '"receivers" must be an array'),
    ({"K": 2, "receivers": [5, TWO_USERS[1]]}, 'receiver 1 must be an object with "states"'),
    ({"K": 2, "receivers": [{"states": 3}, TWO_USERS[1]]},
     'receiver 1: "states" must be an array'),
    ({"K": 2, "receivers": [{"states": ["12"]}, TWO_USERS[1]]},
     "receiver 1 has a non-array state"),
    ({"K": 2, "receivers": [{"states": [["1", "x"]]}, TWO_USERS[1]]},
     "receiver 1: not a decimal or p/q rational: 'x'"),
    ({"K": 2, "receivers": TWO_USERS, "targets": 5}, '"targets" must be an array'),
    ({"K": 2, "receivers": TWO_USERS, "targets": [None]}, "bad target None: not an array"),
    ({"K": 2, "receivers": TWO_USERS, "targets": [[{"a": 1}]]},
     "bad target [{'a': 1}]: cannot interpret dict as a rational"),
    ({"name": {"a": 1}, "K": 2, "receivers": TWO_USERS}, '"name" must be a string'),
], ids=["array", "no-K", "no-receivers", "K-bool", "receivers-object", "receiver-number",
        "states-number", "state-string", "literal", "targets-number", "target-null",
        "target-object", "name-object"])
@pytest.mark.parametrize("command", ["validate", "counterpart"])
def test_malformed_documents_exit_2(tmp_path, capsys, doc, message, command):
    path = write(tmp_path, "malformed.json", doc)
    assert run(capsys, command, "--channel", path, "--json") == (
        2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("name", [None, ""])
def test_null_or_empty_name_falls_back_to_the_path(tmp_path, capsys, name):
    path = write(tmp_path, "unnamed.json", {"name": name, "K": 2, "receivers": TWO_USERS})
    code, out, _ = run(capsys, "validate", "--channel", path, "--json")
    assert code == 0 and json.loads(out)["channel"] == path


def test_missing_file_exits_2(capsys):
    path = "/no/such/file.json"
    assert run(capsys, "validate", "--channel", path) == (
        2, "", f"error: {path}: [Errno 2] No such file or directory: '{path}'\n")


@pytest.mark.parametrize("command", ["validate", "tin-check"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, command):
    # a UTF-16 file with its byte-order mark: a channel file is read as
    # UTF-8, and its decoding error names the file like any unreadable one
    path = tmp_path / "utf16.json"
    doc = json.dumps({"K": 2, "receivers": TWO_USERS})
    path.write_bytes(b"\xff\xfe" + doc.encode("utf-16-le"))
    assert run(capsys, command, "--channel", str(path)) == (
        2, "", f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n")


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
        [rx["states"] for rx in doc["receivers"]])
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
    assert doc["feasible"] is True and "routes_agree" not in doc
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


# sha256 of the region reports that summing each enumerated cycle on
# Fractions printed; the int depth-first enumeration must print the same bytes
REGION_DIGESTS = {
    ("asym3.json", False): "fb0ddf3ff2c22ffd3cc1be1d9cb094624f44b439f83a313a6c8c854e1077880a",
    ("asym3.json", True): "ed6f1352610a860c52fee1b14ad7c9bcca52a6768009bce1d0031cccf89f301d",
    ("comp2.json", False): "4737724ae36fe732945644240775089f9e7f450c14469c990b3926005025eaa0",
    ("comp2.json", True): "d074a6578747c66cd697e86055114e835041d408158a8cf03458b10e7ef627ae",
    ("mix3.json", False): "0979a01a1d2552dc4ec92914b141475f63a55b057d28e699d0b6ee28d40df7f5",
    ("mix3.json", True): "840e2ec3d153d8a07ce5eb0b44935a915bfa91d67456855a4bdcd0cea252f601",
    ("sym4.json", False): "250c996cd96be6732b1795724d4be16d087e6b11dd20d788a6994dd8d0af5f2b",
    ("sym4.json", True): "cdcde3f5241e1546a43c455305820e77017aa2b1dadc18e877378c52f7d3c17e",
}


def test_region_reports_keep_their_bytes(capsys):
    for (name, as_json), digest in REGION_DIGESTS.items():
        argv = ["region", "--channel", str(CHANNELS / name)] + ["--json"] * as_json
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, as_json)


# every other command's report on each sample file and the file's own target,
# in text and JSON (rates writes CSV only)
SAMPLES = ("asym3", "comp2", "mix3", "sym4")
REPORT_CALLS = [
    f"{name} {call}{flag}"
    for name in SAMPLES
    for call in ("validate", "tin-check", "counterpart", "feasible", "pareto",
                 *(f"power --alg {alg}" for alg in ALGORITHMS))
    for flag in ("", " --json")
] + [f"{name} rates --alg sp,gsfpc,ggpc,ggpc-c --P 10,1000"
     for name in SAMPLES]

# sha256 of json.dumps([exit code, stdout, stderr]), recorded before the
# report heads were written by one helper (`cli._head`)
REPORT_DIGESTS = {
    "asym3 validate":
        "4652350b31275df1bcb9586ca90f56cdb24fba05fade0432387140591b0c9a85",
    "asym3 validate --json":
        "04f0ac66031e7d80e7df02e2b146a20d95f718a481129af79d6a39cc095e8391",
    "asym3 tin-check":
        "ebab80d7b2887ef4ea6c3918393c11e2640a7fc7990071e59649cc3faf42fce0",
    "asym3 tin-check --json":
        "da2c521f5937271bc2298212ba06728c3e41989037eeeae4829550453aa1ced3",
    "asym3 counterpart":
        "d6fe80a1bb8a849017a6590845defc8130f09fe251838aa2ff635c1d626c76e0",
    "asym3 counterpart --json":
        "099e4c2882b01f02baa6021c82611b050aba6ad5744d9e8bf53c2b64e31f2b42",
    "asym3 feasible":
        "5cedff0b741dfd0b9139c7ee5d58cdd7e43c4e31644d669c04dd226953090a2d",
    "asym3 feasible --json":
        "41ae2c5527713a432c1bb4fafd89f92ca9654a4b11a3311a38cc685b6dc6fd4b",
    "asym3 pareto":
        "71fa139862a474b79d7ac02d62b36c5b4bdb0d76b3923d4761a03deab9f85184",
    "asym3 pareto --json":
        "061a8cb15f0235d6bb5888fc6926ea3895beb01d795abf929d72cb1206317fbd",
    "asym3 power --alg sp":
        "14ed452b667f30906390ed92b57619a9ea0b5c087404429fb7dbcaa2aa173b58",
    "asym3 power --alg sp --json":
        "728e1dba1c020c2fd8e5bcf76a810d92d353a465b38d76da5ddb881e071187b7",
    "asym3 power --alg gsfpc":
        "14ed452b667f30906390ed92b57619a9ea0b5c087404429fb7dbcaa2aa173b58",
    "asym3 power --alg gsfpc --json":
        "44d325694f096f754ab33c05a9b79cce1a9f0a56512d56d2c8be548a2c458d4b",
    "asym3 power --alg ggpc":
        "2bf5a348f6149c64b23b03c6a9706cc14d2b0930675164ed2c3c56651c87580c",
    "asym3 power --alg ggpc --json":
        "923eb117dee6d7428b4c960600589e4a6724731689bb450c71f7a8edb5ec3691",
    "asym3 power --alg ggpc-c":
        "2bf5a348f6149c64b23b03c6a9706cc14d2b0930675164ed2c3c56651c87580c",
    "asym3 power --alg ggpc-c --json":
        "9d14e71f6e77af8fdede70561955157503de65fc43a37496ce63ad9bb4586a0e",
    "comp2 validate":
        "ab34e3246fd01085ebcd0c6245d426dbeb2dc412a2d6786e6720a819cc2ffdde",
    "comp2 validate --json":
        "d919fae16c5252498375954d95933078274070243e0adef67cdf94f063030ec5",
    "comp2 tin-check":
        "ebab80d7b2887ef4ea6c3918393c11e2640a7fc7990071e59649cc3faf42fce0",
    "comp2 tin-check --json":
        "379b06f5498df92f3481b50282660a51c0e74ffbcde2d4a2c4b9d289a17df893",
    "comp2 counterpart":
        "c4f5899bfd0b35f0a4a7057ee74044bae702d9748e028476b59cd86e3a774ed9",
    "comp2 counterpart --json":
        "853dcf831eaa097ff16f2987ce3b9c0818905fbd6a76f9742bd6e77b8811d2fe",
    "comp2 feasible":
        "d37a0669f7bff91b38c72ab366027b14706ce286283e8881ef3db980f6d73fb7",
    "comp2 feasible --json":
        "7126e4e1c2aa373460f4394e740b684407234ccd26ad81d2e5d548d85f33a82c",
    "comp2 pareto":
        "71fa139862a474b79d7ac02d62b36c5b4bdb0d76b3923d4761a03deab9f85184",
    "comp2 pareto --json":
        "5a17d3cc09d542836ac124a8667cb6341bb966fd2a80aedbb341299b6d29406b",
    "comp2 power --alg sp":
        "84c9974e00fdacca696875adc4d24d210d7ae3d2ad4aff4310e53caff1e1dcbb",
    "comp2 power --alg sp --json":
        "29fd78aa0742f7f0bed79607cb1b7c62b9c06b26359a7a2c1f7f16cd5230d8e1",
    "comp2 power --alg gsfpc":
        "84c9974e00fdacca696875adc4d24d210d7ae3d2ad4aff4310e53caff1e1dcbb",
    "comp2 power --alg gsfpc --json":
        "6110d3c6c9a53694f42e47f987ef75b63552bed6dc578c9556ca46b645a8f771",
    "comp2 power --alg ggpc":
        "8d8df271b70182c6110dee21e35e33f64360a44e4dcc866d89f939a0c577b13b",
    "comp2 power --alg ggpc --json":
        "04ae79397c992896a5d586de42f064b904522c37231ae06b5256ea2ffa3836a1",
    "comp2 power --alg ggpc-c":
        "c49a47c59f9b98af90ca437ea0abe9be0b717f498cf1e173d3593e46ef5b8a22",
    "comp2 power --alg ggpc-c --json":
        "56f68b6225ad491e0854f58f4aecdb85cb62b558f4c4924c69cc03182db5c4a4",
    "mix3 validate":
        "4652350b31275df1bcb9586ca90f56cdb24fba05fade0432387140591b0c9a85",
    "mix3 validate --json":
        "b4453170bc6b53887e6704445acac4cabdf8f59181cb11f1f87257c344c5a727",
    "mix3 tin-check":
        "ebab80d7b2887ef4ea6c3918393c11e2640a7fc7990071e59649cc3faf42fce0",
    "mix3 tin-check --json":
        "dcf928f8439e9301daf5b6f0fab58e0c63f83ac0b409b4bbe63f0d6ed2138453",
    "mix3 counterpart":
        "002fb97251ccaf69184382c4f0f3052980a39e570eb83b57cda6281a84b03271",
    "mix3 counterpart --json":
        "4765a509ea471ab6c2368904ffda63c4a95c9e8842ab5b2354c46e4311162491",
    "mix3 feasible":
        "dba332abe48bc3f837d5cdce47b33ddf6e1122f0b6aea9a97ffaa0b7cbae61e2",
    "mix3 feasible --json":
        "f61f998a0ca4b5eb7473e5172710a9f5b75240d1f7be2b174687ded18c8802ca",
    "mix3 pareto":
        "4e5f750a3068c714bace8d57519b218e7963e015a9a958f8a72242e27654c2c9",
    "mix3 pareto --json":
        "c337113799f273a416db4813f0b521afea44c1c9e5fac25fce9cf46d656af512",
    "mix3 power --alg sp":
        "bea6756c4aaacd1569fa7929d60184769a2ee461c540b405bc37586646da714d",
    "mix3 power --alg sp --json":
        "b8a0ef45410500af4379cd854e144ee66a019bb472c6f1c899a9b8dd5481317a",
    "mix3 power --alg gsfpc":
        "edd0547d5b1e103e5643c83b472551fb62cdadc945096c645a6528eff17b3216",
    "mix3 power --alg gsfpc --json":
        "c8809a72052e2ab4ae64298ed300a05c7a7f30a390d0d40d962b63001bd29de3",
    "mix3 power --alg ggpc":
        "edd0547d5b1e103e5643c83b472551fb62cdadc945096c645a6528eff17b3216",
    "mix3 power --alg ggpc --json":
        "99bdc01eb08a91a9195250be0d8d2e94f7be638bb4b092cf68fa5e15bb1b26d2",
    "mix3 power --alg ggpc-c":
        "edd0547d5b1e103e5643c83b472551fb62cdadc945096c645a6528eff17b3216",
    "mix3 power --alg ggpc-c --json":
        "8b389cd608f29bd9827b65eba5f097c55e42cdf8b023d7b2fae809611f0eb2f4",
    "sym4 validate":
        "1e32c27d144a880784c105512ccb4d96af73ee9f76eacbc5a543d1b5271a3308",
    "sym4 validate --json":
        "3feefef9847fb6e2675db1b064ce0a94d999a56ae3875f3e8402d0a87909fd47",
    "sym4 tin-check":
        "ebab80d7b2887ef4ea6c3918393c11e2640a7fc7990071e59649cc3faf42fce0",
    "sym4 tin-check --json":
        "d26988ce02b1d9b1905232d1829dfc0ec5a5f9ce069a1341e69427454e15da88",
    "sym4 counterpart":
        "c59ac84ca980c109b44c8f805812333c6c0cf945fddd6480e59a7bc8edaa1072",
    "sym4 counterpart --json":
        "3f2671203b434f68cf78870f9eb26ab915bd41f1e34f9f11b4597da8cd8d82cb",
    "sym4 feasible":
        "9af2b5cbf5863168def618ffb7b7f4bf6392ca7f66af299b4d33d948dfeeed54",
    "sym4 feasible --json":
        "03b055bbc379fe437a303e1dad94122669dce04c5ee8363334c9e11a039c887c",
    "sym4 pareto":
        "71fa139862a474b79d7ac02d62b36c5b4bdb0d76b3923d4761a03deab9f85184",
    "sym4 pareto --json":
        "6df38fce982c864390b57be280e31910ebf9f55b1ac056d5f2e0c3e33585393e",
    "sym4 power --alg sp":
        "2e6425ab855938842f8667bd1bcb21c033df4716049a189ba01735055155f895",
    "sym4 power --alg sp --json":
        "832c8bfb1423ff7845b34be29c4de036deaea42ea2139a34615a86a06ee31ea3",
    "sym4 power --alg gsfpc":
        "2e6425ab855938842f8667bd1bcb21c033df4716049a189ba01735055155f895",
    "sym4 power --alg gsfpc --json":
        "a7b8903aa4561e985e4e431b5c274d8bee10482f2836c3846cecaf249ba73ba2",
    "sym4 power --alg ggpc":
        "492ccc77eb8e092c27cd4cfdbe388a64ab6f08646641db9bc653005d3d82ad02",
    "sym4 power --alg ggpc --json":
        "d7e4194549921d3dcb7887c545a75391c75f9e94b7a1853f29f22bba53b2c6e8",
    "sym4 power --alg ggpc-c":
        "492ccc77eb8e092c27cd4cfdbe388a64ab6f08646641db9bc653005d3d82ad02",
    "sym4 power --alg ggpc-c --json":
        "b9b969bfcc1393984466993da855be7a38b4576b1cd95599997ccc3b970c8e5e",
    "asym3 rates --alg sp,gsfpc,ggpc,ggpc-c --P 10,1000":
        "e6c2d0415d9229c44edd0929fc6a00561cfb858418df424004b2287ac0a851df",
    "comp2 rates --alg sp,gsfpc,ggpc,ggpc-c --P 10,1000":
        "f000f050f4174efb1ea3ad6c92cf46a4bf4d7d3b04d8dbd6d48931c37d677288",
    "mix3 rates --alg sp,gsfpc,ggpc,ggpc-c --P 10,1000":
        "005f641ba76c1aa6b6463551d620c3683168a750c4405fad492b28b2e7eb7674",
    "sym4 rates --alg sp,gsfpc,ggpc,ggpc-c --P 10,1000":
        "aae4a5ddbd38d2a7284d4b679479af1c650267d0bde4e7fa262b6215a386db79",
}


def report_argv(call: str) -> list[str]:
    name, command, *flags = call.split()
    path = CHANNELS / f"{name}.json"
    if command in ("feasible", "pareto", "power"):
        flags += ["--target", ",".join(json.loads(path.read_text())["targets"][0])]
    return [command, "--channel", str(path), *flags]


@pytest.mark.parametrize("call", REPORT_CALLS)
def test_reports_keep_their_bytes(capsys, call):
    result = json.dumps(run(capsys, *report_argv(call)))
    assert hashlib.sha256(result.encode()).hexdigest() == REPORT_DIGESTS[call]


def channel_doc(channel, name=None) -> dict:
    doc = {"K": channel.K, "receivers": [
        {"states": [[tp.render_rational(x) for x in vec] for vec in states]}
        for states in channel.receivers]}
    return doc if name is None else {"name": name, **doc}


def test_region_streams_the_bytes_of_the_whole_report(tmp_path, capsys, monkeypatch):
    # the streamed report against the one built whole before it is printed
    # (`oracles.cmd_region_whole`): stdout, stderr and exit code, text and
    # JSON, on random channels with K 1-7 and 1-3 states (most of the
    # unconstrained ones have an empty region), a prime-denominator channel,
    # a name that JSON must escape, a K = 8 channel (about 2000 bounds, so
    # many user sets and write chunks) and a K over the guard
    rng = random.Random(19)
    docs = [channel_doc((random_compound if n % 2 else random_tin_optimal)(rng, 1 + n % 7))
            for n in range(56)]
    docs.append(channel_doc(prime_denominator_channel(rng, 5)))
    docs.append(channel_doc(random_tin_optimal(rng, 4), name='say "TIN" \\ café'))
    docs.append(channel_doc(random_tin_optimal(rng, 8)))
    docs.append({"K": 11, "receivers": [
        {"states": [["1" if j == k else "0.1" for j in range(11)]]} for k in range(11)]})
    empty = 0
    for n, doc in enumerate(docs):
        path = write(tmp_path, f"c{n}.json", doc)
        for flags in ([], ["--json"]):
            argv = ["region", "--channel", path, *flags]
            streamed = run(capsys, *argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "cmd_region", cmd_region_whole)
                assert run(capsys, *argv) == streamed, (doc, flags)
        empty += streamed[1].endswith('"empty": true\n}\n')
    assert empty >= 20


def test_region_guard_exits_2(tmp_path, capsys):
    receivers = [{"states": [["1" if j == k else "0.1" for j in range(11)]]}
                 for k in range(11)]
    path = write(tmp_path, "k11.json", {"K": 11, "receivers": receivers})
    code, out, err = run(capsys, "region", "--channel", path)
    assert (code, out) == (2, "")
    assert err == "error: cycle enumeration guarded at K <= 10 (got 11)\n"


def test_region_empty(tmp_path, capsys):
    path = write(tmp_path, "empty.json", {
        "K": 2, "receivers": [{"states": [["1", "3"]]}, {"states": [["3", "1"]]}]})
    code, out, _ = run(capsys, "region", "--channel", path)
    assert code == 0
    assert out.endswith("1*d1 + 1*d2 <= -4\n# region is empty\n")
    code, out, _ = run(capsys, "region", "--channel", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["empty"] is True and "sum_gdof" not in doc


def five_user_doc():
    rng = random.Random(72)
    receivers = []
    for k in range(5):
        states = []
        for _ in range(1 + k % 2):
            vec = [str(F(rng.randint(0, 6), 10)) for _ in range(5)]
            vec[k] = str(F(rng.randint(10, 20), 10))
            states.append(vec)
        receivers.append({"states": states})
    return {"K": 5, "receivers": receivers}


def test_region_reports_optima_at_five_users(tmp_path, capsys):
    path = write(tmp_path, "k5.json", five_user_doc())
    ch = load_channel_file(path).channel
    total, maximizer = tp.sum_gdof(ch)
    sym = tp.symmetric_gdof(ch)
    code, out, _ = run(capsys, "region", "--channel", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert "optimization_skipped" not in doc
    assert doc["sum_gdof"] == tp.render_rational(total)
    assert doc["sum_gdof_maximizer"] == [tp.render_rational(x) for x in maximizer]
    assert doc["symmetric_gdof"] == tp.render_rational(sym)
    code, out, _ = run(capsys, "region", "--channel", path)
    assert code == 0
    assert out.splitlines()[-1] == f"# symmetric GDoF {tp.render_rational(sym)}"


def _numbers(text) -> set[str]:
    return set(re.findall(r"-?\d+(?:\.\d+)?(?:/\d+)?", text))


def _json_numbers(value) -> set[str]:
    if isinstance(value, dict):  # names and paths are not report numbers
        value = [v for k, v in value.items() if k not in ("channel", "name")]
    if isinstance(value, list):
        return set().union(*map(_json_numbers, value))
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        return _numbers(str(value))
    return set()


def test_text_and_json_carry_the_same_numbers(tmp_path, capsys):
    # every non-rates command over the sample files, their targets and one
    # infeasible target each (direct strengths + 1/2), plus a K = 5 region
    calls = []
    for path in sorted(map(str, CHANNELS.glob("*.json"))) + [
            write(tmp_path, "k5.json", five_user_doc())]:
        calls += [[cmd, "--channel", path]
                  for cmd in ("validate", "tin-check", "counterpart", "region")]
        if path.endswith("k5.json"):
            continue
        cf = load_channel_file(path)
        strongest = max(x for states in cf.channel.receivers for vec in states
                        for x in vec)
        targets = [tp.gdof_tuple(d) for d in cf.targets]
        targets.append((strongest + F(1, 2),) * cf.channel.K)
        for d in targets:
            flags = ["--channel", path, "--target", ",".join(map(tp.render_rational, d))]
            calls += [["feasible", *flags], ["pareto", *flags]]
            calls += [["power", *flags, "--alg", alg] for alg in ALGORITHMS]
    for argv in calls:
        code, text, text_err = run(capsys, *argv)
        json_code, out, json_err = run(capsys, *argv, "--json")
        assert code == json_code, argv
        assert code in (0, 1), (argv, text_err)
        missing = _numbers(text) - _json_numbers(json.loads(out))
        assert not missing, (argv, missing)


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


def test_power_unknown_alg_is_refused_before_the_dump(capsys):
    code, out, err = run(
        capsys, "power", "--channel", str(CHANNELS / "asym3.json"),
        "--target", "1,1,1", "--alg", "foo", "--debug-graph")
    assert (code, out) == (2, "")
    assert err == f"error: unknown algorithm 'foo'; pick from {ALGORITHMS}\n"


def parse_dump(text) -> tp.PotentialGraph:
    """The graph of a ``--debug-graph`` dump, its users renumbered 0, 1, ...
    in the order of their printed numbers and its vertices indexed in the
    order they first start an edge."""
    rows = [line.split() for line in text.splitlines()]
    users = sorted({int(v[1:].partition("[")[0]) for row in rows for v in row[:2] if v != tp.U})

    def vertex(label):
        k, _, state = label[1:-1].partition("[")
        return tp.U if label == tp.U else (users.index(int(k)), int(state) - 1)

    lengths = [F(w) for *_, w in rows]
    scale = math.lcm(*(w.denominator for w in lengths))
    index = {vertex(s): None for s, _, _ in rows}
    index = {v: i for i, v in enumerate(index)}
    edges = tuple((index[vertex(s)], index[vertex(t)], int(w * scale))
                  for (s, t, _), w in zip(rows, lengths))
    return tp.PotentialGraph(len(users), tuple(index), edges, scale)


def test_power_debug_graph_dumps_the_graph_it_decides_on(tmp_path, capsys):
    # `power` decides on the subnetwork of its non-zero targets: the whole
    # channel's graph at (0, 0.1, 0.4) holds the negative circuit
    # v3 -> v2 -> v1 of length -0.5, yet user 1 is silent and the target met
    path = write(tmp_path, "silent.json", {"K": 3, "receivers": [
        {"states": [["1.9", "1.8", "1.8"]]}, {"states": [["1.2", "2", "0.5"]]},
        {"states": [["0.5", "1.6", "0.7"]]}]})
    code, out, err = run(capsys, "power", "--channel", path, "--target", "0,0.1,0.4",
                         "--alg", "sp", "--debug-graph")
    assert (code, out) == (0, "allocation (silent, -1.3, 0) achieves (0, 0.2, 0.4)\n"
                                "silent users: [1]\n")
    reduced = err.split("# reduced potential graph\n")[1].split("# full potential graph\n")[0]
    assert "v1[" not in err
    assert {line.split()[0] for line in reduced.splitlines()} == {"v2[1]", "v3[1]", "u"}
    assert bellman_ford_fractions(parse_dump(reduced)).feasible
    whole = tp.build_full(load_channel_file(path).channel, ["0", "0.1", "0.4"])
    assert not bellman_ford_fractions(parse_dump(whole.dump())).feasible


def test_certificate_failure_exits_3(capsys, monkeypatch):
    # Bellman-Ford cannot return a wrong verdict for real inputs, so force
    # one through the one decision route: potentials that leave a negative
    # reduced length, then a circuit whose bound the target satisfies;
    # `decide` refuses both before any command reads them
    import tinpower.region as region

    bogus = [
        (tp.ShortestPathResult(True, (F(-10), F(-10), F(0)), None, None),
         "the shortest-path potentials leave a negative edge"),
        (tp.ShortestPathResult(False, None, ((0, 0), (1, 0)), F(-1)),
         "the target satisfies the circuit's bound"),
    ]
    for command, *flags in [["feasible"], ["pareto"], ["power", "--alg", "sp"],
                            ["power", "--alg", "ggpc"],
                            ["rates", "--alg", "ggpc", "--P", "100"]]:
        for sp, message in bogus:
            monkeypatch.setattr(region, "shortest_paths", lambda graph: sp)
            code, out, err = run(
                capsys, command, "--channel", str(CHANNELS / "asym3.json"),
                "--target", "1,1,1", *flags)
            assert code == 3, (command, flags, sp.feasible)
            assert out == ""
            assert err.startswith(f"internal check failure: {message}")
            assert "Traceback" not in err


def test_inconsistent_bellman_ford_exits_3(capsys, monkeypatch):
    # shortest_paths' own consistency checks: a circuit found by relaxation
    # whose recomputed length is not negative (a parallel edge overrides the
    # relaxed one in the length table), and two states of one user at
    # different distances
    import tinpower.region as region

    a, b, u = 0, 1, 2  # vertex indices; u is last
    graphs = [
        tp.PotentialGraph(2, ((0, 0), (1, 0), tp.U), (
            (u, a, 0), (u, b, 0), (a, b, -5), (b, a, 1), (a, b, 5)), 1),
        tp.PotentialGraph(1, ((0, 0), (0, 1), tp.U), (
            (u, a, 0), (u, b, -1)), 1),
    ]
    for graph, message in zip(graphs, ["is not negative", "user 1 disagree"]):
        monkeypatch.setattr(region, "lattice_graph", lambda *args: graph)
        code, out, err = run(
            capsys, "feasible", "--channel", str(CHANNELS / "asym3.json"),
            "--target", "1,1,1")
        assert code == 3
        assert out == ""
        assert "internal check failure: " in err and message in err
        assert "Traceback" not in err


def _parse_vertex(label):
    if label == "u":
        return tp.U
    user, state = re.fullmatch(r"v(\d+)\[(\d+)\]", label).groups()
    return int(user) - 1, int(state) - 1


def test_power_infeasible_with_silent_users_uses_full_numbering(capsys):
    # the shortest-path start runs on the subnetwork of users 3 (and 2);
    # the report names them as users of the whole channel
    flags = ["--channel", str(CHANNELS / "asym3.json"), "--alg", "sp"]
    code, out, _ = run(capsys, "power", *flags, "--target", "0,0,3")
    assert code == 1
    assert out == (
        "infeasible target: target (0, 0, 3) is outside the polyhedral region\n")
    code, out, _ = run(capsys, "power", *flags, "--target", "0,0,3", "--json")
    doc = json.loads(out)
    assert doc["negative_cycle"]["vertices"] == ["v3[1]", "u"]
    assert doc["violated_constraint"]["inequality"] == "0*d1 + 0*d2 + 1*d3 <= 1"
    code, out, _ = run(capsys, "power", *flags, "--target", "0,2,3", "--json")
    doc = json.loads(out)
    assert doc["target"] == ["0", "2", "3"]
    assert doc["negative_cycle"] == {"vertices": ["v3[1]", "v2[1]"], "length": "-2.8"}
    assert doc["violated_constraint"]["inequality"] == "0*d1 + 1*d2 + 1*d3 <= 2.2"


def test_power_infeasible_circuit_is_one_of_the_full_graph_seeded(tmp_path, capsys):
    # multi-state channels and targets with zero entries: power's circuit,
    # read back from its report, is a negative circuit of the full reduced
    # graph of the same length, its bound is violated, and feasible says no
    rng = random.Random(67)
    seen = 0
    for n in range(40):
        K = 2 + n % 4
        ch = random_compound(rng, K=K)
        path = write(tmp_path, f"c{n}.json", {"K": K, "receivers": [
            {"states": [[str(x) for x in vec] for vec in states]}
            for states in ch.receivers]})
        for _ in range(3):
            d = [grid_value(rng, F(3)) for _ in range(K)]
            d[rng.randrange(K)] = F(0)
            target = ",".join(map(tp.render_rational, d))
            code, out, _ = run(capsys, "power", "--channel", path, "--target",
                               target, "--alg", "sp", "--json")
            if code == 0:
                continue
            assert code == 1
            seen += 1
            doc = json.loads(out)
            cycle = [_parse_vertex(v) for v in doc["negative_cycle"]["vertices"]]
            assert all(v == tp.U or d[v[0]] > 0 for v in cycle)
            graph = tp.build_full(tp.regular_counterpart(ch), d)
            weight = {(s, t): w for s, t, w in fraction_edges(graph)}
            length = sum(weight[cycle[i], cycle[(i + 1) % len(cycle)]]
                         for i in range(len(cycle)))
            assert length < 0
            assert tp.render_rational(length) == doc["negative_cycle"]["length"]
            bound = doc["violated_constraint"]
            assert sum(d[u - 1] for u in bound["users"]) > F(bound["rhs"])
            assert run(capsys, "feasible", "--channel", path,
                       "--target", target)[0] == 1
    assert seen >= 100  # 111 of the 120 targets are infeasible


def test_yes_no_commands_never_enumerate(capsys, monkeypatch):
    import tinpower.region as region

    def refuse(a):
        raise AssertionError("cycle enumeration reached")

    monkeypatch.setattr(region, "_cycle_bounds", refuse)
    for name, inside, outside, frontier in [
            ("mix3.json", "0.5,0.6,0.7", "2,1,1.5", "1.7,0.4,0.4"),
            ("sym4.json", "0.5,0.5,0.5,0.5", "2,2,0,0", "1,1,1,1")]:
        path = str(CHANNELS / name)
        assert run(capsys, "feasible", "--channel", path, "--target", inside)[0] == 0
        assert run(capsys, "feasible", "--channel", path, "--target", outside)[0] == 1
        assert run(capsys, "pareto", "--channel", path, "--target", frontier)[0] == 0
        assert run(capsys, "pareto", "--channel", path, "--target", inside)[0] == 1
        assert run(capsys, "pareto", "--channel", path, "--target", outside)[0] == 1
        ch = load_channel_file(path).channel
        assert tp.member(ch, inside.split(","))[0]
        assert not tp.member(ch, outside.split(","))[0]
        assert not in_full_region(ch, outside.split(","))


def test_feasible_and_pareto_answer_past_the_enumeration_guard(tmp_path, capsys):
    rng = random.Random(71)
    K = 30
    receivers = []
    for k in range(K):
        states = []
        for _ in range(2):
            vec = [str(F(rng.randint(0, 3), 10)) for _ in range(K)]
            vec[k] = str(F(rng.randint(10, 20), 10))
            states.append(vec)
        receivers.append({"states": states})
    path = write(tmp_path, "k30.json", {"K": K, "receivers": receivers})
    for target in ("0.1", "0.5", "2"):
        for command in ("feasible", "pareto"):
            code, out, err = run(
                capsys, command, "--channel", path,
                "--target", ",".join([target] * K), "--json")
            assert code in (0, 1), err
            assert json.loads(out)[command] is (code == 0)


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


def test_rates_alloc_takes_a_leading_negative_exponent(capsys):
    # exponents are <= 0, so `--alloc r1,...` starts with `-` whenever r1 < 0;
    # the space-separated form reads as `--alloc=...`, and a flag that
    # follows `--alloc` is still no value
    head = ["rates", "--channel", str(CHANNELS / "mix3.json")]
    joined = run(capsys, *head, "--alloc=-0.5,0,0", "--P", "10")
    assert joined[0] == 0 and joined[1].startswith("alloc,P,user,rate")
    assert run(capsys, *head, "--alloc", "-0.5,0,0", "--P", "10") == joined
    assert run(capsys, *head, "--alloc", "-.5,0,0", "--P", "10") == joined
    with pytest.raises(SystemExit) as exc:
        main([*head, "--alloc", "--P", "10"])
    assert exc.value.code == 2
    assert "argument --alloc: expected one argument" in capsys.readouterr().err


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


def test_rates_infeasible_target_exits_1_like_power(capsys):
    flags = ["--channel", str(CHANNELS / "asym3.json"), "--alg", "ggpc",
             "--target", "2,2,0.5"]
    code, out, err = run(capsys, "rates", *flags, "--P", "100")
    power_code, power_out, _ = run(capsys, "power", *flags)
    assert code == power_code == 1
    assert out == power_out == (
        "infeasible target: target (2, 2, 0.5) is outside the polyhedral region\n")
    assert err == ""


def test_rates_repeated_alg_is_solved_once(capsys):
    flags = ["--channel", str(CHANNELS / "mix3.json"), "--P", "100,1000"]
    code, out, _ = run(capsys, "rates", *flags, "--alg", "ggpc, gsfpc,ggpc")
    assert code == 0
    assert out == run(capsys, "rates", *flags, "--alg", "ggpc,gsfpc")[1]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert sum(row[0] == "ggpc" for row in rows) == 6  # 3 users x 2 powers


def test_rates_repeated_power_is_swept_once(capsys):
    flags = ["--channel", str(CHANNELS / "mix3.json"), "--alg", "ggpc",
             "--target", "0.5,0.6,0.7"]
    code, out, _ = run(capsys, "rates", *flags, "--P", "10,100,10.0")
    assert code == 0
    assert out == run(capsys, "rates", *flags, "--P", "10,100")[1]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert sum(row[:2] == ["ggpc", "10"] for row in rows) == 3  # one row per user


def test_rates_requires_positive_targets(capsys):
    code, _, err = run(
        capsys, "rates", "--channel", str(CHANNELS / "asym3.json"),
        "--alg", "ggpc", "--target", "1,0,1", "--P", "1000")
    assert code == 2


def test_rates_requires_alloc_or_alg(capsys):
    code, _, err = run(
        capsys, "rates", "--channel", str(CHANNELS / "asym3.json"), "--P", "1000")
    assert code == 2


def test_rates_target_needs_alg(capsys):
    # the target is read only to solve for an allocation; without --alg it
    # would be ignored
    code, out, err = run(
        capsys, "rates", "--channel", str(CHANNELS / "asym3.json"),
        "--alloc=-0.1,-0.1,-0.1", "--target", "1,1,1", "--P", "1000")
    assert code == 2 and out == ""
    assert err == "error: --target is read only with --alg\n"


UNKNOWN_FOO = "unknown algorithm 'foo'; pick from ('sp', 'gsfpc', 'ggpc', 'ggpc-c')"


def _count_solves(monkeypatch) -> list:
    """The arguments of each ``solve_power`` call the CLI makes from now on."""
    solved = []
    real = cli.solve_power
    monkeypatch.setattr(cli, "solve_power", lambda *a: solved.append(a) or real(*a))
    return solved


@pytest.mark.parametrize("argv", [
    ["--target", "0.5,0.5,0.3", "--alg", "sp,ggpc,foo"],
    ["--target", "5,5,5", "--alg", "sp,foo"],
    ["--target", "0.5,0.5,0.3", "--alg", "sp,ggpc,foo", "--alloc=-0.1,0,0"],
    ["--alg", "sp,ggpc,foo"],
], ids=["feasible-target", "infeasible-target", "with-alloc", "file-targets"])
def test_rates_checks_every_alg_before_the_first_solve(capsys, monkeypatch, argv):
    # input problems are reported before any output: no control runs first
    solved = _count_solves(monkeypatch)
    assert run(capsys, "rates", "--channel", str(CHANNELS / "asym3.json"), *argv,
               "--P", "100") == (2, "", f"error: {UNKNOWN_FOO}\n")
    assert solved == []


def test_rates_checks_every_target_before_the_first_solve(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "two.json", {"K": 2, "receivers": TWO_USERS,
                                        "targets": [["0.4", "0.4"], ["0", "0.4"]]})
    solved = _count_solves(monkeypatch)
    assert run(capsys, "rates", "--channel", path, "--alg", "sp,ggpc", "--P", "100") == (
        2, "", "error: rate evaluation needs strictly positive targets\n")
    assert solved == []


@pytest.mark.parametrize("argv, message", [
    (["feasible"], "this command needs --target d1,d2,..."),
    (["feasible", "--target=-0.5,0.5"],
     "bad --target: GDoF values must be non-negative, got -0.5"),
    (["rates", "--alloc=0,0"], "this command needs --P p1,p2,..."),
    (["rates", "--alloc=0,0", "--P", "abc"], "bad --P: 'abc'"),
    (["rates", "--alloc=0,0", "--P", "1"], "all --P values must exceed 1"),
    (["rates", "--alloc=x", "--P", "10"],
     "bad --alloc: not a decimal or p/q rational: 'x'"),
    # an all-zero allocation of the wrong length is refused, not dropped
    (["rates", "--alloc=0", "--P", "10"], "bad --alloc: expected 2 exponents, got 1"),
    (["rates", "--alloc=0.1,0", "--P", "10"],
     "bad --alloc: power exponents must be <= 0, got 0.1"),
    (["rates", "--alg", "sp", "--P", "10"],
     "--alg needs a target (--target or a targets list in the file)"),
    # every --alg name is checked before the first solve, here an infeasible one
    (["rates", "--target", "5,5", "--alg", "sp,foo", "--P", "100"], UNKNOWN_FOO),
], ids=["feasible-no-target", "feasible-negative-target", "rates-no-P", "rates-P-abc",
        "rates-P-1", "rates-alloc-x", "rates-alloc-short-zero", "rates-alloc-positive",
        "rates-alg-no-target", "rates-alg-unknown-after-infeasible"])
def test_input_errors_exit_2_with_message(tmp_path, capsys, argv, message):
    path = write(tmp_path, "two.json", {"K": 2, "receivers": TWO_USERS})
    code, out, err = run(capsys, argv[0], "--channel", path, *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


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
    ("rates", "2", ["--alloc=-400,-400", "--P", "10"]),  # total power underflows
])
def test_hostile_numbers_exit_2(tmp_path, capsys, command, strength, flags):
    path = write(tmp_path, "hostile.json", {
        "K": 2,
        "receivers": [{"states": [[strength, "0.5"]]}, {"states": [["0.5", "1"]]}],
    })
    code, _, err = run(capsys, command, "--channel", path, *flags)
    assert code == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("state, message", [
    ([1, True], "booleans are not valid rationals"),   # True must not hit 1's entry
    (["0.5", "1e1001"], "decimal exponent 1001 exceeds the limit of 1000 in magnitude"),
    (["0.5", "NaN"], "not a finite rational: 'NaN'"),
    (["0.5", "1/0"], "zero denominator in '1/0'"),
], ids=["bool", "exponent", "nan", "zero-denominator"])
def test_hostile_literals_refused_after_lookalikes(tmp_path, capsys, state, message):
    # each literal is parsed once per document; a refused one is refused
    # wherever it appears, here in receiver 2 after receiver 1 parsed 1 and 0.5
    path = write(tmp_path, "hostile.json", {
        "K": 2, "receivers": [{"states": [[1, "0.5"]]}, {"states": [state]}]})
    assert run(capsys, "validate", "--channel", path) == (
        2, "", f"error: {path}: receiver 2: {message}\n")


def test_equal_literals_parse_to_equal_entries(tmp_path, capsys):
    # 1, 1.0, "1" and "1/1" have distinct memo entries but equal values, so
    # their states coincide and collapse to one
    path = write(tmp_path, "mixed.json", {"K": 2, "receivers": [
        {"states": [[1, "0.5"], [1.0, "1/2"], ["1", 0.5], ["1/1", "0.50"]]},
        {"states": [["0.5", 1]]}]})
    channel = load_channel_file(path).channel
    assert channel.receivers == (((F(1), F(1, 2)),), ((F(1, 2), F(1)),))
    code, out, _ = run(capsys, "validate", "--channel", path, "--json")
    assert code == 0 and json.loads(out)["states_per_receiver"] == [1, 1]


@pytest.mark.parametrize("argv, count", [
    (["power", "--target", "0.4,0.4", "--alg", "sp"], 1),
    (["power", "--target", "0,0.4", "--alg", "ggpc"], 2),
    (["feasible", "--target", "0.4,0.4"], 1),
    (["feasible", "--target", "0.4,0.4", "--debug-graph"], 1),
    (["rates", "--target", "0.4,0.4", "--alg", "sp,ggpc", "--P", "10,100"], 1),
], ids=["power-sp", "power-silent", "feasible", "feasible-debug-graph", "rates"])
def test_each_entry_point_validates_once(capsys, monkeypatch, argv, count):
    # a channel is checked when it is built: the loaded one, and each
    # subnetwork the command makes; decisions read the counterpart as ints
    # and build no channel, and no function checks the channel it is given
    # again
    checked = []
    real = tp.validate
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tinpower" and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate",
                                lambda ch: checked.append(ch) or real(ch))
    path = str(CHANNELS / "comp2.json")
    code, _, err = run(capsys, argv[0], "--channel", path, *argv[1:])
    monkeypatch.undo()
    assert code == 0
    assert len(checked) == count
    assert len({id(ch) for ch in checked}) == count
    loaded = load_channel_file(path).channel
    assert sum(ch == loaded for ch in checked) == 1
    if "--debug-graph" in argv:
        d = argv[2].split(",")
        assert err == (
            f"# reduced potential graph\n"
            f"{tp.build_full(tp.regular_counterpart(loaded), d).dump()}\n"
            f"# full potential graph\n{tp.build_full(loaded, d).dump()}\n")


def test_unchecked_load_reports_what_the_commands_refuse(tmp_path, capsys):
    # the benchmark's replay of `validate` loads an invalid file unchecked
    # and then checks it itself; every other command refuses the file
    path = write(tmp_path, "bad.json", {
        "K": 2,
        "receivers": [{"states": [["1", "0.5"]]},
                      {"states": [["0.5", "1"], ["0", "-0.25"]]}],
        "targets": [["0.4", "0.4"]],
    })
    channel = load_channel_file(path, validate_channel=False).channel
    assert channel.state_counts == (1, 2)
    with pytest.raises(tp.ChannelValidationError) as err:
        tp.validate(channel)
    assert (err.value.receiver, err.value.state) == (1, 1)
    code, out, _ = run(capsys, "validate", "--channel", path, "--json")
    assert code == 1
    error = json.loads(out)["error"]
    assert (error["receiver"], error["state"], error["message"]) == (
        err.value.receiver + 1, err.value.state + 1, str(err.value))
    flags = {"feasible": ["--target", "0.4,0.4"], "pareto": ["--target", "0.4,0.4"],
             "power": ["--target", "0.4,0.4", "--alg", "sp"],
             "rates": ["--alg", "sp", "--P", "10"]}
    for command in ("tin-check", "counterpart", "feasible", "region", "pareto",
                    "power", "rates"):
        assert run(capsys, command, "--channel", path, *flags.get(command, [])) == (
            2, "", f"error: {path}: invalid channel: {err.value}\n")


K7 = "<a K = 7 channel>"


def seven_user_path(tmp_path) -> str:
    """A K = 7 channel whose ``region --json`` report (about 400 KB) is
    larger than a pipe's 64 KB buffer."""
    return write(tmp_path, "k7.json", channel_doc(random_tin_optimal(random.Random(7), 7)))


def cli_env(buffered: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, closed", [
    (["region", "--channel", str(CHANNELS / "mix3.json"), "--json"], "stdout"),
    (["region", "--channel", K7, "--json"], "stdout"),
    (["feasible", "--channel", str(CHANNELS / "asym3.json"), "--target", "2,2,0"], "stdout"),
    (["rates", "--channel", str(CHANNELS / "sym4.json"), "--alg", "sp", "--P", "10,100"],
     "stdout"),
    (["validate", "--channel", str(ROOT / "no" / "such.json")], "both"),
], ids=["region", "region-k7", "feasible-no", "rates", "missing-file"])
def test_closed_stdout_exits_141_quietly(argv, closed, buffered, tmp_path):
    # a reader that leaves early (`| head -c 10`, or `2>&1 | head -c 0` for
    # an error line) closes the pipe before the report is written: no
    # traceback, and no exit code that reads as a verdict, whether the write
    # fails at once or at the final flush
    argv = [seven_user_path(tmp_path) if a == K7 else a for a in argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "tinpower.cli", *argv],
                              stdout=write_end, env=cli_env(buffered), timeout=120,
                              stderr=write_end if closed == "both" else subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr or b"") == (141, b"")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_import_starts_no_blas_worker_threads():
    # numpy serves elementwise int work only, so a CLI process keeps to its
    # one thread rather than spinning up an OpenBLAS pool at import
    env = cli_env(buffered=True)
    env.pop("OPENBLAS_NUM_THREADS", None)
    code = "import os, tinpower; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "1\n")


def test_import_keeps_a_chosen_blas_thread_count():
    env = dict(cli_env(buffered=True), OPENBLAS_NUM_THREADS="3")
    code = "import os, tinpower; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "3\n")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_stdout_closed_mid_stream_exits_141_quietly(tmp_path, buffered):
    # `region --json | head -c 16`: the report has started when the reader
    # leaves, and the write that fills the pipe's buffer fails
    argv = ["region", "--channel", seven_user_path(tmp_path), "--json"]
    with subprocess.Popen([sys.executable, "-m", "tinpower.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=cli_env(buffered)) as proc:
        assert proc.stdout.read(16) == b'{\n  "command": "'
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["region", "--channel", K7, "--json"],
    ["rates", "--channel", str(CHANNELS / "sym4.json"), "--alg", "sp", "--P", "10,100"],
    ["feasible", "--channel", str(CHANNELS / "asym3.json"), "--target", "2,2,0",
     "--debug-graph"],
    ["validate", "--channel", str(ROOT / "no" / "such.json")],
], ids=["region-k7", "rates", "feasible-no-debug-graph", "missing-file"])
def test_process_exit_loses_no_output(argv, buffered, tmp_path, capsys):
    # the process ends with `os._exit` once its report is flushed, skipping
    # the interpreter's teardown: a report larger than a pipe's buffer, a
    # CSV table, a "no" with its graph dump on stderr and an error line all
    # arrive whole, with the code the in-process `main` returns
    argv = [seven_user_path(tmp_path) if a == K7 else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "tinpower.cli", *argv],
                          capture_output=True, text=True, env=cli_env(buffered),
                          timeout=120)
    expected = run(capsys, *argv)
    assert expected[0] in (0, 1, 2) and expected[1] + expected[2]
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


@pytest.mark.parametrize("optimum", ["sum_gdof", "symmetric_gdof"])
def test_region_failed_check_leaves_stdout_empty(capsys, monkeypatch, optimum):
    # both optima are checked before the first bound is written
    def fail(channel):
        raise tp.CertificateError("forced failure")

    monkeypatch.setattr(cli, optimum, fail)
    for flags in ([], ["--json"]):
        assert run(capsys, "region", "--channel", str(CHANNELS / "mix3.json"), *flags) == (
            3, "", "internal check failure: forced failure\n")


def region_peaks(tmp_path, channel) -> tuple[int, int]:
    """The traced peaks of ``region --json`` on ``channel`` and of
    ``tp.region_constraints`` on it."""
    path = write(tmp_path, "region.json", channel_doc(channel))
    report = ["region", "--channel", path, "--json"]

    def peak(call):
        gc.collect()  # also empties the free lists, whose blocks count as held
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        assert main(report) == 0  # lazy imports happen outside the measure
        streamed = peak(lambda: main(report))
    return streamed, peak(lambda: tp.region_constraints(channel))


def test_region_export_memory_stays_near_its_bounds(tmp_path):
    # the report streams: writing the K = 8 list (1.5 MB of JSON) holds no
    # more than enumerating it does (building the report whole peaked at
    # about 5.9 times as much)
    streamed, enumerated = region_peaks(tmp_path, random_tin_optimal(random.Random(8), 8))
    assert streamed <= 1.5 * enumerated, streamed / enumerated


def test_region_export_holds_one_user_set_at_a_time(tmp_path):
    # the export enumerates the bounds one user set at a time and never
    # holds the list: on a K = 8 channel on a 0.01 grid (about 5000 bounds,
    # few of them coinciding) it peaks at a small part of what the list
    # takes (enumerating the whole list first peaked at about 1.01 times it)
    rng = random.Random(20)
    channel = tp.CompoundChannel.from_lists([
        [[grid_value(rng, F(2), F("0.01"), lo=F(1)) if j == k
          else grid_value(rng, F("0.5"), F("0.01")) for j in range(8)]
         for _ in range(1 + k % 3)]
        for k in range(8)])
    streamed, enumerated = region_peaks(tmp_path, channel)
    assert streamed <= enumerated / 4, streamed / enumerated
