"""Self-test of the benchmark: seeded inputs, the checker and the tail rule.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import checker
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_fixed_seed_fixed_inputs(workload):
    a = workloads.build(workload, 7, ROOT)
    b = workloads.build(workload, 7, ROOT)
    c = workloads.build(workload, 8, ROOT)
    assert a.docs == b.docs
    assert [x.argv() for x in a.calls] == [x.argv() for x in b.calls]
    assert a.docs != c.docs or [x.argv() for x in a.calls] != [x.argv() for x in c.calls]


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """cli_small inputs written to a scratch directory, with channels/."""
    tmp = tmp_path_factory.mktemp("inputs")
    inputs = workloads.build("cli_small", 3, ROOT)
    inputs.write(tmp)
    (tmp / "channels").mkdir()
    for path in (ROOT / "channels").glob("*.json"):
        (tmp / "channels" / path.name).write_text(path.read_text())
    return tmp, inputs


def cli(tmp, call):
    import tinpower.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(tmp), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = tinpower.cli.main(call.argv())
    return code, out.getvalue(), err.getvalue()


def outputs(small, pick):
    tmp, inputs = small
    for call in inputs.calls:
        if pick(call):
            code, out, err = cli(tmp, call)
            ch = inputs.channels.get(call.channel)
            assert checker.check(call, ch, code, out, err) is None
            yield call, ch, code, json.loads(out) if call.command != "rates" else out


def test_every_untampered_output_passes(small):
    tmp, inputs = small
    assert len(list(outputs(small, lambda c: True))) == len(inputs.calls)


def test_flipped_verdict_fails(small):
    flipped = 0
    for call, ch, code, doc in outputs(small, lambda c: c.command == "feasible"):
        doc["feasible"] = not doc["feasible"]
        assert checker.check(call, ch, 1 - code, json.dumps(doc), "") is not None
        assert checker.check(call, ch, code, json.dumps(doc), "") is not None
        flipped += 1
    assert flipped >= 8


def test_perturbed_allocation_fails(small):
    perturbed = 0
    for call, ch, code, doc in outputs(small, lambda c: c.command == "power"):
        if not doc["feasible"]:
            continue
        k = next(i for i, x in enumerate(doc["allocation"]) if x != "silent")
        doc["allocation"][k] = str(Fraction(doc["allocation"][k]) - Fraction(1, 100))
        assert checker.check(call, ch, code, json.dumps(doc), "") is not None, call.argv()
        perturbed += 1
    assert perturbed >= 30


def test_corrupted_circuit_fails(small):
    corrupted = 0
    for call, ch, code, doc in outputs(small, lambda c: c.command == "power"):
        if doc["feasible"]:
            continue
        cycle = doc["negative_cycle"]
        wrong_length = dict(cycle, length=str(Fraction(cycle["length"]) - 1))
        dropped = dict(cycle, vertices=cycle["vertices"][1:])
        for bad in (wrong_length, dropped):
            assert checker.check(call, ch, code, json.dumps(dict(doc, negative_cycle=bad)),
                                 "") is not None
        corrupted += 1
    assert corrupted >= 2


def test_traceback_and_timeout_fail(small):
    call, ch, code, doc = next(outputs(small, lambda c: c.command == "counterpart"))
    assert checker.check(call, ch, code, json.dumps(doc), "Traceback (most recent") is not None
    assert checker.check(call, ch, None, "", "") == "timed out"


@pytest.mark.parametrize("n, quantile", [(10, 0.5), (20, 0.5), (40, 0.75), (50, 0.8),
                                         (99, 1 - 10 / 99), (100, 0.9), (400, 0.9)])
def test_tail_keeps_ten_samples_beyond(n, quantile):
    samples = list(range(n))
    value, used = run.tail_percentile(samples)
    assert used == pytest.approx(quantile)
    if n >= 20:
        assert sum(1 for x in samples if x > value) >= 10
