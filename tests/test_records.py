"""The record contract: every record type is an immutable value, equal and
hash-equal to another built from equal fields. That a channel is checked
however it is built, `_make` and `_replace` included, is in
`test_channel.py`."""

from fractions import Fraction as F

import pytest

import tinpower as tp
from tinpower.region import Verdict

import fixtures


def _solution(alg):
    return tp.solve_power(fixtures.mix3(), ["0.5", "0.6", "0.7"], alg)


RECORDS = {
    tp.CompoundChannel: fixtures.comp2,
    tp.RegularChannel: lambda: tp.regular_counterpart(fixtures.comp2()),
    tp.TinViolation: lambda: tp.TinViolation(0, 1, 1, 0, 1),
    tp.PotentialGraph: lambda: tp.build_full(fixtures.comp2(), ["0.4", "0.4"]),
    tp.ShortestPathResult: lambda: tp.decide(fixtures.asym3(), [2, 2, 2]).sp,
    Verdict: lambda: tp.decide(fixtures.asym3(), [1, 1, 1]),
    tp.Constraint: lambda: tp.Constraint((0, 1), F(3, 2), (1, 0)),
    tp.RegionConstraints: lambda: tp.region_constraints(fixtures.comp2()),
    tp.GsfpcTrace: lambda: _solution("gsfpc").trace,
    tp.GgpcUpdate: lambda: _solution("ggpc").trace.updates[0],
    tp.GgpcTrace: lambda: _solution("ggpc").trace,
    tp.PowerSolution: lambda: _solution("ggpc"),
    tp.RateReport: lambda: tp.rates(fixtures.mix3(), ["-0.1", "0", "-0.1"], 100.0),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda kind: kind.__name__)
def test_records_are_immutable_values(kind):
    record = RECORDS[kind]()
    assert type(record) is kind
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], getattr(record, record._fields[0]))
    with pytest.raises(AttributeError):
        record.note = "a record has no attribute dict"
    twin = kind(*record)
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert kind._make(record) == record and record._replace() == record
