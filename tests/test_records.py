"""The per-item records are slotted frozen dataclasses: no instance dict, and
otherwise the behaviour of a plain frozen dataclass."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import tracemalloc
from datetime import date
from decimal import Decimal

import pytest

from ratefix import FixingResult, IsolationScore, Merge, Submission, Tenor, compute_fixing

RECORDS = [
    Submission("A", date(2008, 1, 2), Tenor.ONE_MONTH, Decimal("3.125")),
    compute_fixing([Decimal("3.1"), Decimal("3.2"), Decimal("3.3"), Decimal("3.9")]),
    Merge(0, 3, 0.25, 2),
    IsolationScore("A", 0.25, 0.5),
]


@pytest.fixture(params=RECORDS, ids=lambda record: type(record).__name__)
def record(request):
    return request.param


def test_records_carry_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record))


def test_records_round_trip(record):
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record
    assert dataclasses.replace(record) == record
    assert type(record)(*dataclasses.astuple(record)) == record
    assert hash(copy.deepcopy(record)) == hash(record)
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


def test_field_assignment_is_still_frozen(record):
    for name in (f.name for f in dataclasses.fields(record)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


def test_submission_checks_still_run_on_replace():
    with pytest.raises(ValueError, match="^rate must be finite, got NaN$"):
        dataclasses.replace(RECORDS[0], rate=Decimal("NaN"))
    with pytest.raises(ValueError, match="^bank label must be non-empty$"):
        dataclasses.replace(RECORDS[0], bank="")


def _bytes_per_item(build, count: int = 2000) -> float:
    """Traced heap bytes that ``count`` calls of ``build`` keep alive, each."""
    items = [None] * count
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(count):
            items[index] = build()
        return (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        if not tracing:
            tracemalloc.stop()


def test_a_submission_and_a_fixing_result_each_cost_under_80_bytes():
    # the fields are shared, so only the records themselves are counted; a
    # frozen dataclass with an instance dict costs about 105 bytes each
    bank, day, tenor, rate = "A", date(2008, 1, 2), Tenor.ONE_MONTH, Decimal("3.125")
    assert _bytes_per_item(lambda: Submission(bank, day, tenor, rate)) < 80
    fields = dataclasses.astuple(RECORDS[1])
    assert _bytes_per_item(lambda: FixingResult(*fields)) < 80
