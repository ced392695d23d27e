"""The value records: field order, immutability and derived scores.

Callers build these records positionally, so each keeps its field order.
"""
from __future__ import annotations

import pytest

from covstim.agents import ExtractionResult, PreparedQuery, ResponseRecord
from covstim.coverage import BinDescriptor
from covstim.prompting import Exchange, ResponseOutcome

FIELDS = {
    BinDescriptor: ("id", "description", "difficulty", "group"),
    ExtractionResult: ("stimuli",),
    PreparedQuery: ("query", "messages", "prompt_token_estimate", "restarted"),
    ResponseRecord: ("completion", "extraction"),
    Exchange: ("seq", "query", "response", "easier_hits", "harder_hits"),
    ResponseOutcome: ("usable", "new_hits"),
}


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_a_record_built_positionally_reads_back_its_fields_in_order(record):
    names = FIELDS[record]
    values = [f"value {i}" for i in range(len(names))]
    built = record(*values)
    assert [getattr(built, name) for name in names] == values
    with pytest.raises(TypeError):
        record(*values, "one too many")


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
def test_a_record_field_cannot_be_assigned(record):
    names = FIELDS[record]
    built = record(*range(len(names)))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(built, name, -1)
        assert getattr(built, name) == names.index(name)


def test_exchange_hit_counts_default_to_zero():
    ex = Exchange(1, "q", "r")
    assert (ex.easier_hits, ex.harder_hits, ex.hits, ex.weighted_score) == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "easier, harder, hits, weighted",
    [(0, 0, 0, 0.0), (3, 0, 3, 3.0), (0, 2, 2, 5.0), (2, 3, 5, 9.5)],
)
def test_exchange_scores(easier, harder, hits, weighted):
    ex = Exchange(7, "q", "r", easier, harder)
    assert ex.hits == hits
    assert ex.weighted_score == weighted  # a harder bin weighs 2.5
