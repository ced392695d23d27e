"""Coverage accounting tests."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from covstim.coverage import BinDescriptor, CoveragePlan, CoverageState, Difficulty


def make_plan(n=6, name="toy"):
    bins = [
        BinDescriptor(
            id=f"bin_{i:02d}",
            description=f"toy bin {i}",
            difficulty=Difficulty.EASIER if i < n // 2 else Difficulty.HARDER,
            group="toy",
        )
        for i in range(n)
    ]
    return CoveragePlan(name, bins)


def test_plan_orders_bins_lexicographically():
    bins = [
        BinDescriptor("b_10", "x", Difficulty.EASIER, "g"),
        BinDescriptor("a_02", "x", Difficulty.EASIER, "g"),
        BinDescriptor("b_02", "x", Difficulty.EASIER, "g"),
    ]
    plan = CoveragePlan("p", bins)
    assert plan.ids() == ["a_02", "b_02", "b_10"]


def test_plan_rejects_duplicate_ids():
    dup = BinDescriptor("same", "x", Difficulty.EASIER, "g")
    with pytest.raises(ValueError):
        CoveragePlan("p", [dup, dup])


def test_record_returns_only_newly_covered():
    state = CoverageState(make_plan())
    assert state.record(["bin_01", "bin_03", "bin_01"]) == ["bin_01", "bin_03"]
    assert state.record(["bin_01"]) == []
    assert state.record(["bin_01", "bin_00"]) == ["bin_00"]
    assert state.count("bin_01") == 4
    assert state.record(["bin_05", "bin_05", "bin_02"]) == ["bin_05", "bin_02"]
    assert state.record(["bin_00", "bin_05"]) == []
    assert state.record([]) == []
    assert state.count("bin_05") == 3


def test_unknown_bin_id_is_an_error():
    state = CoverageState(make_plan())
    with pytest.raises(ValueError, match="unknown bin id"):
        state.record(["nope"])


def test_rate_and_full():
    state = CoverageState(make_plan(4))
    assert state.rate() == 0.0
    state.record(["bin_00", "bin_02"])
    assert state.rate() == pytest.approx(0.5)
    assert not state.is_full()
    state.record(["bin_01", "bin_03"])
    assert state.is_full() and state.rate() == 1.0


def test_rate_on_empty_plan_is_an_error():
    state = CoverageState(CoveragePlan("empty", []))
    with pytest.raises(ValueError):
        state.rate()


def test_uncovered_preserves_plan_order():
    plan = make_plan(5)
    state = CoverageState(plan)
    state.record(["bin_03", "bin_00"])
    assert [b.id for b in state.uncovered()] == ["bin_01", "bin_02", "bin_04"]


def test_dump_json_round_trips():
    plan = make_plan(3)
    records = json.loads(plan.dump_json())
    assert [r["id"] for r in records] == plan.ids()
    assert records[0] == {
        "id": "bin_00",
        "description": "toy bin 0",
        "difficulty": "easier",
        "group": "toy",
    }


@given(
    hits=st.lists(
        st.lists(st.integers(min_value=0, max_value=5).map(lambda i: f"bin_{i:02d}")),
        max_size=20,
    )
)
def test_uncovered_matches_set_difference_oracle(hits):
    plan = make_plan(6)
    state = CoverageState(plan)
    seen: set[str] = set()
    for batch in hits:
        newly = state.record(batch)
        assert set(newly) == set(batch) - seen
        seen |= set(batch)
    assert {b.id for b in state.uncovered()} == set(plan.ids()) - seen
    assert state.covered_count == len(seen)
