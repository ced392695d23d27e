"""Coverage accounting tests."""
from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, strategies as st

from covstim.coverage import BinDescriptor, CoveragePlan, CoverageState, Difficulty
from covstim.duts import DUT_KINDS, make_dut


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
    assert [b.id for b in plan] == ["a_02", "b_02", "b_10"]


def test_plan_rejects_duplicate_ids():
    dup = BinDescriptor("same", "x", Difficulty.EASIER, "g")
    with pytest.raises(ValueError):
        CoveragePlan("p", [dup, dup])


def test_record_returns_only_newly_covered():
    state = CoverageState(make_plan())
    assert state.record(["bin_01", "bin_03", "bin_01"]) == ["bin_01", "bin_03"]
    assert state.record(["bin_01"]) == []
    assert state.record(["bin_01", "bin_00"]) == ["bin_00"]
    assert state.record(["bin_05", "bin_05", "bin_02"]) == ["bin_05", "bin_02"]
    assert state.record(["bin_00", "bin_05"]) == []
    assert state.record([]) == []
    assert state.covered == {"bin_00", "bin_01", "bin_02", "bin_03", "bin_05"}


def test_unknown_bin_id_is_an_error():
    state = CoverageState(make_plan())
    with pytest.raises(ValueError, match="unknown bin id"):
        state.record(["nope"])


def test_unknown_bin_id_after_covered_ones_is_an_error():
    state = CoverageState(make_plan())
    state.record(["bin_01", "bin_02"])
    for batch in (["bin_01", "nope"], ["bin_02", "bin_01", "nope"], ("bin_01", "nope")):
        with pytest.raises(ValueError, match="unknown bin id 'nope'"):
            state.record(batch)


def test_is_full():
    state = CoverageState(make_plan(4))
    state.record(["bin_00", "bin_02"])
    assert not state.is_full()
    state.record(["bin_01", "bin_03"])
    assert state.is_full()


def test_uncovered_preserves_plan_order():
    plan = make_plan(5)
    state = CoverageState(plan)
    state.record(["bin_03", "bin_00"])
    assert [b.id for b in state.uncovered().bins] == ["bin_01", "bin_02", "bin_04"]


def test_dump_json_round_trips():
    plan = make_plan(3)
    records = json.loads(plan.dump_json())
    assert [r["id"] for r in records] == [b.id for b in plan]
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
    assert {b.id for b in state.uncovered().bins} == set([b.id for b in plan]) - seen
    assert state.covered == seen


# --- incremental uncovered bins against the rebuild-per-call oracle ------------------

def oracle_uncovered(plan: CoveragePlan, hits) -> list[BinDescriptor]:
    """The list every call used to rebuild: unhit bins in plan order."""
    return [b for b in plan.bins if b.id not in hits]


@given(
    device=st.sampled_from(DUT_KINDS),
    batches=st.lists(
        st.tuples(st.sampled_from(["few", "many", "easier", "head"]), st.integers(0, 2**16)),
        max_size=12,
    ),
    first_asked=st.integers(min_value=0, max_value=12),
)
def test_uncovered_view_matches_oracle_on_real_plans(device, batches, first_asked):
    plan = make_dut(device).plan
    state = CoverageState(plan)
    view = None
    for step, (kind, seed) in enumerate(batches):
        if step == first_asked:  # the view is built on demand, after some hits
            view = state.uncovered()
        rng = random.Random(seed)
        ids = [b.id for b in plan]
        if kind == "few":
            batch = rng.sample(ids, 5)
        elif kind == "many":
            batch = rng.sample(ids, len(ids) // 3)
        elif kind == "easier":  # every easier bin but at most one
            batch = [b.id for b in plan if b.difficulty is Difficulty.EASIER][rng.randrange(2):]
        else:  # the first uncovered bins, so the plan-order head moves
            batch = [b.id for b in oracle_uncovered(plan, state.covered)[: rng.randrange(1, 4)]]
        state.record(batch)
        if view is None:
            continue
        expected = oracle_uncovered(plan, state.covered)
        assert state.uncovered() is view  # one live view per state
        assert view.bins == expected and len(view) == len(expected)
        assert list(view.easier) == [b for b in expected if b.difficulty is Difficulty.EASIER]
        assert list(view.harder) == [b for b in expected if b.difficulty is Difficulty.HARDER]


def test_uncovered_view_does_not_depend_on_when_it_is_first_asked_for():
    plan = make_plan(4)
    early, late = CoverageState(plan), CoverageState(plan)
    view = early.uncovered()
    for state in (early, late):
        state.record(["bin_00", "bin_03"])
    assert [b.id for b in view.bins] == [b.id for b in late.uncovered().bins] == ["bin_01", "bin_02"]
    assert [b.id for b in late.uncovered().easier] == ["bin_01"]
    assert [b.id for b in late.uncovered().harder] == ["bin_02"]
    # states of one plan share nothing
    assert [b.id for b in CoverageState(plan).uncovered().bins] == [b.id for b in plan]
