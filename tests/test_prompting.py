"""Prompt strategy tests: templates, bin sampling, context selection, restarts.

Worked examples are frozen by hand from the strategy rules; the sampler
distribution checks re-state the 2 + 3 + 2 composition rule independently of
the implementation's pool bookkeeping.
"""
from __future__ import annotations

import random
from itertools import chain, islice
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import covstim.prompting as prompting

from covstim.agents import LlmAgent
from covstim.backend import ReplayBackend
from covstim.coverage import BinDescriptor, CoveragePlan, CoverageState, Difficulty
from covstim.duts import DUT_KINDS, FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES, make_dut
from covstim.runtime import EXHAUSTED, TrialLog, exhausted
from covstim.prompting import (
    BUFFER_RESETS,
    CONTEXT_STRATEGIES,
    SAMPLE_SIZE,
    Dialogue,
    Exchange,
    MissedBinSampler,
    ResponseOutcome,
    StrategyConfig,
    _top_k,
    build_initial_query,
    build_iterative_query,
    build_system_message,
    format_requirement,
    restart_tolerance,
    sample_missed_bins,
    select_context,
    should_restart,
)


def make_bins(easier: int, harder: int) -> list[BinDescriptor]:
    out = []
    for i in range(easier + harder):
        out.append(
            BinDescriptor(
                id=f"bin_{i:02d}",
                description=f"toy behavior {i}",
                difficulty=Difficulty.EASIER if i < easier else Difficulty.HARDER,
                group="toy",
            )
        )
    return out


def uncovered_of(bins: list[BinDescriptor]):
    """What a run hands the sampler: a fresh state's view over a plan of `bins`."""
    return CoverageState(CoveragePlan("toy", bins)).uncovered()


# --- strategy config --------------------------------------------------------------

def test_config_defaults_are_the_unimproved_pipeline():
    cfg = StrategyConfig()
    assert cfg.template_variant == "original"
    assert cfg.missed_bin == "pure_random"
    assert cfg.context == "recent"
    assert cfg.restart == "normal"
    assert cfg.buffer_reset == "clear"
    assert (prompting.RATE_THRESHOLD, SAMPLE_SIZE) == (0.15, 7)


def test_config_rejects_unknown_variants():
    with pytest.raises(ValueError):
        StrategyConfig(template_variant="fancy")
    with pytest.raises(ValueError):
        StrategyConfig(missed_bin="greedy")
    with pytest.raises(ValueError):
        StrategyConfig(context="everything")
    with pytest.raises(ValueError):
        StrategyConfig(restart="never")
    with pytest.raises(ValueError):
        StrategyConfig(buffer_reset="maybe")


# --- missed-bin sampling -----------------------------------------------------------

def test_pure_random_returns_all_when_fewer_than_sample_size():
    uncovered = make_bins(3, 2)
    out = sample_missed_bins(uncovered_of(uncovered), "pure_random", random.Random(1))
    assert sorted(b.id for b in out) == [b.id for b in uncovered]


def test_pure_random_is_seven_without_replacement():
    uncovered = make_bins(10, 10)
    out = sample_missed_bins(uncovered_of(uncovered), "pure_random", random.Random(1))
    assert len(out) == 7
    assert len({b.id for b in out}) == 7
    assert all(b in uncovered for b in out)


def test_type_based_head_then_three_easier_two_harder():
    uncovered = make_bins(8, 8)  # plan order: easier first here
    out = sample_missed_bins(uncovered_of(uncovered), "type_based", random.Random(3))
    assert out[0] is uncovered[0] and out[1] is uncovered[1]
    tail = out[2:]
    assert len(tail) == 5
    assert sum(1 for b in tail if b.difficulty is Difficulty.EASIER) == 3
    assert sum(1 for b in tail if b.difficulty is Difficulty.HARDER) == 2
    assert len({b.id for b in out}) == 7


def test_type_based_falls_back_to_random_five_when_easier_exhausted():
    uncovered = make_bins(0, 12)  # nothing easier anywhere
    out = sample_missed_bins(uncovered_of(uncovered), "type_based", random.Random(3))
    assert out[0] is uncovered[0] and out[1] is uncovered[1]
    assert len(out) == 7
    assert len({b.id for b in out}) == 7


def test_type_based_tops_up_when_one_pool_runs_short():
    # after the first-two head, one easier and many harder remain
    uncovered = make_bins(3, 10)
    out = sample_missed_bins(uncovered_of(uncovered), "type_based", random.Random(5))
    tail = out[2:]
    assert len(out) == 7
    assert sum(1 for b in tail if b.difficulty is Difficulty.EASIER) == 1
    assert sum(1 for b in tail if b.difficulty is Difficulty.HARDER) == 4
    # and the mirror case: plenty easier, one harder
    uncovered = make_bins(10, 1)
    out = sample_missed_bins(uncovered_of(uncovered), "type_based", random.Random(5))
    tail = out[2:]
    assert sum(1 for b in tail if b.difficulty is Difficulty.HARDER) == 1
    assert sum(1 for b in tail if b.difficulty is Difficulty.EASIER) == 4


def test_empty_uncovered_is_a_hard_error():
    with pytest.raises(ValueError, match="no uncovered bins"):
        sample_missed_bins(uncovered_of([]), "type_based", random.Random(0))


@pytest.mark.parametrize("method", ["mixed", "greedy"])
def test_sampling_by_an_unknown_method_is_a_hard_error(method):
    # "mixed" is a plan, not a method: MissedBinSampler resolves it
    with pytest.raises(ValueError, match="unknown missed-bin method"):
        sample_missed_bins(uncovered_of(make_bins(4, 4)), method, random.Random(0))


@settings(max_examples=120, deadline=None)
@given(
    easier=st.integers(min_value=0, max_value=12),
    harder=st.integers(min_value=0, max_value=12),
    method=st.sampled_from(["pure_random", "type_based", "mixed"]),
    seed=st.integers(min_value=0, max_value=999),
)
def test_sampler_never_duplicates_and_bounds_size(easier, harder, method, seed):
    uncovered = make_bins(easier, harder)
    if not uncovered:
        return
    sampler = MissedBinSampler(StrategyConfig(missed_bin=method))
    out = sampler.sample(uncovered_of(uncovered), random.Random(seed))
    assert len(out) == min(7, len(uncovered))
    assert len({b.id for b in out}) == len(out)
    ids = {b.id for b in uncovered}
    assert all(b.id in ids for b in out)


@pytest.mark.parametrize("method", ["pure_random", "type_based", "mixed"])
def test_every_method_lists_sample_size_bins(method):
    views = [CoverageState(make_dut("stride").plan).uncovered()] + [
        uncovered_of(make_bins(easier, harder))
        for easier, harder in ((0, 4), (4, 0), (1, 3), (3, 9), (12, 12))
    ]
    sampler = MissedBinSampler(StrategyConfig(missed_bin=method))
    for seed, uncovered in enumerate(views):
        out = sampler.sample(uncovered, random.Random(seed))
        assert len(out) == min(SAMPLE_SIZE, len(uncovered)), len(uncovered)
        assert len({b.id for b in out}) == len(out)


def respond(sampler, d, new_hits, rate):
    """One response with `new_hits` new bins, as an agent credits it."""
    d.record("q", "r", new_hits)
    sampler.observe(d, rate)


def test_mixed_below_threshold_equals_type_based():
    uncovered = make_bins(8, 8)
    sampler = MissedBinSampler(StrategyConfig(missed_bin="mixed"))
    respond(sampler, Dialogue("sys"), 1, rate=0.10)
    a = sampler.sample(uncovered_of(uncovered), random.Random(7))
    b = sample_missed_bins(uncovered_of(uncovered), "type_based", random.Random(7))
    assert [x.id for x in a] == [x.id for x in b]


def test_mixed_toggles_on_stalls_only_above_threshold():
    sampler = MissedBinSampler(StrategyConfig(missed_bin="mixed"))
    d = Dialogue("sys")
    assert sampler.method == "type_based"
    for delta in (0, 0, 1, 1):
        respond(sampler, d, delta, rate=0.10)
    assert sampler.method == "type_based"  # stalled, but below 15%
    respond(sampler, d, 0, rate=0.20)  # last four are 0,1,1,0: sum 2 < 3
    assert sampler.method == "pure_random"
    assert sampler.toggled_at == 5
    # window reset on toggle: three stalls are not enough to re-toggle
    for delta in (0, 0, 0):
        respond(sampler, d, delta, rate=0.20)
    assert sampler.method == "pure_random"
    respond(sampler, d, 0, rate=0.20)
    assert sampler.method == "type_based"


def test_mixed_window_resets_on_restart_but_method_persists():
    sampler = MissedBinSampler(StrategyConfig(missed_bin="mixed"))
    d = Dialogue("sys")
    for _ in range(4):
        respond(sampler, d, 0, rate=0.20)
    assert sampler.method == "pure_random"
    for _ in range(3):
        respond(sampler, d, 0, rate=0.20)
    d.restart("keep")
    assert sampler.method == "pure_random"
    for _ in range(3):
        respond(sampler, d, 0, rate=0.20)
    assert sampler.method == "pure_random"  # restart cleared the stall window
    respond(sampler, d, 0, rate=0.20)
    assert sampler.method == "type_based"


def test_non_mixed_sampler_ignores_observations():
    sampler = MissedBinSampler(StrategyConfig(missed_bin="type_based"))
    d = Dialogue("sys")
    for _ in range(10):
        respond(sampler, d, 0, rate=0.5)
    assert sampler.method == "type_based"


# --- restart policy ----------------------------------------------------------------

def test_restart_worked_examples():
    assert should_restart([0, 0, 1, 1, 0, 0, 0], "normal", rate=0.5) is True
    assert should_restart([0, 0, 0, 2], "low", rate=0.5) is True
    # coverage-rate plan at 20%: tolerance is 7, only 4 responses elapsed
    assert should_restart([0, 0, 0, 0], "coverage_rate_based", rate=0.20) is False
    assert should_restart([0, 0, 0, 0], "coverage_rate_based", rate=0.10) is True


def test_restart_tolerances():
    assert restart_tolerance("normal", 0.5) == 7
    assert restart_tolerance("low", 0.5) == 4
    assert restart_tolerance("high", 0.5) == 10
    assert restart_tolerance("coverage_rate_based", 0.14) == 4
    assert restart_tolerance("coverage_rate_based", 0.15) == 7


def test_restart_looks_only_at_the_last_window():
    # older progress outside the window does not save the dialogue
    assert should_restart([5, 0, 0, 0, 0, 0, 0, 0], "normal", rate=0.5) is True
    # three hits inside the window hold it off
    assert should_restart([1, 1, 1, 0, 0, 0, 0], "normal", rate=0.5) is False


def test_high_tolerance_window():
    assert should_restart([0] * 9, "high", rate=0.5) is False
    assert should_restart([0] * 10, "high", rate=0.5) is True


@given(
    deltas=st.lists(st.integers(min_value=0, max_value=4), max_size=6),
    plan=st.sampled_from(["normal", "high"]),
)
def test_no_restart_before_window_fills(deltas, plan):
    assert should_restart(deltas, plan, rate=0.5) is False


# --- dialogue bookkeeping -----------------------------------------------------------

def dialogue_with(hit_counts, system="sys"):
    d = Dialogue(system)
    d.record("init q", "init r")
    for i, hits in enumerate(hit_counts):
        d.record(f"q{i}", f"r{i}", easier_hits=hits)
    return d


def test_dialogue_tracks_deltas_and_restart_resets_them():
    d = dialogue_with([2, 0, 1])
    assert d.deltas == [0, 2, 0, 1]  # initial response counts too
    assert d.responses_since_restart == 4
    d.restart("clear")
    assert d.deltas == [0, 2, 0, 1]  # the trial's series survives restarts
    assert d.restart_at == 4 and d.responses_since_restart == 0
    assert d.restarts == 1
    assert d.initial is None and d.iterative == []
    # the first exchange after a restart is the initial one
    ex = d.record("init2 q", "init2 r", 1)
    assert d.initial is ex and d.iterative == []
    assert d.deltas == [0, 2, 0, 1, 1] and d.responses_since_restart == 1


def test_exchange_scores():
    ex = Exchange(seq=1, query="q", response="r", easier_hits=2, harder_hits=0)
    assert ex.hits == 2 and ex.weighted_score == 2.0
    ex2 = Exchange(seq=2, query="q", response="r", easier_hits=0, harder_hits=1)
    assert ex2.hits == 1 and ex2.weighted_score == 2.5


def test_buffer_reset_plans():
    for plan, kept in (("clear", 0), ("keep", 2), ("stable_keep", 2)):
        d = dialogue_with([1, 2])
        d.restart(plan)
        assert len(d.pool) == kept, plan


# --- context selection ---------------------------------------------------------------

def exchange_queries(messages):
    """Queries of the iterative exchanges included in an assembled context."""
    users = [m["content"] for m in messages if m["role"] == "user"]
    return [u for u in users if not u.startswith("init")]


def test_small_dialogue_keeps_everything_any_strategy():
    for context in ("recent", "successful", "mixed_recent_successful", "successful_difficult"):
        d = dialogue_with([1, 0])
        msgs = select_context(d, StrategyConfig(context=context), random.Random(0))
        assert msgs[0] == {"role": "system", "content": "sys"}
        assert exchange_queries(msgs) == ["q0", "q1"]


def test_recent_takes_last_three_in_order():
    d = dialogue_with([1, 2, 3, 4, 5])
    msgs = select_context(d, StrategyConfig(context="recent"), random.Random(0))
    assert exchange_queries(msgs) == ["q2", "q3", "q4"]


def test_successful_picks_the_three_maxima():
    d = dialogue_with([5, 1, 5, 5, 2])
    msgs = select_context(d, StrategyConfig(context="successful"), random.Random(0))
    assert exchange_queries(msgs) == ["q0", "q2", "q3"]  # chronological


def test_successful_ties_sample_uniformly():
    counts = {"q1": 0, "q2": 0, "q3": 0}
    for seed in range(300):
        d = dialogue_with([9, 1, 1, 1])
        msgs = select_context(d, StrategyConfig(context="successful"), random.Random(seed))
        chosen = exchange_queries(msgs)
        assert chosen[0] == "q0"  # the strict maximum always stays
        assert len(chosen) == 3
        for q in chosen[1:]:
            counts[q] += 1
    # two of three tied slots per draw: expectation 200 each
    assert all(140 <= n <= 260 for n in counts.values()), counts


def test_weighted_ranking_flips_easier_vs_harder():
    plain = StrategyConfig(context="successful")
    weighted = StrategyConfig(context="successful_difficult")
    # A: 2 easier (plain 2, weighted 2.0); B: 1 harder (plain 1, weighted 2.5)
    for _ in range(20):
        d = Dialogue("sys")
        d.record("init q", "init r")
        d.record("qA", "rA", easier_hits=2)
        d.record("qB", "rB", harder_hits=1)
        d.record("qC", "rC", easier_hits=1)
        d.record("qD", "rD", easier_hits=1)
        d.record("qE", "rE")
        rng = random.Random(17)
        top_plain = exchange_queries(select_context(d, plain, rng))
        top_weighted = exchange_queries(select_context(d, weighted, rng))
        assert "qA" in top_plain  # plain score 2 is the strict maximum
        assert "qA" in top_weighted and "qB" in top_weighted  # 2.5 and 2.0 lead
        assert top_weighted[:2] == ["qA", "qB"]  # chronological among chosen


def test_mixed_recent_successful_is_top_two_plus_latest():
    d = dialogue_with([7, 6, 0, 0, 1])
    msgs = select_context(
        d, StrategyConfig(context="mixed_recent_successful"), random.Random(0)
    )
    assert exchange_queries(msgs) == ["q0", "q1", "q4"]


def test_mixed_recent_successful_dedupes_when_latest_is_also_top():
    d = dialogue_with([7, 0, 6])
    msgs = select_context(
        d, StrategyConfig(context="mixed_recent_successful"), random.Random(0)
    )
    assert exchange_queries(msgs) == ["q0", "q2"]


def test_stable_keep_suppresses_buffer_for_four_responses():
    cfg = StrategyConfig(context="successful", buffer_reset="stable_keep")
    d = dialogue_with([4, 5, 6])
    d.restart("stable_keep")
    d.record("init2 q", "init2 r")  # response 1 after restart
    # building the 2nd response's query: buffer suppressed, nothing recent yet
    msgs = select_context(d, cfg, random.Random(0))
    assert exchange_queries(msgs) == []
    assert msgs[-1]["content"] == "init2 r"
    d.record("n0", "x")  # responses 2..4
    d.record("n1", "x")
    d.record("n2", "x")
    # 4 responses have elapsed: the buffered best exchanges reappear
    msgs = select_context(d, cfg, random.Random(0))
    assert exchange_queries(msgs) == ["q0", "q1", "q2"]


def test_keep_uses_buffer_immediately_after_restart():
    cfg = StrategyConfig(context="successful", buffer_reset="keep")
    d = dialogue_with([4, 5, 6])
    d.restart("keep")
    d.record("init2 q", "init2 r")
    msgs = select_context(d, cfg, random.Random(0))
    assert exchange_queries(msgs) == ["q0", "q1", "q2"]


def test_clear_forgets_buffer_on_restart():
    cfg = StrategyConfig(context="successful", buffer_reset="clear")
    d = dialogue_with([4, 5, 6])
    d.restart("clear")
    d.record("init2 q", "init2 r")
    msgs = select_context(d, cfg, random.Random(0))
    assert exchange_queries(msgs) == []


@settings(max_examples=150, deadline=None)
@given(
    hits=st.lists(st.integers(min_value=0, max_value=6), max_size=12),
    context=st.sampled_from(
        ["recent", "successful", "mixed_recent_successful", "successful_difficult"]
    ),
    seed=st.integers(min_value=0, max_value=99),
)
def test_context_is_bounded_and_alternates(hits, context, seed):
    d = dialogue_with(hits)
    msgs = select_context(d, StrategyConfig(context=context), random.Random(seed))
    assert len(msgs) <= 1 + 2 + 2 * 3  # system + initial pair + three pairs
    assert msgs[0]["role"] == "system"
    roles = [m["role"] for m in msgs[1:]]
    assert roles == ["user", "assistant"] * (len(roles) // 2)
    # chronological: queries appear in creation order
    queries = exchange_queries(msgs)
    indices = [int(q[1:]) for q in queries]
    assert indices == sorted(indices)


# --- templates -------------------------------------------------------------------

def test_system_message_states_the_format_contract():
    text = build_system_message(FORMAT_INTEGERS)
    assert "code block" in text
    assert "integer" in text
    cpu_text = build_system_message(FORMAT_MEMORY_UPDATES)
    assert "JSON" in cpu_text and "address" in cpu_text
    with pytest.raises(ValueError):
        build_system_message("smoke_signals")


def test_initial_query_summarizes_stride_families():
    text = build_initial_query(make_dut("stride").plan, "original", FORMAT_INTEGERS)
    for family in ("single stride", "double stride", "overflow", "transition"):
        assert family in text, family
    assert "1034" in text
    assert text.rstrip().endswith(format_requirement(FORMAT_INTEGERS))


def test_initial_query_one_line_intro_touches_only_the_intro():
    original = build_initial_query(make_dut("stride").plan, "original", FORMAT_INTEGERS)
    one_line = build_initial_query(make_dut("stride").plan, "one_line_intro", FORMAT_INTEGERS)
    orig_blocks = original.split("\n\n")
    one_blocks = one_line.split("\n\n")
    assert orig_blocks[1:] == one_blocks[1:]
    assert orig_blocks[0] != one_blocks[0]
    assert one_blocks[0].count(".") == 1  # single sentence


def test_initial_query_names_decoder_families():
    text = build_initial_query(make_dut("decoder").plan, "original", FORMAT_INTEGERS)
    for family in ("op", "port", "cross"):
        assert family in text


def test_iterative_branches():
    bins = make_bins(2, 2)
    req = format_requirement(FORMAT_INTEGERS)
    unusable = build_iterative_query(ResponseOutcome(usable=False, new_hits=0), bins)
    assert unusable.count(req) == 2  # format restated in summary and question
    for b in bins:
        assert b.id in unusable

    nothing = build_iterative_query(ResponseOutcome(usable=True, new_hits=0), bins)
    assert nothing.count(req) == 1
    assert "no new" in nothing

    progress = build_iterative_query(ResponseOutcome(usable=True, new_hits=5), bins)
    assert "hit 5 new" in progress


def test_negative_feedback_adds_one_avoid_sentence_per_bin():
    bins = make_bins(4, 3)
    text = build_iterative_query(
        ResponseOutcome(usable=True, new_hits=1), bins, template_variant="negative_feedback"
    )
    assert text.count("Avoid") == 7
    plain = build_iterative_query(ResponseOutcome(usable=True, new_hits=1), bins)
    assert plain.count("Avoid") == 0


def test_iterative_query_handles_complete_plan():
    text = build_iterative_query(ResponseOutcome(usable=True, new_hits=3), [])
    assert "covered" in text


# --- incremental state against the list-based oracles ------------------------------
# The oracles are the list-based functions the incremental code replaced; a
# run must draw the same random stream and pick the same bins and exchanges.

def oracle_sample(uncovered, method, rng):
    """List-based sampler: partitions the plan-order uncovered list each call."""
    if not uncovered:
        raise ValueError("no uncovered bins to sample: monitor bug or plan complete")
    k = SAMPLE_SIZE
    if method == "pure_random":
        return rng.sample(list(uncovered), min(k, len(uncovered)))
    head = list(uncovered[: min(2, k)])
    rest = list(uncovered[len(head) :])
    want = min(k - len(head), len(rest))
    easier = [b for b in rest if b.difficulty is Difficulty.EASIER]
    harder = [b for b in rest if b.difficulty is Difficulty.HARDER]
    if not easier:
        return head + rng.sample(rest, want)
    n_easier = min(3, len(easier), want)
    n_harder = min(2, len(harder), want - n_easier)
    shortfall = want - n_easier - n_harder
    if shortfall > 0:
        extra = min(shortfall, len(easier) - n_easier)
        n_easier += extra
        n_harder += min(shortfall - extra, len(harder) - n_harder)
    return head + rng.sample(easier, n_easier) + rng.sample(harder, n_harder)


def oracle_top_k(pool, k, score, rng):
    """List-based ranking: scores every exchange of a seq-ordered list."""
    if len(pool) <= k:
        return sorted(pool, key=lambda e: e.seq)
    ranked = sorted((score(e) for e in pool), reverse=True)
    boundary = ranked[k - 1]
    sure = [e for e in pool if score(e) > boundary]
    ties = [e for e in pool if score(e) == boundary]
    return sorted(sure + rng.sample(ties, k - len(sure)), key=lambda e: e.seq)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_samplers_agree(state, seed):
    expected = [b for b in state.plan.bins if b.id not in state.covered]
    assert state.uncovered().bins == expected
    if not expected:
        return
    for method in ("pure_random", "type_based"):
        fast, slow = random.Random(seed), random.Random(seed)
        got = outcome(sample_missed_bins, state.uncovered(), method, fast)
        assert got == outcome(oracle_sample, expected, method, slow), method
        assert fast.getstate() == slow.getstate(), method


@settings(max_examples=40, deadline=None)
@given(
    device=st.sampled_from(DUT_KINDS),
    steps=st.lists(
        st.tuples(st.sampled_from(["few", "many", "easier", "head"]), st.integers(0, 2**16)),
        max_size=10,
    ),
)
def test_sampler_matches_list_oracle_on_real_plans(device, steps):
    plan = make_dut(device).plan
    state = CoverageState(plan)
    assert_samplers_agree(state, 0)
    easier_ids = [b.id for b in plan if b.difficulty is Difficulty.EASIER]
    for kind, seed in steps:
        rng = random.Random(seed)
        if kind == "few":
            batch = rng.sample([b.id for b in plan], 5)
        elif kind == "many":
            batch = rng.sample([b.id for b in plan], len(plan) // 3)
        elif kind == "easier":  # every easier bin but at most one
            batch = easier_ids[rng.randrange(2):]
        else:  # the plan-order head itself, so the head's make-up changes
            batch = [b.id for b in state.uncovered().bins][: rng.randrange(1, 4)]
        state.record(batch)
        assert_samplers_agree(state, seed)


@settings(max_examples=100, deadline=None)
@given(
    easier_flags=st.lists(st.booleans(), max_size=24),
    order=st.randoms(use_true_random=False),
    seed=st.integers(min_value=0, max_value=999),
)
@example(easier_flags=[True, False] * 6, order=random.Random(0), seed=0)  # mixed heads
def test_sampler_matches_list_oracle_on_small_plans(easier_flags, order, seed):
    bins = [
        BinDescriptor(
            f"bin_{i:02d}",
            f"toy behavior {i}",
            Difficulty.EASIER if easy else Difficulty.HARDER,
            "toy",
        )
        for i, easy in enumerate(easier_flags)
    ]
    state = CoverageState(CoveragePlan("toy", bins))
    ids = [b.id for b in bins]
    order.shuffle(ids)
    assert_samplers_agree(state, seed)
    for bin_id in ids:  # cover one bin at a time down to an empty plan
        state.record([bin_id])
        assert_samplers_agree(state, seed)


class OracleDialogue:
    """The list-based pool bookkeeping the grouped pool replaced."""

    def __init__(self) -> None:
        self.pool: list[Exchange] = []

    def restart(self, buffer_reset) -> None:
        if buffer_reset == "clear":
            self.pool = []


SCORES = (lambda e: e.hits, lambda e: e.weighted_score)
# small hit counts, so that different outcomes often tie on a score
DIALOGUE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["initial", "iterative", "restart"]),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(
    ops=DIALOGUE_OPS,
    buffer_reset=st.sampled_from(BUFFER_RESETS),
    seed=st.integers(min_value=0, max_value=999),
)
@example(  # ties at score 1 span two groups whose members interleave in seq
    ops=[("initial", 0, 0)] + [("iterative", 1, 0), ("iterative", 0, 1)] * 3,
    buffer_reset="keep",
    seed=0,
)
def test_pool_and_context_match_list_oracle(ops, buffer_reset, seed):
    d = Dialogue("sys")
    oracle = OracleDialogue()
    for step, (op, easier, harder) in enumerate(ops):
        if op == "restart":
            d.restart(buffer_reset)
            oracle.restart(buffer_reset)
        elif d.initial is None:
            d.record(f"init{step}", "r", easier, harder)
        else:
            oracle.pool.append(d.record(f"q{step}", "r", easier, harder))
        assert list(d.pool) == oracle.pool and len(d.pool) == len(oracle.pool)
        for k in (1, 2, 3, 4):
            for score in SCORES:
                fast, slow = random.Random(seed + step), random.Random(seed + step)
                assert _top_k(d.pool, k, score, fast) == oracle_top_k(
                    oracle.pool, k, score, slow
                )
                assert fast.getstate() == slow.getstate()

        def ranked_by_oracle(pool, k, score, rng):
            return oracle_top_k(oracle.pool, k, score, rng)

        for context in CONTEXT_STRATEGIES:
            config = StrategyConfig(context=context, buffer_reset=buffer_reset)
            fast, slow = random.Random(seed + step), random.Random(seed + step)
            got = select_context(d, config, fast)
            with mock.patch.object(prompting, "_top_k", ranked_by_oracle):
                want = select_context(d, config, slow)
            assert got == want, context
            assert fast.getstate() == slow.getstate(), context


# --- copy-free sampling and cached ranking against the code they replaced ----------
# `copying_sample` and `rerank_top_k` are the bodies the O(k) paths replaced: the
# sampler copied each side of the view per query, and the ranking re-scored and
# re-sorted every outcome group per call.

def copying_sample(uncovered, method, rng):
    """The sampler that listed the view's bins before each `random.sample`."""
    if not uncovered:
        raise ValueError("no uncovered bins to sample: monitor bug or plan complete")
    k = min(SAMPLE_SIZE, len(uncovered))
    if method == "pure_random":
        return rng.sample(list(uncovered.bins), k)
    head = list(islice(uncovered.bins, 2))
    want = k - len(head)
    m = sum(1 for b in head if b.difficulty is Difficulty.EASIER)
    easier = list(uncovered.easier)
    del easier[:m]
    harder = list(uncovered.harder)
    del harder[: len(head) - m]
    if not easier:
        return head + rng.sample(harder, want)
    n_easier = min(3, len(easier), want)
    n_harder = min(2, len(harder), want - n_easier)
    shortfall = want - n_easier - n_harder
    if shortfall > 0:
        extra = min(shortfall, len(easier) - n_easier)
        n_easier += extra
        n_harder += min(shortfall - extra, len(harder) - n_harder)
    return head + rng.sample(easier, n_easier) + rng.sample(harder, n_harder)


@settings(max_examples=30, deadline=None)
@given(
    device=st.sampled_from(DUT_KINDS),
    order=st.randoms(use_true_random=False),
    easier_first=st.booleans(),
    seed=st.integers(min_value=0, max_value=999),
)
def test_sampler_matches_copying_oracle(device, order, easier_first, seed):
    plan = make_dut(device).plan
    state = CoverageState(plan)
    ids = [b.id for b in plan]
    order.shuffle(ids)
    if easier_first:  # the easier side runs dry while harder bins remain
        ids.sort(key=lambda i: plan.descriptor(i).difficulty is Difficulty.HARDER)
    # random cover points, then one bin at a time through the last few,
    # where fewer than SAMPLE_SIZE bins are left
    cuts = set(order.sample(range(len(ids)), 12))
    cuts.update(range(len(ids) - SAMPLE_SIZE - 2, len(ids)))
    done = 0
    for cut in sorted(cuts):
        state.record(ids[done:cut])
        done = cut
        view = state.uncovered()
        for method in ("pure_random", "type_based"):
            fast, slow = random.Random(seed + cut), random.Random(seed + cut)
            got = sample_missed_bins(view, method, fast)
            assert got == copying_sample(view, method, slow), (method, cut)
            assert fast.getstate() == slow.getstate(), (method, cut)


def rerank_top_k(pool, k, score, rng):
    """The ranking that grouped and sorted a seq-ordered list on every call."""
    if len(pool) <= k:
        return list(pool)
    groups_by_outcome: dict = {}
    for e in pool:
        groups_by_outcome.setdefault((e.easier_hits, e.harder_hits), []).append(e)
    by_score: dict = {}
    for group in groups_by_outcome.values():
        by_score.setdefault(score(group[0]), []).append(group)
    sure = []
    for value in sorted(by_score, reverse=True):
        groups = by_score[value]
        if len(sure) + sum(map(len, groups)) >= k:
            break
        sure.extend(chain.from_iterable(groups))
    ties = sorted(chain.from_iterable(groups), key=lambda e: e.seq)
    return sorted(sure + rng.sample(ties, k - len(sure)), key=lambda e: e.seq)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["initial", "iterative", "iterative", "iterative", "restart"]),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=120,
    ),
    buffer_reset=st.sampled_from(BUFFER_RESETS),
    seed=st.integers(min_value=0, max_value=999),
)
def test_cached_ranking_matches_rerank_oracle(ops, buffer_reset, seed):
    d = Dialogue("sys")
    seen: list[Exchange] = []  # the pool as a seq-ordered list
    for step, (op, easier, harder) in enumerate(ops):
        if op == "restart":
            d.restart(buffer_reset)
            if buffer_reset == "clear":
                seen = []
        elif d.initial is None:
            d.record(f"init{step}", "r", easier, harder)
        else:
            seen.append(d.record(f"q{step}", "r", easier, harder))
        for k in (1, 3, 5):
            for score in SCORES:
                fast, slow = random.Random(seed + step), random.Random(seed + step)
                for _ in range(2):  # the second call reads the cached levels
                    assert _top_k(d.pool, k, score, fast) == rerank_top_k(seen, k, score, slow)
                    assert fast.getstate() == slow.getstate()

        def ranked_by_oracle(pool, k, score, rng):
            return rerank_top_k(seen, k, score, rng)

        for context in CONTEXT_STRATEGIES:
            config = StrategyConfig(context=context, buffer_reset=buffer_reset)
            fast, slow = random.Random(seed + step), random.Random(seed + step)
            got = select_context(d, config, fast)
            with mock.patch.object(prompting, "_top_k", ranked_by_oracle):
                want = select_context(d, config, slow)
            assert got == want, context
            assert fast.getstate() == slow.getstate(), context


def test_ranking_scores_each_group_once_until_a_new_group_appears():
    calls = 0

    def counting_hits(e):
        nonlocal calls
        calls += 1
        return e.hits

    d = Dialogue("sys")
    d.record("init", "r")
    outcomes = [(0, 0)] * 50 + [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 1)] * 5
    for i, (easier, harder) in enumerate(outcomes):
        d.record(f"q{i}", "r", easier, harder)
    groups = len(set(outcomes))
    rng = random.Random(0)
    for _ in range(1000):
        _top_k(d.pool, 3, counting_hits, rng)
    assert calls == groups
    d.record("same", "r", 3, 1)  # the top group grows in place
    assert any(e.query == "same" for e in _top_k(d.pool, 7, counting_hits, rng))
    assert calls == groups
    d.record("new", "r", 5, 0)  # a new group: every group is scored again
    assert [e.query for e in _top_k(d.pool, 1, counting_hits, rng)] == ["new"]
    assert calls == 2 * groups + 1


# --- one per-response series against the three lists it replaced --------------------

class ThreeListOracle:
    """Restart and mixed-sampler bookkeeping as three separate lists: the
    trial's counts (the exhaustion rule's), the counts since the last restart
    (the restart rule's), and the mixed sampler's own stall window."""

    def __init__(self, config: StrategyConfig) -> None:
        self.config = config
        self.trial: list[int] = []
        self.since_restart: list[int] = []
        self.window: list[int] = []
        self.method = "type_based" if config.missed_bin == "mixed" else config.missed_bin
        self.pool = 0  # exchanges in the best-exchange buffer

    def prepare(self, rate: float) -> bool:
        """Restart, as the runtime did before building a query; True if it fired."""
        tolerance = restart_tolerance(self.config.restart, rate)
        if len(self.since_restart) < tolerance or sum(self.since_restart[-tolerance:]) >= 3:
            return False
        self.since_restart, self.window = [], []
        if self.config.buffer_reset == "clear":
            self.pool = 0
        return True

    def credit(self, new_hits: int, rate: float) -> None:
        if self.since_restart:
            self.pool += 1  # iterative exchanges join the buffer
        self.trial.append(new_hits)
        self.since_restart.append(new_hits)
        if self.config.missed_bin != "mixed":
            return
        self.window.append(new_hits)
        if rate >= 0.15 and len(self.window) >= 4 and sum(self.window[-4:]) < 3:
            self.method = "pure_random" if self.method == "type_based" else "type_based"
            self.window = []

    def exhausted(self) -> bool:
        zero = len(self.trial) >= 25 and sum(self.trial[-25:]) == 0
        return zero or (len(self.trial) >= 40 and sum(self.trial[-40:]) < 3)


SERIES_PLAN = CoveragePlan("toy20", make_bins(10, 10))  # rate steps of 0.05: 3 bins is 15%


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from([0, 0, 0, 0, 1, 2, 3]),  # easier bins newly covered
            st.sampled_from([0, 0, 0, 1]),  # harder bins newly covered
            st.integers(min_value=0, max_value=len(SERIES_PLAN) - 1),  # bins covered after
        ),
        max_size=90,
    ),
    restart=st.sampled_from(prompting.RESTART_PLANS),
    buffer_reset=st.sampled_from(BUFFER_RESETS),
    missed_bin=st.sampled_from(prompting.MISSED_BIN_METHODS),
    seed=st.integers(min_value=0, max_value=99),
)
@example(  # a restart below the threshold, then a stall above it: the window restarts too
    steps=[(0, 0, 0)] * 4 + [(0, 0, 5)],
    restart="low",
    buffer_reset="keep",
    missed_bin="mixed",
    seed=0,
)
def test_one_series_matches_three_list_oracle(steps, restart, buffer_reset, missed_bin, seed):
    config = StrategyConfig(missed_bin=missed_bin, restart=restart, buffer_reset=buffer_reset)
    backend = ReplayBackend(["```\n1\n```"] * len(steps))
    agent = LlmAgent(SERIES_PLAN, FORMAT_INTEGERS, config, backend, random.Random(seed))
    oracle = ThreeListOracle(config)
    log = TrialLog(1, 10**6)  # the trial's record; its plan is never filled
    state = CoverageState(SERIES_PLAN)
    rate = 0.0
    restarts, oracle_restarts = [], []
    for step, (easier, harder, covered) in enumerate(steps):
        restarted = agent.prepare(state.uncovered()).restarted
        if restarted:
            restarts.append(step)
        if oracle.prepare(rate):
            oracle_restarts.append(step)
        assert restarts == oracle_restarts
        prepared = agent.prepare(state.uncovered())  # a second prepare never restarts
        assert not prepared.restarted
        assert agent.dialogue.responses_since_restart == len(oracle.since_restart)
        agent.submit(prepared)
        state = CoverageState(SERIES_PLAN)  # the next prepare sees `covered` bins
        state.record([b.id for b in islice(SERIES_PLAN, covered)])
        rate = len(state.covered) / len(SERIES_PLAN)
        agent.credit(easier, harder, rate)
        oracle.credit(easier + harder, rate)
        log.event(1, ["bin"] * (easier + harder), restarted)
        assert agent.dialogue.deltas == oracle.trial == log.deltas
        assert agent.dialogue.responses_since_restart == len(oracle.since_restart)
        assert len(log.deltas) - log.restart_at == len(oracle.since_restart)
        assert (log.settled() == EXHAUSTED) == oracle.exhausted()
        assert agent.sampler.method == oracle.method, step
        assert len(agent.dialogue.pool) == oracle.pool
        assert exhausted(agent.dialogue.deltas) == oracle.exhausted()
    assert agent.dialogue.restarts == len(oracle_restarts)
