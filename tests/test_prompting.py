"""Prompt strategy tests: templates, bin sampling, context selection, restarts.

Worked examples are frozen by hand from the strategy rules; the sampler
distribution checks re-state the 2 + 3 + 2 composition rule independently of
the implementation's pool bookkeeping.
"""
from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import covstim.prompting as prompting

from covstim.coverage import BinDescriptor, CoveragePlan, CoverageState, Difficulty
from covstim.duts import DUT_KINDS, FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES, make_dut
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
    cfg = StrategyConfig(missed_bin="pure_random")
    uncovered = make_bins(3, 2)
    out = sample_missed_bins(uncovered_of(uncovered), cfg, random.Random(1))
    assert sorted(b.id for b in out) == [b.id for b in uncovered]


def test_pure_random_is_seven_without_replacement():
    cfg = StrategyConfig(missed_bin="pure_random")
    uncovered = make_bins(10, 10)
    out = sample_missed_bins(uncovered_of(uncovered), cfg, random.Random(1))
    assert len(out) == 7
    assert len({b.id for b in out}) == 7
    assert all(b in uncovered for b in out)


def test_type_based_head_then_three_easier_two_harder():
    cfg = StrategyConfig(missed_bin="type_based")
    uncovered = make_bins(8, 8)  # plan order: easier first here
    out = sample_missed_bins(uncovered_of(uncovered), cfg, random.Random(3))
    assert out[0] is uncovered[0] and out[1] is uncovered[1]
    tail = out[2:]
    assert len(tail) == 5
    assert sum(1 for b in tail if b.difficulty is Difficulty.EASIER) == 3
    assert sum(1 for b in tail if b.difficulty is Difficulty.HARDER) == 2
    assert len({b.id for b in out}) == 7


def test_type_based_falls_back_to_random_five_when_easier_exhausted():
    cfg = StrategyConfig(missed_bin="type_based")
    uncovered = make_bins(0, 12)  # nothing easier anywhere
    out = sample_missed_bins(uncovered_of(uncovered), cfg, random.Random(3))
    assert out[0] is uncovered[0] and out[1] is uncovered[1]
    assert len(out) == 7
    assert len({b.id for b in out}) == 7


def test_type_based_tops_up_when_one_pool_runs_short():
    cfg = StrategyConfig(missed_bin="type_based")
    # after the first-two head, one easier and many harder remain
    uncovered = make_bins(3, 10)
    out = sample_missed_bins(uncovered_of(uncovered), cfg, random.Random(5))
    tail = out[2:]
    assert len(out) == 7
    assert sum(1 for b in tail if b.difficulty is Difficulty.EASIER) == 1
    assert sum(1 for b in tail if b.difficulty is Difficulty.HARDER) == 4
    # and the mirror case: plenty easier, one harder
    uncovered = make_bins(10, 1)
    out = sample_missed_bins(uncovered_of(uncovered), cfg, random.Random(5))
    tail = out[2:]
    assert sum(1 for b in tail if b.difficulty is Difficulty.HARDER) == 1
    assert sum(1 for b in tail if b.difficulty is Difficulty.EASIER) == 4


def test_empty_uncovered_is_a_hard_error():
    with pytest.raises(ValueError):
        sample_missed_bins(uncovered_of([]), StrategyConfig(), random.Random(0))


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
    cfg = StrategyConfig(missed_bin=method)
    out = sample_missed_bins(uncovered_of(uncovered), cfg, random.Random(seed))
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
    cfg = StrategyConfig(missed_bin=method)
    for seed, uncovered in enumerate(views):
        out = sample_missed_bins(uncovered, cfg, random.Random(seed))
        assert len(out) == min(SAMPLE_SIZE, len(uncovered)), len(uncovered)
        assert len({b.id for b in out}) == len(out)


def test_mixed_below_threshold_equals_type_based():
    uncovered = make_bins(8, 8)
    sampler = MissedBinSampler(StrategyConfig(missed_bin="mixed"))
    sampler.observe(1, rate=0.10)
    a = sampler.sample(uncovered_of(uncovered), random.Random(7))
    b = sample_missed_bins(
        uncovered_of(uncovered), StrategyConfig(missed_bin="type_based"), random.Random(7)
    )
    assert [x.id for x in a] == [x.id for x in b]


def test_mixed_toggles_on_stalls_only_above_threshold():
    sampler = MissedBinSampler(StrategyConfig(missed_bin="mixed"))
    assert sampler.method == "type_based"
    for delta in (0, 0, 1, 1):
        sampler.observe(delta, rate=0.10)
    assert sampler.method == "type_based"  # stalled, but below 15%
    sampler.observe(0, rate=0.20)  # last four are 0,1,1,0: sum 2 < 3
    assert sampler.method == "pure_random"
    # window reset on toggle: three stalls are not enough to re-toggle
    for delta in (0, 0, 0):
        sampler.observe(delta, rate=0.20)
    assert sampler.method == "pure_random"
    sampler.observe(0, rate=0.20)
    assert sampler.method == "type_based"


def test_mixed_window_resets_on_restart_but_method_persists():
    sampler = MissedBinSampler(StrategyConfig(missed_bin="mixed"))
    for _ in range(4):
        sampler.observe(0, rate=0.20)
    assert sampler.method == "pure_random"
    for _ in range(3):
        sampler.observe(0, rate=0.20)
    sampler.on_restart()
    assert sampler.method == "pure_random"
    for _ in range(3):
        sampler.observe(0, rate=0.20)
    assert sampler.method == "pure_random"  # restart cleared the stall window
    sampler.observe(0, rate=0.20)
    assert sampler.method == "type_based"


def test_non_mixed_sampler_ignores_observations():
    sampler = MissedBinSampler(StrategyConfig(missed_bin="type_based"))
    for _ in range(10):
        sampler.observe(0, rate=0.5)
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
    d.record_initial("init q", "init r")
    for i, hits in enumerate(hit_counts):
        d.record_iterative(f"q{i}", f"r{i}", easier_hits=hits)
    return d


def test_iterative_before_initial_is_an_error():
    d = Dialogue("sys")
    with pytest.raises(ValueError):
        d.record_iterative("q", "r")


def test_dialogue_tracks_deltas_and_restart_resets_them():
    d = dialogue_with([2, 0, 1])
    assert d.deltas_since_restart == [0, 2, 0, 1]  # initial response counts too
    assert d.responses_since_restart == 4
    d.restart("clear")
    assert d.deltas_since_restart == []
    assert d.restarts == 1
    assert d.initial is None and d.iterative == []


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
        d.record_initial("init q", "init r")
        d.record_iterative("qA", "rA", easier_hits=2)
        d.record_iterative("qB", "rB", harder_hits=1)
        d.record_iterative("qC", "rC", easier_hits=1)
        d.record_iterative("qD", "rD", easier_hits=1)
        d.record_iterative("qE", "rE")
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
    d.record_initial("init2 q", "init2 r")  # response 1 after restart
    # building the 2nd response's query: buffer suppressed, nothing recent yet
    msgs = select_context(d, cfg, random.Random(0))
    assert exchange_queries(msgs) == []
    assert msgs[-1]["content"] == "init2 r"
    d.record_iterative("n0", "x")  # responses 2..4
    d.record_iterative("n1", "x")
    d.record_iterative("n2", "x")
    # 4 responses have elapsed: the buffered best exchanges reappear
    msgs = select_context(d, cfg, random.Random(0))
    assert exchange_queries(msgs) == ["q0", "q1", "q2"]


def test_keep_uses_buffer_immediately_after_restart():
    cfg = StrategyConfig(context="successful", buffer_reset="keep")
    d = dialogue_with([4, 5, 6])
    d.restart("keep")
    d.record_initial("init2 q", "init2 r")
    msgs = select_context(d, cfg, random.Random(0))
    assert exchange_queries(msgs) == ["q0", "q1", "q2"]


def test_clear_forgets_buffer_on_restart():
    cfg = StrategyConfig(context="successful", buffer_reset="clear")
    d = dialogue_with([4, 5, 6])
    d.restart("clear")
    d.record_initial("init2 q", "init2 r")
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

def oracle_sample(uncovered, config, rng, method=None):
    """List-based sampler: partitions the plan-order uncovered list each call."""
    if not uncovered:
        raise ValueError("no uncovered bins to sample: monitor bug or plan complete")
    method = method or config.missed_bin
    if method == "mixed":
        method = "type_based"
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
    assert list(state.uncovered()) == expected
    if not expected:
        return
    for method in ("pure_random", "type_based", "mixed"):
        config = StrategyConfig(missed_bin=method)
        fast, slow = random.Random(seed), random.Random(seed)
        got = outcome(sample_missed_bins, state.uncovered(), config, fast)
        assert got == outcome(oracle_sample, expected, config, slow), method
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
            batch = rng.sample(plan.ids(), 5)
        elif kind == "many":
            batch = rng.sample(plan.ids(), len(plan) // 3)
        elif kind == "easier":  # every easier bin but at most one
            batch = easier_ids[rng.randrange(2):]
        else:  # the plan-order head itself, so the head's make-up changes
            batch = [b.id for b in state.uncovered()][: rng.randrange(1, 4)]
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
            d.record_initial(f"init{step}", "r", easier, harder)
        else:
            ex = d.record_iterative(f"q{step}", "r", easier, harder)
            oracle.pool.append(ex)
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
