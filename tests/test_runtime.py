"""Trial loop, exhaustion rule, metrics, and JSONL log round-trips."""
from __future__ import annotations

import functools
import json
import random
import tempfile
from itertools import cycle
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covstim import runtime
from covstim.agents import CrtAgent, LlmAgent
from covstim.backend import ReplayBackend
from covstim.coverage import CoverageState
from covstim.duts import DUT_KINDS, Dut, MalformedStimulusError, make_dut
from covstim.prompting import (
    BUFFER_RESETS,
    CONTEXT_STRATEGIES,
    MISSED_BIN_METHODS,
    RESTART_PLANS,
    TEMPLATE_VARIANTS,
    StrategyConfig,
    format_requirement,
    should_restart,
)
from covstim.runtime import (
    ABORTED,
    BUDGET_EXHAUSTED,
    EXHAUST_ZERO_WINDOW,
    EXHAUSTED,
    FULL_COVERAGE,
    ExperimentReport,
    PromptScale,
    RunConfig,
    TrialSummary,
    build_report,
    compute_metrics,
    exhausted,
    report_csv,
    report_from_log,
    report_text,
    run_crt_trial,
    run_experiment,
    run_trial,
    write_log,
)
from test_extraction import DEEP_REPLY, load_perfbench, per_call_draws
from test_golden import regen
from toydut import ToyDut

FULL_HOUSE = "```\n0 1 2 3 4 5 6 7 8 9\n```"
DUD = "```\n99\n```"
GOLDEN_LOG = Path(__file__).parent / "fixtures" / "golden_trial.jsonl"


def llm_config(**kwargs) -> RunConfig:
    return RunConfig(dut="toy", agent="llm", **kwargs)


def run_toy_trial(script, budget=10**9, strategy=StrategyConfig(), backend_config=None):
    backend = ReplayBackend(script, config=backend_config)
    dut = ToyDut()
    agent = LlmAgent(dut.plan, dut.stimulus_format, strategy, backend, random.Random(7))
    return run_trial(dut, agent, budget, 1, PromptScale()), backend


# --- exhaustion rule ----------------------------------------------------------------


def test_24_zero_responses_not_exhausted():
    assert exhausted([0] * 24) is False


def test_25_zero_responses_exhausted():
    assert exhausted([0] * 25) is True


def test_one_hit_inside_zero_window_blocks_it():
    assert exhausted([1] + [0] * 24) is False


def test_40_responses_summing_to_two_exhausted():
    # the hit sits inside the last 25, so only the wide window fires
    assert exhausted([0] * 39 + [1]) is True


def test_40_responses_summing_to_three_not_exhausted():
    assert exhausted([0] * 38 + [1, 2]) is False


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=60))
def test_short_or_active_histories_never_exhaust(deltas):
    if len(deltas) < 25:
        assert exhausted(deltas) is False
    elif sum(deltas[-25:]) > 0 and len(deltas) < 40:
        assert exhausted(deltas) is False


# --- metrics ------------------------------------------------------------------------


def ts(trial=1, status=EXHAUSTED, coverage=0, messages=0, tokens_in=0, tokens_out=0):
    return TrialSummary(
        trial=trial,
        status=status,
        coverage=coverage,
        rate=0.0,
        messages=messages,
        tokens_in=tokens_in,
        tokens_out=tokens_out,
    )


def test_single_trial_message_stats():
    metrics = compute_metrics([ts(coverage=500, messages=641)], 1034)
    assert metrics["avg_messages"] == 641
    assert metrics["stdev_messages"] is None


def test_two_trial_message_stats():
    summaries = [ts(1, messages=500), ts(2, messages=700)]
    metrics = compute_metrics(summaries, 1034)
    assert metrics["avg_messages"] == 600
    assert metrics["stdev_messages"] == pytest.approx(141.4213562, rel=1e-6)


def test_coverage_rate_percent_formatting():
    metrics = compute_metrics([ts(coverage=1023)], 1034)
    assert round(100 * metrics["max_rate"], 2) == 98.94


def test_incomplete_trials_count_for_coverage_not_messages():
    summaries = [
        ts(1, status=EXHAUSTED, coverage=400, messages=100),
        ts(2, status=BUDGET_EXHAUSTED, coverage=900, messages=40),
    ]
    metrics = compute_metrics(summaries, 1034)
    assert metrics["max_coverage"] == 900
    assert metrics["avg_messages"] == 100
    assert metrics["stdev_messages"] is None


def test_zero_message_trials_report_no_message_stats():
    metrics = compute_metrics([ts(coverage=21, messages=0)], 1034)
    assert metrics["avg_messages"] is None
    assert metrics["avg_cov_per_msg"] is None


def test_coverage_per_message():
    metrics = compute_metrics([ts(coverage=600, messages=300)], 1034)
    assert metrics["avg_cov_per_msg"] == 2.0


def test_no_trials_is_empty_but_valid():
    metrics = compute_metrics([], 1034)
    assert metrics["max_coverage"] == 0
    assert metrics["avg_messages"] is None


# --- crt trials ---------------------------------------------------------------------


class SeqAgent:
    """Deterministic stand-in feeding a fixed value sequence."""

    def __init__(self, values):
        self.values = list(values)

    def stimuli(self, count):  # lazy, so any count is fine
        for _, value in zip(range(count), cycle(self.values)):
            yield value


def test_crt_trial_chunks_and_status():
    trial = run_crt_trial(ToyDut(), SeqAgent([99]), count=25_000)
    assert trial.status == EXHAUSTED
    assert trial.messages == 0
    assert trial.tokens == 0
    assert [e["stimuli"] for e in trial.events] == [10_000, 10_000, 5_000]
    assert [e["response_idx"] for e in trial.events] == [1, 2, 3]
    assert trial.coverage == 0


def test_crt_trial_stops_on_full_coverage():
    trial = run_crt_trial(ToyDut(), SeqAgent(range(10)), count=25_000)
    assert trial.status == FULL_COVERAGE
    assert len(trial.events) == 1
    assert trial.events[0]["stimuli"] == 10
    assert trial.events[0]["coverage"] == 10
    assert trial.coverage == 10


def test_crt_trial_of_a_huge_count_stops_on_full_coverage():
    trial = run_crt_trial(ToyDut(), SeqAgent(range(10)), count=10**30)
    assert trial.status == FULL_COVERAGE
    assert [e["stimuli"] for e in trial.events] == [10]


def test_crt_trial_rejects_a_stream_that_ends_early():
    class ShortAgent(SeqAgent):
        def stimuli(self, count):
            return super().stimuli(count - 1)

    with pytest.raises(ValueError, match="crt stimuli ended after 10000 of 10001"):
        run_crt_trial(ToyDut(), ShortAgent([99]), count=10_001)


@pytest.mark.parametrize("count", [0, -5])
def test_crt_trial_rejects_a_count_below_one(count):
    with pytest.raises(ValueError, match=f"crt count must be at least 1, not {count}"):
        run_crt_trial(ToyDut(), SeqAgent([99]), count)


# the `Dut` protocol's members: its annotated attributes and its methods
DUT_MEMBERS = {*Dut.__annotations__} | {
    name for name, value in vars(Dut).items() if callable(value) and not name.startswith("_")
}


def has_dut_members(dut) -> bool:
    return all(hasattr(dut, name) for name in DUT_MEMBERS)


class ProtocolOnly:
    """A device seen through the `Dut` protocol alone: `__slots__` and no
    `__getattr__`, so reading any other attribute raises AttributeError."""

    __slots__ = ("kind", "stimulus_format", "plan", "reset", "feed")

    def __init__(self, dut) -> None:
        self.kind, self.stimulus_format, self.plan = dut.kind, dut.stimulus_format, dut.plan
        self.reset, self.feed = dut.reset, dut.feed


@pytest.mark.parametrize("kind", DUT_KINDS)
def test_crt_run_reads_the_device_only_through_its_protocol(tmp_path, kind):
    dut = make_dut(kind)
    assert set(ProtocolOnly.__slots__) == DUT_MEMBERS
    assert has_dut_members(dut) and has_dut_members(ProtocolOnly(dut))
    config = RunConfig(dut=kind, agent="crt", crt_count=25_000)
    run_experiment(config, log_path=tmp_path / "bare.jsonl")
    run_experiment(config, dut=ProtocolOnly(dut), log_path=tmp_path / "proxied.jsonl")
    assert (tmp_path / "proxied.jsonl").read_bytes() == (tmp_path / "bare.jsonl").read_bytes()


def test_dialogue_run_reads_the_device_only_through_its_protocol(tmp_path):
    assert has_dut_members(ToyDut())
    script = json.loads((regen.FIXTURES / regen.REPLAY_SCRIPT).read_text())
    run_experiment(
        llm_config(seed=regen.GOLDEN_SEED), backend=ReplayBackend(script),
        dut=ProtocolOnly(ToyDut()), log_path=tmp_path / "log.jsonl",
    )
    assert (tmp_path / "log.jsonl").read_bytes() == GOLDEN_LOG.read_bytes()


def test_crt_trial_on_real_dut():
    dut = make_dut("stride")
    trial = run_crt_trial(dut, CrtAgent("stride", random.Random(5)), 25_000)
    assert trial.status == EXHAUSTED
    assert [e["stimuli"] for e in trial.events] == [10_000, 10_000, 5_000]
    assert trial.events[-1]["coverage"] == trial.coverage


def oracle_crt_trial(dut, draw, count: int) -> tuple:
    """The crt loop as it ran one stimulus at a time: one `draw()` and one
    feed per stimulus, full coverage checked after each; a plain set
    stands in for the coverage state. Returns (status, coverage, events)."""
    plan_ids = {b.id for b in dut.plan}
    covered: set = set()
    events, chunk_new, fed, status = [], [], 0, EXHAUSTED
    for i in range(count):
        for bin_id in dut.feed(draw()):
            assert bin_id in plan_ids
            if bin_id not in covered:
                covered.add(bin_id)
                chunk_new.append(bin_id)
        fed += 1
        full = len(covered) == len(plan_ids)
        if fed == 10_000 or i == count - 1 or full:
            events.append({
                "type": "event", "trial": 1, "response_idx": len(events) + 1,
                "stimuli": fed, "new_bins": chunk_new, "coverage": len(covered),
                "rate": len(covered) / len(plan_ids), "restart": False,
                "tokens_in": 0, "tokens_out": 0,
            })
            chunk_new, fed = [], 0
            if full:
                status = FULL_COVERAGE
                break
    return status, len(covered), events


def assert_crt_trial_matches_oracle(trial, oracle) -> None:
    status, coverage, events = oracle
    assert (trial.status, trial.coverage, trial.events) == (status, coverage, events)
    assert trial.rate == (events[-1]["rate"] if events else 0.0)
    assert (trial.messages, trial.tokens_in, trial.tokens_out) == (0, 0, 0)


CRT_COUNTS = [1, 9_999, 10_000, 10_001, 25_000]


@pytest.mark.parametrize("count", CRT_COUNTS)
@pytest.mark.parametrize("kind", ["stride", "decoder", "cpu"])
def test_crt_trial_matches_per_stimulus_oracle_on_devices(kind, count):
    fast, slow = random.Random(count), random.Random(count)
    trial = run_crt_trial(make_dut(kind), CrtAgent(kind, fast), count)
    draws = per_call_draws(kind, slow)
    oracle = oracle_crt_trial(make_dut(kind), lambda: next(draws), count)
    assert_crt_trial_matches_oracle(trial, oracle)
    assert fast.getstate() == slow.getstate()


# a run of misses, then the ten toy bins: full coverage lands at stimulus gap + 10
@pytest.mark.parametrize("gap", [0, 9_989, 9_990, 9_991, 10_004, 19_990, 24_990])
@pytest.mark.parametrize("count", CRT_COUNTS)
def test_crt_trial_matches_per_stimulus_oracle_on_toy(gap, count):
    values = [99] * gap + [3, 3, 0, 1, 2, 4, 5, 6, 7, 8, 9]
    trial = run_crt_trial(ToyDut(), SeqAgent(values), count)
    stream = cycle(values)
    oracle = oracle_crt_trial(ToyDut(), lambda: next(stream), count)
    assert_crt_trial_matches_oracle(trial, oracle)
    if gap + 11 <= count:
        assert trial.status == FULL_COVERAGE
        assert sum(e["stimuli"] for e in trial.events) == gap + 11


@given(seed=st.integers(0, 2**32), gap=st.integers(0, 25_000), count=st.sampled_from(CRT_COUNTS))
@settings(max_examples=25, deadline=None)
def test_crt_trial_matches_per_stimulus_oracle_on_random_toy_draws(seed, gap, count):
    fast, slow = random.Random(seed), random.Random(seed)

    class GapAgent:  # `gap` misses, then uniform values of which ten hit
        def stimuli(self, count):
            for i in range(count):
                yield 99 if i < gap else fast.randrange(12)

    trial = run_crt_trial(ToyDut(), GapAgent(), count)
    at = iter(range(count))
    oracle = oracle_crt_trial(
        ToyDut(), lambda: 99 if next(at) < gap else slow.randrange(12), count
    )
    assert_crt_trial_matches_oracle(trial, oracle)
    assert fast.getstate() == slow.getstate()


# --- llm trials ---------------------------------------------------------------------


def test_trial_reaches_full_coverage():
    trial, backend = run_toy_trial([FULL_HOUSE])
    assert trial.status == FULL_COVERAGE
    assert trial.messages == 1
    assert backend.calls == 1
    event = trial.events[0]
    assert event["response_idx"] == 1
    assert event["stimuli"] == 10
    assert len(event["new_bins"]) == 10
    assert event["coverage"] == 10
    assert event["rate"] == 1.0
    assert event["restart"] is False
    assert event["tokens_in"] > 0 and event["tokens_out"] > 0
    assert trial.tokens == event["tokens_in"] + event["tokens_out"]


def test_trial_exhausts_after_25_empty_responses():
    trial, backend = run_toy_trial([DUD] * 30)
    assert trial.status == EXHAUSTED
    assert trial.messages == 25
    assert backend.calls == 25


class QueryLog(ReplayBackend):
    """Replay backend that keeps the last user message of every call."""

    def __init__(self, script):
        super().__init__(script)
        self.queries = []

    def complete(self, messages):
        self.queries.append(messages[-1]["content"])
        return super().complete(messages)


@pytest.mark.parametrize("window", [EXHAUST_ZERO_WINDOW])
@pytest.mark.parametrize("restart", RESTART_PLANS)
def test_unusable_replies_end_in_exhaustion(restart, window):
    # an unusable reply gets the format reminder and counts as covering nothing,
    # so the exhaustion window bounds a run of them whatever the restart plan
    strategy = StrategyConfig(restart=restart)
    dut = ToyDut()
    backend = QueryLog(["I cannot help with that."] * (window + 5))
    agent = LlmAgent(dut.plan, dut.stimulus_format, strategy, backend, random.Random(7))
    trial = run_trial(dut, agent, 10**9, 1, PromptScale())
    assert trial.status == EXHAUSTED
    assert trial.messages == backend.calls == window
    for query, restarted in zip(backend.queries[1:], [e["restart"] for e in trial.events[1:]]):
        assert format_requirement(dut.stimulus_format) in query
        assert restarted or "could not be used" in query


def test_budget_gate_blocks_first_call():
    trial, backend = run_toy_trial([FULL_HOUSE], budget=10)
    assert trial.status == BUDGET_EXHAUSTED
    assert trial.messages == 0
    assert trial.events == []
    assert backend.calls == 0


def test_budget_gate_blocks_second_call():
    probe, _ = run_toy_trial([DUD] * 30)
    first_cost = probe.events[0]["tokens_in"] + probe.events[0]["tokens_out"]
    budget = first_cost + ReplayBackend([]).config.max_tokens
    trial, backend = run_toy_trial([DUD] * 30, budget=budget)
    assert trial.status == BUDGET_EXHAUSTED
    assert trial.messages == 1
    assert backend.calls == 1
    assert trial.tokens <= budget


def test_script_exhaustion_aborts_trial():
    trial, _ = run_toy_trial([])
    assert trial.status == ABORTED
    assert trial.messages == 0
    assert "script" in trial.error


def test_restart_flag_marks_fresh_dialogue():
    script = ["```\n0\n```"] * 4 + ["```\n1\n```"] + [DUD] * 40
    trial, _ = run_toy_trial(script, strategy=StrategyConfig(restart="low"))
    flags = [e["restart"] for e in trial.events]
    assert flags[4] is True  # deltas [1,0,0,0] under tolerance 4 force a restart
    assert not any(flags[:4])


def test_malformed_stimuli_counted_not_covered():
    dut = make_dut("cpu")
    backend = ReplayBackend(["```\n[[2, 111]]\n```"] * EXHAUST_ZERO_WINDOW)
    agent = LlmAgent(
        dut.plan, dut.stimulus_format, StrategyConfig(), backend, random.Random(7)
    )
    trial = run_trial(dut, agent, 10**9, 1, PromptScale())
    assert trial.status == EXHAUSTED
    assert trial.malformed == EXHAUST_ZERO_WINDOW
    assert trial.coverage == 0
    assert [e["stimuli"] for e in trial.events] == [1] * EXHAUST_ZERO_WINDOW


class StrictToyDut(ToyDut):
    """The toy device, refusing values of 100 and above as malformed."""

    def feed(self, stimulus: int) -> list[str]:
        if stimulus >= 100:
            raise MalformedStimulusError(f"stimulus {stimulus} out of range")
        return super().feed(stimulus)


def test_response_records_as_if_each_stimulus_were_recorded_in_turn():
    # bin 3 is hit twice, around a malformed stimulus; 99 hits nothing
    stimuli = [3, 7, 500, 3, 99, 1, 7]
    dut = StrictToyDut()
    state = CoverageState(dut.plan)
    want_new, want_malformed = [], 0
    for stimulus in stimuli:
        try:
            want_new += state.record(dut.feed(stimulus))
        except MalformedStimulusError:
            want_malformed += 1
    assert want_new == ["bin_03", "bin_07", "bin_01"] and want_malformed == 1

    reply = "```\n" + " ".join(map(str, stimuli)) + "\n```"
    backend = ReplayBackend([reply])
    agent = LlmAgent(dut.plan, dut.stimulus_format, StrategyConfig(), backend, random.Random(7))
    trial = run_trial(dut, agent, 10**9, 1, PromptScale())
    assert trial.events[0]["stimuli"] == len(stimuli)
    assert trial.events[0]["new_bins"] == want_new
    assert trial.malformed == want_malformed


# --- experiments --------------------------------------------------------------------


def test_crt_experiment_is_one_trial():
    config = RunConfig(dut="stride", agent="crt", seed=3, crt_count=500)
    report = run_experiment(config)
    assert len(report.trials) == 1
    assert report.trials[0].status == EXHAUSTED
    assert report.trials[0].messages == 0
    assert report.avg_messages is None
    assert report.total_tokens == 0
    assert report.budget == 0


def test_zero_budget_runs_no_trials():
    backend = ReplayBackend([FULL_HOUSE])
    report = run_experiment(llm_config(budget_tokens=0), backend=backend, dut=ToyDut())
    assert report.trials == []
    assert "zero token budget" in report.note
    assert backend.calls == 0


def test_script_end_stops_experiment_without_phantom_trial():
    backend = ReplayBackend([FULL_HOUSE, FULL_HOUSE])
    report = run_experiment(llm_config(seed=1), backend=backend, dut=ToyDut())
    assert [t.status for t in report.trials] == [FULL_COVERAGE, FULL_COVERAGE]
    assert [t.trial for t in report.trials] == [1, 2]
    assert "stopped before trial 3" in report.note
    assert report.total_tokens == sum(t.tokens for t in report.trials)


def test_budget_truncates_only_final_trial():
    # initial queries carry no rng, so per-response costs probe deterministically
    probe_full, _ = run_toy_trial([FULL_HOUSE])
    probe_dud, _ = run_toy_trial([DUD] * 30)
    first_event = probe_dud.events[0]
    budget = (
        probe_full.tokens
        + first_event["tokens_in"]
        + first_event["tokens_out"]
        + ReplayBackend([]).config.max_tokens
    )
    backend = ReplayBackend([FULL_HOUSE] + [DUD] * 40)
    report = run_experiment(
        llm_config(seed=1, budget_tokens=budget), backend=backend, dut=ToyDut()
    )
    statuses = [t.status for t in report.trials]
    assert statuses == [FULL_COVERAGE, BUDGET_EXHAUSTED]
    assert report.trials[1].messages == 1
    assert report.total_tokens <= budget


def test_abort_mid_trial_is_kept_and_noted():
    script = ["```\n0\n```", "```\n1\n```"]
    report = run_experiment(llm_config(seed=1), backend=ReplayBackend(script), dut=ToyDut())
    assert len(report.trials) == 1
    assert report.trials[0].status == ABORTED
    assert report.trials[0].messages == 2
    assert "aborted" in report.note


def test_reply_nested_too_deep_is_an_empty_response(tmp_path):
    program = "```\n[[0, 51], [4, 111]]\n```"
    script = [program, DEEP_REPLY, program]
    path = tmp_path / "deep.jsonl"
    config = RunConfig(dut="cpu", agent="llm", seed=1)
    report = run_experiment(config, backend=ReplayBackend(script), log_path=path)
    assert [t.status for t in report.trials] == [ABORTED]
    assert report.trials[0].messages == 3
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["stimuli"] for e in events if e["type"] == "event"] == [1, 0, 1]
    assert report_from_log(path).trials == report.trials


# --- the trial's new-bin series: the record's against the agent's ------------------


@pytest.fixture
def ended_trials(monkeypatch) -> list:
    """(record, dialogue) of every trial `run_experiment` runs, checked as
    it ends: the record keeps the same new-bin counts and last restart as its
    agent's dialogue. The one restart no event shows is that of the query a
    trial stopped before (the budget gate refused it, or its call failed);
    the record's own series must then predict it."""
    ended = []
    run = runtime.run_trial

    def checked(dut, agent, *args, **kwargs):
        trial = run(dut, agent, *args, **kwargs)
        dialogue = agent.dialogue
        assert trial.deltas == dialogue.deltas
        if trial.restart_at != dialogue.restart_at:
            assert trial.status in (BUDGET_EXHAUSTED, ABORTED)
            assert dialogue.restart_at == len(trial.deltas)
            plan = agent.strategy.restart
            assert should_restart(trial.deltas, plan, trial.rate, trial.restart_at)
        ended.append((trial, dialogue))
        return trial

    monkeypatch.setattr(runtime, "run_trial", checked)
    return ended


def test_golden_trial_series_matches_its_dialogue(tmp_path, ended_trials):
    regen.replay_golden(tmp_path / "log.jsonl")
    (golden, _), (unstarted, _) = ended_trials
    assert golden.deltas == [1, 0, 2, 0, 1, 0, 0, 0, 0, 0, 1, 1] + [0] * 25
    assert golden.restart_at == 31  # the last restart, before response 32
    assert (unstarted.deltas, unstarted.restart_at) == ([], 0)


@pytest.mark.parametrize("buffer_reset", BUFFER_RESETS)
@pytest.mark.parametrize("restart", RESTART_PLANS)
def test_scripted_trial_series_match_their_dialogues(
    tmp_path, ended_trials, restart, buffer_reset
):
    """The benchmark's long-trial replies on every device, each log verified;
    then each script cut where its first restart fires, so the trial aborts
    on a restarted query that no event shows."""
    gen = load_perfbench("gen")
    strategy = StrategyConfig(restart=restart, buffer_reset=buffer_reset)
    path = tmp_path / "log.jsonl"
    for device in DUT_KINDS:
        script = gen.script(0, 0, device, "long", 600)
        config = RunConfig(dut=device, agent="llm", strategy=strategy)
        first = len(ended_trials)
        report = run_experiment(config, backend=ReplayBackend(script), log_path=path)
        assert report_from_log(path) == report
        events = ended_trials[first][0].events
        cut = next(i for i, event in enumerate(events) if event["restart"])
        run_experiment(config, backend=ReplayBackend(script[:cut]))
        trial, dialogue = ended_trials[-1]
        assert (trial.status, trial.restart_at, dialogue.restart_at) == (ABORTED, 0, cut)
    assert len(ended_trials) > 2 * len(DUT_KINDS)  # some run ended a trial by itself


# --- logs and reports ---------------------------------------------------------------


def write_toy_log(tmp_path, name="run.jsonl", seed=1):
    backend = ReplayBackend([FULL_HOUSE, FULL_HOUSE])
    path = tmp_path / name
    report = run_experiment(
        llm_config(seed=seed), backend=backend, dut=ToyDut(), log_path=path
    )
    return path, report


def test_log_structure(tmp_path):
    path, _ = write_toy_log(tmp_path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["type"] == "header"
    assert records[0]["schema_version"] == 1
    assert records[-1]["type"] == "report"
    events = [r for r in records if r["type"] == "event"]
    assert len(events) == 2
    assert set(events[0]) == {
        "type",
        "trial",
        "response_idx",
        "stimuli",
        "new_bins",
        "coverage",
        "rate",
        "restart",
        "tokens_in",
        "tokens_out",
    }
    assert [r["type"] for r in records].count("trial_end") == 2
    assert "latency" not in path.read_text()


def test_log_is_deterministic(tmp_path):
    path_a, _ = write_toy_log(tmp_path, "a.jsonl")
    path_b, _ = write_toy_log(tmp_path, "b.jsonl")
    assert path_a.read_bytes() == path_b.read_bytes()


def test_report_from_log_reproduces_metrics(tmp_path):
    path, report = write_toy_log(tmp_path)
    rebuilt = report_from_log(path)
    assert rebuilt.max_coverage == report.max_coverage
    assert rebuilt.avg_messages == report.avg_messages
    assert rebuilt.stdev_messages == report.stdev_messages
    assert rebuilt.avg_cov_per_msg == report.avg_cov_per_msg
    assert rebuilt.trials == report.trials
    assert rebuilt.tokens_in == report.tokens_in


def test_report_from_log_rejects_tampered_metrics(tmp_path):
    # each edit changes every trial_end record and leaves the report record alone
    for key, delta in (("coverage", 1), ("tokens_in", 1000)):
        path, _ = write_toy_log(tmp_path, f"{key}.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if record["type"] == "trial_end":
                record[key] += delta
        path.write_text(
            "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)
        )
        with pytest.raises(ValueError, match="mismatch"):
            report_from_log(path)


def _renumber(records, events):
    events[1]["response_idx"], events[2]["response_idx"] = 3, 2


def _repeat_a_bin(records, events):
    events[-1]["new_bins"].append(events[0]["new_bins"][0])


def _bump_coverage(records, events):
    events[4]["coverage"] += 1


def _bump_tokens(records, events):
    events[3]["tokens_out"] += 1


def _drop_last_event(records, events):  # it covered nothing; its tokens move back
    for key in ("tokens_in", "tokens_out"):
        events[-2][key] += events[-1][key]
    records.remove(events[-1])


def _orphan_event(records, events):
    records.insert(-1, dict(events[-1], response_idx=len(events) + 1))


def _drop_a_field(records, events):
    del events[2]["new_bins"]


def _retype_bins(records, events):
    events[1]["new_bins"] = 5


def _retype_tokens(records, events):
    events[1]["tokens_in"] = "274"


# each id names the edit and what it breaks; the match is the verifier's message
@pytest.mark.parametrize(
    "tamper, match",
    [
        pytest.param(
            _renumber,
            r"trial 1 event 2 record mismatch on response_idx: logged 3, recomputed 2",
            id="_renumber-numbered trial 1 response 3",
        ),
        pytest.param(
            _repeat_a_bin,
            r"trial 1 event 37 record mismatch on new_bins: logged \['bin_00'\], recomputed \[\]",
            id="_repeat_a_bin-lists a bin already covered",
        ),
        pytest.param(
            _bump_coverage,
            "trial 1 event 5 record mismatch on coverage: logged 5, recomputed 4",
            id="_bump_coverage-logs coverage",
        ),
        pytest.param(
            _drop_last_event,
            "trial 1 trial_end record mismatch on messages: logged 37, recomputed 36",
            id="_drop_last_event-36 events for 37 messages",
        ),
        pytest.param(
            _bump_tokens,
            "trial 1 trial_end record mismatch on tokens_out: logged 118, recomputed 119",
            id="_bump_tokens-events add up to",
        ),
        pytest.param(
            _orphan_event,
            "trial 2 event 1 record mismatch on trial: logged 1, recomputed 2",
            id="_orphan_event-after the last trial_end",
        ),
        (_drop_a_field, "lacks field 'new_bins'"),
        pytest.param(
            _retype_bins,
            "trial 1 event 2 record field 'new_bins' must be a list of bin ids, got 5",
            id="_retype_bins-needs a list of bin ids and integer tokens",
        ),
        pytest.param(
            _retype_tokens,
            "trial 1 event 2 record field 'tokens_in' must be an integer, got '274'",
            id="_retype_tokens-needs a list of bin ids and integer tokens",
        ),
    ],
)
def test_report_from_log_rejects_tampered_events(tmp_path, tamper, match):
    # the golden log: one dialogue trial of 37 responses; each edit leaves
    # the trial_end and report records alone
    records = [json.loads(line) for line in GOLDEN_LOG.read_text().splitlines()]
    tamper(records, [r for r in records if r["type"] == "event"])
    path = tmp_path / "tampered.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(ValueError, match=match):
        report_from_log(path)
    report_from_log(GOLDEN_LOG)  # the untouched log passes


# --- the verifier against every log the writer produces, and edits of them ------------


canonical = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


def jsonl(records) -> str:
    return "".join(canonical(r) + "\n" for r in records)


def _reply(values):
    return "```\n" + " ".join(map(str, values)) + "\n```" if values else "no stimuli here"


REPLIES = st.one_of(
    st.lists(st.integers(0, 12), max_size=5).map(_reply), st.just("```\nxyzzy\n```")
)
STRATEGIES = st.builds(
    StrategyConfig,
    template_variant=st.sampled_from(TEMPLATE_VARIANTS),
    missed_bin=st.sampled_from(MISSED_BIN_METHODS),
    context=st.sampled_from(CONTEXT_STRATEGIES),
    restart=st.sampled_from(RESTART_PLANS),
    buffer_reset=st.sampled_from(BUFFER_RESETS),
)


@given(
    script=st.lists(REPLIES, min_size=1, max_size=60),
    strategy=STRATEGIES,
    budget=st.one_of(st.just(0), st.integers(200, 2_000), st.integers(2_000, 20_000)),
    seed=st.integers(0, 999),
)
@settings(max_examples=60, deadline=None)
def test_every_scripted_toy_log_verifies(tmp_path_factory, script, strategy, budget, seed):
    config = llm_config(seed=seed, budget_tokens=budget, strategy=strategy)
    path = tmp_path_factory.mktemp("toy") / "log.jsonl"
    report = run_experiment(config, backend=ReplayBackend(script), dut=ToyDut(), log_path=path)
    assert report_from_log(path) == report


@pytest.mark.parametrize("kind", DUT_KINDS)
def test_every_device_crt_log_verifies(tmp_path, kind):
    path = tmp_path / "log.jsonl"
    for count in CRT_COUNTS:  # each side of a chunk boundary
        report = run_experiment(RunConfig(dut=kind, agent="crt", crt_count=count), log_path=path)
        assert report_from_log(path) == report
        full, rest = divmod(count, 10_000)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        stimuli = [e["stimuli"] for e in _events(records)]
        assert stimuli == [10_000] * full + ([rest] if rest else []), count


@functools.lru_cache(maxsize=None)
def edit_targets() -> tuple:
    """Writer-produced logs as record lists: the golden dialogue trial, two
    one-message trials, a zero-budget run, and a three-chunk decoder crt run."""
    logs = [GOLDEN_LOG.read_text()]
    with tempfile.TemporaryDirectory() as tmp:
        path, _ = write_toy_log(Path(tmp))
        logs.append(path.read_text())
        zero = llm_config(budget_tokens=0)
        run_experiment(zero, backend=ReplayBackend([]), dut=ToyDut(), log_path=path)
        logs.append(path.read_text())
        crt = RunConfig(dut="decoder", agent="crt", crt_count=25_000)
        run_experiment(crt, log_path=path)
        logs.append(path.read_text())
    return tuple(tuple(json.loads(line) for line in text.splitlines()) for text in logs)


# what a log alone cannot re-derive (or, for the header, the run's inputs that
# no later record holds): a different value of the same JSON type may pass
NOT_REDERIVED = {
    "header": {"seed", "strategy", "crt_count"},
    "event": {"stimuli", "new_bins"},
    "trial_end": {"malformed", "error"},
    "report": {"note"},
}


def json_kind(value) -> str:
    if value is None or isinstance(value, str):
        return "text"  # error and note may be either
    return type(value).__name__


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 10**8)
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def assert_rejected(path, records) -> None:
    path.write_text(jsonl(records))
    with pytest.raises(ValueError):
        report_from_log(path)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_an_edit_of_any_field_is_rejected(tmp_path_factory, data):
    records = [dict(r) for r in data.draw(st.sampled_from(edit_targets()))]
    record = data.draw(st.sampled_from(records))
    name = data.draw(st.sampled_from(sorted(record)))
    old = record[name]
    how = data.draw(st.sampled_from(["value", "kind", "unknown field"]))
    if how == "value":  # a re-derivable field, to any other JSON value
        assume(name not in NOT_REDERIVED[record["type"]])
        record[name] = data.draw(JSON_VALUES.filter(lambda v: canonical(v) != canonical(old)))
    elif how == "kind":  # any field, to a value of another JSON type
        record[name] = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) != json_kind(old)))
    else:
        extra = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in record))
        record[extra] = data.draw(JSON_VALUES)
    assert_rejected(tmp_path_factory.mktemp("edit") / "log.jsonl", records)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_moved_or_repeated_record_is_rejected(tmp_path_factory, data):
    records = list(data.draw(st.sampled_from(edit_targets())))
    i = data.draw(st.integers(0, len(records) - 1))
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(records) - 1).filter(lambda j: j != i))
        records.insert(j, records.pop(i))
    else:
        records.insert(data.draw(st.integers(0, len(records))), records[i])
    assert_rejected(tmp_path_factory.mktemp("layout") / "log.jsonl", records)


def _events(records):
    return [r for r in records if r["type"] == "event"]


def _trial_rows(records):
    return [r for r in records if r["type"] == "trial_end"] + records[-1]["trials"]


def _bool_tokens(records):  # True sums as 1, and the sums agree
    event = _events(records)[0]
    drop = event["tokens_out"] - 1
    event["tokens_out"] = True
    for row in _trial_rows(records):
        row["tokens_out"] -= drop
    records[-1]["tokens_out"] -= drop


def _renumber_trials(records):
    for row in _events(records) + _trial_rows(records):
        row["trial"] = 7


def _retrial_rate(records):
    for row in _trial_rows(records):
        row["rate"] = 0.7


def _set(kind, index=0, **values):
    def edit(records):
        [r for r in records if r["type"] == kind][index].update(values)
    return edit


def _relabel_as_budget_cut(records):  # the report row and message stats agree
    for row in _trial_rows(records):
        row["status"] = "budget_exhausted"
    records[-1].update(avg_messages=None, avg_cov_per_msg=None)


def _event_after_exhaustion(records):  # one more response that covers nothing
    extra = dict(_events(records)[-1], response_idx=38)
    records.insert(-2, extra)
    for row in _trial_rows(records) + [records[-1]]:
        row["tokens_in"] += extra["tokens_in"]
        row["tokens_out"] += extra["tokens_out"]
    for row in _trial_rows(records):
        row["messages"] = 38
    records[-1].update(avg_messages=38, avg_cov_per_msg=6 / 38)


# edits that only a rebuilt record catches, then the facts taken as logged retyped
GOLDEN_LOG_EDITS = {
    "status_relabelled": (
        _relabel_as_budget_cut,
        "trial_end record mismatch on status: logged 'budget_exhausted', recomputed 'exhausted'",
    ),
    "restart_dropped": (
        _set("event", 10, restart=False),
        "event 11 record mismatch on restart: logged False, recomputed True",
    ),
    "restart_added": (
        _set("event", 4, restart=True),
        "event 5 record mismatch on restart: logged True, recomputed False",
    ),
    "event_after_exhaustion": (
        _event_after_exhaustion, "line 39: trial 1 event 38 record follows the exhaustion stop"
    ),
    "restart_string": (
        _set("event", 1, restart="yes"),
        "event 2 record mismatch on restart: logged 'yes', recomputed False",
    ),
    "status_unknown": (
        _set("trial_end", status="done"),
        "trial_end record mismatch on status: logged 'done', recomputed 'exhausted'",
    ),
    "event_rate": (_set("event", 4, rate=0.99), "event 5 record mismatch on rate: logged 0.99"),
    "event_bool_tokens": (_bool_tokens, "field 'tokens_out' must be an integer, got True"),
    "event_bin_twice": (
        lambda r: r[1]["new_bins"].append("bin_00"),
        "event 1 record mismatch on new_bins: logged \\['bin_00', 'bin_00'\\]",
    ),
    "event_extra_field": (
        _set("event", 2, comment="x"), "event 3 record has unknown field 'comment'"
    ),
    "trials_renumbered": (
        _renumber_trials, "event 1 record mismatch on trial: logged 7, recomputed 1"
    ),
    "trial_end_rate": (
        _retrial_rate, "trial_end record mismatch on rate: logged 0.7, recomputed 0.6"
    ),
    "header_seed": (_set("header", seed="abc"), "seed must be int, got 'abc'"),
    "header_context": (
        lambda r: r[0]["strategy"].update(context="bogus"), "context must be one of"
    ),
    "header_budget": (_set("header", budget_tokens=5), "report record mismatch on budget"),
    "header_schema": (
        _set("header", schema_version=2), "header record mismatch on schema_version"
    ),
    "header_last": (lambda r: r.append(r.pop(0)), "line 1: the first record is not the header"),
    "header_twice": (lambda r: r.insert(1, r[0]), "line 2: unexpected record of type 'header'"),
    "report_twice": (lambda r: r.append(r[-1]), "line 41: a 'report' record after the report"),
    "unknown_type": (
        lambda r: r.insert(3, {"type": "note"}), "line 4: unexpected record of type 'note'"
    ),
    "no_type": (lambda r: r.insert(3, {"trial": 1}), "line 4: unexpected record of type None"),
    "stimuli_string": (
        _set("event", 1, stimuli="12"), "field 'stimuli' must be a non-negative integer"
    ),
    "stimuli_negative": (
        _set("event", 1, stimuli=-1), "field 'stimuli' must be a non-negative integer"
    ),
    "malformed_string": (
        _set("trial_end", malformed="0"), "field 'malformed' must be a non-negative integer"
    ),
    "error_number": (_set("trial_end", error=5), "field 'error' must be a string or null"),
    "note_list": (_set("report", note=["x"]), "field 'note' must be a string or null"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_LOG_EDITS))
def test_report_from_log_rejects_an_edited_golden_log(tmp_path, case):
    edit, match = GOLDEN_LOG_EDITS[case]
    records = [json.loads(line) for line in GOLDEN_LOG.read_text().splitlines()]
    edit(records)
    path = tmp_path / "edited.jsonl"
    path.write_text(jsonl(records))
    with pytest.raises(ValueError, match=match):
        report_from_log(path)


@pytest.mark.parametrize("status", [EXHAUSTED, FULL_COVERAGE, "done"])
def test_report_from_log_rejects_a_cut_trial_relabelled(tmp_path, status):
    # one reply, then the script runs out: the trial is aborted before it settles
    path = tmp_path / "log.jsonl"
    run_experiment(llm_config(), backend=ReplayBackend([DUD]), dut=ToyDut(), log_path=path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[-2]["status"] == ABORTED
    for row in _trial_rows(records):
        row["status"] = status
    records[-1].update(avg_messages=1, avg_cov_per_msg=0.0)
    path.write_text(jsonl(records))
    with pytest.raises(ValueError, match=f"record status '{status}': a trial that did not stop"):
        report_from_log(path)


@functools.lru_cache(maxsize=None)
def stride_crt_log() -> tuple:
    """A 30,000-stimulus stride crt log: three chunk events covering nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        run_experiment(RunConfig(dut="stride", agent="crt", crt_count=30_000), log_path=path)
        return tuple(json.loads(line) for line in path.read_text().splitlines())


def full_toy_crt_log(path) -> list:
    """A writer-made crt log of the toy device whose first stimuli cover it all."""
    config = RunConfig(dut="toy", agent="crt", crt_count=25_000)
    trial = run_crt_trial(ToyDut(), SeqAgent(range(10)), config.crt_count)
    write_log(path, config, 10, [trial], build_report(config, 10, [trial], None))
    return [json.loads(line) for line in path.read_text().splitlines()]


def _after_full_coverage(records):
    event = dict(records[1], response_idx=2, new_bins=[], stimuli=10_000)
    records.insert(2, event)


def _second_trial(records):
    records[-1:-1] = [dict(r, trial=2) for r in records[1:5]]


def _last_chunk_deleted_as_aborted(records):  # the report row agrees; crt logs no message stats
    records.pop(3)
    for row in _trial_rows(records):
        row["status"] = ABORTED


CRT_LOG_EDITS = {
    "last_chunk_deleted": (
        "stride", lambda r: r.pop(3), "ends the crt trial after 20000 of 30000 stimuli"
    ),
    "last_chunk_deleted_as_aborted": (
        "stride", _last_chunk_deleted_as_aborted,
        "ends the crt trial after 20000 of 30000 stimuli",
    ),
    "chunk_resized": (
        "stride", _set("event", 0, stimuli=7),
        "event 1 record mismatch on stimuli: logged 7, recomputed 10000",
    ),
    "chunk_past_count": (
        "stride", lambda r: r.insert(4, dict(r[3], response_idx=4)),
        "event 4 record follows the crt trial's 30000 stimuli",
    ),
    "second_trial": (
        "stride", _second_trial, "report record follows 2 crt trials, not one"
    ),
    "event_after_full_coverage": (
        "toy", _after_full_coverage, "event 2 record follows full coverage"
    ),
    "completing_chunk_overlong": (
        "toy", _set("event", 0, stimuli=10_001),
        "event 1 record mismatch on stimuli: logged 10001, recomputed 10000",
    ),
}


@pytest.mark.parametrize("case", sorted(CRT_LOG_EDITS))
def test_report_from_log_rebuilds_crt_chunks(tmp_path, case):
    device, edit, match = CRT_LOG_EDITS[case]
    path = tmp_path / "log.jsonl"
    if device == "stride":
        records = [dict(r) for r in stride_crt_log()]
    else:
        records = full_toy_crt_log(path)
    assert [r["stimuli"] for r in _events(records)] == (
        [10_000] * 3 if device == "stride" else [10]
    )
    edit(records)
    path.write_text(jsonl(records))
    with pytest.raises(ValueError, match=match):
        report_from_log(path)


def test_a_completing_crt_chunk_may_run_short(tmp_path):
    path = tmp_path / "log.jsonl"
    records = full_toy_crt_log(path)
    assert report_from_log(path).max_coverage == 10
    _set("event", 0, stimuli=3)(records)  # any count within the chunk can complete it
    path.write_text(jsonl(records))
    assert report_from_log(path).max_coverage == 10


def test_report_from_log_rejects_more_bins_than_the_plan_holds(tmp_path):
    # every rebuilt field agrees with a header that claims a five-bin plan
    records = [json.loads(line) for line in GOLDEN_LOG.read_text().splitlines()]
    for record in records:
        if "rate" in record:
            record["rate"] = record["coverage"] / 5
    records[0]["plan_size"] = records[-1]["plan_size"] = 5
    records[-1]["max_rate"] = records[-1]["trials"][0]["rate"] = 6 / 5
    path = tmp_path / "forged.jsonl"
    path.write_text(jsonl(records))
    with pytest.raises(ValueError, match="event 12 record covers 6 bins, plan_size 5"):
        report_from_log(path)


def test_report_from_log_rejects_a_log_cut_short(tmp_path):
    records = [json.loads(line) for line in GOLDEN_LOG.read_text().splitlines()]
    path = tmp_path / "cut.jsonl"
    for cut, match in [
        (records[:-2] + records[-1:], "the report follows events with no trial_end"),
        (records[:-1], "has no report record"),
        ([], "has no header record"),
    ]:
        path.write_text(jsonl(cut))
        with pytest.raises(ValueError, match=match):
            report_from_log(path)


def sample_report() -> ExperimentReport:
    summary = TrialSummary(
        trial=1,
        status=EXHAUSTED,
        coverage=1023,
        rate=1023 / 1034,
        messages=641,
        tokens_in=900,
        tokens_out=100,
    )
    return ExperimentReport(
        dut="stride",
        agent="llm",
        plan_size=1034,
        budget=10_000_000,
        trials=[summary],
        max_coverage=1023,
        max_rate=1023 / 1034,
        avg_messages=641,
        stdev_messages=None,
        avg_cov_per_msg=1023 / 641,
        stdev_cov_per_msg=None,
        tokens_in=900,
        tokens_out=100,
    )


def test_text_report_formats_percent_to_two_decimals():
    text = report_text(sample_report())
    assert "(98.94%)" in text
    assert "stdev msg/trial:    -" in text


def test_csv_report_shape():
    lines = report_csv(sample_report()).strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    assert header[0] == "dut" and row[0] == "stride"
    assert row[header.index("coverage_rate_pct")] == "98.94"
    assert row[header.index("stdev_msg_per_trial")] == "-"
    assert row[header.index("total_tokens")] == "1000"


# --- config parsing -----------------------------------------------------------------


def test_config_from_dict_nested():
    config = RunConfig.from_dict(
        {
            "dut": "stride",
            "agent": "llm",
            "seed": 9,
            "budget_tokens": 1234,
            "strategy": {"restart": "low"},
            "backend": {"endpoint": "http://x/v1/chat/completions", "model": "m"},
        }
    )
    assert config.strategy.restart == "low"
    assert config.backend.model == "m"
    assert config.budget_tokens == 1234


def test_config_rejects_unknown_agent_and_keys():
    with pytest.raises(ValueError):
        RunConfig(dut="stride", agent="fuzz")
    with pytest.raises(ValueError, match="bad run config"):
        RunConfig.from_dict({"dut": "stride", "agent": "crt", "bogus": 1})
