"""Trial loop, exhaustion rule, metrics, and JSONL log round-trips."""
from __future__ import annotations

import json
import random
from itertools import cycle, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covstim.agents import CrtAgent, LlmAgent
from covstim.backend import ReplayBackend
from covstim.duts import make_dut
from covstim.prompting import RESTART_PLANS, StrategyConfig, format_requirement
from covstim.runtime import (
    ABORTED,
    BUDGET_EXHAUSTED,
    EXHAUST_ZERO_WINDOW,
    EXHAUSTED,
    FULL_COVERAGE,
    ExperimentReport,
    RunConfig,
    TrialSummary,
    compute_metrics,
    exhausted,
    report_csv,
    report_from_log,
    report_text,
    run_crt_trial,
    run_experiment,
    run_trial,
)
from test_extraction import per_call_draw
from toydut import ToyDut

FULL_HOUSE = "```\n0 1 2 3 4 5 6 7 8 9\n```"
DUD = "```\n99\n```"


def llm_config(**kwargs) -> RunConfig:
    return RunConfig(dut="toy", agent="llm", **kwargs)


def run_toy_trial(script, budget=10**9, strategy=StrategyConfig(), backend_config=None):
    backend = ReplayBackend(script, config=backend_config)
    dut = ToyDut()
    agent = LlmAgent(dut.plan, dut.stimulus_format, strategy, backend, random.Random(7))
    return run_trial(dut, agent, budget), backend


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

    kind = "crt"

    def __init__(self, values):
        self.values = list(values)

    def stimuli(self, count, extras):
        return islice(cycle(self.values), count)


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


def test_crt_trial_on_real_dut():
    dut = make_dut("stride")
    trial = run_crt_trial(dut, CrtAgent("stride", random.Random(5)), 25_000)
    assert trial.status == EXHAUSTED
    assert [e["stimuli"] for e in trial.events] == [10_000, 10_000, 5_000]
    assert trial.events[-1]["coverage"] == trial.coverage


def oracle_crt_trial(dut, draw, count: int) -> tuple:
    """The crt loop as it ran one stimulus at a time: one `draw(extras())` and
    one feed per stimulus, full coverage checked after each; a plain set
    stands in for the coverage state. Returns (status, coverage, events)."""
    plan_ids = {b.id for b in dut.plan}
    covered: set = set()
    events, chunk_new, fed, status = [], [], 0, EXHAUSTED
    for i in range(count):
        for bin_id in dut.feed(draw(dut.extras())):
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
    oracle = oracle_crt_trial(
        make_dut(kind), lambda extras: per_call_draw(kind, slow, extras), count
    )
    assert_crt_trial_matches_oracle(trial, oracle)
    assert fast.getstate() == slow.getstate()


# a run of misses, then the ten toy bins: full coverage lands at stimulus gap + 10
@pytest.mark.parametrize("gap", [0, 9_989, 9_990, 9_991, 10_004, 19_990, 24_990])
@pytest.mark.parametrize("count", CRT_COUNTS)
def test_crt_trial_matches_per_stimulus_oracle_on_toy(gap, count):
    values = [99] * gap + [3, 3, 0, 1, 2, 4, 5, 6, 7, 8, 9]
    trial = run_crt_trial(ToyDut(), SeqAgent(values), count)
    stream = cycle(values)
    oracle = oracle_crt_trial(ToyDut(), lambda extras: next(stream), count)
    assert_crt_trial_matches_oracle(trial, oracle)
    if gap + 11 <= count:
        assert trial.status == FULL_COVERAGE
        assert sum(e["stimuli"] for e in trial.events) == gap + 11


@given(seed=st.integers(0, 2**32), gap=st.integers(0, 25_000), count=st.sampled_from(CRT_COUNTS))
@settings(max_examples=25, deadline=None)
def test_crt_trial_matches_per_stimulus_oracle_on_random_toy_draws(seed, gap, count):
    fast, slow = random.Random(seed), random.Random(seed)

    class GapAgent:  # `gap` misses, then uniform values of which ten hit
        def stimuli(self, count, extras):
            for i in range(count):
                yield 99 if i < gap else fast.randrange(12)

    trial = run_crt_trial(ToyDut(), GapAgent(), count)
    at = iter(range(count))
    oracle = oracle_crt_trial(
        ToyDut(), lambda extras: 99 if next(at) < gap else slow.randrange(12), count
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
    trial = run_trial(dut, agent, 10**9)
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
    trial = run_trial(dut, agent, 10**9)
    assert trial.status == EXHAUSTED
    assert trial.malformed == EXHAUST_ZERO_WINDOW
    assert trial.coverage == 0
    assert [e["stimuli"] for e in trial.events] == [1] * EXHAUST_ZERO_WINDOW


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


@pytest.mark.parametrize(
    "tamper, match",
    [
        (_renumber, "numbered trial 1 response 3"),
        (_repeat_a_bin, "lists a bin already covered"),
        (_bump_coverage, "logs coverage"),
        (_drop_last_event, "36 events for 37 messages"),
        (_bump_tokens, "events add up to"),
        (_orphan_event, "after the last trial_end"),
        (_drop_a_field, "lacks field 'new_bins'"),
        (_retype_bins, "needs a list of bin ids and integer tokens"),
        (_retype_tokens, "needs a list of bin ids and integer tokens"),
    ],
)
def test_report_from_log_rejects_tampered_events(tmp_path, tamper, match):
    # the golden log: one dialogue trial of 37 responses; each edit leaves
    # the trial_end and report records alone
    golden = Path(__file__).parent / "fixtures" / "golden_trial.jsonl"
    records = [json.loads(line) for line in golden.read_text().splitlines()]
    tamper(records, [r for r in records if r["type"] == "event"])
    path = tmp_path / "tampered.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(ValueError, match=match):
        report_from_log(path)
    report_from_log(golden)  # the untouched log passes


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
