"""Frozen reference fixtures: prompt texts, crt logs and the deterministic replay trial.

Regenerate with scripts/regen_goldens.py after intentional behavior changes;
diff first. The replay trial is designed so the stopping machinery fires at
known points: per-response new-bin deltas [1,0,2,0,1,0,0,0,0,0,1,1] then 25
zeros force dialogue restarts before responses 11, 18, 25, and 32 under the
default tolerance of 7, and trip the 25-zero exhaustion rule at exactly
response 37.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from covstim.backend import ReplayBackend
from covstim.duts import make_dut
from covstim.prompting import (
    ResponseOutcome,
    build_initial_query,
    build_iterative_query,
    build_system_message,
)
from covstim.runtime import RunConfig, run_experiment
from toydut import ToyDut

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_SEED = 2026
CRT_LOG_COUNT = 20_000
ITERATIVE_BINS = (
    "single_stride_+01", "double_stride_+00_+01", "single_overflow_pos", "double_to_single"
)
ITERATIVE_OUTCOMES = {
    "unusable": ResponseOutcome(usable=False, new_hits=0),
    "no_new_bins": ResponseOutcome(usable=True, new_hits=0),
    "one_new_bin": ResponseOutcome(usable=True, new_hits=1),
    "new_bins": ResponseOutcome(usable=True, new_hits=3),
}


def replay_golden(log_path):
    script = json.loads((FIXTURES / "golden_replay_script.json").read_text())
    config = RunConfig(dut="toy", agent="llm", seed=GOLDEN_SEED)
    return run_experiment(
        config, backend=ReplayBackend(script), dut=ToyDut(), log_path=log_path
    )


def test_replay_reproduces_golden_log_bytes(tmp_path):
    path = tmp_path / "trial.jsonl"
    replay_golden(path)
    assert path.read_bytes() == (FIXTURES / "golden_trial.jsonl").read_bytes()


def test_golden_trial_events_follow_the_design():
    lines = (FIXTURES / "golden_trial.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    events = [r for r in records if r["type"] == "event"]
    assert len(events) == 37
    deltas = [len(e["new_bins"]) for e in events]
    assert deltas == [1, 0, 2, 0, 1, 0, 0, 0, 0, 0, 1, 1] + [0] * 25
    assert [e["response_idx"] for e in events if e["restart"]] == [11, 18, 25, 32]
    assert events[1]["stimuli"] == 0  # unfenced refusal: nothing extracted
    end = next(r for r in records if r["type"] == "trial_end")
    assert end["status"] == "exhausted"
    assert end["messages"] == 37
    assert end["coverage"] == 6
    report = records[-1]
    assert report["type"] == "report"
    assert len(report["trials"]) == 1  # second trial never got a response
    assert report["note"] == (
        "stopped before trial 2: replay script exhausted after 37 responses"
    )


def test_initial_queries_match_frozen_texts():
    for kind in ("stride", "decoder", "cpu"):
        dut = make_dut(kind)
        frozen = (FIXTURES / "prompts" / f"initial_{kind}.txt").read_text()
        assert build_initial_query(dut.plan, "original", dut.stimulus_format) == frozen
        frozen = (FIXTURES / "prompts" / f"initial_one_line_intro_{kind}.txt").read_text()
        assert build_initial_query(dut.plan, "one_line_intro", dut.stimulus_format) == frozen


@pytest.mark.parametrize("case", sorted(ITERATIVE_OUTCOMES))
@pytest.mark.parametrize("variant", ["original", "negative_feedback"])
def test_iterative_queries_match_frozen_texts(variant, case):
    """Each summary branch under each template that changes the bin list."""
    stride = make_dut("stride")
    bins = [stride.plan.descriptor(bin_id) for bin_id in ITERATIVE_BINS]
    text = build_iterative_query(ITERATIVE_OUTCOMES[case], bins, variant, stride.stimulus_format)
    assert text == (FIXTURES / "prompts" / f"iterative_{variant}_{case}.txt").read_text()


def test_system_messages_match_frozen_texts():
    for fmt in ("integers", "memory_updates"):
        frozen = (FIXTURES / "prompts" / f"system_{fmt}.txt").read_text()
        assert build_system_message(fmt) == frozen


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["stride", "decoder", "cpu"])
def test_crt_log_matches_frozen_digest(tmp_path, kind, seed):
    """The crt random stream, its order and the log bytes are pinned."""
    path = tmp_path / "log.jsonl"
    config = RunConfig(dut=kind, agent="crt", seed=seed, crt_count=CRT_LOG_COUNT)
    run_experiment(config, log_path=path)
    frozen = json.loads((FIXTURES / "crt_golden.json").read_text())["log_sha256"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == frozen[kind][str(seed)]
