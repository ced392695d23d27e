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
from covstim.prompting import build_initial_query, build_system_message
from covstim.runtime import RunConfig, run_experiment
from toydut import ToyDut

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_SEED = 2026
CRT_LOG_COUNT = 20_000


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
