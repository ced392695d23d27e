"""Frozen reference fixtures: each file under tests/fixtures is its recipe's output.

The recipes are the `RECIPES` table of scripts/regen_goldens.py, which also
writes them and describes the golden trial's design. After an intentional
behaviour change, run that script and diff what it reports `changed`.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REGEN = Path(__file__).parent.parent / "scripts" / "regen_goldens.py"
_spec = importlib.util.spec_from_file_location("regen_goldens", REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)  # builds RECIPES; main() is not run

# test_acceptance.py imports both from here
FIXTURES = regen.FIXTURES
replay_golden = regen.replay_golden


@pytest.mark.parametrize("name", sorted(regen.RECIPES))
def test_fixture_matches_its_recipe(name):
    assert (FIXTURES / name).read_bytes().decode() == regen.RECIPES[name]().decode()


@pytest.mark.parametrize("seed", regen.CRT_LOG_SEEDS)
@pytest.mark.parametrize("kind", ["stride", "decoder", "cpu"])
def test_crt_log_matches_frozen_digest(kind, seed):
    """The crt random stream, its order and the log bytes are pinned, per device and seed."""
    frozen = json.loads((FIXTURES / "crt_golden.json").read_text())["log_sha256"]
    assert regen.crt_log_sha256(kind, seed) == frozen[kind][str(seed)]


def test_every_fixture_has_a_recipe():
    """No fixture without a recipe, and no stale one left behind."""
    files = {p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*") if p.is_file()}
    assert files == set(regen.RECIPES) | {regen.REPLAY_SCRIPT}


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
