#!/usr/bin/env python3
"""Regenerate frozen test fixtures: crt draws and logs, prompt texts, the golden trial log.

Everything regenerated here is deterministic, so a rerun is a no-op unless
the implementation intentionally changed. Diff regenerated goldens before
committing them; they are the reference the acceptance tests lock against.

The golden trial replays tests/fixtures/golden_replay_script.json (37
responses against the ten-bin toy device): per-response new-bin deltas
  [1,0,2,0,1,0,0,0,0,0,1,1] + 25 zeros
which forces dialogue restarts before responses 11, 18, 25, and 32 under
the default tolerance, and trips the no-new-bins-in-25 exhaustion rule at
exactly response 37.

The crt fixture also pins the sha256 of each device's whole crt log.jsonl at
seeds 0 and 1 (20,000 stimuli), so a faster crt path must draw the same
random stream in the same order.

Every log written here passes `report_from_log` before its bytes or digest
are frozen, so a writer change that the verifier rejects cannot reach a
fixture.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from covstim.agents import CrtAgent
from covstim.backend import ReplayBackend
from covstim.duts import DUT_KINDS, make_dut
from covstim.prompting import (
    ResponseOutcome,
    build_initial_query,
    build_iterative_query,
    build_system_message,
)
from covstim.runtime import RunConfig, report_from_log, run_experiment
from toydut import ToyDut

FIXTURES = REPO / "tests" / "fixtures"
GOLDEN_SEED = 2026
CRT_LOG_COUNT = 20_000
CRT_LOG_SEEDS = (0, 1)
# the stride bins every frozen iterative query lists, and its summary branches
ITERATIVE_BINS = (
    "single_stride_+01", "double_stride_+00_+01", "single_overflow_pos", "double_to_single"
)
ITERATIVE_OUTCOMES = {
    "unusable": ResponseOutcome(usable=False, new_hits=0),
    "no_new_bins": ResponseOutcome(usable=True, new_hits=0),
    "one_new_bin": ResponseOutcome(usable=True, new_hits=1),
    "new_bins": ResponseOutcome(usable=True, new_hits=3),
}


def crt_log_sha256(kind: str, seed: int) -> str:
    config = RunConfig(dut=kind, agent="crt", seed=seed, crt_count=CRT_LOG_COUNT)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        run_experiment(config, log_path=path)
        report_from_log(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def regen_crt_draws() -> None:
    stride = CrtAgent("stride", random.Random(42))
    decoder = CrtAgent("decoder", random.Random(42))
    cpu = CrtAgent("cpu", random.Random(42))
    pcs = iter([0, 24])
    payload = {
        "stride": list(stride.stimuli(2, dict)),
        "decoder": list(decoder.stimuli(2, dict)),
        "cpu_words": [s[0][1] for s in cpu.stimuli(2, lambda: {"pc": next(pcs)})],
        "log_sha256": {
            kind: {str(seed): crt_log_sha256(kind, seed) for seed in CRT_LOG_SEEDS}
            for kind in DUT_KINDS
        },
    }
    path = FIXTURES / "crt_golden.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def regen_prompts() -> None:
    out = FIXTURES / "prompts"
    out.mkdir(exist_ok=True)
    formats = {}
    for kind in DUT_KINDS:
        dut = make_dut(kind)
        formats[dut.stimulus_format] = True
        path = out / f"initial_{kind}.txt"
        path.write_text(build_initial_query(dut.plan, "original", dut.stimulus_format))
        print(f"wrote {path}")
        path = out / f"initial_one_line_intro_{kind}.txt"
        path.write_text(build_initial_query(dut.plan, "one_line_intro", dut.stimulus_format))
        print(f"wrote {path}")
    for fmt in formats:
        path = out / f"system_{fmt}.txt"
        path.write_text(build_system_message(fmt))
        print(f"wrote {path}")
    stride = make_dut("stride")
    bins = [stride.plan.descriptor(bin_id) for bin_id in ITERATIVE_BINS]
    for variant in ("original", "negative_feedback"):
        for case, outcome in ITERATIVE_OUTCOMES.items():
            path = out / f"iterative_{variant}_{case}.txt"
            path.write_text(
                build_iterative_query(outcome, bins, variant, stride.stimulus_format)
            )
            print(f"wrote {path}")


def regen_golden_trial() -> None:
    script = json.loads((FIXTURES / "golden_replay_script.json").read_text())
    config = RunConfig(dut="toy", agent="llm", seed=GOLDEN_SEED)
    backend = ReplayBackend(script)
    with tempfile.TemporaryDirectory() as tmp:
        checked = Path(tmp) / "log.jsonl"
        run_experiment(config, backend=backend, dut=ToyDut(), log_path=checked)
        report_from_log(checked)
        path = FIXTURES / "golden_trial.jsonl"
        path.write_bytes(checked.read_bytes())
    print(f"wrote {path}")


if __name__ == "__main__":
    regen_crt_draws()
    regen_prompts()
    regen_golden_trial()
