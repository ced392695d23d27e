#!/usr/bin/env python3
"""Regenerate every frozen test fixture from one table, `RECIPES`.

Usage: python3 scripts/regen_goldens.py

Each `RECIPES` entry maps a path under tests/fixtures to a zero-argument
function that returns that file's exact bytes. `main` prints `changed` or
`unchanged` for each fixture and writes only the changed ones; diff a
changed fixture before committing it. `tests/test_golden.py` compares every
fixture with its recipe, so the test suite fails on a fixture that its
recipe no longer reproduces.

The golden trial replays tests/fixtures/golden_replay_script.json (37
responses against the ten-bin toy device), the one fixture that is an input
rather than a recipe's output. Its per-response new-bin deltas
  [1,0,2,0,1,0,0,0,0,0,1,1] + 25 zeros
force dialogue restarts before responses 11, 18, 25, and 32 under the
default tolerance of 7, and trip the no-new-bins-in-25 exhaustion rule at
exactly response 37.

The crt fixture pins each device's first draws and the sha256 of each
device's whole crt log.jsonl at seeds 0 and 1 (20,000 stimuli), so a faster
crt path must draw the same random stream in the same order. The decoder
corpus comes from the independent oracle in freeze_decoder_golden.py, and
plans_sha256.json pins every bin of every device's coverage plan.

strategy_logs_sha256.json pins the dialogue strategies: one sha256 per
device per strategy over a log replayed from perfbench/gen.py's `long`
replies, for the default strategy, each other value of each of the five
knobs, and the strategies of the benchmark's chat-long workload. A replayed
reply does not depend on its query, but each event's `tokens_in` is the
prompt's estimate, so a changed pick of missed bins or context exchanges
shows in the digest. At that budget restarts fire in every cpu log and in
the stride logs of the quicker restart plans; decoder trials, with 2,106
bins to find, rarely stall.

Every log goes through `report_from_log` before its bytes or digest are
taken, so a writer change that the verifier rejects cannot reach a fixture.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
import random
import sys
import tempfile
from functools import cache
from pathlib import Path
from typing import Callable

REPO = Path(__file__).resolve().parent.parent
for _sub in ("src", "tests", "scripts"):
    sys.path.insert(0, str(REPO / _sub))

from covstim.agents import CrtAgent
from covstim.backend import ReplayBackend
from covstim.duts import DUT_KINDS, FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES, make_dut
from covstim.prompting import (
    BUFFER_RESETS,
    CONTEXT_STRATEGIES,
    MISSED_BIN_METHODS,
    RESTART_PLANS,
    TEMPLATE_VARIANTS,
    ResponseOutcome,
    StrategyConfig,
    build_initial_query,
    build_iterative_query,
    build_system_message,
)
from covstim.runtime import RunConfig, report_from_log, run_experiment
from freeze_decoder_golden import build_corpus, corpus_text
from toydut import ToyDut

FIXTURES = REPO / "tests" / "fixtures"
PERFBENCH = REPO / "perfbench"
REPLAY_SCRIPT = "golden_replay_script.json"
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
STRATEGY_LOG_SEED = 0
STRATEGY_LOG_BUDGET = 150_000


def replay_golden(log_path: Path):
    """Run the golden trial, writing its log to `log_path`."""
    script = json.loads((FIXTURES / REPLAY_SCRIPT).read_text())
    config = RunConfig(dut="toy", agent="llm", seed=GOLDEN_SEED)
    return run_experiment(
        config, backend=ReplayBackend(script), dut=ToyDut(), log_path=log_path
    )


def checked_log(run: Callable[[Path], object]) -> bytes:
    """The bytes of the log `run` writes, once `report_from_log` accepts them."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        run(path)
        report_from_log(path)
        return path.read_bytes()


@cache  # crt_golden and test_crt_log_matches_frozen_digest share each 20,000-stimulus run
def crt_log_sha256(kind: str, seed: int) -> str:
    config = RunConfig(dut=kind, agent="crt", seed=seed, crt_count=CRT_LOG_COUNT)
    log = checked_log(lambda path: run_experiment(config, log_path=path))
    return hashlib.sha256(log).hexdigest()


def json_text(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def crt_first_draws(kind: str) -> list:
    """The first two stride or decoder stimuli a crt agent seeded 42 draws."""
    return list(CrtAgent(kind, random.Random(42)).stimuli(2))


def crt_golden() -> bytes:
    cpu = CrtAgent("cpu", random.Random(42)).stimuli(2)
    return json_text({
        "stride": crt_first_draws("stride"),
        "decoder": crt_first_draws("decoder"),
        "cpu_words": [s[0][1] for s in cpu],
        "log_sha256": {
            kind: {str(seed): crt_log_sha256(kind, seed) for seed in CRT_LOG_SEEDS}
            for kind in DUT_KINDS
        },
    })


def load_perfbench(name: str):
    """A perfbench module, loaded from its file without touching it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# each strategy knob and the values it takes
STRATEGY_KNOBS = {
    "template_variant": TEMPLATE_VARIANTS,
    "missed_bin": MISSED_BIN_METHODS,
    "context": CONTEXT_STRATEGIES,
    "restart": RESTART_PLANS,
    "buffer_reset": BUFFER_RESETS,
}


def strategy_label(strategy: StrategyConfig) -> str:
    """`knob=value` for each knob that differs from the default, or `default`."""
    default = StrategyConfig()
    changed = [
        f"{knob}={getattr(strategy, knob)}"
        for knob in STRATEGY_KNOBS
        if getattr(strategy, knob) != getattr(default, knob)
    ]
    return ",".join(changed) or "default"


def strategy_log_sha256(kind: str, strategy: StrategyConfig, replies: list) -> str:
    config = RunConfig(
        dut=kind, agent="llm", seed=STRATEGY_LOG_SEED,
        budget_tokens=STRATEGY_LOG_BUDGET, strategy=strategy,
    )
    log = checked_log(
        lambda path: run_experiment(config, backend=ReplayBackend(replies), log_path=path)
    )
    return hashlib.sha256(log).hexdigest()


def strategy_logs_sha256() -> bytes:
    """The default strategy, each other value of each knob, and chat-long's
    strategies (stride's and cpu's are one), each on every device."""
    gen, workloads = load_perfbench("gen"), load_perfbench("workloads")
    default = StrategyConfig()
    strategies = [default] + [
        StrategyConfig(**{knob: value})
        for knob, values in STRATEGY_KNOBS.items()
        for value in values
        if value != getattr(default, knob)
    ]
    strategies += workloads.WORKLOADS["chat-long"].strategies.values()
    # a script of budget // MIN_CALL_TOKENS replies outlasts the budget
    length = STRATEGY_LOG_BUDGET // workloads.MIN_CALL_TOKENS
    replies = {kind: gen.script(STRATEGY_LOG_SEED, 0, kind, "long", length) for kind in DUT_KINDS}
    return json_text({
        strategy_label(strategy): {
            kind: strategy_log_sha256(kind, strategy, replies[kind]) for kind in DUT_KINDS
        }
        for strategy in strategies
    })


def plans_sha256() -> bytes:
    """Each plan's dump is too big to freeze whole (36-351 KB), so pin its digest."""
    return json_text({
        kind: hashlib.sha256(make_dut(kind).plan.dump_json().encode()).hexdigest()
        for kind in DUT_KINDS
    })


def initial_query(kind: str, intro: str) -> str:
    dut = make_dut(kind)
    return build_initial_query(dut.plan, intro, dut.stimulus_format)


def iterative_query(variant: str, case: str) -> str:
    stride = make_dut("stride")
    bins = [stride.plan.descriptor(bin_id) for bin_id in ITERATIVE_BINS]
    return build_iterative_query(
        ITERATIVE_OUTCOMES[case], bins, variant, stride.stimulus_format
    )


def text(build: Callable[..., str], *args) -> Callable[[], bytes]:
    """A recipe for a text fixture: `build(*args)`, encoded."""
    return lambda: build(*args).encode()


RECIPES: dict[str, Callable[[], bytes]] = {
    "crt_golden.json": crt_golden,
    "decoder_golden.json": lambda: corpus_text(build_corpus()).encode(),
    "golden_trial.jsonl": lambda: checked_log(replay_golden),
    "plans_sha256.json": plans_sha256,
    "strategy_logs_sha256.json": strategy_logs_sha256,
    **{
        f"prompts/initial_{prefix}{kind}.txt": text(initial_query, kind, intro)
        for intro, prefix in (("original", ""), ("one_line_intro", "one_line_intro_"))
        for kind in DUT_KINDS
    },
    **{
        f"prompts/iterative_{variant}_{case}.txt": text(iterative_query, variant, case)
        for variant in ("original", "negative_feedback")
        for case in ITERATIVE_OUTCOMES
    },
    **{
        f"prompts/system_{fmt}.txt": text(build_system_message, fmt)
        for fmt in (FORMAT_INTEGERS, FORMAT_MEMORY_UPDATES)
    },
}


def main() -> None:
    for name, recipe in RECIPES.items():
        path = FIXTURES / name
        data = recipe()
        if path.exists() and path.read_bytes() == data:
            print(f"unchanged {name}")
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        print(f"changed   {name}")


if __name__ == "__main__":
    main()
