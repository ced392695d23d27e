"""Workload definitions shared by the benchmark and its probes.

- crt: the constrained-random baseline, one fixed-size `run_experiment`
  per device with a log, as `covstim baseline --out` writes it; times are
  taken over 20k-stimulus repetitions, peak memory over one run of the
  traffic size (1M stimuli per device);
- chat-http: the default dialogue strategy over `HttpBackend` against the
  stub server (the production transport path);
- chat-long: the buffer-backed strategy over `ReplayBackend`, where trials
  run for hundreds of responses and context selection rescans the pool.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from covstim.backend import BackendConfig, HttpBackend, ReplayBackend
from covstim.prompting import StrategyConfig
from covstim.runtime import RunConfig

DEVICES = ("stride", "decoder", "cpu")
MAX_TOKENS = 600
HTTP_TIMEOUT_S = 10.0
REPLAY_CONFIG = BackendConfig(endpoint="replay:", model="replay", max_tokens=MAX_TOKENS)

# each call costs at least this many tokens (system message plus the
# initial query, about 460), so a script of budget // MIN_CALL_TOKENS
# replies cannot run out before the budget does
MIN_CALL_TOKENS = 400


@dataclass(frozen=True)
class Workload:
    name: str
    agent: str  # "crt" | "llm"
    crt_count: int = 0  # stimuli per device in a timed repetition
    traffic_count: int = 0  # stimuli per device in the peak-memory run
    transport: Optional[str] = None  # "http" | "replay"
    profile: Optional[str] = None  # reply profile in gen.PROFILES
    budget: int = 0
    strategies: dict = field(default_factory=dict)
    variants: int = 1  # scripts per device (chat-*); each is its own input

    @property
    def script_length(self) -> int:
        return self.budget // MIN_CALL_TOKENS

    def run_config(self, device: str, seed: int) -> RunConfig:
        if self.agent == "crt":
            return RunConfig(dut=device, agent="crt", seed=seed, crt_count=self.crt_count)
        return RunConfig(
            dut=device,
            agent="llm",
            seed=seed,
            budget_tokens=self.budget,
            strategy=self.strategies[device],
        )

    def backend_config(self, script_key: str, tag: str, endpoint: str) -> BackendConfig:
        if self.transport == "replay":
            return REPLAY_CONFIG
        return BackendConfig(
            endpoint=endpoint,
            model=f"{script_key}/{tag}",
            max_tokens=MAX_TOKENS,
            timeout=HTTP_TIMEOUT_S,
        )

    def backend(self, script_key: str, tag: str, endpoint: str, script: list):
        """The stub server picks the script by the model's `script_key`."""
        config = self.backend_config(script_key, tag, endpoint)
        if self.transport == "replay":
            return ReplayBackend(script, config)
        return HttpBackend(config)


_LONG = dict(
    context="successful_difficult", restart="coverage_rate_based", missed_bin="mixed"
)

WORKLOADS = {
    "crt": Workload("crt", agent="crt", crt_count=20_000, traffic_count=1_000_000),
    "chat-http": Workload(
        "chat-http",
        agent="llm",
        transport="http",
        profile="short",
        budget=100_000,
        strategies={d: StrategyConfig() for d in DEVICES},
        variants=8,
    ),
    "chat-long": Workload(
        "chat-long",
        agent="llm",
        transport="replay",
        profile="long",
        budget=600_000,
        strategies={
            "stride": StrategyConfig(buffer_reset="keep", **_LONG),
            "decoder": StrategyConfig(buffer_reset="stable_keep", **_LONG),
            "cpu": StrategyConfig(buffer_reset="keep", **_LONG),
        },
        variants=6,
    ),
}
