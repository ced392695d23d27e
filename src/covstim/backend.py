"""Chat-completion transport and token accounting.

Two interchangeable backends: HttpBackend speaks the de-facto
chat-completion JSON schema against any compatible server (endpoint and
model are configuration), and ReplayBackend replays a fixed script of
assistant responses for deterministic tests and offline reruns.
RecordingBackend wraps a live backend and captures its responses into the
same script format.

Token accounting prefers server-reported usage; when a server omits the
usage block, counts fall back to a chars/4 estimate. The estimate only has
to be roughly right: it feeds budget bookkeeping, not any correctness
decision.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import requests

Message = dict  # {"role": "system"|"user"|"assistant", "content": str}


class BackendError(RuntimeError):
    """Transport failure after retries, or an unusable server response."""


class ScriptExhaustedError(BackendError):
    """Replay script has no response left for this call index."""


def estimate_tokens(text: str) -> int:
    """Approximate token count as ceil(len/4); used when usage is absent."""
    return (len(text) + 3) // 4


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str
    model: str
    temperature: float = 0.4
    top_p: float = 1.0
    max_tokens: int = 600
    api_key_env: str = "COVSTIM_API_KEY"
    timeout: float = 120.0
    retries: int = 3

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass(frozen=True)
class Completion:
    text: str
    tokens_in: int
    tokens_out: int
    latency: float

    @property
    def tokens(self) -> int:
        return self.tokens_in + self.tokens_out


def _check_messages(messages: Sequence[Message]) -> None:
    if not messages:
        raise ValueError("messages must be non-empty")
    if messages[0].get("role") != "system":
        raise ValueError("first message must have the system role")


def estimate_prompt(messages: Sequence[Message]) -> int:
    """Approximate prompt token count: the per-message estimates summed."""
    return sum(estimate_tokens(m["content"]) for m in messages)


class HttpBackend:
    """Blocking chat-completion client with retry and exponential backoff."""

    _BACKOFF_BASE = 0.5  # seconds; doubles per retry

    def __init__(self, config: BackendConfig) -> None:
        self.config = config

    def complete(self, messages: Sequence[Message]) -> Completion:
        _check_messages(messages)
        cfg = self.config
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(cfg.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": cfg.model,
            "messages": list(messages),
            "temperature": cfg.temperature,
            "top_p": cfg.top_p,
            "max_tokens": cfg.max_tokens,
        }
        start = time.perf_counter()
        last_error: Optional[str] = None
        for attempt in range(cfg.retries + 1):
            if attempt:
                time.sleep(self._BACKOFF_BASE * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    cfg.endpoint, json=body, headers=headers, timeout=cfg.timeout
                )
            except requests.RequestException as exc:
                last_error = str(exc)
                continue
            if resp.status_code != 200:
                last_error = f"HTTP {resp.status_code}: {resp.text[:200]}"
                continue
            return self._parse(resp, messages, time.perf_counter() - start)
        raise BackendError(
            f"chat completion failed after {cfg.retries + 1} attempts: {last_error}"
        )

    def _parse(
        self, resp: requests.Response, messages: Sequence[Message], latency: float
    ) -> Completion:
        try:
            data = resp.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion payload: {exc}") from exc
        usage = data.get("usage") or {}
        tokens_in = usage.get("prompt_tokens")
        tokens_out = usage.get("completion_tokens")
        if tokens_in is None:
            tokens_in = estimate_prompt(messages)
        if tokens_out is None:
            tokens_out = estimate_tokens(text)
        return Completion(
            text=text, tokens_in=int(tokens_in), tokens_out=int(tokens_out), latency=latency
        )


_REPLAY_CONFIG = BackendConfig(endpoint="replay:", model="replay")


class ReplayBackend:
    """Deterministic backend: call i returns script[i], truncated to the
    configured max_tokens worth of characters so token sums are reproducible
    and bounded exactly like a live call."""

    def __init__(
        self, script: Sequence[str], config: Optional[BackendConfig] = None
    ) -> None:
        script = list(script)
        if not all(isinstance(s, str) for s in script):
            raise ValueError("replay script must be a list of strings")
        self.script = script
        self.config = config or _REPLAY_CONFIG
        self.calls = 0

    @classmethod
    def from_file(cls, path, config: Optional[BackendConfig] = None) -> "ReplayBackend":
        with open(path, encoding="utf-8") as fh:
            script = json.load(fh)
        if not isinstance(script, list):
            raise ValueError(f"replay script {path} must be a JSON array of strings")
        return cls(script, config=config)

    def complete(self, messages: Sequence[Message]) -> Completion:
        _check_messages(messages)
        if self.calls >= len(self.script):
            raise ScriptExhaustedError(
                f"replay script exhausted after {len(self.script)} responses"
            )
        text = self.script[self.calls][: self.config.max_tokens * 4]
        self.calls += 1
        return Completion(
            text=text,
            tokens_in=estimate_prompt(messages),
            tokens_out=estimate_tokens(text),
            latency=0.0,
        )


class RecordingBackend:
    """Pass-through wrapper that captures responses as a replay script."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.config = inner.config
        self.script: list[str] = []

    def complete(self, messages: Sequence[Message]) -> Completion:
        out = self.inner.complete(messages)
        self.script.append(out.text)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.script, fh, indent=2)
            fh.write("\n")
