"""Chat-completion transport and token accounting.

Two interchangeable backends: HttpBackend speaks the de-facto
chat-completion JSON schema against any compatible server (endpoint and
model are configuration), and ReplayBackend replays a fixed script of
assistant responses for deterministic tests and offline reruns.
RecordingBackend wraps a live backend and captures its responses into the
same script format.

`requests` is imported on first use of the module attribute
`covstim.backend.requests` (PEP 562), which `HttpBackend` makes when it is
built, so commands that make no HTTP call do not pay for importing it.

Both backends account for a reply with `account_reply`, which prefers
server-reported usage and falls back to a chars/4 estimate for a count the
server omits. The estimate only has to be roughly right: it feeds budget
bookkeeping, not any correctness decision.
"""
from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    import requests

Message = dict  # {"role": "system"|"user"|"assistant", "content": str}

RETRY_AFTER_CAP = 60.0  # seconds; the longest server-requested wait honoured


def __getattr__(name: str):
    if name != "requests":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import requests

    globals()["requests"] = requests
    return requests


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


def _check_messages(messages: Sequence[Message]) -> None:
    if not messages:
        raise ValueError("messages must be non-empty")
    if messages[0].get("role") != "system":
        raise ValueError("first message must have the system role")


def estimate_prompt(messages: Sequence[Message]) -> int:
    """Approximate prompt token count: the per-message estimates summed."""
    return sum(estimate_tokens(m["content"]) for m in messages)


def account_reply(
    text, usage, messages: Sequence[Message], max_tokens: int, latency: float = 0.0
) -> Completion:
    """The Completion for one reply, cut to `max_tokens` x 4 characters so
    that a server ignoring max_tokens stays within the budget gate's reply
    allowance and a recorded script replays to the same log.

    `usage` is the server's usage object or None; a count it omits or nulls
    is estimated. BackendError if `text` is not a string, `usage` not an
    object, or a count not a non-negative integer.
    """
    if not isinstance(text, str):
        raise BackendError(f"malformed completion payload: content is {text!r}")
    if usage is None:
        usage = {}
    elif not isinstance(usage, dict):
        raise BackendError(f"malformed completion payload: usage is {usage!r}")
    for key in ("prompt_tokens", "completion_tokens"):
        value = usage.get(key)
        if value is not None and (type(value) is not int or value < 0):
            raise BackendError(f"malformed completion payload: {key} is {value!r}")
    text = text[: max_tokens * 4]
    tokens_in = usage.get("prompt_tokens")
    tokens_out = usage.get("completion_tokens")
    return Completion(
        text,
        estimate_prompt(messages) if tokens_in is None else tokens_in,
        estimate_tokens(text) if tokens_out is None else tokens_out,
        latency,
    )


class HttpBackend:
    """Blocking chat-completion client over one keep-alive session.

    Proxy and CA-bundle variables are read once, when the backend is built;
    netrc is not read. Connection errors, 429 and 5xx are retried, after the
    server's delta-seconds Retry-After (capped at RETRY_AFTER_CAP) or else
    an exponential backoff; any other non-200 status fails at once.
    """

    _BACKOFF_BASE = 0.5  # seconds; doubles per retry

    def __init__(self, config: BackendConfig) -> None:
        self.config = config
        session = sys.modules[__name__].requests.Session()
        self._settings = session.merge_environment_settings(
            config.endpoint, {}, None, None, None
        )
        session.trust_env = False
        self._session = session

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
                time.sleep(wait)
            backoff = self._BACKOFF_BASE * 2**attempt
            try:
                resp = self._session.post(
                    cfg.endpoint, json=body, headers=headers, timeout=cfg.timeout,
                    **self._settings,
                )
            except requests.RequestException as exc:
                last_error = str(exc)
                wait = backoff
                continue
            status = resp.status_code
            if status == 200:
                return self._parse(resp, messages, time.perf_counter() - start)
            last_error = f"HTTP {status}: {resp.text[:200]}"
            if status != 429 and status < 500:
                raise BackendError(f"chat completion failed: {last_error}")
            wait = _retry_wait(resp.headers.get("Retry-After"), backoff)
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
        max_tokens = self.config.max_tokens
        return account_reply(text, data.get("usage"), messages, max_tokens, latency)


def _retry_wait(retry_after: Optional[str], backoff: float) -> float:
    """Seconds before the next attempt: a delta-seconds Retry-After capped at
    RETRY_AFTER_CAP, else `backoff` (also for the HTTP-date form)."""
    if retry_after and retry_after.strip().isdecimal():
        return min(float(retry_after), RETRY_AFTER_CAP)
    return backoff


_REPLAY_CONFIG = BackendConfig(endpoint="replay:", model="replay")


class ReplayBackend:
    """Deterministic backend: call i returns script[i], accounted like a live
    reply without a usage block."""

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
        text = self.script[self.calls]
        self.calls += 1
        return account_reply(text, None, messages, self.config.max_tokens)


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
