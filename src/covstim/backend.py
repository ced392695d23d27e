"""Chat-completion transport and token accounting.

Two interchangeable backends: HttpBackend speaks the de-facto
chat-completion JSON schema against any compatible server (endpoint and
model are configuration), and ReplayBackend replays a fixed script of
assistant responses for deterministic tests and offline reruns.
RecordingBackend wraps a live backend and captures its responses into the
same script format.

HttpBackend uses only the standard library: `http.client`, `ssl` and
`urllib.request` are imported when one is built, so commands that make no
HTTP call do not pay for importing them.

Both backends account for a reply with `account_reply`, which prefers
server-reported usage and falls back to a chars/4 estimate for a count the
server omits. The estimate only has to be roughly right: it feeds budget
bookkeeping, not any correctness decision.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence

Message = dict  # {"role": "system"|"user"|"assistant", "content": str}

RETRY_AFTER_CAP = 60.0  # seconds; the longest server-requested wait honoured


def __getattr__(name: str):
    """`covstim.backend.requests`, imported on first use (PEP 562).

    HttpBackend does not use it. It stays only because the benchmark tracer
    (`perfbench/tracing.py`) and its self-tests patch this name; it goes
    with ROADMAP item 2's benchmark change.
    """
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


_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def check_field_types(config) -> None:
    """Raise ValueError when an int, float or str field of a config dataclass
    holds another type, as a JSON config can; a bool is not a number."""
    for f in fields(config):
        value = getattr(config, f.name)
        allowed = _FIELD_TYPES.get(f.type)
        if allowed is not None and type(value) not in allowed:
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")


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
        check_field_types(self)
        # written as not (in range) so that a NaN, which JSON config can hold,
        # fails too
        if not self.temperature >= 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature!r}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p!r}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout!r}")
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
    """Approximate prompt token count: the per-message `estimate_tokens`
    summed, inlined."""
    return sum([(len(m["content"]) + 3) // 4 for m in messages])


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
    """Blocking chat-completion client over one keep-alive `http.client`
    connection, opened by the first call and reopened after the server
    closes it. Redirects are not followed: a 3xx fails the call.

    The endpoint and the proxy and CA-bundle variables are read once, when
    the backend is built; a malformed endpoint or a CA bundle that does not
    exist is a ValueError then. netrc is not read. Connection errors, 429
    and 5xx are retried, after the server's delta-seconds Retry-After
    (capped at RETRY_AFTER_CAP) or else an exponential backoff; any other
    non-200 status fails at once.
    """

    _BACKOFF_BASE = 0.5  # seconds; doubles per retry

    def __init__(self, config: BackendConfig) -> None:
        import base64
        import http.client
        import urllib.request
        from urllib.parse import unquote, urlsplit

        self.config = config
        url = urlsplit(config.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname or url.username:
            raise ValueError(
                f"backend endpoint {config.endpoint!r} is not an http:// or "
                "https:// URL with a host and no credentials"
            )
        https = url.scheme == "https"
        # a bad port is a ValueError too
        host, port = url.hostname, url.port or (443 if https else 80)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json", "User-Agent": "covstim"}
        self._transport_errors = (OSError, http.client.HTTPException)
        kwargs = {"timeout": config.timeout}
        if https:
            kwargs["context"] = _ssl_context()
        connection = http.client.HTTPSConnection if https else http.client.HTTPConnection

        proxies = urllib.request.getproxies_environment()
        proxy = proxies.get(url.scheme) or proxies.get("all")
        if not proxy or urllib.request.proxy_bypass_environment(host, proxies):
            self._conn = connection(host, port, **kwargs)
            return
        proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if proxy_url.scheme != "http" or not proxy_url.hostname:
            raise ValueError(f"proxy {proxy!r} is not an http:// URL with a host")
        auth = {}
        if proxy_url.username is not None:
            user_pass = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
            token = base64.b64encode(user_pass.encode("latin-1")).decode("ascii")
            auth["Proxy-Authorization"] = f"Basic {token}"
        self._conn = connection(proxy_url.hostname, proxy_url.port or 80, **kwargs)
        if https:
            self._conn.set_tunnel(host, port, headers=auth)
        else:  # absolute form: the proxy forwards the request
            self._path = f"http://{url.netloc}{self._path}"
            self._headers.update(auth)

    def complete(self, messages: Sequence[Message]) -> Completion:
        _check_messages(messages)
        cfg = self.config
        headers = dict(self._headers)
        api_key = os.environ.get(cfg.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = json.dumps(
            {
                "model": cfg.model,
                "messages": list(messages),
                "temperature": cfg.temperature,
                "top_p": cfg.top_p,
                "max_tokens": cfg.max_tokens,
            }
        ).encode()
        conn = self._conn
        start = time.perf_counter()
        last_error: Optional[str] = None
        for attempt in range(cfg.retries + 1):
            if attempt:
                time.sleep(wait)
            backoff = self._BACKOFF_BASE * 2**attempt
            try:
                if conn.sock is not None and _readable(conn.sock):
                    conn.close()  # the server closed it while it was idle
                conn.request("POST", self._path, body, headers)
                # a reply with `Connection: close` closes the connection here
                resp = conn.getresponse()
                data = resp.read()
            except self._transport_errors as exc:
                conn.close()
                last_error = f"{type(exc).__name__}: {exc}"
                wait = backoff
                continue
            status = resp.status
            if status == 200:
                return self._parse(data, messages, time.perf_counter() - start)
            last_error = f"HTTP {status}: {data[:200].decode(errors='replace')}"
            if status != 429 and status < 500:
                raise BackendError(f"chat completion failed: {last_error}")
            wait = _retry_wait(resp.getheader("Retry-After"), backoff)
        raise BackendError(
            f"chat completion failed after {cfg.retries + 1} attempts: {last_error}"
        )

    def close(self) -> None:
        """Close the connection; a later call opens a new one."""
        self._conn.close()

    def _parse(self, data: bytes, messages: Sequence[Message], latency: float) -> Completion:
        try:
            payload = json.loads(data)
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion payload: {exc}") from exc
        max_tokens = self.config.max_tokens
        return account_reply(text, payload.get("usage"), messages, max_tokens, latency)


def _ssl_context():
    """The default TLS context, trusting the CA bundle that
    REQUESTS_CA_BUNDLE, or else CURL_CA_BUNDLE, names (a file or a
    directory); ValueError when that path does not exist."""
    import ssl

    for var in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        path = os.environ.get(var)
        if path:
            if not os.path.exists(path):
                raise ValueError(f"{var} names {path!r}, which does not exist")
            if os.path.isdir(path):
                return ssl.create_default_context(capath=path)
            return ssl.create_default_context(cafile=path)
    return ssl.create_default_context()


def _readable(sock) -> bool:
    """True when an idle keep-alive socket has something to read: the
    server has closed it, so it cannot carry the next request."""
    import select  # loaded with http.client: a dictionary lookup here

    return bool(select.select([sock], [], [], 0)[0])


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
