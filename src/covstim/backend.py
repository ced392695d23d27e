"""Chat-completion transport and token accounting.

Two interchangeable backends: HttpBackend speaks the de-facto
chat-completion JSON schema against any compatible server (endpoint and
model are configuration), and ReplayBackend replays a fixed script of
assistant responses for deterministic tests and offline reruns.
RecordingBackend wraps a live backend and captures its responses into the
same script format.

HttpBackend speaks HTTP/1.1 over one keep-alive socket: one write per
request; a reply body framed by Content-Length, chunked or the server's
close; 1xx interim replies skipped; no redirects and no compression. It
imports `socket` when one is built, `ssl` only for https, `base64` only
for proxy credentials, and `urllib.request` (which loads `http.client`)
only to read the proxy variables, when one is set.

Both backends account for a reply with `account_reply`, which prefers
server-reported usage and falls back to a chars/4 estimate for a count the
server omits. The estimate only has to be roughly right: it feeds budget
bookkeeping, not any correctness decision.
"""
from __future__ import annotations

import json
import math
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
    with ROADMAP item 4's benchmark change, which removes the tracer's
    patches.
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
        # fails too; so does an Infinity, which no request can carry
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")
        if not 0 < self.top_p <= 1:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p!r}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be finite and > 0, got {self.timeout!r}")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


@dataclass(frozen=True)
class Completion:
    text: str
    tokens_in: int
    tokens_out: int


def _check_messages(messages: Sequence[Message]) -> None:
    if not messages:
        raise ValueError("messages must be non-empty")
    if messages[0].get("role") != "system":
        raise ValueError("first message must have the system role")


def estimate_prompt(messages: Sequence[Message]) -> int:
    """Approximate prompt token count: the per-message `estimate_tokens`
    summed, inlined."""
    return sum([(len(m["content"]) + 3) // 4 for m in messages])


def account_reply(text, usage, messages: Sequence[Message], max_tokens: int) -> Completion:
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
    )


class HttpBackend:
    """Blocking chat-completion client over one keep-alive HTTP/1.1
    connection, opened by the first call and reopened after the server
    closes it. Each request goes out in one write; a reply's body is read by
    its Content-Length, its chunked framing or up to the server's close, and
    1xx interim replies are skipped. Redirects are not followed (a 3xx fails
    the call) and no compression is asked for.

    The endpoint and the proxy and CA-bundle variables are read once, when
    the backend is built; a malformed endpoint or a CA bundle that does not
    exist is a ValueError then. netrc is not read. Connection errors, replies
    that do not parse, 429 and 5xx are retried, after the server's
    delta-seconds Retry-After (capped at RETRY_AFTER_CAP) or else an
    exponential backoff; any other non-200 status fails at once.
    """

    _BACKOFF_BASE = 0.5  # seconds; doubles per retry

    def __init__(self, config: BackendConfig) -> None:
        import socket  # noqa: F401  (loaded here, so the first call does not pay)
        from urllib.parse import unquote, urlsplit

        self.config = config
        url = urlsplit(config.endpoint)
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if (
            url.scheme not in ("http", "https")
            or not url.hostname
            or url.username
            or not (path.isascii() and path.isprintable())
            or " " in path
        ):
            raise ValueError(
                f"backend endpoint {config.endpoint!r} is not an http:// or "
                "https:// URL with a host, no credentials and a path of "
                "printable ASCII without spaces"
            )
        https = url.scheme == "https"
        default_port = 443 if https else 80
        # a bad port is a ValueError too
        host, port = url.hostname, url.port or default_port
        authority = host if host.isascii() else host.encode("idna").decode()
        if ":" in authority:  # an IPv6 literal
            authority = f"[{authority}]"
        target = f"{authority}:{port}"
        if port != default_port:
            authority = target
        self._sock = None
        self._host = host
        self._address = (host, port)
        self._tls = None
        self._tunnel = None  # the CONNECT request, for https through a proxy
        if https:
            self._tls = _ssl_context()
            self._tls.set_alpn_protocols(["http/1.1"])
        proxy_auth = ""
        proxy = _proxy_for(url.scheme, host)
        if proxy:
            proxy_url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_url.scheme != "http" or not proxy_url.hostname:
                raise ValueError(f"proxy {proxy!r} is not an http:// URL with a host")
            if proxy_url.username is not None:
                import base64

                user_pass = f"{unquote(proxy_url.username)}:{unquote(proxy_url.password or '')}"
                token = base64.b64encode(user_pass.encode("latin-1")).decode("ascii")
                proxy_auth = f"Proxy-Authorization: Basic {token}\r\n"
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            if https:
                self._tunnel = (
                    f"CONNECT {target} HTTP/1.1\r\nHost: {target}\r\n{proxy_auth}\r\n"
                ).encode("latin-1")
                proxy_auth = ""
            else:  # absolute form: the proxy forwards the request
                path = f"http://{url.netloc}{path}"
        self._head = (
            f"POST {path} HTTP/1.1\r\nHost: {authority}\r\n"
            "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
            f"User-Agent: covstim\r\n{proxy_auth}"
        ).encode("latin-1")

    def complete(self, messages: Sequence[Message]) -> Completion:
        _check_messages(messages)
        cfg = self.config
        body = json.dumps(
            {
                "model": cfg.model,
                "messages": list(messages),
                "temperature": cfg.temperature,
                "top_p": cfg.top_p,
                "max_tokens": cfg.max_tokens,
            }
        ).encode()
        api_key = os.environ.get(cfg.api_key_env)
        auth = b""
        if api_key:
            if "\r" in api_key or "\n" in api_key:
                raise ValueError(f"{cfg.api_key_env} holds a line break")
            auth = f"Authorization: Bearer {api_key}\r\n".encode("latin-1")
        request = b"%s%sContent-Length: %d\r\n\r\n%s" % (self._head, auth, len(body), body)
        last_error: Optional[str] = None
        for attempt in range(cfg.retries + 1):
            if attempt:
                time.sleep(wait)
            backoff = self._BACKOFF_BASE * 2**attempt
            try:
                if self._sock is not None and _readable(self._sock):
                    self.close()  # the server closed it while it was idle
                if self._sock is None:
                    self._connect()
                self._sock.sendall(request)
                status, headers, data, keep = _read_reply(self._sock)
            except OSError as exc:
                self.close()
                last_error = f"{type(exc).__name__}: {exc}"
                wait = backoff
                continue
            if not keep:
                self.close()
            if status == 200:
                return self._parse(data, messages)
            last_error = f"HTTP {status}: {data[:200].decode(errors='replace')}"
            if status != 429 and status < 500:
                raise BackendError(f"chat completion failed: {last_error}")
            wait = _retry_wait(headers.get("retry-after"), backoff)
        raise BackendError(
            f"chat completion failed after {cfg.retries + 1} attempts: {last_error}"
        )

    def close(self) -> None:
        """Close the connection; a later call opens a new one."""
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def _connect(self) -> None:
        """Open the connection: TCP to the server or proxy, the proxy's
        CONNECT tunnel for https, then TLS."""
        import socket  # loaded by __init__: a dictionary lookup here

        sock = socket.create_connection(self._address, self.config.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                sock.sendall(self._tunnel)
                status = _read_head(_Reader(sock))[0]
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status}")
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        self._sock = sock

    def _parse(self, data: bytes, messages: Sequence[Message]) -> Completion:
        try:
            payload = json.loads(data)
            text = payload["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion payload: {exc}") from exc
        return account_reply(text, payload.get("usage"), messages, self.config.max_tokens)


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


def _proxy_for(scheme: str, host: str) -> Optional[str]:
    """The proxy URL the environment names for `scheme`, or None when none
    does or NO_PROXY exempts `host`. urllib.request is imported only when
    some `*_proxy` variable is set: without one there is nothing to read."""
    if not any(name[-6:].lower() == "_proxy" for name in os.environ):
        return None
    import urllib.request

    proxies = urllib.request.getproxies_environment()
    proxy = proxies.get(scheme) or proxies.get("all")
    if not proxy or urllib.request.proxy_bypass_environment(host, proxies):
        return None
    return proxy


def _readable(sock) -> bool:
    """True when an idle keep-alive socket has something to read: the
    server has closed it, so it cannot carry the next request."""
    import select  # loaded with socket: a dictionary lookup here

    return bool(select.select([sock], [], [], 0)[0])


_RECV = 65536  # bytes asked of each recv
_MAX_HEAD = 65536  # bytes; a longer status line and header block is refused


class _BadReply(OSError):
    """A reply that is not HTTP/1.x: a bad status line or chunk size, or a
    head or body the server cut short. An OSError, so the retry loop treats
    it as a transport error."""


class _Reader:
    """The bytes of one reply on a socket, received as they are needed."""

    __slots__ = ("sock", "buf")

    def __init__(self, sock) -> None:
        self.sock = sock
        self.buf = bytearray()

    def _recv(self) -> bool:
        """Append what the socket receives next; False when the server has
        closed it."""
        data = self.sock.recv(_RECV)
        self.buf += data
        return bool(data)

    def until(self, sep: bytes, what: str) -> bytearray:
        """The bytes before the next `sep`, consumed with it."""
        end = self.buf.find(sep)
        while end < 0:
            if len(self.buf) > _MAX_HEAD:
                raise _BadReply(f"{what} longer than {_MAX_HEAD} bytes")
            seen = max(len(self.buf) - len(sep) + 1, 0)
            if not self._recv():
                if not self.buf:
                    raise _BadReply("the server closed the connection without a reply")
                raise _BadReply(f"{what} cut short: {bytes(self.buf[:80])!r}")
            end = self.buf.find(sep, seen)
        out = self.buf[:end]
        del self.buf[: end + len(sep)]
        return out

    def take(self, size: int) -> bytes:
        """The next `size` bytes."""
        while len(self.buf) < size:
            if not self._recv():
                raise _BadReply(f"body cut short: {len(self.buf)} of {size} bytes")
        out = bytes(self.buf[:size])
        del self.buf[:size]
        return out

    def rest(self) -> bytes:
        """Everything up to the server's close."""
        while self._recv():
            pass
        return bytes(self.buf)


def _read_head(reader: _Reader) -> tuple[int, bool, dict]:
    """(status, http10, headers) of the next final reply, after any 1xx
    interim replies. Header names are lower-cased and values stripped; a
    repeated header keeps its first value."""
    while True:
        lines = reader.until(b"\r\n\r\n", "reply head").decode("latin-1").split("\r\n")
        parts = lines[0].split(None, 2)
        if not (
            len(parts) > 1
            and parts[0].startswith("HTTP/1.")
            and parts[1].isascii()
            and parts[1].isdigit()
            and 100 <= int(parts[1]) <= 999
        ):
            raise _BadReply(f"bad status line {lines[0][:80]!r}")
        status = int(parts[1])
        if status >= 200:
            break
    headers: dict = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers.setdefault(name.lower(), value.strip())
    return status, parts[0] == "HTTP/1.0", headers


def _read_chunked(reader: _Reader) -> bytes:
    """A chunked body; chunk extensions and trailers are read and dropped."""
    body = []
    while True:
        line = reader.until(b"\r\n", "chunk size")
        try:
            size = int(line.split(b";", 1)[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise _BadReply(f"bad chunk size {bytes(line[:40])!r}")
        if size == 0:
            break
        chunk = reader.take(size + 2)
        if chunk[size:] != b"\r\n":
            raise _BadReply(f"chunk of {size} bytes not followed by CRLF")
        body.append(chunk[:size])
    while reader.until(b"\r\n", "trailer"):
        pass
    return b"".join(body)


def _read_reply(sock) -> tuple[int, dict, bytes, bool]:
    """(status, headers, body, keep) of the next final reply on `sock`.
    `keep` is False when the connection cannot carry another request: the
    reply says `Connection: close`, is HTTP/1.0 without keep-alive, or has a
    body that ends where the server closes."""
    reader = _Reader(sock)
    status, http10, headers = _read_head(reader)
    connection = headers.get("connection", "").lower()
    keep = "keep-alive" in connection if http10 else "close" not in connection
    length = headers.get("content-length", "")
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = _read_chunked(reader)
    elif status in (204, 304):
        body = b""
    elif length.isascii() and length.isdigit():
        body = reader.take(int(length))
    else:
        body, keep = reader.rest(), False
    return status, headers, body, keep


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
            try:
                script = json.load(fh)
            except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
                raise ValueError(f"replay script {path} is not valid JSON: {exc}") from None
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
