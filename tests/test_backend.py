"""Chat-backend tests: token estimation, replay contract, HTTP transport.

The HTTP tests run against a stdlib http.server stub (HTTP/1.1, keep-alive)
so the request wire format (body fields, auth header), retry and fail-fast
behavior, connection reuse and proxy routing are pinned without any network
dependency.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, strategies as st

from covstim.backend import (
    BackendConfig,
    BackendError,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    ScriptExhaustedError,
    estimate_tokens,
)

SYSTEM = {"role": "system", "content": "You are a verification assistant."}
USER = {"role": "user", "content": "Generate stimuli."}


# --- token estimation ---------------------------------------------------------

def test_estimate_tokens_frozen_examples():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcdefghij") == 3  # ceiling of 10/4


@given(st.text(max_size=400))
def test_estimate_tokens_is_ceiling_of_quarter_length(text):
    assert estimate_tokens(text) == math.ceil(len(text) / 4)


# --- config validation ----------------------------------------------------------

def test_config_defaults():
    cfg = BackendConfig(endpoint="http://x", model="m")
    assert cfg.temperature == 0.4
    assert cfg.top_p == 1.0
    assert cfg.max_tokens == 600


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", model="m", temperature=-0.1)
    with pytest.raises(ValueError):
        BackendConfig(endpoint="http://x", model="m", max_tokens=0)


# --- replay backend ------------------------------------------------------------

def test_replay_script_contract():
    backend = ReplayBackend(["a", "b"])
    assert backend.complete([SYSTEM, USER]).text == "a"
    assert backend.complete([SYSTEM, USER]).text == "b"
    with pytest.raises(ScriptExhaustedError):
        backend.complete([SYSTEM, USER])


def test_replay_is_pure_function_of_call_index():
    script = ["one", "two", "three"]
    texts_a = [ReplayBackend(script).complete([SYSTEM]).text for _ in range(1)]
    b1, b2 = ReplayBackend(script), ReplayBackend(script)
    seq1 = [b1.complete([SYSTEM]).text for _ in script]
    seq2 = [b2.complete([SYSTEM]).text for _ in script]
    assert seq1 == seq2 == script
    assert texts_a == ["one"]


def test_replay_truncates_to_max_tokens_worth_of_chars(stub_server, http_backend):
    # a live server that ignores max_tokens is cut the same way as a replay
    stub_server.responses = [(200, _chat_payload("x" * 100))]
    cfg = BackendConfig(endpoint="replay:", model="replay", max_tokens=5)
    for backend in (
        ReplayBackend(["x" * 100], config=cfg),
        http_backend(_config(stub_server, max_tokens=5)),
    ):
        out = backend.complete([SYSTEM])
        assert out.text == "x" * 20  # 5 tokens * 4 chars
        assert out.tokens_out == 5


def test_replay_token_accounting_uses_estimates():
    backend = ReplayBackend(["abcd" * 3])
    out = backend.complete([SYSTEM, USER])
    assert out.tokens_in == estimate_tokens(SYSTEM["content"]) + estimate_tokens(
        USER["content"]
    )
    assert out.tokens_out == estimate_tokens("abcd" * 3)


def test_replay_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(["r1", "r2"]))
    backend = ReplayBackend.from_file(path)
    assert backend.complete([SYSTEM]).text == "r1"
    assert backend.complete([SYSTEM]).text == "r2"


def test_replay_rejects_non_string_script():
    with pytest.raises(ValueError):
        ReplayBackend(["ok", 7])


# --- recording wrapper -----------------------------------------------------------

def test_recording_backend_captures_replayable_script(tmp_path):
    inner = ReplayBackend(["alpha", "beta"])
    rec = RecordingBackend(inner)
    rec.complete([SYSTEM])
    rec.complete([SYSTEM])
    path = tmp_path / "captured.json"
    rec.dump(path)
    replay = ReplayBackend.from_file(path)
    assert replay.complete([SYSTEM]).text == "alpha"
    assert replay.complete([SYSTEM]).text == "beta"


# --- http backend against a stub server --------------------------------------------

class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body go out in two writes; without this, Nagle's algorithm
    # holds the body until the client's delayed ACK (about 40 ms a call)
    disable_nagle_algorithm = True

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server.requests.append(
            {
                "body": body,
                "auth": self.headers.get("Authorization"),
                "proxy_auth": self.headers.get("Proxy-Authorization"),
                "path": self.path,
                "port": self.client_address[1],
            }
        )
        status, payload, *headers = server.responses[
            min(len(server.requests) - 1, len(server.responses) - 1)
        ]
        data = json.dumps(payload).encode()
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        # close without a `Connection: close` header, as an idle timeout does
        self.close_connection |= getattr(server, "drop_after_reply", False)

    def do_CONNECT(self):
        # a proxy that refuses every tunnel
        self.server.requests.append(
            {"tunnel": self.path, "proxy_auth": self.headers.get("Proxy-Authorization")}
        )
        self.send_response(502)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


# how often the stub's serve loop checks for shutdown: teardown waits up to this
POLL_S = 0.05


@pytest.fixture(autouse=True)
def no_proxy_env(monkeypatch):
    """Keep the caller's proxy variables away from the transport tests."""
    for name in list(os.environ):
        if name.lower() in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name)


class _StubServer(ThreadingHTTPServer):
    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()  # counts the connections the server has closed


@pytest.fixture
def stub_server():
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    server.requests = []
    server.responses = [(200, _chat_payload("ok"))]
    server.closed = threading.Semaphore(0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": POLL_S}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture
def http_backend():
    """Build an HttpBackend; each one built is closed when the test ends."""
    built = []

    def build(config):
        built.append(HttpBackend(config))
        return built[-1]

    yield build
    for backend in built:
        backend.close()


def _chat_payload(text, usage=None):
    payload = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


def _config(server, **kw):
    kw.setdefault("retries", 0)
    return BackendConfig(
        endpoint=f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions",
        model="stub-model",
        **kw,
    )


# payloads a misbehaving server might send, and the part each gets wrong
MALFORMED_PAYLOADS = {
    "null content": {"choices": [{"message": {"role": "assistant", "content": None}}]},
    "list usage": _chat_payload("ok", usage=[10, 20]),
    "string usage": _chat_payload("ok", usage="10 20"),
    "string count": _chat_payload("ok", usage={"prompt_tokens": "x"}),
    "negative count": _chat_payload("ok", usage={"completion_tokens": -5}),
    "bool count": _chat_payload("ok", usage={"prompt_tokens": True}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PAYLOADS))
def test_http_rejects_malformed_payloads(stub_server, case, http_backend):
    stub_server.responses = [(200, MALFORMED_PAYLOADS[case])]
    with pytest.raises(BackendError, match="malformed completion payload"):
        http_backend(_config(stub_server)).complete([SYSTEM])


def test_http_usage_passthrough(stub_server, http_backend):
    stub_server.responses = [
        (200, _chat_payload("hi", usage={"prompt_tokens": 10, "completion_tokens": 20}))
    ]
    out = http_backend(_config(stub_server)).complete([SYSTEM, USER])
    assert out.text == "hi"
    assert out.tokens_in == 10
    assert out.tokens_out == 20


def test_http_fallback_estimation_when_usage_missing(stub_server, http_backend):
    stub_server.responses = [(200, _chat_payload("y" * 400))]
    out = http_backend(_config(stub_server)).complete([SYSTEM, USER])
    assert out.tokens_out == 100  # 400 chars / 4
    assert out.tokens_in == estimate_tokens(SYSTEM["content"]) + estimate_tokens(
        USER["content"]
    )


def test_http_request_wire_format(stub_server, http_backend):
    cfg = _config(stub_server, temperature=0.7, max_tokens=123)
    http_backend(cfg).complete([SYSTEM, USER])
    body = stub_server.requests[0]["body"]
    assert body["model"] == "stub-model"
    assert body["temperature"] == 0.7
    assert body["top_p"] == 1.0
    assert body["max_tokens"] == 123
    assert body["messages"] == [SYSTEM, USER]


def test_http_api_key_header(stub_server, monkeypatch, http_backend):
    monkeypatch.setenv("STUB_KEY_VAR", "sekrit")
    cfg = _config(stub_server, api_key_env="STUB_KEY_VAR")
    http_backend(cfg).complete([SYSTEM])
    assert stub_server.requests[0]["auth"] == "Bearer sekrit"
    monkeypatch.delenv("STUB_KEY_VAR")
    stub_server.requests.clear()
    http_backend(cfg).complete([SYSTEM])
    assert stub_server.requests[0]["auth"] is None


def test_http_retries_then_succeeds(stub_server, monkeypatch, http_backend):
    import covstim.backend as backend_mod

    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    stub_server.responses = [
        (500, {"error": "boom"}),
        (500, {"error": "boom"}),
        (200, _chat_payload("recovered")),
    ]
    out = http_backend(_config(stub_server, retries=2)).complete([SYSTEM])
    assert out.text == "recovered"
    assert len(stub_server.requests) == 3


def test_http_retries_exhausted_raises(stub_server, monkeypatch, http_backend):
    import covstim.backend as backend_mod

    monkeypatch.setattr(backend_mod.time, "sleep", lambda s: None)
    stub_server.responses = [(500, {"error": "boom"})]
    with pytest.raises(BackendError):
        http_backend(_config(stub_server, retries=1)).complete([SYSTEM])
    assert len(stub_server.requests) == 2  # initial try + one retry


def _sleeps(monkeypatch):
    import covstim.backend as backend_mod

    slept = []
    monkeypatch.setattr(backend_mod.time, "sleep", slept.append)
    return slept


def test_http_fails_fast_on_client_errors(stub_server, monkeypatch, http_backend):
    slept = _sleeps(monkeypatch)
    for status in (400, 401, 404):
        stub_server.requests.clear()
        stub_server.responses = [(status, {"error": "nope"}), (200, _chat_payload("late"))]
        with pytest.raises(BackendError, match=f"HTTP {status}"):
            http_backend(_config(stub_server, retries=3)).complete([SYSTEM])
        assert len(stub_server.requests) == 1
    assert slept == []


def test_http_retry_waits(stub_server, monkeypatch, http_backend):
    import covstim.backend as backend_mod

    cases = [
        # (failing responses before a 200, expected sleeps)
        ([(429, {}, {"Retry-After": "7"})], [7.0]),
        ([(503, {}, {"Retry-After": "86400"})], [backend_mod.RETRY_AFTER_CAP]),
        ([(429, {}), (502, {}), (500, {})], [0.5, 1.0, 2.0]),
        ([(429, {}, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"})], [0.5]),
        ([(500, {}, {"Retry-After": "3"}), (500, {})], [3.0, 1.0]),
    ]
    for failures, expected in cases:
        slept = _sleeps(monkeypatch)
        stub_server.requests.clear()
        stub_server.responses = failures + [(200, _chat_payload("ok"))]
        out = http_backend(_config(stub_server, retries=3)).complete([SYSTEM])
        assert out.text == "ok"
        assert slept == expected
        assert len(stub_server.requests) == len(failures) + 1


def test_http_retries_connection_errors(monkeypatch, http_backend):
    slept = _sleeps(monkeypatch)
    cfg = BackendConfig(endpoint="http://127.0.0.1:1/v1", model="m", retries=2, timeout=5)
    with pytest.raises(BackendError, match="after 3 attempts"):
        http_backend(cfg).complete([SYSTEM])
    assert slept == [0.5, 1.0]


# --- endpoint, connection, start-up import and proxy environment ---------------------

def test_cli_import_does_not_load_requests():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, covstim.cli; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize(
    "endpoint",
    [
        "127.0.0.1:8000/v1",  # no scheme
        "localhost/v1",
        "ftp://127.0.0.1/v1",
        "http:///v1/chat/completions",  # no host
        "http://127.0.0.1:port/v1",
        "http://user:pw@127.0.0.1/v1",  # credentials come from api_key_env
    ],
)
def test_malformed_endpoint_fails_when_the_backend_is_built(endpoint, monkeypatch):
    slept = _sleeps(monkeypatch)
    with pytest.raises(ValueError):
        HttpBackend(BackendConfig(endpoint=endpoint, model="m"))
    assert slept == []


@pytest.mark.parametrize("var", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
def test_missing_ca_bundle_fails_when_the_backend_is_built(var, tmp_path, monkeypatch):
    missing = str(tmp_path / "no-such-bundle.pem")
    monkeypatch.delenv("REQUESTS_CA_BUNDLE", raising=False)
    monkeypatch.setenv(var, missing)
    with pytest.raises(ValueError, match=var) as info:
        HttpBackend(BackendConfig(endpoint="https://127.0.0.1:9/v1", model="m"))
    assert missing in str(info.value)


def test_ca_bundle_may_be_a_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path))  # a c_rehash directory
    HttpBackend(BackendConfig(endpoint="https://127.0.0.1:9/v1", model="m"))


def test_http_calls_share_one_keep_alive_connection(stub_server, http_backend):
    backend = http_backend(_config(stub_server))
    for _ in range(5):
        backend.complete([SYSTEM, USER])
    assert len({r["port"] for r in stub_server.requests}) == 1
    assert len(stub_server.requests) == 5


def test_http_reconnects_after_connection_close(stub_server, monkeypatch, http_backend):
    # as the benchmark's stub server does: `Connection: close` on every reply
    slept = _sleeps(monkeypatch)
    stub_server.responses = [(200, _chat_payload("ok"), {"Connection": "close"})]
    backend = http_backend(_config(stub_server))
    for _ in range(5):
        assert backend.complete([SYSTEM, USER]).text == "ok"
    assert len(stub_server.requests) == 5  # no retry
    assert len({r["port"] for r in stub_server.requests}) == 5
    assert slept == []


def test_http_reconnects_after_an_idle_close(stub_server, monkeypatch, http_backend):
    # the server closes the kept-alive connection without saying so first
    slept = _sleeps(monkeypatch)
    stub_server.drop_after_reply = True
    backend = http_backend(_config(stub_server))
    backend.complete([SYSTEM])
    assert stub_server.closed.acquire(timeout=5)
    assert backend.complete([SYSTEM]).text == "ok"  # retries=0: the first try works
    assert len({r["port"] for r in stub_server.requests}) == 2
    assert slept == []


def test_no_runtime_dependency_on_requests(stub_server):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "sys.modules['requests'] = None  # any import of requests now fails\n"
        "from covstim.backend import BackendConfig, HttpBackend\n"
        f"config = BackendConfig(endpoint={_config(stub_server).endpoint!r}, model='m')\n"
        "print(HttpBackend(config).complete([{'role': 'system', 'content': 'hi'}]).text)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "ok"


DEAD_PROXY = "http://127.0.0.1:1"  # nothing listens there


def test_http_proxy_read_when_backend_is_built(stub_server, monkeypatch, http_backend):
    # An address literal nothing serves: a call that skipped the proxy would
    # be refused locally instead of resolving a name.
    endpoint = "http://127.0.0.2:9/v1/chat/completions"
    monkeypatch.setenv("HTTP_PROXY", f"http://user:pw@127.0.0.1:{stub_server.server_address[1]}")
    backend = http_backend(BackendConfig(endpoint=endpoint, model="m", retries=0))
    monkeypatch.setenv("HTTP_PROXY", DEAD_PROXY)
    assert backend.complete([SYSTEM]).text == "ok"
    assert stub_server.requests[0]["path"] == endpoint  # absolute form: proxied
    assert stub_server.requests[0]["proxy_auth"] == "Basic dXNlcjpwdw=="  # user:pw


def test_https_goes_through_a_proxy_tunnel(stub_server, monkeypatch, http_backend):
    slept = _sleeps(monkeypatch)
    monkeypatch.setenv("HTTPS_PROXY", f"http://user:pw@127.0.0.1:{stub_server.server_address[1]}")
    cfg = BackendConfig(endpoint="https://127.0.0.2:9443/v1/chat/completions", model="m", retries=1)
    with pytest.raises(BackendError, match="after 2 attempts"):
        http_backend(cfg).complete([SYSTEM])
    # the stub refuses each tunnel with a 502, which is retried
    tunnel = {"tunnel": "127.0.0.2:9443", "proxy_auth": "Basic dXNlcjpwdw=="}
    assert stub_server.requests == [tunnel, tunnel]
    assert slept == [0.5]


def test_http_no_proxy_bypasses_proxy(stub_server, monkeypatch, http_backend):
    monkeypatch.setenv("HTTP_PROXY", DEAD_PROXY)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    assert http_backend(_config(stub_server)).complete([SYSTEM]).text == "ok"
    assert stub_server.requests[0]["path"] == "/v1/chat/completions"


def test_messages_must_start_with_system(stub_server, http_backend):
    backend = http_backend(_config(stub_server))
    with pytest.raises(ValueError):
        backend.complete([])
    with pytest.raises(ValueError):
        backend.complete([USER])
