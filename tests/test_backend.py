"""Chat-backend tests: token estimation, replay contract, HTTP transport.

The HTTP tests run against a stdlib http.server stub (HTTP/1.1, keep-alive)
so the request wire format (body fields, headers), body framing, retry and
fail-fast behavior, connection reuse and proxy routing are pinned without
any network dependency. The reply reader is also checked against
`http.client.HTTPResponse` reading the same bytes.
"""
from __future__ import annotations

import http.client
import io
import json
import math
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings, strategies as st

from covstim.backend import (
    BackendConfig,
    BackendError,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    ScriptExhaustedError,
    estimate_prompt,
    estimate_tokens,
    _read_reply,
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


@given(st.lists(st.text(max_size=60), max_size=8))
def test_estimate_prompt_sums_the_message_estimates(contents):
    messages = [{"role": "user", "content": c} for c in contents]
    assert estimate_prompt(messages) == sum(estimate_tokens(c) for c in contents)


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
                "headers": dict(self.headers),
            }
        )
        status, payload, *extra = server.responses[
            min(len(server.requests) - 1, len(server.responses) - 1)
        ]
        data = json.dumps(payload).encode()
        # a reply's own headers replace these; a None value drops one
        headers = {"Content-Type": "application/json", "Content-Length": str(len(data))}
        headers.update(extra[0] if extra else {})
        self.send_response(status)
        for name, value in headers.items():
            if value is not None:
                self.send_header(name, value)
        self.end_headers()
        if headers.get("Transfer-Encoding") == "chunked":
            half = len(data) // 2
            for part in (data[:half], data[half:], b""):
                self.wfile.write(b"%x\r\n%s\r\n" % (len(part), part))
        else:
            self.wfile.write(data)
            # a close ends a body without a length, or one shorter than it says
            self.close_connection |= headers.get("Content-Length") != str(len(data))
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


def test_http_request_wire_format(stub_server, monkeypatch, http_backend):
    cfg = _config(stub_server, temperature=0.7, max_tokens=123)
    http_backend(cfg).complete([SYSTEM, USER])
    request = stub_server.requests[0]
    body = request["body"]
    assert body["model"] == "stub-model"
    assert body["temperature"] == 0.7
    assert body["top_p"] == 1.0
    assert body["max_tokens"] == 123
    assert body["messages"] == [SYSTEM, USER]
    headers = request["headers"]
    assert headers["Host"] == f"127.0.0.1:{stub_server.server_address[1]}"
    assert headers["Accept-Encoding"] == "identity"
    assert headers["Content-Type"] == "application/json"
    assert headers["User-Agent"] == "covstim"
    assert headers["Content-Length"] == str(len(json.dumps(body)))
    assert "Authorization" not in headers
    # the scheme's default port is left out of Host; a proxy sees the endpoint's
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{stub_server.server_address[1]}")
    http_backend(BackendConfig(endpoint="http://127.0.0.2/v1", model="m")).complete([SYSTEM])
    assert stub_server.requests[1]["headers"]["Host"] == "127.0.0.2"


def test_http_api_key_header(stub_server, monkeypatch, http_backend):
    monkeypatch.setenv("STUB_KEY_VAR", "sekrit")
    cfg = _config(stub_server, api_key_env="STUB_KEY_VAR")
    http_backend(cfg).complete([SYSTEM])
    assert stub_server.requests[0]["auth"] == "Bearer sekrit"
    monkeypatch.delenv("STUB_KEY_VAR")
    stub_server.requests.clear()
    http_backend(cfg).complete([SYSTEM])
    assert stub_server.requests[0]["auth"] is None


def test_http_api_key_with_a_line_break_is_refused(stub_server, monkeypatch, http_backend):
    # it would end the Authorization header and start another
    monkeypatch.setenv("STUB_KEY_VAR", "sekrit\r\nX-Injected: 1")
    with pytest.raises(ValueError):
        http_backend(_config(stub_server, api_key_env="STUB_KEY_VAR")).complete([SYSTEM])
    assert stub_server.requests == []


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


@pytest.mark.parametrize(
    "framing",
    [
        {"Transfer-Encoding": "chunked", "Content-Length": None},
        {"Content-Length": None},  # the body ends where the server closes
    ],
    ids=["chunked", "close-delimited"],
)
def test_http_reads_a_body_without_a_length(stub_server, monkeypatch, framing, http_backend):
    slept = _sleeps(monkeypatch)
    stub_server.responses = [(200, _chat_payload("framed " * 50), framing)]
    backend = http_backend(_config(stub_server))
    for _ in range(2):
        assert backend.complete([SYSTEM]).text == "framed " * 50
    # chunked keeps the connection; a close-delimited body ends it
    ports = len({r["port"] for r in stub_server.requests})
    assert ports == (1 if "Transfer-Encoding" in framing else 2)
    assert slept == []


def test_http_retries_a_body_cut_short(stub_server, monkeypatch, http_backend):
    slept = _sleeps(monkeypatch)
    cut = _chat_payload("never read")
    stub_server.responses = [
        (200, cut, {"Content-Length": str(len(json.dumps(cut)) + 10)}),
        (200, _chat_payload("whole")),
    ]
    assert http_backend(_config(stub_server, retries=1)).complete([SYSTEM]).text == "whole"
    assert len(stub_server.requests) == 2
    assert slept == [0.5]


@pytest.fixture
def raw_server():
    """A TCP server that answers each connection's request with the next of
    the raw replies given to `serve`, then closes the connection."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    threads = []

    def serve(replies):
        def run():
            for reply in replies:
                conn, _ = listener.accept()
                with conn:
                    head = b""
                    while b"\r\n\r\n" not in head:
                        head += conn.recv(4096)
                    head, _, body = head.partition(b"\r\n\r\n")
                    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
                    while len(body) < length:
                        body += conn.recv(4096)
                    conn.sendall(reply)

        threads.append(threading.Thread(target=run, daemon=True))
        threads[-1].start()
        return f"http://127.0.0.1:{listener.getsockname()[1]}/v1"

    yield serve
    for thread in threads:
        thread.join(timeout=5)
    listener.close()
    assert not any(thread.is_alive() for thread in threads), "a reply was not asked for"


def test_http_skips_every_interim_reply(raw_server, http_backend):
    # http.client skipped only 100 Continue, so this 103 failed the call
    data = json.dumps(_chat_payload("after hints")).encode()
    reply = (
        b"HTTP/1.1 103 Early Hints\r\nLink: </a.css>; rel=preload\r\n\r\n"
        b"HTTP/1.1 100 Continue\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(data), data)
    )
    endpoint = raw_server([reply])
    backend = http_backend(BackendConfig(endpoint=endpoint, model="m", retries=0))
    assert backend.complete([SYSTEM]).text == "after hints"


def test_http_rejects_a_body_nested_too_deeply(raw_server, http_backend):
    # deeper than json.loads recurses: RecursionError once escaped run_trial
    data = b"[" * 100_000 + b"]" * 100_000
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(data), data)
    endpoint = raw_server([reply])
    backend = http_backend(BackendConfig(endpoint=endpoint, model="m", retries=0))
    with pytest.raises(BackendError, match="malformed completion payload"):
        backend.complete([SYSTEM])


def test_http_retries_connection_errors(monkeypatch, http_backend):
    slept = _sleeps(monkeypatch)
    cfg = BackendConfig(endpoint="http://127.0.0.1:1/v1", model="m", retries=2, timeout=5)
    with pytest.raises(BackendError, match="after 3 attempts"):
        http_backend(cfg).complete([SYSTEM])
    assert slept == [0.5, 1.0]


# --- endpoint, connection, start-up import and proxy environment ---------------------

def _python(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports covstim
    from this checkout."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout


@pytest.mark.parametrize("module", ["requests", "statistics"])
def test_cli_import_does_not_load(module):
    code = f"import sys, covstim.cli; print({module!r} in sys.modules)"
    assert _python(code).strip() == "False"


def test_a_crt_run_and_its_report_do_not_load_statistics(tmp_path):
    # only a report over trials with messages averages
    code = (
        "import sys\n"
        "from covstim.runtime import RunConfig, report_from_log, run_experiment\n"
        f"path = {str(tmp_path / 'log.jsonl')!r}\n"
        "run_experiment(RunConfig(dut='stride', agent='crt', crt_count=20_000), log_path=path)\n"
        "report_from_log(path)\n"
        "print('statistics' in sys.modules)\n"
    )
    assert _python(code).strip() == "False"


def test_building_an_http_backend_loads_no_http_client():
    # no proxy variable is set (no_proxy_env), so urllib.request is not needed
    code = (
        "import sys\n"
        "import covstim.backend as b\n"
        "print('socket' in sys.modules)\n"
        "b.HttpBackend(b.BackendConfig(endpoint='http://127.0.0.1:9/v1', model='m'))\n"
        "heavy = ('http.client', 'email.parser', 'urllib.request', 'ssl')\n"
        "print([m for m in heavy if m in sys.modules], 'socket' in sys.modules)\n"
    )
    assert _python(code).splitlines() == ["False", "[] True"]


@pytest.mark.parametrize(
    "endpoint",
    [
        "127.0.0.1:8000/v1",  # no scheme
        "localhost/v1",
        "ftp://127.0.0.1/v1",
        "http:///v1/chat/completions",  # no host
        "http://127.0.0.1:port/v1",
        "http://user:pw@127.0.0.1/v1",  # credentials come from api_key_env
        "http://127.0.0.1/v 1",  # not a request target
        "http://127.0.0.1/v\u00e9",
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
    code = (
        "import sys\n"
        "sys.modules['requests'] = None  # any import of requests now fails\n"
        "from covstim.backend import BackendConfig, HttpBackend\n"
        f"config = BackendConfig(endpoint={_config(stub_server).endpoint!r}, model='m')\n"
        "print(HttpBackend(config).complete([{'role': 'system', 'content': 'hi'}]).text)\n"
    )
    assert _python(code).strip() == "ok"


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


# --- the reply reader against http.client ------------------------------------------

class _Segments:
    """A socket stand-in: `recv` hands out `data` in segments of the given
    sizes (then whole), `makefile` all of it, as http.client reads it."""

    def __init__(self, data: bytes, sizes: list) -> None:
        self.data, self.sizes, self.pos = data, list(sizes), 0

    def recv(self, limit: int) -> bytes:
        size = min(self.sizes.pop(0) if self.sizes else limit, limit)
        self.pos += size
        return self.data[self.pos - size : self.pos]

    def makefile(self, mode: str):
        return io.BytesIO(self.data)


# None: the server sends no final reply at all
BAD_STATUS_LINES = [None, "", "garbage", "HTTP/1.1", "HTTP/1.1 abc OK", "HTTP/1.1 99 Low",
                    "HTTP/1.1 1000 Big", "HTTP/2 200 OK", "ICY 200 OK"]


@st.composite
def replies(draw):
    """(bytes, fault) of one reply: its framing, header casing and
    whitespace, an optional 100 Continue before it, and a fault (a bad
    status line, a short body, a bad chunk size) or None."""
    fault = draw(st.sampled_from([None, None, None, "status", "short", "chunk"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    # a 204 has no body, so it cannot be short
    status = draw(st.sampled_from([200, 201, 400, 429, 500, 503] + ([] if fault else [204])))
    framing = {"short": draw(st.sampled_from(["length", "chunked"])), "chunk": "chunked"}.get(
        fault, draw(st.sampled_from(["length", "chunked", "close"]))
    )
    body = draw(st.binary(max_size=120))
    headers = [("X-Pad", draw(st.text("abc =;,", max_size=8)))]
    if framing == "length":
        headers.append(("Content-Length", str(len(body) + (fault == "short") * 7)))
    elif framing == "chunked":
        headers.append(("Transfer-Encoding", "chunked"))
        if draw(st.booleans()):  # chunked framing overrides a length
            headers.append(("Content-Length", str(len(body) + 3)))
    # a repeated header counts by its first value
    for connection in draw(st.lists(st.sampled_from(
        ["close", "keep-alive", "Keep-Alive", "keep-alive, close"]
    ), max_size=2)):
        headers.append(("Connection", connection))
    retry_after = draw(st.sampled_from([None, "7", "120", "Wed, 21 Oct 2015 07:28:00 GMT"]))
    if retry_after:
        headers.append(("Retry-After", retry_after))
    ows = st.sampled_from(["", " ", "  ", "\t", " \t"])
    lines = [
        "".join(draw(st.sampled_from([c.lower(), c.upper()])) for c in name) + ":"
        # http.client keeps trailing whitespace in a value, so "chunked " is
        # not chunked to it; the reader strips it, as RFC 9110 says
        + draw(ows) + value + ("" if name == "Transfer-Encoding" else draw(ows))
        for name, value in draw(st.permutations(headers))
    ]
    reason = draw(st.sampled_from(["", " OK", " Some Reason"]))
    status_line = f"{version} {status}{reason}"
    if fault == "status":
        status_line = draw(st.sampled_from(BAD_STATUS_LINES))
    head = "\r\n".join([status_line or ""] + lines) + "\r\n\r\n"
    if framing == "chunked":
        cuts = sorted(draw(st.lists(st.integers(0, len(body)), max_size=4)))
        pieces = [body[a:b] for a, b in zip([0] + cuts, cuts + [len(body)]) if b > a]
        data = b""
        for piece in pieces:
            size = draw(st.sampled_from(["%x", "%X"])) % len(piece)
            ext = draw(st.sampled_from(["", ";ext", ";name=value", ' ; q="x"']))
            data += f"{size}{ext}\r\n".encode() + piece + b"\r\n"
        if fault == "short":  # a last chunk that says it is longer than it is
            data += b"%x\r\n" % (len(pieces[-1]) + 5 if pieces else 5) + (pieces or [b""])[-1]
        elif fault == "chunk":
            data += draw(st.sampled_from([b"zz", b"", b"g1", b"-", b"-5"])) + b"\r\n" + body
        else:
            data += b"0" + draw(st.sampled_from([b"", b";ext"])) + b"\r\n"
            data += draw(st.sampled_from([b"", b"X-Trailer: 1\r\n"])) + b"\r\n"
        body = data
    if status_line is None:
        head, body = "", b""
    if draw(st.booleans()):
        head = "HTTP/1.1 100 Continue\r\n\r\n" + head
    return head.encode("latin-1") + body, fault


def _oracle_reply(data: bytes):
    """(status, Retry-After, body, keep) as http.client reads `data`, or
    None when it raises."""
    resp = http.client.HTTPResponse(_Segments(data, []), method="POST")
    try:
        resp.begin()
        body = resp.read()
    except http.client.HTTPException:
        return None
    finally:
        resp.close()
    retry_after = resp.getheader("Retry-After")
    return resp.status, retry_after and retry_after.strip(), body, not resp.will_close


def _reader_reply(data: bytes, sizes: list):
    """(status, Retry-After, body, keep) as `_read_reply` reads `data` in
    recv segments of `sizes`, or None when it raises; an AssertionError when
    a good reply is not read to its end."""
    sock = _Segments(data, sizes)
    try:
        status, headers, body, keep = _read_reply(sock)
    except OSError:
        return None
    # so the next reply on a kept connection starts clean (a 204's stray
    # body bytes are the server's error)
    assert sock.pos >= len(data) or status == 204
    return status, headers.get("retry-after"), body, keep


@settings(max_examples=150, deadline=None)
@given(replies(), st.lists(st.integers(1, 40), max_size=30))
def test_reply_reader_matches_http_client(reply, sizes):
    data, fault = reply
    got = _reader_reply(data, sizes)
    assert got == _oracle_reply(data)
    assert (got is None) == (fault is not None)


@pytest.mark.parametrize("line", BAD_STATUS_LINES)
def test_reply_reader_rejects_a_bad_status_line(line):
    good = b"Content-Length: 2\r\n\r\nok"
    data = b"" if line is None else line.encode() + b"\r\n" + good
    assert _oracle_reply(data) is None
    assert _reader_reply(data, [5, 3]) is None
