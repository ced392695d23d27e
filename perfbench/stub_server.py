"""Zero-latency chat-completions stub, run as a child process.

Usage: python3 stub_server.py KEY=SCRIPT_JSON ...

Each SCRIPT_JSON holds one list of replies. A request's `model` is
"<key>/<tag>"; each distinct model string walks its key's script from the
start, so every repetition of an experiment gets the same replies.
Replies are truncated to max_tokens*4 characters and `usage` carries the
package's chars/4 estimate, exactly as `ReplayBackend` accounts them, so an
HTTP run and a replay run of one script write the same log.

Stdlib `http.server`, HTTP/1.1, one connection at a time, closed by the
server after each reply. The server prints
its port on stdout, then serves until its stdin closes.
"""
from __future__ import annotations

import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from covstim.backend import estimate_tokens  # noqa: E402


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        model = body["model"]
        replies = server.scripts[model.split("/", 1)[0]]
        index = server.cursors.get(model, 0)
        server.cursors[model] = index + 1
        if index >= len(replies):
            # a malformed payload fails the call at once (no retry backoff)
            payload = {"error": "script exhausted"}
        else:
            text = replies[index][: body["max_tokens"] * 4]
            payload = {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {
                    "prompt_tokens": sum(
                        estimate_tokens(m["content"]) for m in body["messages"]
                    ),
                    "completion_tokens": estimate_tokens(text),
                },
            }
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        # The client opens a connection per call; closing from this side puts
        # the TIME_WAIT sockets on the server's port, where thousands of them
        # do not slow the client's choice of an ephemeral port.
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


def main(args: list[str]) -> None:
    scripts = {}
    for arg in args:
        key, path = arg.split("=", 1)
        with open(path, encoding="utf-8") as fh:
            scripts[key] = json.load(fh)
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.scripts = scripts
    server.cursors = {}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # returns when the parent closes the pipe or exits
    finally:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main(sys.argv[1:])
