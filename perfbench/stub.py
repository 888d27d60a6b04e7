"""Chat-completions stub for the http-latency workload, run as its own process.

    python3 stub.py REPLIES_JSONL LATENCY_MS

Answers ``POST /chat/completions`` as a pure function of the request's
messages and temperature (see :func:`request_key`), so concurrent runs get the
same replies in any order. Each answer waits LATENCY_MS first, the injected
per-call latency. A request with no recorded reply gets HTTP 404, which the
client does not retry. ``GET /stats`` reports requests served, unknown
requests, keep-alive connections that carried a completion, and each request's
service time in microseconds.

Speaks HTTP/1.1 keep-alive, sets TCP_NODELAY and sends each reply in a single
write: a reply split into header and body writes stalls on Nagle plus delayed
ACK for tens of milliseconds.

Prints ``port N`` once listening and exits when its stdin closes, so it never
outlives the process that started it.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any


def request_key(messages: list[dict[str, str]], temperature: float) -> str:
    """Canonical identity of a completion request; the model name is ignored
    because the stub serves exactly one model."""
    canonical = json.dumps({"messages": messages, "temperature": temperature}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_replies(path: Path) -> dict[str, bytes]:
    """Map request key -> ready-to-send completion body."""
    replies = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        body = {
            "choices": [{"message": {"role": "assistant", "content": entry["text"]}}],
            "usage": {"prompt_tokens": entry["prompt_tokens"], "completion_tokens": entry["completion_tokens"]},
        }
        replies[entry["key"]] = json.dumps(body).encode("utf-8")
    return replies


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.unknown = 0
        self.connections = 0
        self.service_us: list[int] = []

    def snapshot(self) -> dict[str, Any]:
        with self.lock:
            return {
                "requests": self.requests,
                "unknown": self.unknown,
                "connections": self.connections,
                "service_us": list(self.service_us),
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.counted = False

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        start = time.perf_counter_ns()
        reply = None
        if self.path.endswith("/chat/completions"):
            try:
                data = json.loads(raw)
                reply = self.server.replies.get(request_key(data["messages"], data["temperature"]))
            except (ValueError, KeyError, TypeError):
                reply = None
        time.sleep(self.server.latency_s)
        status, body = (200, reply) if reply is not None else (404, b'{"error": "no recorded reply for this request"}')
        stats = self.server.stats
        with stats.lock:
            stats.requests += 1
            stats.unknown += reply is None
            if not self.counted:
                stats.connections += 1
                self.counted = True
            stats.service_us.append((time.perf_counter_ns() - start) // 1000)
        self._send(status, body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/stats":
            self._send(404, b'{"error": "unknown path"}')
            return
        self._send(200, json.dumps(self.server.stats.snapshot()).encode("utf-8"))

    def _send(self, status: int, body: bytes) -> None:
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002 (http.server API)
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, replies: dict[str, bytes], latency_ms: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.replies = replies
        self.latency_s = latency_ms / 1000.0
        self.stats = Stats()


def _exit_when_stdin_closes() -> None:
    sys.stdin.buffer.read()
    os._exit(0)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    server = StubServer(load_replies(Path(argv[0])), float(argv[1]))
    threading.Thread(target=_exit_when_stdin_closes, daemon=True).start()
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
