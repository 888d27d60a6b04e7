"""HttpBackend against a server that writes raw bytes, scripted per connection.

Each case feeds the client one kind of well-formed or broken HTTP/1.1 reply
and checks that the call ends in a ``ChatResponse`` or a ``BackendError``
within ``MAX_ATTEMPTS`` x ``TIMEOUT`` (the backends skip their backoff
sleeps), and that no connection that failed waits in the pool afterwards.
"""

import base64
import json
import socket
import socketserver
import struct
import threading
import time

import pytest

from dualreflect.backend import (
    ApiError,
    BackendError,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    TransportError,
    _Connection,
)

REQ = ChatRequest(system="sys", user="hello")
DRIP_S = 0.05  # seconds between two bytes of a dripped reply
SLACK_S = 0.5  # a timed-out read returns a little after its deadline, and threads must be scheduled


def completion(content="pong"):
    payload = {
        "choices": [{"message": {"role": "assistant", "content": content}}],
        "usage": {"prompt_tokens": 3, "completion_tokens": 2},
    }
    return json.dumps(payload).encode("utf-8")


def head(status_line="HTTP/1.1 200 OK", *fields):
    return ("\r\n".join([status_line, *fields]) + "\r\n\r\n").encode("latin-1")


def sized(body, status_line="HTTP/1.1 200 OK", *fields):
    return head(status_line, f"Content-Length: {len(body)}", *fields) + body


def chunked(*chunks):
    framed = b"".join(b"%x\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks)
    return head("HTTP/1.1 200 OK", "Transfer-Encoding: chunked") + framed + b"0\r\n\r\n"


def read_request(sock, buf):
    """One request's head from ``sock`` (None once the client closed) and the
    bytes after its body."""
    while b"\r\n\r\n" not in buf:
        data = sock.recv(65536)
        if not data:
            return None, buf
        buf += data
    request_head, _, buf = buf.partition(b"\r\n\r\n")
    length = 0
    for line in request_head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    while len(buf) < length:
        data = sock.recv(65536)
        if not data:
            return None, buf
        buf += data
    return request_head, buf[length:]


class _WireHandler(socketserver.BaseRequestHandler):
    """Plays the next connection script. A step is the bytes that answer one
    request, or ``(kind, bytes)``: ``close`` hangs up after writing them,
    ``reset`` aborts the connection with a TCP reset, and ``drip`` writes one
    byte every ``DRIP_S`` seconds. A list of byte strings is written with a
    pause after each, so the client reads them separately. After the last
    step the handler waits for the client to close and counts any further
    request as stray."""

    def handle(self):
        server, sock = self.server, self.request
        sock.settimeout(10)
        with server.lock:
            server.connections += 1
            script = server.scripts.pop(0) if server.scripts else []
        buf = b""
        try:
            for step in script:
                request_head, buf = read_request(sock, buf)
                if request_head is None:
                    return
                with server.lock:
                    server.requests.append(request_head)
                kind, data = step if isinstance(step, tuple) else ("keep", step)
                if kind == "drip":
                    for i in range(len(data)):
                        sock.sendall(data[i : i + 1])
                        time.sleep(DRIP_S)
                    return
                if isinstance(data, list):
                    for part in data[:-1]:
                        sock.sendall(part)
                        time.sleep(0.02)
                    data = data[-1]
                sock.sendall(data)
                if kind == "reset":
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                    sock.close()
                    return
                if kind == "close":
                    return
            request_head, buf = read_request(sock, buf)
            with server.lock:
                if request_head is None:
                    server.hangups += 1
                else:
                    server.stray += 1
        except OSError:
            pass


class WireServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True

    def __init__(self, scripts):
        super().__init__(("127.0.0.1", 0), _WireHandler)
        self.lock = threading.Lock()
        self.scripts = [list(script) for script in scripts]
        self.requests = []
        self.connections = self.hangups = self.stray = 0

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}"

    def wait_for_hangups(self, count):
        deadline = time.monotonic() + 10
        while self.hangups < count and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.hangups


@pytest.fixture()
def serve(monkeypatch):
    """``serve(*scripts, tunnel_to=None)`` -> (backend, server): one script
    per connection, in the order the client opens them. With ``tunnel_to``
    the backend calls that https base URL through the server as its proxy."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setattr(HttpBackend, "TIMEOUT", 2.0)
    started = []

    def start(*scripts, tunnel_to=None):
        server = WireServer(scripts)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
        thread.start()
        if tunnel_to is not None:
            monkeypatch.setenv("https_proxy", server.url.replace("://", "://user:pw@"))
        backend = HttpBackend(base_url=tunnel_to or server.url, model="wire", sleep=lambda _: None)
        started.append((server, thread, backend))
        return backend, server

    yield start
    for server, thread, backend in started:
        backend.close()
        server.shutdown()
        server.server_close()  # joins the handler threads
        thread.join(timeout=10)
        assert not thread.is_alive()


def outcome(backend):
    """One call's result or BackendError, checked to end within the attempts' deadlines."""
    start = time.monotonic()
    try:
        result = backend.complete(REQ)
    except BackendError as exc:
        result = exc
    assert time.monotonic() - start < HttpBackend.MAX_ATTEMPTS * HttpBackend.TIMEOUT + SLACK_S
    assert isinstance(result, (ChatResponse, BackendError))
    return result


def failed(backend, server, error, match, requests):
    """The call failed with ``error`` after ``requests`` requests, and no connection is pooled."""
    result = outcome(backend)
    assert isinstance(result, error) and match in str(result), result
    assert backend._idle == [] and len(server.requests) == requests
    return result


GIVE_UP = HttpBackend.MAX_ATTEMPTS


class TestGoodReplies:
    def test_request_is_one_write_on_a_nodelay_socket(self, serve, monkeypatch):
        writes = []
        connect = socket.create_connection

        class CountingSocket(socket.socket):
            def sendall(self, data, *args):
                writes.append(bytes(data))
                return super().sendall(data, *args)

        def create_connection(*args, **kwargs):
            sock = connect(*args, **kwargs)
            return CountingSocket(sock.family, sock.type, sock.proto, sock.detach())

        monkeypatch.setattr(socket, "create_connection", create_connection)
        backend, server = serve([sized(completion()), sized(completion("again"))])
        assert outcome(backend) == ChatResponse("pong", 3, 2)
        assert outcome(backend).text == "again"
        assert len(writes) == 2 and server.connections == 1
        request_head, _, body = writes[0].partition(b"\r\n\r\n")
        assert request_head.split(b"\r\n") == [
            b"POST /chat/completions HTTP/1.1",
            b"Host: " + server.url.removeprefix("http://").encode(),
            b"Accept-Encoding: identity",
            b"Content-Type: application/json",
            b"Content-Length: %d" % len(body),
        ]
        assert json.loads(body)["messages"][1] == {"role": "user", "content": "hello"}
        (conn,) = backend._idle
        assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_chunked_reply_with_extension_and_trailer(self, serve):
        body = completion()
        reply = head("HTTP/1.1 200 OK", "Transfer-Encoding: chunked", "Content-Length: 1")  # chunked wins
        reply += b"5;name=value\r\n" + body[:5] + b"\r\n" + b"%X\r\n" % (len(body) - 5) + body[5:] + b"\r\n"
        reply += b"0\r\nX-Checksum: none\r\n\r\n"
        backend, server = serve([reply, chunked(completion("second"))])
        assert outcome(backend) == ChatResponse("pong", 3, 2)
        assert outcome(backend).text == "second"
        assert server.connections == 1 and len(backend._idle) == 1

    def test_interim_100_continue_is_skipped(self, serve):
        backend, server = serve([head("HTTP/1.1 100 Continue") + sized(completion()), sized(completion())])
        assert outcome(backend).text == "pong" and outcome(backend).text == "pong"
        assert server.connections == 1

    @pytest.mark.parametrize(
        "status_line, fields, reused",
        [
            ("HTTP/1.1 200 OK", (), True),
            ("HTTP/1.1 200 OK", ("Connection: close",), False),
            ("HTTP/1.0 200 OK", (), False),
            ("HTTP/1.0 200 OK", ("Connection: Keep-Alive",), True),
        ],
    )
    def test_connection_kept_only_when_the_server_keeps_it(self, serve, status_line, fields, reused):
        first = sized(completion(), status_line, *fields)
        scripts = [[first, sized(completion("next"))]] if reused else [[first], [sized(completion("next"))]]
        backend, server = serve(*scripts)
        assert outcome(backend).text == "pong"
        assert len(backend._idle) == int(reused)
        assert outcome(backend).text == "next"
        assert server.connections == (1 if reused else 2) and server.stray == 0

    def test_http10_close_delimited_body_is_not_reused(self, serve):
        body = completion()  # the body arrives in two reads, the second just before the close
        reply = ("close", [head("HTTP/1.0 200 OK") + body[:9], body[9:]])
        backend, server = serve([reply], [sized(completion("next"))])
        assert outcome(backend).text == "pong"
        assert backend._idle == []
        assert outcome(backend).text == "next" and server.connections == 2

    @pytest.mark.parametrize("status", [204, 304])
    def test_no_content_reply_has_no_body(self, serve, status):
        backend, server = serve([head(f"HTTP/1.1 {status} Whatever", "Content-Length: 9"), sized(completion())])
        result = outcome(backend)
        assert isinstance(result, ApiError) and result.status == status and str(result) == f"HTTP {status}: "
        assert outcome(backend).text == "pong" and server.connections == 1


class TestBrokenReplies:
    @pytest.mark.parametrize(
        "chunks, match",
        [
            (b"zz\r\n", "bad chunk size b'zz'"),
            (b"-5\r\n", "bad chunk size b'-5'"),
            (b";ext\r\n", "bad chunk size b''"),
            (b"5\r\nhelloXX0\r\n\r\n", "chunk data not followed by CRLF"),
        ],
    )
    def test_bad_chunk_framing_is_a_transport_failure(self, serve, chunks, match):
        reply = head("HTTP/1.1 200 OK", "Transfer-Encoding: chunked") + chunks
        backend, server = serve(*[[reply]] * GIVE_UP)
        failed(backend, server, TransportError, match, GIVE_UP)

    def test_content_length_longer_than_the_body_then_close(self, serve):
        reply = ("close", head("HTTP/1.1 200 OK", "Content-Length: 500") + completion())
        backend, server = serve(*[[reply]] * GIVE_UP)
        failed(backend, server, TransportError, "connection closed in the body", GIVE_UP)

    def test_reset_in_the_middle_of_the_body(self, serve):
        reply = ("reset", head("HTTP/1.1 200 OK", "Content-Length: 500") + completion()[:20])
        backend, server = serve(*[[reply]] * GIVE_UP)
        failed(backend, server, TransportError, "transport failure", GIVE_UP)

    @pytest.mark.parametrize(
        "reply, match",
        [
            (head("HTTP/1.1 200 OK", "Content-Length: 10"), "connection closed in the body"),
            (b"HTTP/1.1 200 OK\r\nContent-", "connection closed in the reply head"),
            (b"", "connection closed in the reply head"),
        ],
    )
    def test_close_before_the_reply_ends(self, serve, reply, match):
        backend, server = serve(*[[("close", reply)]] * GIVE_UP)
        failed(backend, server, TransportError, match, GIVE_UP)

    @pytest.mark.parametrize(
        "reply, match",
        [
            (head("HTTP/2 200 OK"), "bad status line 'HTTP/2 200 OK'"),
            (head("HTTP/1.1 2x0 OK"), "bad status line"),
            (head("HTTP/1.1 2000"), "bad status line"),
            (head("ICY 200 OK"), "bad status line"),
            (head("HTTP/1.1 200 OK", "Content-Length 2"), "bad header line 'Content-Length 2'"),
            (head("HTTP/1.1 200 OK", "Content-Length: 2", " folded"), "bad header line ' folded'"),
            (head("HTTP/1.1 200 OK", ": no name"), "bad header line"),
            (head("HTTP/1.1 200 OK", "Content-Length : 2"), "bad header line"),
            (head("HTTP/1.1 200 OK", "Content-Length: -1"), "bad Content-Length '-1'"),
            (head("HTTP/1.1 200 OK", "Content-Length: 1, 1"), "bad Content-Length"),
        ],
    )
    def test_bad_reply_head_is_a_transport_failure(self, serve, reply, match):
        backend, server = serve(*[[reply]] * GIVE_UP)
        failed(backend, server, TransportError, match, GIVE_UP)

    def test_reply_head_over_the_cap(self, serve, monkeypatch):
        monkeypatch.setattr(HttpBackend, "MAX_BODY", 64)
        reply = sized(b"{}", "HTTP/1.1 200 OK", "X-Padding: " + "p" * 70000)  # more than one read
        backend, server = serve(*[[reply]] * GIVE_UP)
        failed(backend, server, TransportError, "the reply head is over 64 bytes", GIVE_UP)

    def test_slow_drip_is_cut_at_the_deadline(self, serve, monkeypatch):
        backend, server = serve(*[[("drip", sized(completion()))]] * GIVE_UP)
        monkeypatch.setattr(HttpBackend, "TIMEOUT", 0.3)
        failed(backend, server, TransportError, "transport failure", GIVE_UP)
        assert len(sized(completion())) * DRIP_S > 5  # each attempt ended long before its reply would have

    def test_expired_deadline_never_blocks(self):
        a, b = socket.socketpair()
        with a, b:
            with pytest.raises(TimeoutError, match="attempt deadline passed"):
                _Connection(a, time.monotonic() - 1).timed()


class TestPayloads:
    @pytest.mark.parametrize(
        "body", [completion("cafe").replace(b"cafe", b"caf\xe9"), completion(None)], ids=["non-utf8", "content-null"]
    )
    def test_bad_payload_is_api_error_on_a_healthy_connection(self, serve, body):
        backend, server = serve([sized(body), sized(completion())])
        result = outcome(backend)
        assert isinstance(result, ApiError) and result.status == 200 and "malformed completion payload" in str(result)
        assert len(server.requests) == 1
        # The exchange itself was complete, so its connection carries the next call.
        assert outcome(backend).text == "pong" and server.connections == 1

    @pytest.mark.parametrize(
        "reply",
        [
            sized(b"x" * 100),
            chunked(b"x" * 40, b"x" * 40),
            ("close", head("HTTP/1.1 200 OK") + b"x" * 100),
        ],
        ids=["content-length", "chunked", "close-delimited"],
    )
    def test_oversized_body_is_api_error_and_closes_the_connection(self, serve, monkeypatch, reply):
        monkeypatch.setattr(HttpBackend, "MAX_BODY", 64)
        backend, server = serve([reply])
        result = failed(backend, server, ApiError, "reply body over MAX_BODY (64 bytes)", 1)
        assert result.status == 200
        if not isinstance(reply, tuple):  # the server keeps the connection open, so the client hung up
            assert server.wait_for_hangups(1) == 1


@pytest.mark.parametrize(
    "base, key",
    [
        ("http://h/v1", "k\r\nX-Injected: 1"),
        ("http://h/v1", "k\x00"),
        ("http://h/a b", None),
        ("http://h/a\x7f", None),
        ("http://h\x01/v1", None),
    ],
)
def test_request_head_that_would_break_framing_is_refused_at_construction(monkeypatch, base, key):
    monkeypatch.delenv("MIRROR_API_KEY", raising=False)
    with pytest.raises(ValueError, match="must be printable text"):
        HttpBackend(base_url=base, api_key=key)


class TestProxyTunnel:
    def test_proxy_refusing_connect_is_a_transport_failure(self, serve):
        refusal = sized(b"denied", "HTTP/1.1 407 Proxy Authentication Required", "Proxy-Authenticate: Basic")
        backend, proxy = serve(*[[refusal]] * GIVE_UP, tunnel_to="https://api.invalid:8443/v1")
        failed(backend, proxy, TransportError, "the proxy refused the tunnel: HTTP 407", GIVE_UP)
        assert proxy.requests[0].split(b"\r\n") == [
            b"CONNECT api.invalid:8443 HTTP/1.1",
            b"Host: api.invalid:8443",
            b"Proxy-Authorization: Basic " + base64.b64encode(b"user:pw"),
        ]
