"""Chat-completion backends behind one interface.

Three implementations: a live OpenAI-compatible HTTP client with bounded
retry, a deterministic scripted playback double, and a recording wrapper
that captures each exchange as a script line. A capture is a script whose
steps carry the request they answer, so the scripted backend replays it and
fails on the first byte of request divergence. Token accounting is exact on
every backend — counts come from the upstream ``usage`` block or from the
script itself, never from estimation.

This is the only module that does network I/O. Socket and TLS modules load only
when an :class:`HttpBackend` is built, never in scripted runs or replays.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable
from urllib.parse import SplitResult, unquote, urlsplit

from .model import Value, _canonical_json, _set, _text, as_dict

if TYPE_CHECKING:
    import socket

__all__ = [
    "BackendError",
    "TransportError",
    "ApiError",
    "ScriptExhausted",
    "ReplayMismatch",
    "ChatRequest",
    "ChatResponse",
    "TokenTotals",
    "ChatBackend",
    "ScriptStep",
    "ScriptedBackend",
    "HttpBackend",
    "RecordingBackend",
    "canonical_request",
    "script_from_jsonl",
]

API_BASE_ENV = "MIRROR_API_BASE"
API_KEY_ENV = "MIRROR_API_KEY"


class BackendError(Exception):
    """Base for everything a backend can fail with."""


class TransportError(BackendError):
    """Retryable delivery failure that survived every retry attempt."""


class ApiError(BackendError):
    """Upstream refused the request; carries the HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ScriptExhausted(BackendError):
    """The scripted backend was called more times than it has steps."""


class ReplayMismatch(BackendError):
    """A replayed request diverged from the recorded one."""

    def __init__(self, offset: int, message: str):
        super().__init__(message)
        self.offset = offset


class ChatRequest(Value):
    """One system+user prompt pair bound for a chat-completion endpoint."""
    __slots__ = ("system", "user", "model", "temperature")

    def __init__(self, system: str, user: str, model: str = "scripted", temperature: float = 0.0) -> None:
        if not system or not user:
            raise ValueError("system and user prompts must be non-empty")
        _set(self, "system", system)
        _set(self, "user", user)
        _set(self, "model", model)
        _set(self, "temperature", temperature)


class ChatResponse(Value):
    """Raw completion text plus the exact token counts reported for it."""
    __slots__ = ("text", "prompt_tokens", "completion_tokens")

    def __init__(self, text: str, prompt_tokens: int, completion_tokens: int) -> None:
        _text(text, "completion text")
        for count in (prompt_tokens, completion_tokens):
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ValueError(f"token counts must be non-negative integers, got {count!r}")
        _set(self, "text", text)
        _set(self, "prompt_tokens", prompt_tokens)
        _set(self, "completion_tokens", completion_tokens)


class TokenTotals(Value):
    __slots__ = ("prompt_tokens", "completion_tokens", "calls")

    def __init__(self, prompt_tokens: int = 0, completion_tokens: int = 0, calls: int = 0) -> None:
        _set(self, "prompt_tokens", prompt_tokens)
        _set(self, "completion_tokens", completion_tokens)
        _set(self, "calls", calls)


def _request_from_dict(data: Any) -> ChatRequest:
    if not isinstance(data, dict):
        raise TypeError("request must be an object")
    temperature = data.get("temperature", 0.0)
    if isinstance(temperature, bool) or not isinstance(temperature, (int, float)) or not math.isfinite(temperature):
        raise ValueError(f"request temperature must be a finite number, got {temperature!r}")
    return ChatRequest(
        _text(data["system"], "request system"),
        _text(data["user"], "request user"),
        _text(data.get("model", "scripted"), "request model"),
        float(temperature),
    )


def canonical_request(request: ChatRequest) -> str:
    """Stable JSON form used for replay comparison, byte for byte."""
    return _canonical_json(as_dict(request))


class ChatBackend:
    """Uniform completion interface with exact, thread-safe token counters."""

    model = "scripted"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._prompt_tokens = self._completion_tokens = self._calls = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self._complete(request)
        with self._lock:
            self._prompt_tokens += response.prompt_tokens
            self._completion_tokens += response.completion_tokens
            self._calls += 1
        return response

    def _complete(self, request: ChatRequest) -> ChatResponse:
        raise NotImplementedError

    def token_totals(self) -> TokenTotals:
        with self._lock:
            return TokenTotals(self._prompt_tokens, self._completion_tokens, self._calls)


class ScriptStep(Value):
    """One pre-authored completion. A step with a ``request`` (every step of a
    capture has one) answers only a request equal to it, or identical to it in
    canonical form."""
    __slots__ = ("response", "request")

    def __init__(self, response: ChatResponse, request: ChatRequest | None = None) -> None:
        _set(self, "response", response)
        _set(self, "request", request)


class ScriptedBackend(ChatBackend):
    """Serves pre-authored responses strictly in order.

    Steps match by position, not content — order-matching plus trace
    assertions is stricter than brittle content matching. A step that
    carries a request also checks the incoming one against it and raises
    :class:`ReplayMismatch` at the first byte where their canonical forms
    diverge; the model name then comes from the first step's request. Single consumer by contract: give
    each concurrent run its own instance.
    """

    def __init__(self, steps: Iterable[ScriptStep]):
        super().__init__()
        self._steps = tuple(steps)
        self._cursor = 0
        if self._steps and self._steps[0].request is not None:
            self.model = self._steps[0].request.model
        #: Every request seen, in order; tests assert on prompt content here.
        self.requests: list[ChatRequest] = []

    def _complete(self, request: ChatRequest) -> ChatResponse:
        if self._cursor >= len(self._steps):
            raise ScriptExhausted(f"script exhausted after {len(self._steps)} steps")
        step = self._steps[self._cursor]
        if step.request is not None and request != step.request:
            # Comparing values first keeps the canonical encoding, which costs
            # about as much as the rest of a call, off the matching path.
            want = canonical_request(step.request).encode("utf-8")
            got = canonical_request(request).encode("utf-8")
            if got != want:
                offset = len(os.path.commonprefix([want, got]))
                raise ReplayMismatch(
                    offset,
                    f"request {self._cursor + 1} diverged from the recording at byte {offset}: "
                    f"recorded ...{_excerpt(want, offset)}... got ...{_excerpt(got, offset)}...",
                )
        self._cursor += 1
        self.requests.append(request)
        return step.response


def script_from_jsonl(text: str) -> list[ScriptStep]:
    """Parse a script or a capture: one JSON object per non-blank line with
    the completion ``text``, its integer token counts and an optional
    ``request``; other keys are ignored. Errors name the line."""
    steps = []
    for i, line in enumerate(text.split("\n")):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise TypeError("not a JSON object")
            request = _request_from_dict(data["request"]) if "request" in data else None
            response = ChatResponse(data["text"], data["prompt_tokens"], data["completion_tokens"])
            steps.append(ScriptStep(response, request))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"bad script line {i + 1}: {exc}") from None
    return steps


class HttpBackend(ChatBackend):
    """OpenAI-compatible chat-completions client that speaks HTTP/1.1 itself.

    POSTs ``{base_url}/chat/completions`` in one write and reads the first
    choice plus the usage block. An attempt must end within ``TIMEOUT``
    seconds, connect included; a reply body over ``MAX_BODY`` bytes is an
    :class:`ApiError`. Transport failures (refused or reset connections, missed
    deadlines, broken framing), 429 and 5xx are retried with capped exponential
    backoff for ``MAX_ATTEMPTS`` total tries; a 429 or 503 whose
    ``Retry-After`` is a whole number of seconds waits that long instead, still
    capped by ``BACKOFF_CAP``. Other statuses raise :class:`ApiError` at once,
    and a failed TLS certificate check is never retried. Base URL and key
    default to MIRROR_API_BASE / MIRROR_API_KEY, and ``http(s)_proxy`` /
    ``no_proxy`` choose a proxy; the environment is read here, never per call.
    Safe to share between threads: idle keep-alive connections wait in one LIFO
    pool, which grows to the peak number of concurrent calls.
    """

    RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
    RETRY_AFTER_STATUSES = frozenset({429, 503})
    TIMEOUT = 60.0  # seconds per attempt, from connect to the body's last byte
    MAX_BODY = 16 << 20  # bytes
    MAX_ATTEMPTS = 3
    BACKOFF_BASE = 0.5
    BACKOFF_CAP = 8.0

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str = "default",
        sleep: Callable[[float], None] = time.sleep,
    ):
        # The first call must not pay for loading the socket and TLS stack.
        import ssl

        super().__init__()
        base = base_url or os.environ.get(API_BASE_ENV)
        if not base:
            raise ValueError(f"no base URL: pass base_url or set {API_BASE_ENV}")
        url = urlsplit(base.rstrip("/") + "/chat/completions")
        if url.scheme not in ("http", "https") or not url.hostname or url.query or url.fragment or url.username:
            raise ValueError(f"base URL must look like http(s)://host[:port][/path], got {base!r}")
        self.model = model
        self._sleep = sleep
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._address = (url.hostname, url.port or (443 if self._tls else 80))
        target = url.path
        fields = f"Host: {url.netloc}\r\nAccept-Encoding: identity\r\nContent-Type: application/json\r\n"
        if api_key := api_key or os.environ.get(API_KEY_ENV):
            fields += f"Authorization: Bearer {api_key}\r\n"
        self._tunnel: bytes | None = None  # the CONNECT request that opens a tunnel through the proxy
        if proxy := _proxy_for(url):
            proxy_url, proxy_fields = proxy
            self._address = (proxy_url.hostname, proxy_url.port or 80)
            if self._tls is not None:
                where = url.netloc if url.port else url.netloc + ":443"
                self._tunnel = f"CONNECT {where} HTTP/1.1\r\nHost: {where}\r\n{proxy_fields}\r\n".encode("latin-1")
            else:
                target, fields = url.geturl(), fields + proxy_fields
        if " " in target or not all(part.isprintable() for part in (url.netloc, target, api_key or "")):
            raise ValueError("base URL and API key must be printable text, and the URL must hold no space")
        # A request is this head, its Content-Length value, a blank line and the body.
        self._head = f"POST {target} HTTP/1.1\r\n{fields}Content-Length: ".encode("latin-1")
        self._server_name = url.hostname
        self._idle: list[_Connection] = []

    def _complete(self, request: ChatRequest) -> ChatResponse:
        import ssl

        body = json.dumps(
            {
                "model": request.model,
                "messages": [
                    {"role": "system", "content": request.system},
                    {"role": "user", "content": request.user},
                ],
                "temperature": request.temperature,
            }
        ).encode("utf-8")
        last_failure = "no attempt made"
        for attempt in range(1, self.MAX_ATTEMPTS + 1):
            delay = min(self.BACKOFF_CAP, self.BACKOFF_BASE * 2 ** (attempt - 1))
            try:
                status, retry_after, data = self._post(body)
            except ssl.SSLCertVerificationError as exc:  # an OSError no retry can fix
                raise TransportError(f"TLS certificate verification failed: {exc}") from None
            except OSError as exc:
                last_failure = f"transport failure: {exc}"
            else:
                if status == 200:
                    return _parse_completion(data)
                if status not in self.RETRYABLE_STATUSES:
                    raise ApiError(status, data.decode("utf-8", errors="replace")[:500])
                last_failure = f"HTTP {status}"
                seconds = (retry_after or "").strip()
                if status in self.RETRY_AFTER_STATUSES and seconds.isascii() and seconds.isdigit():
                    delay = min(self.BACKOFF_CAP, int(seconds))
            if attempt < self.MAX_ATTEMPTS:
                self._sleep(delay)
        raise TransportError(f"giving up after {self.MAX_ATTEMPTS} attempts: {last_failure}")

    def _post(self, body: bytes) -> tuple[int, str | None, bytes]:
        """One attempt: status, Retry-After header and the whole body. The
        connection goes back to the pool only after a complete exchange that
        left no byte unread, and only if the server keeps it open."""
        conn = self._checkout(time.monotonic() + self.TIMEOUT)
        try:
            conn.timed().sendall(self._head + b"%d\r\n\r\n" % len(body) + body)
            status, headers, keep = conn.reply_head(self.MAX_BODY)
            data, framed = conn.body(status, headers, self.MAX_BODY)
        except BaseException:
            conn.sock.close()
            raise
        if keep and framed and not conn.buf:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.sock.close()
        return status, headers.get("retry-after"), data

    def _checkout(self, deadline: float) -> _Connection:
        """The most recently used idle connection, or a new one. An idle socket
        that is readable was closed by the server (or holds bytes nobody asked
        for), so it is dropped here instead of costing an attempt."""
        import socket

        while True:
            with self._lock:
                if not self._idle:
                    break
                conn = self._idle.pop()
            if not _readable(conn.sock):
                conn.deadline = deadline
                return conn
            conn.sock.close()
        sock = socket.create_connection(self._address, timeout=self.TIMEOUT)  # the deadline was just set
        conn = _Connection(sock, deadline)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                conn.timed().sendall(self._tunnel)
                status, _, _ = conn.reply_head(self.MAX_BODY)
                if not 200 <= status < 300 or conn.buf:
                    raise ConnectionError(f"the proxy refused the tunnel: HTTP {status}")
            if self._tls is not None:
                conn.sock = self._tls.wrap_socket(conn.timed(), server_hostname=self._server_name)
        except BaseException:
            sock.close()
            raise
        return conn

    def close(self) -> None:
        """Close every idle connection; a later call opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.sock.close()


class _Connection:
    """A socket, its bytes that no reply has used yet, and the deadline of the attempt
    that holds it. A missed deadline is a TimeoutError, broken framing a ConnectionError."""
    __slots__ = ("sock", "buf", "deadline")

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self.sock, self.buf, self.deadline = sock, b"", deadline

    def timed(self) -> socket.socket:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("attempt deadline passed")
        self.sock.settimeout(left)
        return self.sock

    def _more(self, where: str, limit: int) -> None:
        if len(self.buf) > limit:
            raise ConnectionError(f"{where} is over {limit} bytes")
        data = self.timed().recv(65536)
        if not data:
            raise ConnectionError(f"connection closed in {where}")
        self.buf += data

    def _until(self, mark: bytes, limit: int, where: str) -> bytes:
        """The bytes before the next ``mark``, which is consumed too."""
        while (end := self.buf.find(mark)) < 0:
            self._more(where, limit)
        data, self.buf = self.buf[:end], self.buf[end + len(mark) :]
        return data

    def _take(self, size: int) -> bytes:
        while len(self.buf) < size:
            self._more("the body", size)
        data, self.buf = self.buf[:size], self.buf[size:]
        return data

    def reply_head(self, limit: int) -> tuple[int, dict[str, str], bool]:
        """Status, headers (lower-case names) and whether the server keeps the
        connection open, of the next reply that is not a 1xx interim one."""
        status = 100
        while 100 <= status < 200:
            status_line, *lines = self._until(b"\r\n\r\n", limit, "the reply head").decode("latin-1").split("\r\n")
            version, _, rest = status_line.partition(" ")
            if version not in ("HTTP/1.1", "HTTP/1.0") or not (rest[:3].isdecimal() and rest[3:4] in ("", " ")):
                raise ConnectionError(f"bad status line {status_line[:80]!r}")
            status, headers = int(rest[:3]), {}
            for line in lines:
                name, colon, value = line.partition(":")
                if not colon or not name or name.strip() != name:
                    raise ConnectionError(f"bad header line {line[:80]!r}")
                headers[name.lower()] = value.strip()
        tokens = {token.strip() for token in headers.get("connection", "").lower().split(",")}
        return status, headers, "keep-alive" in tokens if version == "HTTP/1.0" else "close" not in tokens

    def body(self, status: int, headers: dict[str, str], limit: int) -> tuple[bytes, bool]:
        """The reply body, framed by chunked encoding, else by Content-Length, else by
        the server closing the connection, and whether it was framed."""
        if status in (204, 304):
            return b"", True
        codings = headers.get("transfer-encoding")
        if codings is None and (length := headers.get("content-length")) is not None:
            if not length.isdecimal():
                raise ConnectionError(f"bad Content-Length {length[:80]!r}")
            if int(length) > limit:
                raise ApiError(status, f"reply body over MAX_BODY ({limit} bytes)")
            return self._take(int(length)), True
        if codings is None or codings.lower().rsplit(",", 1)[-1].strip() != "chunked":
            while len(self.buf) <= limit and (data := self.timed().recv(65536)):
                self.buf += data
            if len(self.buf) > limit:
                raise ApiError(status, f"reply body over MAX_BODY ({limit} bytes)")
            return self.buf, False
        chunks, total = [], 0
        while True:
            digits = self._until(b"\r\n", limit, "a chunk size line").partition(b";")[0].strip()
            if not digits or digits.strip(b"0123456789abcdefABCDEF"):
                raise ConnectionError(f"bad chunk size {digits[:80]!r}")
            if not (size := int(digits, 16)):
                break
            if (total := total + size) > limit:
                raise ApiError(status, f"reply body over MAX_BODY ({limit} bytes)")
            chunks.append(self._take(size + 2))
            if not chunks[-1].endswith(b"\r\n"):
                raise ConnectionError("chunk data not followed by CRLF")
        while self._until(b"\r\n", limit, "the trailer"):  # trailer fields end at a blank line
            pass
        return b"".join(chunk[:-2] for chunk in chunks), True


def _proxy_for(url: SplitResult) -> tuple[SplitResult, str] | None:
    """The proxy that ``http(s)_proxy`` / ``all_proxy`` name for ``url``,
    unless ``no_proxy`` exempts its host, plus the header lines that
    authenticate to it. Only plain-http proxies are supported."""
    if not any(value and name.lower().endswith("_proxy") for name, value in os.environ.items()):
        return None  # getproxies() would find none; urllib.request would load http.client and email
    import base64
    from urllib.request import getproxies, proxy_bypass

    proxies = getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or proxy_bypass(url.netloc):
        return None
    parsed = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if parsed.scheme != "http" or not parsed.hostname:
        raise ValueError(f"unsupported proxy {proxy!r}: expected http://host[:port]")
    if parsed.username is None:
        return parsed, ""
    credentials = f"{unquote(parsed.username)}:{unquote(parsed.password or '')}".encode("utf-8")
    return parsed, f"Proxy-Authorization: Basic {base64.b64encode(credentials).decode('ascii')}\r\n"


def _readable(sock: socket.socket) -> bool:
    """True when a read would not block: end of stream, reset, or stray bytes."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _parse_completion(data: bytes) -> ChatResponse:
    try:
        payload = json.loads(data)
        usage = payload["usage"]
        return ChatResponse(
            text=payload["choices"][0]["message"]["content"],
            prompt_tokens=usage["prompt_tokens"],
            completion_tokens=usage["completion_tokens"],
        )
    except (ValueError, KeyError, IndexError, TypeError, RecursionError):
        raise ApiError(200, "malformed completion payload") from None


class RecordingBackend(ChatBackend):
    """Pass-through wrapper appending each exchange to a JSON-Lines capture:
    one script line per call, the response fields plus the ``request``."""

    def __init__(self, inner: ChatBackend, path: Path | str):
        super().__init__()
        self._inner = inner
        self.model = inner.model
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._path.write_text("", encoding="utf-8")

    def _complete(self, request: ChatRequest) -> ChatResponse:
        response = self._inner.complete(request)
        line = _canonical_json({**as_dict(response), "request": as_dict(request)})
        with self._path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return response


def _excerpt(data: bytes, offset: int, width: int = 24) -> str:
    start = max(0, offset - width // 2)
    return data[start : start + width].decode("utf-8", errors="replace")
