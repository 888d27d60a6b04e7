"""Chat-completion backends behind one interface.

Three implementations: a live OpenAI-compatible HTTP client with bounded
retry, a deterministic scripted playback double, and a recording wrapper
that captures each exchange as a script line. A capture is a script whose
steps carry the request they answer, so the scripted backend replays it and
fails on the first byte of request divergence. Token accounting is exact on
every backend — counts come from the upstream ``usage`` block or from the
script itself, never from estimation.

This is the only module in the package that performs network I/O. The HTTP
and TLS stack is imported by :class:`HttpBackend` alone, so scripted and
replayed runs never load it.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable
from urllib.parse import SplitResult, unquote, urlsplit

from .model import _text

if TYPE_CHECKING:
    import http.client
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


@dataclass(frozen=True)
class ChatRequest:
    """One system+user prompt pair bound for a chat-completion endpoint."""

    system: str
    user: str
    model: str = "scripted"
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if not self.system or not self.user:
            raise ValueError("system and user prompts must be non-empty")


@dataclass(frozen=True)
class ChatResponse:
    """Raw completion text plus the exact token counts reported for it."""

    text: str
    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self) -> None:
        _text(self.text, "completion text")
        for count in (self.prompt_tokens, self.completion_tokens):
            if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                raise ValueError(f"token counts must be non-negative integers, got {count!r}")


@dataclass(frozen=True)
class TokenTotals:
    prompt_tokens: int = 0
    completion_tokens: int = 0
    calls: int = 0


def _request_from_dict(data: dict[str, Any]) -> ChatRequest:
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
    return json.dumps(asdict(request), sort_keys=True, ensure_ascii=False)


class ChatBackend:
    """Uniform completion interface with exact, thread-safe token counters."""

    model = "scripted"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = TokenTotals()

    def complete(self, request: ChatRequest) -> ChatResponse:
        response = self._complete(request)
        with self._lock:
            t = self._totals
            self._totals = TokenTotals(
                t.prompt_tokens + response.prompt_tokens,
                t.completion_tokens + response.completion_tokens,
                t.calls + 1,
            )
        return response

    def _complete(self, request: ChatRequest) -> ChatResponse:
        raise NotImplementedError

    def token_totals(self) -> TokenTotals:
        with self._lock:
            return self._totals


@dataclass(frozen=True)
class ScriptStep:
    """One pre-authored completion. A step with a ``request`` (every step of a
    capture has one) answers only a request equal to it, or identical to it in
    canonical form."""

    response: ChatResponse
    request: ChatRequest | None = None


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
    for i, line in enumerate(text.splitlines()):
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
    """OpenAI-compatible chat-completions client on :mod:`http.client`.

    POSTs ``{base_url}/chat/completions`` and reads the first choice plus the
    usage block. Transport failures, 429, and 5xx are retried with capped
    exponential backoff for ``MAX_ATTEMPTS`` total tries; a 429 or 503 whose
    ``Retry-After`` is a whole number of seconds waits that long instead,
    still capped by ``BACKOFF_CAP``. Other statuses raise :class:`ApiError`
    immediately, and a failed TLS certificate check is never retried. Base
    URL and key default to the MIRROR_API_BASE / MIRROR_API_KEY environment
    variables, and ``http(s)_proxy`` / ``no_proxy`` choose a proxy; the
    environment is read here, never per call.

    Safe to share between threads: idle keep-alive connections wait in one
    LIFO pool, which grows to the peak number of concurrent calls.
    """

    RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})
    RETRY_AFTER_STATUSES = frozenset({429, 503})
    TIMEOUT = 60.0  # seconds per socket operation
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
        # The first call must not pay for loading the HTTP and TLS stack.
        import http.client  # noqa: F401
        import ssl

        super().__init__()
        base = base_url or os.environ.get(API_BASE_ENV)
        if not base:
            raise ValueError(f"no base URL: pass base_url or set {API_BASE_ENV}")
        url = urlsplit(base.rstrip("/") + "/chat/completions")
        if url.scheme not in ("http", "https") or not url.hostname or url.query or url.fragment or url.username:
            raise ValueError(f"base URL must look like http(s)://host[:port][/path], got {base!r}")
        api_key = api_key or os.environ.get(API_KEY_ENV)
        self.model = model
        self._sleep = sleep
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._host, self._port = url.hostname, url.port
        self._target = url.path
        self._tunnel: tuple[str, int, dict[str, str]] | None = None
        proxy = _proxy_for(url)
        if proxy is not None:
            proxy_url, proxy_headers = proxy
            self._host, self._port = proxy_url.hostname, proxy_url.port or 80
            if self._tls is not None:
                self._tunnel = (url.hostname, url.port or 443, proxy_headers)
            else:
                self._target = url.geturl()
                self._headers.update(proxy_headers)
        self._idle: list[http.client.HTTPConnection] = []

    def _complete(self, request: ChatRequest) -> ChatResponse:
        import http.client
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
            except (OSError, http.client.HTTPException) as exc:
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
        connection goes back to the pool only after a complete exchange."""
        conn = self._checkout()
        try:
            conn.request("POST", self._target, body, self._headers)
            resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if conn.sock is not None:  # None: the server ended the connection with this reply
            with self._lock:
                self._idle.append(conn)
        return resp.status, resp.getheader("Retry-After"), data

    def _checkout(self) -> http.client.HTTPConnection:
        """The most recently used idle connection, or a new one. An idle socket
        that is readable was closed by the server (or holds bytes nobody asked
        for), so it is dropped here instead of costing an attempt."""
        import http.client

        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                break
            if not _readable(conn.sock):
                return conn
            conn.close()
        if self._tls is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=self.TIMEOUT)
        else:
            conn = http.client.HTTPSConnection(self._host, self._port, timeout=self.TIMEOUT, context=self._tls)
        if self._tunnel is not None:
            host, port, headers = self._tunnel
            conn.set_tunnel(host, port, headers)
        return conn

    def close(self) -> None:
        """Close every idle connection; a later call opens new ones."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _proxy_for(url: SplitResult) -> tuple[SplitResult, dict[str, str]] | None:
    """The proxy that ``http(s)_proxy`` / ``all_proxy`` name for ``url``,
    unless ``no_proxy`` exempts its host, plus the headers that authenticate
    to it. Only plain-http proxies are supported."""
    import base64
    from urllib.request import getproxies, proxy_bypass

    proxies = getproxies()
    proxy = proxies.get(url.scheme) or proxies.get("all")
    if not proxy or proxy_bypass(url.netloc):
        return None
    parsed = urlsplit(proxy if "://" in proxy else "http://" + proxy)
    if parsed.scheme != "http" or not parsed.hostname:
        raise ValueError(f"unsupported proxy {proxy!r}: expected http://host[:port]")
    headers = {}
    if parsed.username is not None:
        credentials = f"{unquote(parsed.username)}:{unquote(parsed.password or '')}".encode("utf-8")
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode("ascii")
    return parsed, headers


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
        line = json.dumps({**asdict(response), "request": asdict(request)}, sort_keys=True, ensure_ascii=False)
        with self._path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return response


def _excerpt(data: bytes, offset: int, width: int = 24) -> str:
    start = max(0, offset - width // 2)
    return data[start : start + width].decode("utf-8", errors="replace")
