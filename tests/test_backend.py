"""Scripted playback, token accounting, HTTP retry, and record/replay."""

import base64
import json
import os
import socket
import ssl
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dualreflect.backend import (
    ApiError,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    RecordingBackend,
    ReplayMismatch,
    ScriptedBackend,
    ScriptStep,
    ScriptExhausted,
    TokenTotals,
    TransportError,
    canonical_request,
    script_from_jsonl,
)

REQ = ChatRequest(system="sys", user="hello")


def steps(*pairs):
    return [ScriptStep(ChatResponse(text, pt, ct)) for text, pt, ct in pairs]


class TestScripted:
    def test_single_step_served_in_order(self):
        backend = ScriptedBackend(steps(("one", 10, 5)))
        assert backend.complete(REQ).text == "one"

    def test_exhaustion_on_extra_call(self):
        backend = ScriptedBackend(steps(("one", 10, 5)))
        backend.complete(REQ)
        with pytest.raises(ScriptExhausted):
            backend.complete(REQ)

    def test_token_totals_sum_exactly(self):
        backend = ScriptedBackend(steps(("a", 100, 50), ("b", 100, 50)))
        backend.complete(REQ)
        backend.complete(REQ)
        assert backend.token_totals() == TokenTotals(200, 100, 2)

    def test_zero_calls_zero_totals(self):
        assert ScriptedBackend([]).token_totals() == TokenTotals(0, 0, 0)

    def test_requests_recorded_for_assertions(self):
        backend = ScriptedBackend(steps(("a", 1, 1)))
        backend.complete(REQ)
        assert backend.requests == [REQ]

    def test_script_jsonl_round_trip(self, tmp_path):
        lines = [
            json.dumps({"text": "alpha", "prompt_tokens": 7, "completion_tokens": 3, "hint": "first"}),
            json.dumps({"text": "beta", "prompt_tokens": 9, "completion_tokens": 4}),
        ]
        path = tmp_path / "script.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        backend = ScriptedBackend(script_from_jsonl(path.read_text(encoding="utf-8")))
        assert backend.complete(REQ).text == "alpha"
        assert backend.complete(REQ) == ChatResponse("beta", 9, 4)

    def test_bad_script_line_raises(self):
        with pytest.raises(ValueError):
            script_from_jsonl('{"text": "x"}')

    @pytest.mark.parametrize("line", ["[]", "5", '"text"', "null"])
    def test_line_that_is_not_an_object_is_a_bad_line(self, line):
        with pytest.raises(ValueError, match="^bad script line 2: not a JSON object$"):
            script_from_jsonl('{"text": "x", "prompt_tokens": 1, "completion_tokens": 1}\n' + line)


class _StubHandler(BaseHTTPRequestHandler):
    """Plan-driven chat-completions stub: pops one directive per request.

    Speaks HTTP/1.1 keep-alive and counts the connections it accepts and
    closes; ``idle_timeout`` makes it close a connection left idle that long.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out in two writes

    def setup(self):
        self.timeout = self.server.idle_timeout
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def finish(self):
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        with self.server.lock:
            self.server.requests.append(body)
            self.server.seen.append((self.path, dict(self.headers)))
            directive = self.server.plan.pop(0) if self.server.plan else {"status": 200, "text": "default"}
        time.sleep(self.server.delay)
        if directive["status"] != 200:
            raw = directive.get("body", "").encode("utf-8")
            self.send_response(directive["status"])
            for name, value in directive.get("headers", {}).items():
                self.send_header(name, value)
        else:
            payload = {
                "choices": [{"message": {"role": "assistant", "content": directive["text"]}}],
                "usage": {
                    "prompt_tokens": directive.get("prompt_tokens", 11),
                    "completion_tokens": directive.get("completion_tokens", 7),
                },
            }
            raw = json.dumps(payload).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def do_CONNECT(self):  # noqa: N802 (http.server API)
        """Accept a tunnel, then hang up before any TLS handshake."""
        with self.server.lock:
            self.server.seen.append((self.path, dict(self.headers)))
        self.send_response(200)
        self.end_headers()
        self.close_connection = True

    def log_message(self, *args):
        pass


class _StubServer(ThreadingHTTPServer):
    request_queue_size = 64  # sixteen clients connect at once; a SYN dropped from the backlog costs 1 s


@pytest.fixture()
def stub_server():
    server = _StubServer(("127.0.0.1", 0), _StubHandler)
    server.lock = threading.Lock()
    server.plan = []
    server.requests = []
    server.seen = []
    server.connections = server.closed = 0
    server.idle_timeout = None
    server.delay = 0.0
    server.backends = []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        for backend in server.backends:
            backend.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def stub_url(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


def stub_backend(server, base=None, **kwargs):
    kwargs.setdefault("sleep", lambda _: None)
    backend = HttpBackend(base_url=base or stub_url(server), model="stub-model", **kwargs)
    server.backends.append(backend)
    return backend


class TestHttp:
    def test_success_parses_text_and_usage(self, stub_server):
        stub_server.plan = [{"status": 200, "text": "pong", "prompt_tokens": 42, "completion_tokens": 13}]
        backend = stub_backend(stub_server)
        response = backend.complete(ChatRequest(system="s", user="ping", model="stub-model"))
        assert response == ChatResponse("pong", 42, 13)
        sent = stub_server.requests[0]
        assert sent["model"] == "stub-model" and sent["temperature"] == 0.0
        assert sent["messages"][0] == {"role": "system", "content": "s"}
        assert sent["messages"][1] == {"role": "user", "content": "ping"}
        path, headers = stub_server.seen[0]
        assert path == "/chat/completions" and headers["Content-Type"] == "application/json"

    def test_429_three_times_exhausts_retries(self, stub_server):
        stub_server.plan = [{"status": 429}] * 3
        backend = stub_backend(stub_server)
        with pytest.raises(TransportError):
            backend.complete(REQ)
        assert len(stub_server.requests) == 3

    def test_retry_then_success(self, stub_server):
        stub_server.plan = [{"status": 503}, {"status": 200, "text": "recovered"}]
        backend = stub_backend(stub_server)
        assert backend.complete(REQ).text == "recovered"

    def test_non_retryable_status_raises_api_error(self, stub_server):
        stub_server.plan = [{"status": 404, "body": "é" * 600}]
        backend = stub_backend(stub_server)
        with pytest.raises(ApiError) as err:
            backend.complete(REQ)
        assert err.value.status == 404
        assert str(err.value) == "HTTP 404: " + "é" * 500
        assert len(stub_server.requests) == 1

    # The last reply holds a lone surrogate: JSON can carry one, UTF-8 cannot.
    @pytest.mark.parametrize("content", [None, 3, ["pong"], "pong \ud800"])
    def test_non_string_content_is_malformed_payload(self, stub_server, content):
        stub_server.plan = [{"status": 200, "text": content}]
        with pytest.raises(ApiError, match="malformed completion payload") as err:
            stub_backend(stub_server).complete(REQ)
        assert err.value.status == 200
        assert len(stub_server.requests) == 1

    def test_requires_base_url(self, monkeypatch):
        monkeypatch.delenv("MIRROR_API_BASE", raising=False)
        with pytest.raises(ValueError):
            HttpBackend()

    @pytest.mark.parametrize(
        "base", ["ftp://example.com", "http://", "example.com/v1", "http://h/v1?x=1", "http://u:p@h/v1"]
    )
    def test_bad_base_url_rejected_at_construction(self, base):
        with pytest.raises(ValueError, match="base URL"):
            HttpBackend(base_url=base)

    def test_api_key_header_from_env(self, stub_server, monkeypatch):
        monkeypatch.setenv("MIRROR_API_KEY", "sekrit")
        stub_server.plan = [{"status": 200, "text": "x"}]

        captured = {}
        original = _StubHandler.do_POST

        def spy(handler):
            captured["auth"] = handler.headers.get("Authorization")
            return original(handler)

        monkeypatch.setattr(_StubHandler, "do_POST", spy)
        stub_backend(stub_server).complete(REQ)
        assert captured["auth"] == "Bearer sekrit"

    @pytest.mark.parametrize(
        "status, retry_after, slept",
        [
            (429, "3", 3),
            (503, " 2 ", 2),
            (429, "100", 8.0),
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),
            (429, "1.5", 0.5),
            (500, "3", 0.5),
        ],
    )
    def test_retry_after_seconds_replace_the_backoff(self, stub_server, status, retry_after, slept):
        stub_server.plan = [{"status": status, "headers": {"Retry-After": retry_after}}, {"status": 200, "text": "ok"}]
        sleeps = []
        assert stub_backend(stub_server, sleep=sleeps.append).complete(REQ).text == "ok"
        assert sleeps == [slept]


class TestConnectionPool:
    def test_sequential_calls_share_one_connection(self, stub_server):
        backend = stub_backend(stub_server)
        for _ in range(10):
            backend.complete(REQ)
        assert len(stub_server.requests) == 10 and stub_server.connections == 1

    def test_concurrent_waves_reuse_the_pool(self, stub_server):
        stub_server.delay = 0.02
        backend = stub_backend(stub_server)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(2):  # a fresh executor per wave, as evaluate() makes
                with ThreadPoolExecutor(max_workers=16) as pool:
                    texts = list(pool.map(lambda _: backend.complete(REQ).text, range(16)))
                assert texts == ["default"] * 16
        finally:
            sys.setswitchinterval(interval)
        assert backend.token_totals() == TokenTotals(11 * 32, 7 * 32, 32)
        assert len(stub_server.requests) == 32 and stub_server.connections <= 16

    def test_server_closed_idle_connection_costs_no_attempt(self, stub_server):
        stub_server.idle_timeout = 0.1
        sleeps = []
        backend = stub_backend(stub_server, sleep=sleeps.append)
        backend.complete(REQ)
        deadline = time.monotonic() + 10
        while stub_server.closed < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert stub_server.closed == 1
        assert backend.complete(REQ).text == "default"
        assert sleeps == [] and len(stub_server.requests) == 2 and stub_server.connections == 2

    def test_closed_port_is_transport_error_after_max_attempts(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        sleeps = []
        backend = HttpBackend(base_url=f"http://127.0.0.1:{port}", sleep=sleeps.append)
        with pytest.raises(TransportError, match="giving up after 3 attempts: transport failure"):
            backend.complete(REQ)
        assert sleeps == [0.5, 1.0]

    def test_tls_verification_failure_is_not_retried(self, monkeypatch):
        posts, sleeps = [], []

        def post(self, body):
            posts.append(body)
            raise ssl.SSLCertVerificationError(1, "certificate verify failed: self-signed certificate")

        monkeypatch.setattr(HttpBackend, "_post", post)
        backend = HttpBackend(base_url="https://api.invalid/v1", sleep=sleeps.append)
        with pytest.raises(TransportError, match="^TLS certificate verification failed: .*self-signed"):
            backend.complete(REQ)
        assert len(posts) == 1 and sleeps == []


class TestProxy:
    @pytest.fixture(autouse=True)
    def clean_proxy_env(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)

    def test_http_proxy_gets_the_absolute_uri(self, stub_server, monkeypatch):
        monkeypatch.setenv("http_proxy", stub_url(stub_server).replace("://", "://user:p%40ss@"))
        assert stub_backend(stub_server, base="http://api.invalid/v1").complete(REQ).text == "default"
        path, headers = stub_server.seen[0]
        assert path == "http://api.invalid/v1/chat/completions" and headers["Host"] == "api.invalid"
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_https_through_http_proxy_opens_a_tunnel(self, stub_server, monkeypatch):
        monkeypatch.setenv("https_proxy", stub_url(stub_server))
        with pytest.raises(TransportError):
            stub_backend(stub_server, base="https://api.invalid/v1").complete(REQ)
        assert stub_server.seen[0][0] == "api.invalid:443" and stub_server.requests == []

    def test_no_proxy_bypasses_the_proxy(self, stub_server, monkeypatch):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead_proxy = f"http://127.0.0.1:{sock.getsockname()[1]}"
        monkeypatch.setenv("http_proxy", dead_proxy)
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert stub_backend(stub_server).complete(REQ).text == "default"
        assert stub_server.seen[0][0] == "/chat/completions"

    def test_unsupported_proxy_scheme_rejected(self, monkeypatch):
        monkeypatch.setenv("http_proxy", "socks5://127.0.0.1:1080")
        with pytest.raises(ValueError, match="unsupported proxy"):
            HttpBackend(base_url="http://api.invalid")


def test_package_imports_without_requests():
    import dualreflect

    code = (
        "import sys; sys.modules['requests'] = None; import dualreflect, dualreflect.cli; "
        "assert sys.modules['requests'] is None and 'urllib3' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dualreflect.__file__).parent.parent)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_backend_without_proxy_variables_skips_urllib_request():
    # With no *_proxy variable set there is no proxy to look up, so building a
    # backend must not load urllib.request, http.client or email for it.
    import dualreflect

    code = (
        "import sys; from dualreflect.backend import HttpBackend; HttpBackend(base_url='http://127.0.0.1:9/v1'); "
        "print(sorted({'http.client', 'email', 'urllib.request'} & set(sys.modules)))"
    )
    env = {"PYTHONPATH": str(Path(dualreflect.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_scripted_cli_never_loads_the_http_stack(tmp_path):
    # Scripted eval, run and replay, with http.client, ssl, email, socket,
    # select and concurrent.futures blocked, still write the golden bytes.
    import dualreflect

    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": str(Path(dualreflect.__file__).parent.parent)}

    def cli(*argv):
        command = [sys.executable, "-S", str(tests / "no_http_stack.py"), *argv]
        proc = subprocess.run(command, env=env, cwd=tests.parent, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    cli("eval", "--suite", "suites/demo", "--repeats", "3", "--jobs", "1", "--report-dir", str(tmp_path / "eval"))
    task, golden_trace = "suites/demo/flaky-lookup", (tests / "golden" / "flaky-lookup.trace.jsonl").read_bytes()
    cli("run", "--task", task, "--record", str(tmp_path / "rec.jsonl"), "--trace-out", str(tmp_path / "run.jsonl"))
    cli("replay", "--task", task, "--trace", str(tmp_path / "rec.jsonl"), "--trace-out", str(tmp_path / "replay.jsonl"))
    for name in ("report.json", "report.txt", "histograms.csv", "runs.csv"):
        assert (tmp_path / "eval" / name).read_bytes() == (tests / "golden" / "eval" / name).read_bytes(), name
    assert (tmp_path / "run.jsonl").read_bytes() == golden_trace
    assert (tmp_path / "replay.jsonl").read_bytes() == golden_trace


class TestTokenCounts:
    """A token count is a JSON integer >= 0 in scripts, captures and HTTP replies alike."""

    @pytest.mark.parametrize("field", ["prompt_tokens", "completion_tokens"])
    @pytest.mark.parametrize(
        "raw", ["Infinity", "-Infinity", "NaN", "1e400", "1.9", "1.0", "true", "false", '"7"', "null", "[1]", "-1"]
    )
    def test_script_line_with_bad_count_is_a_bad_line(self, field, raw):
        counts = {"prompt_tokens": "3", "completion_tokens": "4", field: raw}
        line = '{"text": "x", ' + ", ".join(f'"{k}": {v}' for k, v in counts.items()) + "}"
        with pytest.raises(ValueError, match="^bad script line 1: token counts must be non-negative integers"):
            script_from_jsonl(line)

    @pytest.mark.parametrize("field", ["prompt_tokens", "completion_tokens"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 1.9, 1.0, True, False, "7", None, -1])
    def test_http_usage_with_bad_count_is_malformed_payload(self, stub_server, field, value):
        stub_server.plan = [{"status": 200, "text": "pong", field: value}]
        with pytest.raises(ApiError, match="malformed completion payload") as err:
            stub_backend(stub_server).complete(REQ)
        assert err.value.status == 200
        assert len(stub_server.requests) == 1


class TestRecordReplay:
    def three_calls(self):
        return [
            (ChatRequest(system="s", user=f"u{i}", model="scripted"), ChatResponse(f"r{i}", 10 + i, 5 + i))
            for i in range(3)
        ]

    def record(self, tmp_path):
        calls = self.three_calls()
        inner = ScriptedBackend([ScriptStep(resp) for _, resp in calls])
        recorder = RecordingBackend(inner, tmp_path / "trace.jsonl")
        responses = [recorder.complete(req) for req, _ in calls]
        return calls, responses, tmp_path / "trace.jsonl"

    def replay(self, path):
        return ScriptedBackend(script_from_jsonl(path.read_text(encoding="utf-8")))

    def test_capture_line_is_a_script_line_with_its_request(self, tmp_path):
        _, _, path = self.record(tmp_path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert json.loads(first) == {
            "text": "r0",
            "prompt_tokens": 10,
            "completion_tokens": 5,
            "request": {"system": "s", "user": "u0", "model": "scripted", "temperature": 0.0},
        }
        assert first == json.dumps(json.loads(first), sort_keys=True, ensure_ascii=False)

    def test_record_then_replay_identical_without_source(self, tmp_path):
        calls, recorded_responses, path = self.record(tmp_path)
        replay = self.replay(path)
        replayed = [replay.complete(req) for req, _ in calls]
        assert replayed == recorded_responses

    def test_model_comes_from_the_first_recorded_request(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = RecordingBackend(ScriptedBackend(steps(("r", 1, 1))), path)
        recorder.complete(ChatRequest(system="s", user="u", model="live-model"))
        assert self.replay(path).model == "live-model"
        assert ScriptedBackend(steps(("r", 1, 1))).model == "scripted"

    def test_replay_mismatch_on_altered_prompt(self, tmp_path):
        calls, _, path = self.record(tmp_path)
        replay = self.replay(path)
        replay.complete(calls[0][0])
        with pytest.raises(ReplayMismatch) as err:
            replay.complete(ChatRequest(system="s", user="tampered", model="scripted"))
        # Canonical form: {"model": "scripted", "system": "s", "temperature": 0.0, "user": "u1"}.
        # The user text starts at byte 66; each excerpt opens 12 bytes before it.
        assert err.value.offset == 66
        assert str(err.value) == (
            'request 2 diverged from the recording at byte 66: '
            'recorded ...0, "user": "u1"}... got ...0, "user": "tampered"}...'
        )

    def test_replay_mismatch_reports_first_divergent_byte(self, tmp_path):
        _, _, path = self.record(tmp_path)
        replay = self.replay(path)
        original = canonical_request(ChatRequest(system="s", user="u0", model="scripted"))
        altered = ChatRequest(system="s", user="uX", model="scripted")
        divergence = next(
            i for i, (a, b) in enumerate(zip(original.encode(), canonical_request(altered).encode())) if a != b
        )
        with pytest.raises(ReplayMismatch) as err:
            replay.complete(altered)
        assert err.value.offset == divergence

    def test_replay_beyond_trace_is_mismatch(self, tmp_path):
        calls, _, path = self.record(tmp_path)
        replay = self.replay(path)
        for req, _ in calls:
            replay.complete(req)
        with pytest.raises(ScriptExhausted, match="^script exhausted after 3 steps$"):
            replay.complete(calls[0][0])

    CAPTURE_LINE = '{"text": "r", "prompt_tokens": 1, "completion_tokens": 1, "request": {"system": "s", "user": "u"%s}}'

    @pytest.mark.parametrize("raw", ['"0"', "[1]", "true", "null", "1e400", "-1e400", "NaN", "{}"])
    def test_capture_temperature_must_be_a_finite_number(self, raw):
        with pytest.raises(ValueError, match="^bad script line 2: request temperature must be a finite number, got "):
            script_from_jsonl("\n" + self.CAPTURE_LINE % f', "temperature": {raw}')

    @pytest.mark.parametrize("raw", ["null", "[1]", '"x"', "0", "true"])
    def test_capture_request_must_be_an_object(self, raw):
        line = '{"text": "r", "prompt_tokens": 1, "completion_tokens": 1, "request": %s}' % raw
        with pytest.raises(ValueError, match="^bad script line 2: request must be an object$"):
            script_from_jsonl("\n" + line)

    @pytest.mark.parametrize("raw, expected", [(None, 0.0), ("0", 0.0), ("0.7", 0.7), ("2", 2.0)])
    def test_capture_temperature_number_or_absent_loads(self, raw, expected):
        (loaded,) = script_from_jsonl(self.CAPTURE_LINE % ("" if raw is None else f', "temperature": {raw}'))
        assert loaded.request == ChatRequest(system="s", user="u", temperature=expected)
        assert type(loaded.request.temperature) is float

    def test_totals_equal_fold_over_trace_file(self, tmp_path):
        _, _, path = self.record(tmp_path)
        replay = self.replay(path)
        for req, _ in self.three_calls():
            replay.complete(req)
        assert replay.token_totals() == TokenTotals(33, 18, 3)


# Any character but a lone surrogate, which no capture line can hold.
_UTF8_CHARS = st.characters(blacklist_categories=("Cs",))


class TestCaptureProperty:
    # str.splitlines() also breaks a line at these; a capture writes them raw.
    @example(text="a\u2028b", system="s\u2028", user="\u2028u")
    @example(text="a\u2029b", system="s\u2029", user="\u2029u")
    @example(text="a\x85b", system="s\x85", user="\x85u")
    @given(text=st.text(_UTF8_CHARS), system=st.text(_UTF8_CHARS, min_size=1), user=st.text(_UTF8_CHARS, min_size=1))
    def test_recorded_exchange_parses_back_to_an_equal_step(self, tmp_path_factory, text, system, user):
        path = tmp_path_factory.getbasetemp() / "capture-property.jsonl"
        request, response = ChatRequest(system=system, user=user), ChatResponse(text, 3, 2)
        RecordingBackend(ScriptedBackend([ScriptStep(response)]), path).complete(request)
        assert script_from_jsonl(path.read_text(encoding="utf-8")) == [ScriptStep(response, request)]


class TestTotalsProperty:
    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)), max_size=20))
    def test_totals_are_exact_folds(self, counts):
        backend = ScriptedBackend([ScriptStep(ChatResponse("x", p, c)) for p, c in counts])
        for _ in counts:
            backend.complete(REQ)
        totals = backend.token_totals()
        assert totals.prompt_tokens == sum(p for p, _ in counts)
        assert totals.completion_tokens == sum(c for _, c in counts)
        assert totals.calls == len(counts)


def test_only_backend_module_touches_the_network():
    # Structural guarantee: requests/socket/http clients appear nowhere else.
    import dualreflect

    package_root = Path(dualreflect.__file__).parent
    offenders = []
    for source in package_root.glob("*.py"):
        if source.name == "backend.py":
            continue
        text = source.read_text(encoding="utf-8")
        if "import requests" in text or "import socket" in text or "http.client" in text:
            offenders.append(source.name)
    assert offenders == []
