"""Scripted playback, token accounting, HTTP retry, and record/replay."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualreflect.backend import (
    ApiError,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    ReplayMismatch,
    ScriptedBackend,
    ScriptStep,
    ScriptExhausted,
    TokenTotals,
    TransportError,
    canonical_request,
    fold_record_trace,
    load_script,
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
        backend = load_script(path)
        assert backend.complete(REQ).text == "alpha"
        assert backend.complete(REQ) == ChatResponse("beta", 9, 4)

    def test_bad_script_line_raises(self):
        with pytest.raises(ValueError):
            script_from_jsonl('{"text": "x"}')


class _StubHandler(BaseHTTPRequestHandler):
    """Plan-driven chat-completions stub: pops one directive per request."""

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        self.server.requests.append(body)
        directive = self.server.plan.pop(0) if self.server.plan else {"status": 200, "text": "default"}
        if directive["status"] != 200:
            self.send_response(directive["status"])
            self.end_headers()
            return
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

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    server.plan = []
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def stub_backend(server, **kwargs):
    base = f"http://127.0.0.1:{server.server_address[1]}"
    return HttpBackend(base_url=base, model="stub-model", sleep=lambda _: None, **kwargs)


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
        stub_server.plan = [{"status": 404}]
        backend = stub_backend(stub_server)
        with pytest.raises(ApiError) as err:
            backend.complete(REQ)
        assert err.value.status == 404
        assert len(stub_server.requests) == 1

    @pytest.mark.parametrize("content", [None, 3, ["pong"]])
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

    def test_record_then_replay_identical_without_source(self, tmp_path):
        calls, recorded_responses, path = self.record(tmp_path)
        replay = ReplayBackend(path)
        replayed = [replay.complete(req) for req, _ in calls]
        assert replayed == recorded_responses

    def test_replay_mismatch_on_altered_prompt(self, tmp_path):
        calls, _, path = self.record(tmp_path)
        replay = ReplayBackend(path)
        replay.complete(calls[0][0])
        with pytest.raises(ReplayMismatch) as err:
            replay.complete(ChatRequest(system="s", user="tampered", model="scripted"))
        assert err.value.offset >= 0

    def test_replay_mismatch_reports_first_divergent_byte(self, tmp_path):
        _, _, path = self.record(tmp_path)
        replay = ReplayBackend(path)
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
        replay = ReplayBackend(path)
        for req, _ in calls:
            replay.complete(req)
        with pytest.raises(ReplayMismatch):
            replay.complete(calls[0][0])

    def test_absent_trace_fails_at_startup(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ReplayBackend(tmp_path / "missing.jsonl")

    def test_totals_equal_fold_over_trace_file(self, tmp_path):
        _, _, path = self.record(tmp_path)
        replay = ReplayBackend(path)
        for req, _ in self.three_calls():
            replay.complete(req)
        assert replay.token_totals() == fold_record_trace(path) == TokenTotals(33, 18, 3)


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

    def test_reset_totals(self):
        backend = ScriptedBackend(steps(("a", 5, 5)))
        backend.complete(REQ)
        backend.reset_totals()
        assert backend.token_totals() == TokenTotals()


def test_only_backend_module_touches_the_network():
    # Structural guarantee: requests/socket/http clients appear nowhere else.
    from pathlib import Path

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
