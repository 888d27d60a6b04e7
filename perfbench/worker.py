"""One measurement of one workload, in a fresh interpreter.

run.py starts this with a fixed environment:

    python3 worker.py measure WORK_DIR WORKLOAD SECONDS TRACE

It drives ``harness.evaluate`` plus ``harness.report`` (as ``dualreflect
eval`` does) over the generated suite in WORK_DIR for SECONDS, checks every
run against its authored outcome, and prints one JSON object: the end-to-end
metrics when TRACE is 0, the per-layer metrics when TRACE is 1. setup_s is
timed apart, by setup_time.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Iterator

from layertrace import Probe, Tracer
from metrics import tail
from stub import request_key
from workloads import THRESHOLDS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent

#: Injected per-call latency of the http-latency stub.
STUB_LATENCY_MS = 10.0

#: Share of a traced run spent alternating untraced and traced evals; the
#: rest times jobs=1 against jobs=2.
TRACED_SHARE = 0.6

#: RunRecord fields every run must match against its authored outcome.
CHECKED = ("status", "passed", "rounds_used", "final_round", "answer_score",
           "backend_calls", "prompt_tokens", "completion_tokens")


class SetupError(Exception):
    """The generated inputs cannot be served as authored."""


@contextlib.contextmanager
def trace_hashes() -> Iterator[dict[str, set[str]]]:
    """Collect sha256 of every run's trace, by task id, while active."""
    from dualreflect import harness

    hashes: dict[str, set[str]] = {}
    inner = harness.run_task

    def run_task(task: Any, *args: Any, **kwargs: Any) -> Any:
        result = inner(task, *args, **kwargs)
        digest = hashlib.sha256(result.trace_jsonl().encode("utf-8")).hexdigest()
        hashes.setdefault(task.id, set()).add(digest)
        return result

    harness.run_task = run_task
    try:
        yield hashes
    finally:
        harness.run_task = inner


class Bench:
    def __init__(self, work: Path, workload: Workload):
        from dualreflect.model import RunConfig, Thresholds

        self.work = work
        self.workload = workload
        self.profile = workload.profile
        self.suite = work / "suite"
        self.expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
        self.config = RunConfig(thresholds=Thresholds(**THRESHOLDS), max_rounds=self.profile.max_rounds)
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0
        self.stub: subprocess.Popen[str] | None = None
        self.stub_url = ""
        self.shared = None

    # -- inputs and the stub ----------------------------------------------------

    def capture(self) -> tuple[dict[str, set[str]], float]:
        """One scripted pass over the suite. Returns reference trace hashes
        and mean prompt chars per call; writes the stub's reply table after
        checking that every request maps to exactly one reply."""
        from dualreflect import harness
        from dualreflect.backend import script_from_jsonl

        seen: list[tuple[Any, Any]] = []

        def factory(bundle: Any) -> Any:
            backend = bundle.make_backend()
            seen.append((bundle, backend))
            return backend

        with trace_hashes() as hashes:
            result = harness.evaluate(self.suite, self.config, repeats=1, jobs=1, backend_factory=factory)
        self.check(result, repeats=1)
        replies: dict[str, dict[str, Any]] = {}
        chars = []
        for bundle, backend in seen:
            steps = script_from_jsonl(bundle.script_path.read_text(encoding="utf-8"))
            for request, step in zip(backend.requests, steps):
                chars.append(len(request.system) + len(request.user))
                messages = [{"role": "system", "content": request.system}, {"role": "user", "content": request.user}]
                key = request_key(messages, request.temperature)
                reply = {"key": key, "text": step.response.text, "prompt_tokens": step.response.prompt_tokens,
                         "completion_tokens": step.response.completion_tokens}
                if replies.setdefault(key, reply) != reply:
                    raise SetupError(f"{bundle.task.id}: one request maps to two different replies")
        (self.work / "replies.jsonl").write_text("".join(json.dumps(r) + "\n" for r in replies.values()),
                                                 encoding="utf-8")
        return hashes, statistics.fmean(chars)

    def start_stub(self) -> None:
        from dualreflect.backend import HttpBackend

        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(self.work / "replies.jsonl"), str(STUB_LATENCY_MS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.stub.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            raise SetupError("stub did not start")
        self.stub_url = f"http://127.0.0.1:{line[1]}"
        # One client shared by every run, as ``dualreflect eval --backend http`` builds it.
        self.shared = HttpBackend(base_url=self.stub_url, model="default")

    def stop_stub(self) -> None:
        if self.stub is not None:
            self.stub.stdin.close()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()

    def stub_stats(self) -> dict[str, Any]:
        if self.stub is None:
            return {"requests": 0, "unknown": 0, "connections": 0, "service_us": []}
        with urllib.request.urlopen(self.stub_url + "/stats", timeout=30) as resp:
            return json.loads(resp.read())

    # -- evals ------------------------------------------------------------------

    def run_eval(self, jobs: int | None = None, repeats: int | None = None) -> tuple[Any, float, list[float]]:
        """One timed eval + report. Returns the result (None when evaluate
        raised), its wall seconds, and each (task, repeat) cell's wall ms:
        from its backend_factory call to the return of its run_task, on the
        cell's thread."""
        from dualreflect import harness

        jobs = jobs or self.profile.jobs
        repeats = repeats or self.profile.repeats
        shared = self.shared
        cells: list[float] = []
        opened = threading.local()
        clock, inner = time.perf_counter, harness.run_task

        def factory(bundle: Any) -> Any:
            opened.at = clock()
            return shared if shared is not None else bundle.make_backend()

        def run_task(*args: Any, **kwargs: Any) -> Any:
            result = inner(*args, **kwargs)
            cells.append((clock() - opened.at) * 1000.0)
            return result

        harness.run_task = run_task
        start = clock()
        try:
            result = harness.evaluate(self.suite, self.config, repeats=repeats, jobs=jobs, backend_factory=factory)
            harness.report(result, self.work / "report")
        except Exception as exc:  # one broken eval is a measured failure, not a crash
            self.fail(len(self.expected) * repeats, f"evaluate raised {type(exc).__name__}: {exc}")
            return None, clock() - start, []
        finally:
            harness.run_task = inner
        wall = clock() - start
        self.check(result, repeats)
        return result, wall, cells

    def fail(self, runs: int, message: str) -> None:
        self.attempted += runs
        self.failed += runs
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, result: Any, repeats: int) -> None:
        """Count every run; a run that differs from its authored outcome fails."""
        self.attempted += len(result.runs)
        missing = len(self.expected) * repeats - len(result.runs)
        if missing:
            self.fail(missing, f"{missing} runs missing from the result")
        for run in result.runs:
            want = self.expected[run.task_id]
            got = {field: getattr(run, field) for field in CHECKED}
            if got != want:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{run.task_id} repeat {run.repeat}: got {got}, authored {want}")

    def check_traces(self, got: dict[str, set[str]], want: dict[str, set[str]], what: str) -> None:
        for task_id in sorted(set(want) | set(got)):
            if got.get(task_id) != want.get(task_id) or len(want.get(task_id, ())) != 1:
                self.fail(1, f"{task_id}: {what} trace differs")

    # -- the two kinds of run -------------------------------------------------

    def end_to_end(self, seconds: float, reference: dict[str, set[str]], prompt_chars: float) -> dict[str, Any]:
        self.run_eval()  # warm-up: lazy set-up and caches
        rates, cells = [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            result, wall, cell_ms = self.run_eval()
            if result is None:
                break
            rates.append(len(result.runs) / wall)
            cells.extend(cell_ms)
        with trace_hashes() as hashes:
            self.run_eval(repeats=1)
        self.check_traces(hashes, reference, f"{self.workload.backend} vs scripted")
        tail_ms, tail_beyond = tail(cells, self.workload.tail_pct) if cells else (0.0, 0)
        return {
            "metrics": {
                "runs_per_s": statistics.median(rates) if rates else 0.0,
                "run_ms_p50": statistics.median(cells) if cells else 0.0,
                "run_ms_tail": tail_ms,
                "prompt_chars_per_call": prompt_chars,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            "info": {"evals": len(rates), "cells": len(cells), "tail_pct": self.workload.tail_pct,
                     "tail_beyond": tail_beyond},
        }

    def layered(self, seconds: float) -> dict[str, Any]:
        from dualreflect import harness
        from dualreflect.model import ExecutionStatus

        load_ms = []
        for _ in range(5):
            start = time.perf_counter()
            harness.load_suite(self.suite)
            load_ms.append((time.perf_counter() - start) * 1000.0)
        self.run_eval()  # warm-up

        tracer = Tracer({
            "backend.ChatBackend.complete": Probe(cpu=True, samples=True),
            "agents.gate": Probe(ok=lambda passed: passed is True),
            "sandbox.SandboxSession.execute": Probe(ok=lambda r: r.status is ExecutionStatus.OK),
            "memory.LongTermMemory.render": Probe(size=len),
        })
        plain, traced = [], []
        runs = rounds = requests = 0
        service_us: list[int] = []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds * TRACED_SHARE:
            plain.append(self.run_eval()[1])
            before = self.stub_stats()
            tracer.install()
            try:
                result, wall, _ = self.run_eval()
            finally:
                tracer.uninstall()
            after = self.stub_stats()
            if result is None:
                break
            traced.append(wall)
            runs += len(result.runs)
            rounds += sum(r.rounds_used for r in result.runs)
            requests += after["requests"] - before["requests"]
            service_us.extend(after["service_us"][len(before["service_us"]):])

        with trace_hashes() as untraced_hashes:
            self.run_eval(repeats=1)
        tracer_check = Tracer()
        tracer_check.install()
        try:
            with trace_hashes() as traced_hashes:
                self.run_eval(repeats=1)
        finally:
            tracer_check.uninstall()
        self.check_traces(traced_hashes, untraced_hashes, "traced vs untraced")

        by_jobs: dict[int, list[float]] = {1: [], 2: []}
        while not by_jobs[2] or time.perf_counter() - start < seconds:
            for jobs in (1, 2):
                by_jobs[jobs].append(self.run_eval(jobs=jobs)[1])

        st = tracer.stat
        calls = max(1, st("backend.ChatBackend.complete").count)
        runs = max(1, runs)
        per_call = lambda name: st(name).total_ns / 1000.0 / calls  # noqa: E731
        complete = st("backend.ChatBackend.complete")
        call_ms = [ns / 1e6 for ns in complete.samples] or [0.0]
        extracts, validates = st("promptkit.extract_json"), st("promptkit.validate_output")
        gate, execute = st("agents.gate"), st("sandbox.SandboxSession.execute")
        ltm, emit = st("memory.LongTermMemory.render"), st("orchestrator.TraceRecorder.emit")
        client_us = complete.total_ns / 1000.0 / calls
        served_us = statistics.fmean(service_us) if service_us else 0.0
        metrics = {
            "harness.load_suite_ms": statistics.median(load_ms),
            "harness.script_loads_per_run": st("harness.TaskBundle.make_backend").count / runs,
            "harness.script_load_us_per_run": st("harness.TaskBundle.make_backend").total_ns / 1000.0 / runs,
            "harness.report_ms": st("harness.report").total_ns / 1e6 / max(1, st("harness.report").count),
            "harness.jobs_speedup": statistics.median(by_jobs[1]) / statistics.median(by_jobs[2]),
            "backend.calls_per_run": complete.count / runs,
            "backend.call_ms_p50": statistics.median(call_ms),
            "backend.call_ms_tail": tail(call_ms, self.workload.tail_pct)[0],
            "backend.overhead_us_per_call": client_us - served_us,
            "backend.cpu_us_per_call": complete.cpu_ns / 1000.0 / calls,
            "backend.connections_opened": self.stub_stats()["connections"],
            "backend.retries": max(0, requests - complete.count) if self.stub is not None else 0,
            "backend.stub_service_ms_p50": statistics.median(service_us) / 1000.0 if service_us else 0.0,
            "promptkit.render_us_per_call": per_call("promptkit.render"),
            "promptkit.render_trajectory_us_per_call": per_call("promptkit.render_trajectory"),
            "promptkit.extract_us_per_call": per_call("promptkit.extract_json"),
            "promptkit.validate_us_per_call": per_call("promptkit.validate_output"),
            "promptkit.parse_fail_ratio": (extracts.errors + validates.errors) / max(1, extracts.count),
            "agents.self_us_per_call": tracer.layer_self_ns("agents") / 1000.0 / calls,
            "agents.prompt_hash_us_per_call": per_call("agents.prompt_hash"),
            "agents.gate_pass_ratio": gate.ok / max(1, gate.count),
            "memory.ltm_render_us_per_call": per_call("memory.LongTermMemory.render"),
            "memory.stm_render_us_per_call": per_call("memory.ShortTermMemory.render"),
            "memory.ltm_chars_mean": ltm.size / max(1, ltm.count),
            "sandbox.execute_us": execute.total_ns / 1000.0 / max(1, execute.count),
            "sandbox.ok_ratio": execute.ok / max(1, execute.count),
            "orchestrator.self_us_per_run": tracer.layer_self_ns("orchestrator") / 1000.0 / runs,
            "orchestrator.emit_us_per_event": emit.total_ns / 1000.0 / max(1, emit.count),
            "orchestrator.events_per_run": emit.count / runs,
            "orchestrator.rounds_per_run": rounds / runs,
            "model.validate_task_us_per_run": st("model.validate_task").total_ns / 1000.0 / runs,
            "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0 if traced else 0.0,
        }
        layers = {
            name: {"spans": s.count, "total_ms": s.total_ns / 1e6, "self_ms": s.self_ns / 1e6}
            for name, s in sorted(tracer.stats.items()) if s.count
        }
        return {"metrics": metrics, "info": {"traced_evals": len(traced), "spans": layers}}


def cmd_measure(work: str, name: str, seconds: str, trace: str) -> None:
    bench = Bench(Path(work), WORKLOADS[name])
    try:
        reference, prompt_chars = bench.capture()
        if bench.workload.backend == "http":
            bench.start_stub()
        if trace == "1":
            out = bench.layered(float(seconds))
        else:
            out = bench.end_to_end(float(seconds), reference, prompt_chars)
        stub = bench.stub_stats()
    finally:
        bench.stop_stub()
    if stub["unknown"]:
        bench.errors.append(f"stub saw {stub['unknown']} requests with no recorded reply")
    out.update(attempted=bench.attempted, failed=bench.failed, errors=bench.errors, env_vars=len(os.environ))
    print(json.dumps(out))


def main(argv: list[str]) -> int:
    if argv[:1] == ["measure"] and len(argv) == 5:
        cmd_measure(*argv[1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        sys.exit(1)
