"""Tests of the benchmark's own parts: generators, stub, percentile helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from metrics import LAYER_MAP, percentile, tail  # noqa: E402
from stub import request_key  # noqa: E402
from workloads import MIXED, THRESHOLDS, WORKLOADS, generate, write_suite  # noqa: E402

SMALL = dataclasses.replace(MIXED, n_tasks=12, repeats=2)


def test_generator_is_a_function_of_the_seed():
    assert generate(SMALL, 5) == generate(SMALL, 5)
    assert generate(SMALL, 5) != generate(SMALL, 6)


def test_seed_varies_content_not_shape():
    def shape(seed: int) -> list[list[str]]:
        return [[step["hint"] for step in t["steps"]] for t in generate(SMALL, seed)]

    assert shape(5) == shape(6)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_descriptions_and_subtasks_are_unique_per_task(workload):
    profile = dataclasses.replace(WORKLOADS[workload].profile, n_tasks=8)
    tasks = generate(profile, 3)
    descriptions = [t["task"]["description"] for t in tasks]
    assert len(set(descriptions)) == len(descriptions)
    owner: dict[str, str] = {}
    for t in tasks:
        for step in t["steps"]:
            if step["hint"].startswith("planner") and not step["hint"].endswith("(garbage)"):
                for node in json.loads(step["text"])["nodes"]:
                    assert owner.setdefault(node["subtask"], t["task"]["id"]) == t["task"]["id"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_engine_reproduces_authored_outcomes(workload, tmp_path):
    from dualreflect.harness import evaluate
    from dualreflect.model import RunConfig, Thresholds

    profile = dataclasses.replace(WORKLOADS[workload].profile, n_tasks=8)
    tasks = generate(profile, 11)
    write_suite(tasks, tmp_path / "suite")
    expected = json.loads((tmp_path / "expected.json").read_text())
    config = RunConfig(thresholds=Thresholds(**THRESHOLDS), max_rounds=profile.max_rounds)
    result = evaluate(tmp_path / "suite", config, repeats=1)
    assert len(result.runs) == len(tasks)
    for run in result.runs:
        got = {field: getattr(run, field) for field in expected[run.task_id]}
        assert got == expected[run.task_id], run.task_id


@pytest.fixture
def stub(tmp_path):
    replies = tmp_path / "replies.jsonl"
    messages = [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}]
    entry = {"key": request_key(messages, 0.0), "text": "hello", "prompt_tokens": 3, "completion_tokens": 1}
    replies.write_text(json.dumps(entry) + "\n")
    proc = subprocess.Popen([sys.executable, str(BENCH / "stub.py"), str(replies), "1"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    port = int(proc.stdout.readline().split()[1])
    yield port, messages
    proc.stdin.close()
    proc.wait(timeout=10)
    proc.stdout.close()


def _post(conn: http.client.HTTPConnection, messages: list[dict[str, str]]) -> tuple[int, bytes]:
    body = json.dumps({"model": "m", "messages": messages, "temperature": 0.0})
    conn.request("POST", "/chat/completions", body, {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


def test_stub_answers_by_content_on_any_connection(stub):
    port, messages = stub

    def session(_: int) -> list[tuple[int, bytes]]:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            return [_post(conn, messages) for _ in range(3)]
        finally:
            conn.close()

    with ThreadPoolExecutor(max_workers=2) as pool:
        answers = [a for batch in pool.map(session, range(2)) for a in batch]
    assert len(set(answers)) == 1
    status, raw = answers[0]
    assert status == 200
    assert json.loads(raw)["choices"][0]["message"]["content"] == "hello"

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    assert _post(conn, [{"role": "user", "content": "never recorded"}])[0] == 404
    conn.request("GET", "/stats")
    stats = json.loads(conn.getresponse().read())
    conn.close()
    assert (stats["requests"], stats["unknown"], stats["connections"]) == (7, 1, 3)
    assert len(stats["service_us"]) == 7 and min(stats["service_us"]) >= 1000


@pytest.mark.parametrize("jobs", [1, 2])
def test_every_cell_is_timed(jobs, tmp_path):
    from worker import Bench

    write_suite(generate(SMALL, 5), tmp_path / "suite")
    bench = Bench(tmp_path, dataclasses.replace(WORKLOADS["scripted-mixed"], profile=SMALL))
    result, wall, cells = bench.run_eval(jobs=jobs)
    assert len(cells) == len(result.runs) == SMALL.n_tasks * SMALL.repeats
    assert bench.failed == 0
    assert 0 < min(cells) and max(cells) < wall * 1000.0


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(list(reversed(samples)), 99) == 99
    assert percentile([7.0], 99.9) == 7.0


def test_tail_counts_samples_beyond():
    assert tail(list(range(1000)), 99.0) == (989, 10)
    assert tail(list(reversed(range(100))), 95.0) == (94, 5)
    assert tail([7.0], 99.9) == (7.0, 0)


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["why"] for w in bench["workloads"]] == [WORKLOADS[w["name"]].why for w in bench["workloads"]]
    assert [m["name"] for m in bench["per_layer"]] == list(LAYER_MAP)
    assert "setup_s" in [m["name"] for m in bench["end_to_end"]]
