"""Acceptance suite: every criterion as tests, one summary line each.

Runs fully offline on scripted backends. The terminal summary (see
conftest) prints one PASS/FAIL line per criterion.
"""

import json
import time
from pathlib import Path

import pytest

from dualreflect.agents import gate, prompt_hash
from dualreflect.backend import RecordingBackend, HttpBackend, ScriptedBackend, script_from_jsonl
from dualreflect.harness import check_success, evaluate
from dualreflect.model import RunConfig, Thresholds
from dualreflect.orchestrator import events_to_jsonl, fold_event_tokens, run_task
from dualreflect.promptkit import (
    PLACEHOLDERS,
    MalformedJson,
    NoJsonFound,
    OutputKind,
    SchemaError,
    extract_json,
    validate_output,
)
from http_stub import serve_script
from scenarios import (
    CASE_PAYLOADS,
    answer_contains,
    answer_json,
    build_random_scenario,
    case_study_config,
    case_study_registry,
    case_study_steps,
    case_study_task,
    make_backend,
    make_registry,
    make_task,
    manifest_mismatches,
    planner_json,
    step,
    tool_json,
    write_bundle,
)
from trace_checks import check_gates, check_memory_lifecycle

N_SCENARIOS = 200
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def scenario_runs():
    """All randomized scenarios, run once and shared across criteria."""
    runs = []
    for seed in range(N_SCENARIOS):
        scenario = build_random_scenario(seed)
        backend = scenario.backend()
        result = run_task(scenario.task, scenario.config, backend, scenario.registry)
        runs.append((scenario, backend, result))
    return runs


# --- criterion 1: the two-round correction case study ---------------------------


def expected_case_study_events():
    task = "city-day-trip"

    def ev(seq, rnd, kind, **fields):
        return {"seq": seq, "round": rnd, "task": task, "kind": kind, **fields}

    def call(seq, rnd, agent, attempt, i):
        return ev(seq, rnd, "agent_call", agent=agent, attempt=attempt, parse_try=0,
                  prompt_tokens=200 + 10 * i, completion_tokens=40 + 5 * i)

    def out(seq, rnd, agent, attempt, score, accepted, divergence=False):
        return ev(seq, rnd, "agent_output", agent=agent, attempt=attempt, score=score,
                  accepted=accepted, divergence=divergence)

    def execute(seq, rnd, node, function, query, score):
        return ev(seq, rnd, "execute", node=node, attempt=1, function=function,
                  parameters={"city": "Paris", "query": query}, status="ok",
                  payload=CASE_PAYLOADS[function], score=score, forced=False, divergence=False)

    def stm_reset(seq, rnd, node, reason="subtask_success", cleared=0):
        return ev(seq, rnd, "stm_reset", node=node, reason=reason, cleared=cleared)

    events = [
        ev(0, 1, "round_start"),
        call(1, 1, "planner", 1, 0),
        out(2, 1, "planner", 1, 9, True),
        # Subtask 1: flawed parameter pick caught by the gate before any
        # execution, then the corrected call runs.
        call(3, 1, "tool", 1, 1),
        out(4, 1, "tool", 1, 6, False),
        call(5, 1, "tool", 2, 2),
        out(6, 1, "tool", 2, 9, True),
        execute(7, 1, "r1n1", "find_exhibition", "exhibitions on 2026-09-12", 9),
        stm_reset(8, 1, "r1n1"),
        call(9, 1, "tool", 1, 3),
        out(10, 1, "tool", 1, 8, True),
        execute(11, 1, "r1n2", "check_weather", "2026-09-12", 8),
        stm_reset(12, 1, "r1n2"),
        call(13, 1, "tool", 1, 4),
        out(14, 1, "tool", 1, 9, True),
        execute(15, 1, "r1n3", "book_table", "lunch 12:30", 9),
        stm_reset(16, 1, "r1n3"),
        call(17, 1, "answer", 1, 5),
        out(18, 1, "answer", 1, 7, False),
        ev(19, 1, "ltm_append", round_index=1, records=1),
        ev(20, 1, "round_end", outcome="rejected", plan_score=9, plan_forced=False,
           plan_attempts=1, nodes_total=3, nodes_succeeded=3, answer_score=7),
        ev(21, 2, "round_start"),
        call(22, 2, "planner", 1, 6),
        out(23, 2, "planner", 1, 9, True),
        call(24, 2, "tool", 1, 7),
        out(25, 2, "tool", 1, 9, True),
        execute(26, 2, "r2n1", "find_exhibition", "exhibitions on 2026-09-12", 9),
        stm_reset(27, 2, "r2n1"),
        call(28, 2, "tool", 1, 8),
        out(29, 2, "tool", 1, 8, True),
        execute(30, 2, "r2n2", "check_weather", "2026-09-12", 8),
        stm_reset(31, 2, "r2n2"),
        call(32, 2, "tool", 1, 9),
        out(33, 2, "tool", 1, 9, True),
        execute(34, 2, "r2n3", "book_table", "lunch 12:30", 9),
        stm_reset(35, 2, "r2n3"),
        call(36, 2, "tool", 1, 10),
        out(37, 2, "tool", 1, 9, True),
        execute(38, 2, "r2n4", "estimate_budget", "tickets+lunch+transit", 9),
        stm_reset(39, 2, "r2n4"),
        call(40, 2, "answer", 1, 11),
        out(41, 2, "answer", 1, 9, True),
        ev(42, 2, "round_end", outcome="accepted", plan_score=9, plan_forced=False,
           plan_attempts=1, nodes_total=4, nodes_succeeded=4, answer_score=9),
        stm_reset(43, 2, "r2n4", reason="run_end"),
        ev(44, 2, "ltm_reset", reason="accepted", cleared=1),
        ev(45, 2, "run_end", status="accepted", rounds_used=2, final_round=2,
           prompt_tokens=3060, completion_tokens=810, backend_calls=12, answer_score=9),
    ]
    return events


@pytest.mark.criterion(1, "case-study scenario reproduces the two-round flow event-for-event")
class TestCriterion1CaseStudy:
    def run_case(self):
        backend = ScriptedBackend(case_study_steps())
        started = time.perf_counter()
        result = run_task(case_study_task(), case_study_config(), backend, case_study_registry())
        elapsed = time.perf_counter() - started
        return backend, result, elapsed

    def test_exact_trace_event_for_event(self):
        backend, result, elapsed = self.run_case()
        assert elapsed < 1.0
        expected = expected_case_study_events()
        actual = [dict(e) for e in result.events]
        hashes = [e.pop("prompt_hash") for e in actual if e["kind"] == "agent_call"]
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got == want, f"seq {want['seq']}"
        # Hashes correspond 1:1 to the prompts actually sent.
        assert hashes == [prompt_hash(req.system, req.user) for req in backend.requests]

    def test_narrative_checkpoints(self):
        _, result, _ = self.run_case()
        assert result.status.value == "accepted" and result.rounds_used == 2
        # Round-1 flawed pick never reached the executor.
        round1_execs = [e for e in result.events if e["kind"] == "execute" and e["round"] == 1]
        assert all(e["status"] == "ok" for e in round1_execs)
        assert len(round1_execs) == 3
        # Round 2 planned one extra node.
        ends = [e for e in result.events if e["kind"] == "round_end"]
        assert ends[0]["nodes_total"] == 3 and ends[1]["nodes_total"] == 4
        assert check_success(case_study_task(), result) is True


# --- criterion 2: memory lifecycle over randomized scenarios --------------------


@pytest.mark.criterion(2, "memory lifecycle holds across randomized scenarios")
def test_memory_lifecycle_zero_violations(scenario_runs):
    assert len(scenario_runs) >= 200
    violations = []
    for scenario, _, result in scenario_runs:
        found = check_memory_lifecycle(result.events)
        if found:
            violations.append((scenario.seed, found))
        ltm_reset = next(e for e in result.events if e["kind"] == "ltm_reset")
        if ltm_reset["cleared"] != scenario.expected_failed_rounds:
            violations.append((scenario.seed, ["ltm size at reset diverged from authored failed rounds"]))
    assert violations == []


@pytest.mark.criterion(2, "memory lifecycle holds across randomized scenarios")
def test_memories_empty_in_every_terminal_status(scenario_runs):
    statuses = {result.status.value for _, _, result in scenario_runs}
    assert statuses >= {"accepted", "exhausted"}  # both terminal kinds exercised
    # Aborted path covered explicitly:
    task = make_task(["alpha"], task_id="abort-memcheck")
    result = run_task(
        task,
        RunConfig(thresholds=Thresholds(9, 8, 8)),
        make_backend([step("junk")] * 3),
        make_registry(["alpha"]),
    )
    assert result.status.value == "aborted"
    assert check_memory_lifecycle(result.events) == []


# --- criterion 3: gate semantics -------------------------------------------------


@pytest.mark.criterion(3, "no ungated output ever proceeds; gate is uniformly score >= theta")
def test_gate_suite_zero_violations(scenario_runs):
    violations = []
    for scenario, _, result in scenario_runs:
        found = check_gates(result.events, scenario.config.thresholds)
        if found:
            violations.append((scenario.seed, found))
    assert violations == []


@pytest.mark.criterion(3, "no ungated output ever proceeds; gate is uniformly score >= theta")
@pytest.mark.parametrize("threshold", range(2, 11))
def test_gate_boundaries(threshold):
    assert gate(threshold, threshold) is True
    assert gate(threshold - 1, threshold) is False


@pytest.mark.criterion(3, "no ungated output ever proceeds; gate is uniformly score >= theta")
def test_boundary_score_executes_without_revision():
    task = make_task(["alpha"], task_id="boundary")
    steps = [
        step(planner_json([("n1", "s", "alpha")], 9)),
        step(tool_json("alpha", {"q": "x"}, 8)),  # exactly theta_t
        step(answer_json("done at 8", 8)),  # exactly theta_a
    ]
    result = run_task(
        task, RunConfig(thresholds=Thresholds(9, 8, 8)), make_backend(steps), make_registry(["alpha"])
    )
    assert result.status.value == "accepted"
    execute = next(e for e in result.events if e["kind"] == "execute")
    assert execute["score"] == 8 and execute["forced"] is False


# --- criterion 4: rounds-cap semantics -------------------------------------------


def accept_at_k_materials(k, total_rounds=7):
    marker = f"FINAL-ANSWER-R{k}"
    task = make_task(
        ["alpha"], predicate=answer_contains([marker]), task_id=f"accept-at-{k}"
    )
    steps = []
    for r in range(1, total_rounds + 1):
        steps.append(step(planner_json([(f"r{r}n1", "poke", "alpha")], 9)))
        steps.append(step(tool_json("alpha", {"q": f"round {r}"}, 9)))
        text = f"Completed with {marker}." if r == k else f"Weak summary {r}."
        steps.append(step(answer_json(text, 9 if r == k else 7)))
    return task, steps


@pytest.mark.criterion(4, "accept-at-round-k passes iff max_rounds >= k; best answer on exhaustion")
@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("max_rounds", range(1, 8))
def test_rounds_cap_exact(k, max_rounds):
    task, steps = accept_at_k_materials(k)
    cfg = RunConfig(thresholds=Thresholds(9, 8, 8), max_rounds=max_rounds)
    result = run_task(task, cfg, make_backend(steps), make_registry(["alpha"]))
    passed = result.status.value != "aborted" and check_success(task, result)
    assert passed is (max_rounds >= k)
    if max_rounds >= k:
        assert result.status.value == "accepted" and result.rounds_used == k
    else:
        assert result.status.value == "exhausted" and result.rounds_used == max_rounds


@pytest.mark.criterion(4, "accept-at-round-k passes iff max_rounds >= k; best answer on exhaustion")
def test_exhausted_best_answer_tie_breaks_to_earliest():
    task = make_task(["alpha"], task_id="ties")
    steps = []
    for r, score in enumerate([7, 7, 6], 1):
        steps.append(step(planner_json([(f"r{r}n1", "s", "alpha")], 9)))
        steps.append(step(tool_json("alpha", {"q": str(r)}, 9)))
        steps.append(step(answer_json(f"round {r} answer", score)))
    cfg = RunConfig(thresholds=Thresholds(9, 8, 8), max_rounds=3)
    result = run_task(task, cfg, make_backend(steps), make_registry(["alpha"]))
    assert result.status.value == "exhausted"
    assert result.final_round == 1 and result.final_answer.text == "round 1 answer"


# --- criterion 5: determinism and replay ------------------------------------------


@pytest.mark.criterion(5, "double runs are byte-identical; record/replay needs zero network")
def test_double_runs_byte_identical():
    fixtures = [build_random_scenario(seed) for seed in range(60)]
    for scenario in fixtures:
        first = run_task(scenario.task, scenario.config, scenario.backend(), scenario.registry)
        second = run_task(scenario.task, scenario.config, scenario.backend(), scenario.registry)
        assert events_to_jsonl(first.events) == events_to_jsonl(second.events), scenario.seed
    case_first = run_task(case_study_task(), case_study_config(), ScriptedBackend(case_study_steps()), case_study_registry())
    case_second = run_task(case_study_task(), case_study_config(), ScriptedBackend(case_study_steps()), case_study_registry())
    assert events_to_jsonl(case_first.events) == events_to_jsonl(case_second.events)


@pytest.mark.criterion(5, "double runs are byte-identical; record/replay needs zero network")
def test_record_then_replay_through_http_stub(tmp_path):
    trace_path = tmp_path / "recorded.jsonl"
    with serve_script(case_study_steps()) as (base_url, server):
        live = RecordingBackend(HttpBackend(base_url=base_url, model="default", sleep=lambda _: None), trace_path)
        recorded = run_task(case_study_task(), case_study_config(), live, case_study_registry())
        network_calls = len(server.requests)
        assert network_calls == 12
        replay = ScriptedBackend(script_from_jsonl(trace_path.read_text(encoding="utf-8")))
        replayed = run_task(case_study_task(), case_study_config(), replay, case_study_registry())
        assert len(server.requests) == network_calls  # zero new network traffic
    assert events_to_jsonl(recorded.events) == events_to_jsonl(replayed.events)
    assert recorded.status.value == "accepted"


# --- criterion 6: exact token accounting ------------------------------------------


@pytest.mark.criterion(6, "token totals equal the fold over trace events, exactly")
def test_token_totals_exact_everywhere(scenario_runs):
    for scenario, backend, result in scenario_runs:
        folded = fold_event_tokens(result.events)
        assert result.token_totals == folded
        assert backend.token_totals() == folded
        run_end = result.events[-1]
        assert run_end["kind"] == "run_end"
        assert (run_end["prompt_tokens"], run_end["completion_tokens"], run_end["backend_calls"]) == (
            folded.prompt_tokens,
            folded.completion_tokens,
            folded.calls,
        )
        declared = scenario.steps[: folded.calls]
        assert folded.prompt_tokens == sum(s.response.prompt_tokens for s in declared)
        assert folded.completion_tokens == sum(s.response.completion_tokens for s in declared)


# --- criterion 7: extraction corpus ------------------------------------------------


@pytest.mark.criterion(7, "extraction corpus: 100% expected outcomes on >= 20 fixtures")
def test_extraction_corpus_outcomes():
    corpus = json.loads((FIXTURES / "extract_json_corpus.json").read_text(encoding="utf-8"))
    assert len(corpus) >= 20
    failures = []
    for entry in corpus:
        try:
            if entry["expect"] == "object":
                value = extract_json(entry["raw"])
                if value != entry["object"]:
                    failures.append(entry["name"])
                    continue
                spec = entry.get("validate")
                if spec:
                    try:
                        result = validate_output(value, OutputKind(spec["kind"]))
                        ok = spec["outcome"] == "ok"
                        if ok and "score" in spec and result.reflection.score != spec["score"]:
                            ok = False
                        if ok and "clamped" in spec and result.reflection.clamped is not spec["clamped"]:
                            ok = False
                        if not ok:
                            failures.append(entry["name"])
                    except SchemaError:
                        if spec["outcome"] != "schema_error":
                            failures.append(entry["name"])
            elif entry["expect"] == "no_json":
                try:
                    extract_json(entry["raw"])
                    failures.append(entry["name"])
                except NoJsonFound:
                    pass
            else:
                try:
                    extract_json(entry["raw"])
                    failures.append(entry["name"])
                except MalformedJson as exc:
                    if "offset" in entry and exc.offset != entry["offset"]:
                        failures.append(entry["name"])
        except Exception:  # noqa: BLE001 - any stray error is a corpus failure
            failures.append(entry["name"])
    assert failures == []


# --- criterion 8: histogram aggregation --------------------------------------------


@pytest.mark.criterion(8, "score histograms equal the scenarios' declared score multisets")
def test_histograms_match_declared_scores(scenario_runs):
    for scenario, _, result in scenario_runs:
        observed: dict[str, list[int]] = {"planner": [], "tool": [], "answer": []}
        for event in result.events:
            if event["kind"] == "agent_output":
                observed[event["agent"]].append(event["score"])
        assert observed == scenario.declared_scores, scenario.seed


@pytest.mark.criterion(8, "score histograms equal the scenarios' declared score multisets")
def test_harness_histogram_pipeline(tmp_path):
    scenario = build_random_scenario(3)
    write_bundle(tmp_path / "one", scenario.task, scenario.registry, scenario.steps)
    suite = evaluate(tmp_path, scenario.config)
    for agent, scores in scenario.declared_scores.items():
        expected = [0] * 10
        for score in scores:
            expected[score - 1] += 1
        assert list(suite.histograms[agent]) == expected


# --- criterion 9: prompt fidelity ---------------------------------------------------


@pytest.mark.criterion(9, "templates hash-match golden copies; no unfilled placeholders")
def test_template_hashes_match_golden_manifest():
    assert manifest_mismatches() == []


@pytest.mark.criterion(9, "templates hash-match golden copies; no unfilled placeholders")
def test_no_unfilled_placeholders_across_scenario_suite(scenario_runs):
    markers = {f"{{{name}}}" for names in PLACEHOLDERS.values() for name in names}
    offenders = []
    for scenario, backend, _ in scenario_runs:
        for request in backend.requests:
            for marker in markers:
                if marker in request.system or marker in request.user:
                    offenders.append((scenario.seed, marker))
    case_backend = ScriptedBackend(case_study_steps())
    run_task(case_study_task(), case_study_config(), case_backend, case_study_registry())
    for request in case_backend.requests:
        for marker in markers:
            assert marker not in request.system and marker not in request.user
    assert offenders == []
