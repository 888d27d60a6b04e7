"""Gating, revision loops, parse retries, and prompt assembly per agent."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualreflect import agents
from dualreflect.agents import AgentRunner, ParseExhausted, gate, prompt_hash
from dualreflect.backend import ScriptedBackend
from dualreflect.memory import LongTermMemory, ShortTermMemory
from dualreflect.model import (
    ExecutionResult,
    ExecutionStatus,
    IntraReflection,
    Plan,
    PlanNode,
    RunConfig,
    Thresholds,
    ToolCall,
    TrajectoryStep,
)
from dualreflect.promptkit import TemplateName, default_templates, describe_result, render_trajectory
from scenarios import GARBAGE, answer_json, cyclic_garbage, make_task, planner_json, step, tool_json

TOOLS = ["alpha", "beta"]
TASK = make_task(TOOLS, task_id="agents-task")
TEMPLATES = default_templates()


def config(theta_p=9, theta_t=8, theta_a=8, revision_cap=3, parse_retry_cap=2):
    return RunConfig(
        thresholds=Thresholds(theta_p=theta_p, theta_t=theta_t, theta_a=theta_a),
        revision_cap=revision_cap,
        parse_retry_cap=parse_retry_cap,
    )


def runner(steps, cfg=None, events=None):
    backend = ScriptedBackend(steps)
    sink = events if events is not None else []
    emit = lambda kind, **fields: sink.append({"kind": kind, **fields})
    return AgentRunner(TASK, backend, cfg or config(), emit), backend


def nodes(*functions):
    return [(f"n{i}", f"use {fn}", fn) for i, fn in enumerate(functions, 1)]


def answer_trajectory():
    """The answer prompt's trajectory text for a two-node round of three steps."""
    plan = Plan(
        nodes=(PlanNode("n1", "s1", "alpha"), PlanNode("n2", "s2", "beta")),
        reflection=IntraReflection(evaluation="plan", score=9),
    )
    steps = []
    for i, node in enumerate(plan.nodes, 1):
        call = ToolCall(node.function, {"q": f"v{i}"}, IntraReflection(evaluation=f"pick {i}", score=8))
        steps.append(TrajectoryStep(node.id, call, ExecutionResult(ExecutionStatus.OK, f"obs {i}"), 1))
    call = ToolCall("alpha", {"q": "retry"}, IntraReflection(evaluation="pick 3", score=9))
    steps.append(TrajectoryStep("n2", call, ExecutionResult(ExecutionStatus.OK, "obs 3"), 2))
    return render_trajectory(plan, steps)


class TestGate:
    @pytest.mark.parametrize(
        "score, threshold, expected",
        [(9, 9, True), (8, 9, False), (10, 8, True), (1, 1, True), (7, 8, False)],
    )
    def test_uniform_at_least_semantics(self, score, threshold, expected):
        assert gate(score, threshold) is expected


class TestPlanner:
    def test_revision_until_gate_passes(self):
        steps = [
            step(planner_json(nodes("alpha"), 7, "too shallow")),
            step(planner_json(nodes("alpha", "beta"), 9, "covers everything")),
        ]
        r, backend = runner(steps)
        outcome = r.plan(LongTermMemory(TEMPLATES))
        assert backend.token_totals().calls == 2
        assert outcome.attempts == 2 and outcome.passed is True
        assert len(outcome.accepted.nodes) == 2

    def test_rejected_attempt_is_quoted_in_revision_prompt(self):
        steps = [
            step(planner_json(nodes("alpha"), 7, "the first try missed the beta half")),
            step(planner_json(nodes("alpha", "beta"), 9)),
        ]
        r, backend = runner(steps)
        r.plan(LongTermMemory(TEMPLATES))
        revision_prompt = backend.requests[1].user
        assert "the first try missed the beta half" in revision_prompt
        assert "Previous Rejected Attempts:" in revision_prompt
        assert backend.requests[0].user != revision_prompt

    def test_cap_exhaustion_returns_best_attempt_forced(self):
        steps = [
            step(planner_json(nodes("alpha"), 5, "a")),
            step(planner_json(nodes("beta"), 5, "b")),
            step(planner_json(nodes("alpha", "beta"), 5, "c")),
        ]
        r, _ = runner(steps)
        outcome = r.plan(LongTermMemory(TEMPLATES))
        assert outcome.passed is False and outcome.attempts == 3
        assert outcome.accepted.reflection.evaluation == "a"  # ties -> earliest

    def test_best_of_attempts_prefers_higher_score(self):
        steps = [
            step(planner_json(nodes("alpha"), 5, "low")),
            step(planner_json(nodes("beta"), 8, "higher")),
            step(planner_json(nodes("alpha"), 6, "middle")),
        ]
        r, _ = runner(steps)
        outcome = r.plan(LongTermMemory(TEMPLATES))
        assert outcome.accepted.reflection.evaluation == "higher"

    def test_unknown_function_consumes_parse_retry(self):
        steps = [
            step(planner_json(nodes("gamma"), 9, "references an unknown tool")),
            step(planner_json(nodes("alpha"), 9, "fixed")),
        ]
        r, backend = runner(steps)
        outcome = r.plan(LongTermMemory(TEMPLATES))
        assert outcome.accepted.nodes[0].function == "alpha"
        assert backend.token_totals().calls == 2
        assert "Correction:" in backend.requests[1].user

    def test_too_many_nodes_gets_one_correction(self):
        limit = AgentRunner.MAX_NODES
        steps = [
            step(planner_json(nodes(*["alpha"] * (limit + 1)), 9, "one subtask too many")),
            step(planner_json(nodes(*["alpha"] * limit), 9, "at the limit")),
        ]
        r, backend = runner(steps)
        outcome = r.plan(LongTermMemory(TEMPLATES))
        assert len(outcome.accepted.nodes) == limit and outcome.passed is True
        assert backend.token_totals().calls == 2
        assert f"nodes: {limit + 1} subtasks, more than the limit of {limit}" in backend.requests[1].user

    def test_huge_plan_is_refused_before_validation(self, monkeypatch):
        # 100,000 nodes, one of them malformed: the raw count decides, so no node is checked or built.
        huge = [{"id": f"n{i}", "status": 0, "subtask": "s", "function": "alpha"} for i in range(100_000)]
        huge[5]["status"] = 7
        reply = json.dumps({"nodes": huge, "intra_reflection": {"evaluation": "big", "score": 9}})
        validated = []
        real = agents.validate_output
        monkeypatch.setattr(agents, "validate_output", lambda value, kind: validated.append(kind) or real(value, kind))
        r, backend = runner([step(reply), step(planner_json(nodes("alpha"), 9, "small"))])
        outcome = r.plan(LongTermMemory(TEMPLATES))
        assert len(outcome.accepted.nodes) == 1 and backend.token_totals().calls == 2
        assert sum("Correction:" in request.user for request in backend.requests) == 1
        assert "nodes: 100000 subtasks, more than the limit of 32" in backend.requests[1].user
        assert len(validated) == 1  # the second, small reply only

    def test_repeated_too_many_nodes_is_parse_exhausted(self):
        oversized = step(planner_json(nodes(*["beta"] * (AgentRunner.MAX_NODES + 5)), 10))
        r, backend = runner([oversized] * 2, config(parse_retry_cap=1))
        with pytest.raises(ParseExhausted) as excinfo:
            r.plan(LongTermMemory(TEMPLATES))
        assert excinfo.value.agent == "planner" and excinfo.value.tries == 2
        assert backend.token_totals().calls == 2

    @pytest.mark.parametrize("agent", ["planner", "tool", "answer"])
    def test_parse_exhausted_after_all_retries(self, agent):
        cfg = config(parse_retry_cap=2)
        events = []
        r, backend = runner([step(GARBAGE)] * 3, cfg, events)
        invoke = {
            "planner": lambda: r.plan(LongTermMemory(TEMPLATES)),
            "tool": lambda: r.select_tool(PlanNode("n1", "use the tool", "alpha"), [], ShortTermMemory(TEMPLATES)),
            "answer": lambda: r.answer(answer_trajectory()),
        }[agent]
        with pytest.raises(ParseExhausted) as excinfo:
            invoke()
        assert excinfo.value.agent == agent and excinfo.value.tries == 3
        assert backend.token_totals().calls == 3  # 1 + parse_retry_cap
        assert [e["kind"] for e in events] == ["agent_call"] * 3  # no agent_output

    def test_long_memory_slot_filled_with_sentinel_when_fresh(self):
        steps = [step(planner_json(nodes("alpha"), 9))]
        r, backend = runner(steps)
        r.plan(LongTermMemory(TEMPLATES))
        assert "No previous failed trajectories." in backend.requests[0].user


class TestToolAgent:
    def node(self, function="alpha"):
        return PlanNode("n1", "use the tool", function)

    def test_boundary_score_passes(self):
        r, _ = runner([step(tool_json("alpha", {"q": "x"}, 8))])
        outcome = r.select_tool(self.node(), [], ShortTermMemory(TEMPLATES))
        assert outcome.passed is True and outcome.attempts == 1

    def test_revision_carries_prior_reflection_text(self):
        steps = [
            step(tool_json("alpha", {"q": "bad"}, 6, "the query ignores the date")),
            step(tool_json("alpha", {"q": "good"}, 9)),
        ]
        r, backend = runner(steps)
        outcome = r.select_tool(self.node(), [], ShortTermMemory(TEMPLATES))
        assert outcome.attempts == 2 and outcome.accepted.parameters == {"q": "good"}
        assert "the query ignores the date" in backend.requests[1].user

    def test_divergence_flagged_in_events(self):
        events = []
        r, _ = runner([step(tool_json("beta", {"q": "x"}, 9))], events=events)
        outcome = r.select_tool(self.node("alpha"), [], ShortTermMemory(TEMPLATES))
        assert outcome.accepted.function == "beta"
        outputs = [e for e in events if e["kind"] == "agent_output"]
        assert outputs[-1]["divergence"] is True

    def test_no_divergence_for_bound_function(self):
        events = []
        r, _ = runner([step(tool_json("alpha", {"q": "x"}, 9))], events=events)
        r.select_tool(self.node("alpha"), [], ShortTermMemory(TEMPLATES))
        outputs = [e for e in events if e["kind"] == "agent_output"]
        assert outputs[-1]["divergence"] is False

    def test_prompt_includes_related_outputs_and_stm(self):
        stm = ShortTermMemory(TEMPLATES)
        stm.bind(self.node())
        call = ToolCall("alpha", {"q": "old"}, IntraReflection(evaluation="try again", score=8))
        stm.record(call, describe_result(ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, "timeout")))
        r, backend = runner([step(tool_json("alpha", {"q": "x"}, 9))])
        r.select_tool(self.node(), [("n0", "previous observation")], stm)
        prompt = backend.requests[0].user
        assert "n0: previous observation" in prompt
        assert "[simulated_failure] timeout" in prompt
        assert "Given Subtask:\nuse the tool" in prompt

    # Three rejections: a forced gate. Slot markers and non-ASCII text in the
    # quoted values must come back verbatim.
    FORCED = [
        step(tool_json("alpha", {"q": "café {short_memory}"}, 5, "too vague: {subtask}")),
        step(tool_json("beta", {"q": "second"}, 6, "wrong tool")),
        step(tool_json("alpha", {"q": "third"}, 4, "worse")),
    ]

    def test_each_rejected_attempt_quoted_once(self, monkeypatch):
        quoted, real = [], agents.tool_call_to_output_dict
        monkeypatch.setattr(agents, "tool_call_to_output_dict", lambda call: quoted.append(call) or real(call))
        r, _ = runner(self.FORCED)
        outcome = r.select_tool(self.node(), [], ShortTermMemory(TEMPLATES))
        assert outcome.passed is False and outcome.accepted.parameters == {"q": "second"}
        # Each rejected attempt is quoted once, and the last one not at all.
        assert [call.parameters["q"] for call in quoted] == ["café {short_memory}", "second"]

    def test_third_prompt_quotes_attempts_one_and_two(self):
        r, backend = runner(self.FORCED)
        r.select_tool(self.node(), [], ShortTermMemory(TEMPLATES))
        first = (
            "Attempt 1 (rejected, score 5/10):\n"
            '{\n  "function": "alpha",\n  "parameters": {\n    "q": "café {short_memory}"\n  },\n'
            '  "intra_reflection": {\n    "evaluation": "too vague: {subtask}",\n    "score": 5\n  }\n}\n'
            "Its intra-reflection: too vague: {subtask}"
        )
        second = (
            "Attempt 2 (rejected, score 6/10):\n"
            '{\n  "function": "beta",\n  "parameters": {\n    "q": "second"\n  },\n'
            '  "intra_reflection": {\n    "evaluation": "wrong tool",\n    "score": 6\n  }\n}\n'
            "Its intra-reflection: wrong tool"
        )
        header = "\n\nPrevious Rejected Attempts:\n"
        footer = (
            "\nThe attempts above scored below the required quality threshold. "
            "Revise your output to address the weaknesses identified in their intra-reflections."
        )
        base = backend.requests[0].user
        assert [req.user for req in backend.requests] == [
            base,
            base + header + first + footer,
            base + header + first + "\n\n" + second + footer,
        ]

    def test_forced_revision_leaves_no_cyclic_garbage(self):
        # Quoting a rejected attempt must not leave a reference cycle for the
        # collector, whose pauses would land inside runs.
        def forced_revision():
            r, backend = runner(self.FORCED)
            r.select_tool(self.node(), [], ShortTermMemory(TEMPLATES))
            assert len(backend.requests) == 3

        forced_revision()  # warm-up: template and prompt-hash caches
        assert cyclic_garbage(forced_revision) == 0

    def test_unknown_function_from_model_is_schema_failure(self):
        steps = [
            step(tool_json("gamma", {"q": "x"}, 9)),
            step(tool_json("alpha", {"q": "x"}, 9)),
        ]
        r, backend = runner(steps)
        outcome = r.select_tool(self.node(), [], ShortTermMemory(TEMPLATES))
        assert outcome.accepted.function == "alpha"
        assert backend.token_totals().calls == 2


class TestAnswerAgent:
    def test_accepted_at_threshold(self):
        r, _ = runner([step(answer_json("all done", 8))])
        outcome = r.answer(answer_trajectory())
        assert outcome.passed is True and outcome.attempts == 1

    def test_rejected_below_threshold_not_revised(self):
        # revision_cap=3 and a passing reply queued: the answer still gets one attempt.
        r, backend = runner([step(answer_json("meh", 7)), step(answer_json("better", 9))], config(revision_cap=3))
        outcome = r.answer(answer_trajectory())
        assert outcome.passed is False and outcome.attempts == 1
        assert outcome.accepted.text == "meh"
        assert backend.token_totals().calls == 1  # no local revision, ever

    def test_trajectory_rendered_with_action_observation_blocks(self):
        r, backend = runner([step(answer_json("all done", 9))])
        r.answer(answer_trajectory())
        prompt = backend.requests[0].user
        assert prompt.count("Action: ") == 3
        assert prompt.count("Observation: ") == 3
        assert prompt.index("obs 1") < prompt.index("obs 2") < prompt.index("obs 3")
        assert "n2 [succeeded] beta: s2" in prompt  # plan section present

    def test_parse_retry_then_success(self):
        r, backend = runner([step(GARBAGE), step(answer_json("all done", 9))])
        outcome = r.answer(answer_trajectory())
        assert outcome.passed is True and outcome.attempts == 1
        assert backend.token_totals().calls == 2


class TestInvariants:
    def test_backend_calls_bounded_by_caps(self):
        # Worst case: every attempt needs every parse retry, then forced.
        cfg = config(revision_cap=2, parse_retry_cap=1)
        steps = [
            step(GARBAGE),
            step(planner_json(nodes("alpha"), 5)),
            step(GARBAGE),
            step(planner_json(nodes("alpha"), 5)),
        ]
        r, backend = runner(steps, cfg)
        outcome = r.plan(LongTermMemory(TEMPLATES))
        assert outcome.passed is False and outcome.attempts == cfg.revision_cap
        assert backend.token_totals().calls <= cfg.revision_cap * (1 + cfg.parse_retry_cap)

    @settings(max_examples=40, deadline=None)
    @given(
        scores=st.lists(st.integers(1, 10), min_size=3, max_size=3),
        threshold=st.integers(1, 9),
    )
    def test_raising_threshold_never_accepts_a_lower_score(self, scores, threshold):
        def accepted_score(theta):
            cfg = config(theta_p=theta)
            steps = [step(planner_json(nodes("alpha"), s)) for s in scores]
            r, _ = runner(steps, cfg)
            return r.plan(LongTermMemory(TEMPLATES)).accepted.reflection.score

        assert accepted_score(threshold) <= accepted_score(threshold + 1)

    def test_one_agent_output_event_per_parsed_attempt(self):
        events = []
        steps = [
            step(GARBAGE),
            step(planner_json(nodes("alpha"), 7)),
            step(planner_json(nodes("alpha"), 9)),
        ]
        r, _ = runner(steps, events=events)
        r.plan(LongTermMemory(TEMPLATES))
        calls = [e for e in events if e["kind"] == "agent_call"]
        outputs = [e for e in events if e["kind"] == "agent_output"]
        assert len(calls) == 3  # garbage call included
        assert [(e["attempt"], e["score"], e["accepted"]) for e in outputs] == [(1, 7, False), (2, 9, True)]


SYSTEM_PROMPTS = [default_templates()[name].body for name in TemplateName if name.value.endswith("System")]


class TestPromptHash:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SYSTEM_PROMPTS) | st.text(), st.text())
    def test_is_sha256_of_nul_joined_prompts(self, system, user):
        # Twice per system prompt: a reused hash state must not keep the first user prompt.
        for text in (user, user + "x"):
            assert prompt_hash(system, text) == hashlib.sha256((system + "\x00" + text).encode("utf-8")).hexdigest()

    def test_non_ascii_prompts(self):
        system, user = "Systém ⟨λ⟩ 🙂", "naïve user \u0000 text"
        assert prompt_hash(system, user) == hashlib.sha256((system + "\x00" + user).encode("utf-8")).hexdigest()
