"""Round state machine: memory wiring, halting, best-answer selection,
abort paths, determinism, and randomized control-flow properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualreflect import agents, harness, memory, orchestrator, promptkit
from dualreflect.backend import ChatBackend, ChatResponse, RecordingBackend, ScriptedBackend, script_from_jsonl
from dualreflect.model import ExecutionResult, ExecutionStatus, RunConfig, Thresholds
from dualreflect.orchestrator import RunStatus, events_to_jsonl, fold_event_tokens, run_task
from dualreflect.sandbox import BehaviorRule, SandboxRegistry, SandboxTool
from scenarios import (
    GARBAGE,
    answer_json,
    build_random_scenario,
    case_study_config,
    case_study_registry,
    case_study_steps,
    case_study_task,
    make_backend,
    make_registry,
    make_task,
    planner_json,
    step,
    tool_json,
)
from trace_checks import EVENT_KINDS, check_gates, check_memory_lifecycle, kinds

CFG = RunConfig(thresholds=Thresholds(theta_p=9, theta_t=8, theta_a=8), max_rounds=5)


def one_node_steps(answer_score=9, tool_fail_then_ok=False):
    nodes = [("n1", "use alpha once", "alpha")]
    steps = [step(planner_json(nodes, 9))]
    steps.append(step(tool_json("alpha", {"q": "attempt 1"}, 9)))
    if tool_fail_then_ok:
        steps.append(step(tool_json("alpha", {"q": "attempt 2"}, 9)))
    steps.append(step(answer_json("the final summary", answer_score)))
    return steps


class TestSingleRound:
    def test_accepted_run_shape(self):
        task = make_task(["alpha"])
        result = run_task(task, CFG, make_backend(one_node_steps()), make_registry(["alpha"]))
        assert result.status is RunStatus.ACCEPTED
        assert result.rounds_used == 1 and result.final_round == 1
        assert result.final_answer.text == "the final summary"
        assert kinds(result.events) == [
            "round_start",
            "agent_call",
            "agent_output",
            "agent_call",
            "agent_output",
            "execute",
            "stm_reset",
            "agent_call",
            "agent_output",
            "round_end",
            "stm_reset",
            "ltm_reset",
            "run_end",
        ]

    def test_fail_then_succeed_records_one_stm_entry_then_reset(self):
        task = make_task(["alpha"])
        registry = make_registry(["alpha"], fail_first={"alpha": 1})
        result = run_task(task, CFG, make_backend(one_node_steps(tool_fail_then_ok=True)), registry)
        assert result.status is RunStatus.ACCEPTED
        memory_kinds = [e["kind"] for e in result.events if e["kind"].startswith("stm")]
        assert memory_kinds == ["stm_record", "stm_reset", "stm_reset"]  # fail, success reset, run-end reset
        record = next(e for e in result.events if e["kind"] == "stm_record")
        assert record["step"] == 1 and "transient failure" in record["observation"]
        success_reset = [e for e in result.events if e["kind"] == "stm_reset"][0]
        assert success_reset["reason"] == "subtask_success" and success_reset["cleared"] == 1
        executes = [e for e in result.events if e["kind"] == "execute"]
        assert [e["attempt"] for e in executes] == [1, 2]
        assert [e["status"] for e in executes] == ["simulated_failure", "ok"]

    def test_stm_prompt_carries_prior_failure_on_retry(self):
        task = make_task(["alpha"])
        registry = make_registry(["alpha"], fail_first={"alpha": 1})
        backend = make_backend(one_node_steps(tool_fail_then_ok=True))
        result = run_task(task, CFG, backend, registry)
        assert result.status is RunStatus.ACCEPTED
        retry_prompt = backend.requests[2].user  # planner, tool try 1, tool try 2
        assert "alpha transient failure 1" in retry_prompt
        assert "No previous failed trajectories." in backend.requests[1].user


class TestRoundFailure:
    def three_node_steps(self):
        nodes = [("n1", "s1", "alpha"), ("n2", "s2", "beta"), ("n3", "s3", "gamma")]
        steps = [step(planner_json(nodes, 9))]
        steps.append(step(tool_json("alpha", {"q": "a"}, 9)))  # n1 ok
        for attempt in range(1, 4):  # n2 dies after the retry cap
            steps.append(step(tool_json("beta", {"q": f"b{attempt}"}, 9)))
        # Round 2 replans; give it a clean pass so the run terminates.
        nodes2 = [("r2n1", "s1", "alpha")]
        steps.append(step(planner_json(nodes2, 9)))
        steps.append(step(tool_json("alpha", {"q": "a2"}, 9)))
        steps.append(step(answer_json("recovered", 9)))
        return steps

    def test_dead_node_halts_round_and_skips_rest(self):
        task = make_task(["alpha", "beta", "gamma"])
        registry = make_registry(["alpha", "beta", "gamma"], fail_first={"beta": 99})
        result = run_task(task, CFG, make_backend(self.three_node_steps()), registry)
        assert result.status is RunStatus.ACCEPTED and result.rounds_used == 2
        round1_execs = [e for e in result.events if e["kind"] == "execute" and e["round"] == 1]
        assert [e["node"] for e in round1_execs] == ["n1", "n2", "n2", "n2"]  # n3 never attempted
        round1_end = next(e for e in result.events if e["kind"] == "round_end" and e["round"] == 1)
        assert round1_end["outcome"] == "execution_failure"
        assert round1_end["nodes_succeeded"] == 1 and round1_end["nodes_total"] == 3
        assert "answer_score" not in round1_end

    def test_ltm_record_carries_terminal_executor_error(self):
        task = make_task(["alpha", "beta", "gamma"])
        registry = make_registry(["alpha", "beta", "gamma"], fail_first={"beta": 99})
        backend = make_backend(self.three_node_steps())
        result = run_task(task, CFG, backend, registry)
        # The round-2 planner prompt renders the LTM record, so the terminal
        # error must appear there.
        round2_planner_prompt = backend.requests[5].user
        assert "subtask n2 failed after 3 attempts" in round2_planner_prompt
        assert "beta transient failure" in round2_planner_prompt
        assert "Inter-Reflection:" in round2_planner_prompt

    def test_empty_plan_is_execution_failure_with_diagnostic(self):
        task = make_task(["alpha"])
        steps = [
            step(planner_json([], 9, "nothing to do")),
            step(planner_json([("n1", "s", "alpha")], 9)),
            step(tool_json("alpha", {"q": "x"}, 9)),
            step(answer_json("done", 9)),
        ]
        backend = make_backend(steps)
        result = run_task(task, CFG, backend, make_registry(["alpha"]))
        assert result.status is RunStatus.ACCEPTED and result.rounds_used == 2
        round1_end = next(e for e in result.events if e["kind"] == "round_end" and e["round"] == 1)
        assert round1_end["outcome"] == "execution_failure" and round1_end["nodes_total"] == 0
        assert "empty plan" in backend.requests[1].user  # diagnostic reached the replan prompt


class TestRoundsAndBestAnswer:
    def exhausted_run(self, scores, max_rounds=None):
        max_rounds = max_rounds or len(scores)
        steps = []
        for r, score in enumerate(scores, 1):
            steps.append(step(planner_json([(f"r{r}n1", "s", "alpha")], 9)))
            steps.append(step(tool_json("alpha", {"q": f"r{r}"}, 9)))
            steps.append(step(answer_json(f"answer of round {r}", score)))
        cfg = RunConfig(thresholds=CFG.thresholds, max_rounds=max_rounds)
        task = make_task(["alpha"])
        return run_task(task, cfg, make_backend(steps), make_registry(["alpha"]))

    def test_all_rounds_rejected_exhausts_with_full_ltm(self):
        result = self.exhausted_run([7, 7, 7, 7, 7])
        assert result.status is RunStatus.EXHAUSTED and result.rounds_used == 5
        ltm_reset = next(e for e in result.events if e["kind"] == "ltm_reset")
        assert ltm_reset["cleared"] == 5 and ltm_reset["reason"] == "exhausted"

    def test_best_answer_highest_score_earliest_tie(self):
        result = self.exhausted_run([7, 7, 6])
        assert result.status is RunStatus.EXHAUSTED
        assert result.final_round == 1
        assert result.final_answer.text == "answer of round 1"
        assert result.final_answer.reflection.score == 7

    def test_round_increments_by_one_per_failed_round(self):
        result = self.exhausted_run([7, 7, 7])
        starts = [e["round"] for e in result.events if e["kind"] == "round_start"]
        assert starts == [1, 2, 3]

    def test_acceptance_possible_in_final_round(self):
        result = self.exhausted_run([7, 7, 9])
        assert result.status is RunStatus.ACCEPTED and result.rounds_used == 3


class TestAborts:
    def test_parse_exhausted_aborts_with_resets(self):
        task = make_task(["alpha"])
        steps = [step(GARBAGE)] * 3
        result = run_task(task, CFG, make_backend(steps), make_registry(["alpha"]))
        assert result.status is RunStatus.ABORTED
        assert result.error is not None and "unusable" in result.error
        assert kinds(result.events)[-3:] == ["stm_reset", "ltm_reset", "run_end"]
        assert check_memory_lifecycle(result.events) == []

    def test_script_exhaustion_aborts(self):
        task = make_task(["alpha"])
        steps = [step(planner_json([("n1", "s", "alpha")], 9))]  # no tool step scripted
        result = run_task(task, CFG, make_backend(steps), make_registry(["alpha"]))
        assert result.status is RunStatus.ABORTED
        assert "script exhausted" in result.error

    def test_aborted_run_keeps_partial_trace(self):
        task = make_task(["alpha"])
        steps = [
            step(planner_json([("n1", "s", "alpha")], 9)),
            step(tool_json("alpha", {"q": "x"}, 9)),
            step(GARBAGE),
            step(GARBAGE),
            step(GARBAGE),
        ]
        result = run_task(task, CFG, make_backend(steps), make_registry(["alpha"]))
        assert result.status is RunStatus.ABORTED
        assert any(e["kind"] == "execute" for e in result.events)

    def test_invalid_task_rejected_up_front(self):
        # An invalid task cannot be built, so no run can start with one.
        with pytest.raises(ValueError, match="duplicate tool name"):
            make_task(["alpha", "alpha"])


class TestDeterminismAndReplay:
    def test_double_run_is_byte_identical(self):
        task = case_study_task()
        registry = case_study_registry()
        first = run_task(task, case_study_config(), ScriptedBackend(case_study_steps()), registry)
        second = run_task(task, case_study_config(), ScriptedBackend(case_study_steps()), registry)
        assert events_to_jsonl(first.events) == events_to_jsonl(second.events)

    def test_record_then_replay_reproduces_trace(self, tmp_path):
        task = case_study_task()
        registry = case_study_registry()
        trace_path = tmp_path / "backend.jsonl"
        recorded = run_task(
            task, case_study_config(), RecordingBackend(ScriptedBackend(case_study_steps()), trace_path), registry
        )
        replay = ScriptedBackend(script_from_jsonl(trace_path.read_text(encoding="utf-8")))
        replayed = run_task(task, case_study_config(), replay, registry)
        assert events_to_jsonl(recorded.events) == events_to_jsonl(replayed.events)

    def test_tokens_fold_matches_backend_totals(self):
        backend = ScriptedBackend(case_study_steps())
        result = run_task(case_study_task(), case_study_config(), backend, case_study_registry())
        assert result.token_totals == fold_event_tokens(result.events) == backend.token_totals()


class TestPromptWiring:
    def test_later_nodes_see_all_prior_observations_in_node_order(self):
        backend = ScriptedBackend(case_study_steps())
        run_task(case_study_task(), case_study_config(), backend, case_study_registry())
        # Request 11 is the round-2 budget node's tool prompt: by then the
        # three earlier subtasks have succeeded, in plan order.
        budget_prompt = backend.requests[10].user
        first = budget_prompt.index("r2n1: Impressionist masters exhibition")
        second = budget_prompt.index("r2n2: Sunny, 22 C")
        third = budget_prompt.index("r2n3: Table for two booked")
        assert first < second < third
        # The very first tool prompt of the run has no results yet.
        assert "No completed subtasks yet." in backend.requests[1].user

    def test_replanning_prompt_quotes_the_rejected_answer(self):
        backend = ScriptedBackend(case_study_steps())
        run_task(case_study_task(), case_study_config(), backend, case_study_registry())
        round2_planner = backend.requests[6].user
        assert "Answer (score 7/10):" in round2_planner
        assert "budget estimate" in round2_planner  # the answer agent's critique

    def test_only_declared_event_kinds_appear(self):
        for seed in (1, 9, 23):
            scenario = build_random_scenario(seed)
            result = run_task(scenario.task, scenario.config, scenario.backend(), scenario.registry)
            assert {e["kind"] for e in result.events} <= set(EVENT_KINDS)
            assert [e["seq"] for e in result.events] == list(range(len(result.events)))
            assert all(e["task"] == scenario.task.id for e in result.events)


def test_each_round_renders_its_trajectory_once(monkeypatch):
    # The answer prompt and long-term memory share one rendering per round.
    calls = []
    original = promptkit.render_trajectory

    def counted(plan, steps):
        calls.append(len(steps))
        return original(plan, steps)

    for module in (agents, harness, memory, orchestrator, promptkit):
        if getattr(module, "render_trajectory", None) is original:
            monkeypatch.setattr(module, "render_trajectory", counted)
    rounds_seen = set()
    for seed in range(40):
        scenario = build_random_scenario(seed)
        calls.clear()
        result = run_task(scenario.task, scenario.config, scenario.backend(), scenario.registry)
        if result.status is not RunStatus.ABORTED:
            assert len(calls) == result.rounds_used, seed
            rounds_seen.add(result.rounds_used)
    assert max(rounds_seen) >= 3


class TestConcurrentRuns:
    def test_concurrent_runs_match_sequential_baselines(self):
        # Cross-run contamination of memory, counters, or trace state would
        # show up as any byte of divergence from the sequential baseline.
        from concurrent.futures import ThreadPoolExecutor

        scenarios = [build_random_scenario(seed) for seed in range(24, 34)]
        baselines = [
            events_to_jsonl(run_task(s.task, s.config, s.backend(), s.registry).events) for s in scenarios
        ]

        def run_one(s):
            return events_to_jsonl(run_task(s.task, s.config, s.backend(), s.registry).events)

        with ThreadPoolExecutor(max_workers=5) as pool:
            concurrent = list(pool.map(run_one, scenarios))
        assert concurrent == baselines

    def test_tool_agent_sees_short_term_memory_only(self):
        backend = ScriptedBackend(case_study_steps())
        run_task(case_study_task(), case_study_config(), backend, case_study_registry())
        # Round 2 tool prompts: STM is empty (sentinel shows) and the round-1
        # rejected answer lives only in the planner's long-memory slot.
        round2_tool_prompt = backend.requests[7].user
        assert "No previous failed trajectories." in round2_tool_prompt
        assert "budget estimate" not in round2_tool_prompt
        assert "budget estimate" in backend.requests[6].user  # round-2 planner


class TestRandomizedScenarios:
    SEEDS = range(40)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cut_at_call_k_aborts_with_the_uncut_prefix(self, data):
        scenario = build_random_scenario(data.draw(st.integers(0, 199), label="seed"))
        uncut = run_task(scenario.task, scenario.config, scenario.backend(), scenario.registry).events
        calls = [i for i, e in enumerate(uncut) if e["kind"] == "agent_call"]
        k = data.draw(st.integers(1, len(calls)), label="k")
        # A script of k - 1 steps raises ScriptExhausted, a BackendError, on call k.
        cut = run_task(scenario.task, scenario.config, ScriptedBackend(scenario.steps[: k - 1]), scenario.registry)
        prefix = uncut[: calls[k - 1]]
        assert cut.status is RunStatus.ABORTED
        assert cut.events[: len(prefix)] == prefix
        assert kinds(cut.events[len(prefix):]) == ["stm_reset", "ltm_reset", "run_end"]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_expectations_and_invariants(self, seed):
        scenario = build_random_scenario(seed)
        result = run_task(scenario.task, scenario.config, scenario.backend(), scenario.registry)
        assert result.status.value == scenario.expected_status
        assert result.rounds_used == scenario.expected_rounds
        assert result.final_round == scenario.expected_final_round
        if scenario.expected_answer_score is None:
            assert result.final_answer is None
        else:
            assert result.final_answer.reflection.score == scenario.expected_answer_score
        ltm_reset = next(e for e in result.events if e["kind"] == "ltm_reset")
        assert ltm_reset["cleared"] == scenario.expected_failed_rounds
        assert check_memory_lifecycle(result.events) == []
        assert check_gates(result.events, scenario.config.thresholds) == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_node_order_and_single_success(self, seed):
        scenario = build_random_scenario(seed)
        result = run_task(scenario.task, scenario.config, scenario.backend(), scenario.registry)
        rounds = {e["round"] for e in result.events if e["kind"] == "execute"}
        for rnd in rounds:
            execs = [e for e in result.events if e["kind"] == "execute" and e["round"] == rnd]
            seen: list[str] = []
            for e in execs:
                if not seen or seen[-1] != e["node"]:
                    seen.append(e["node"])
            # Nodes run in plan order (ids encode it) and never interleave.
            assert seen == sorted(set(seen), key=seen.index)
            assert all(seen.index(n) == i for i, n in enumerate(seen))
            for node in set(seen):
                node_execs = [e for e in execs if e["node"] == node]
                ok = [e for e in node_execs if e["status"] == "ok"]
                assert len(ok) <= 1
                if ok:
                    assert node_execs[-1]["status"] == "ok"  # success ends the attempts


def call_bound(config, nodes):
    """README's worst case of backend calls per run, with ``nodes`` in the
    place of ``AgentRunner.MAX_NODES``."""
    per_round = config.revision_cap + nodes * config.subtask_retry_cap * config.revision_cap + 1
    return config.max_rounds * (1 + config.parse_retry_cap) * per_round


def flaky_registry():
    """One tool, ``alpha``, whose call fails when ``q`` is ``"bad"``."""
    tool = make_registry(["alpha"]).get("alpha")
    failure = ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, "alpha refused a bad q")
    return SandboxRegistry([SandboxTool(tool.spec, tool.default, (BehaviorRule(failure, params={"q": "bad"}),))])


class AgentPolicyBackend(ChatBackend):
    """Answers each agent from its own list of reply kinds, in turn, so every
    reply fits the agent that asked; the list repeats when it runs out."""

    def __init__(self, nodes, replies):
        super().__init__()
        templates = promptkit.default_templates()
        system = {name: templates[name].body for name in promptkit.TemplateName}
        self._agent = {
            system[promptkit.TemplateName.PLANNER_SYSTEM]: "planner",
            system[promptkit.TemplateName.TOOL_SYSTEM]: "tool",
            system[promptkit.TemplateName.ANSWER_SYSTEM]: "answer",
        }
        plan = [(f"n{i}", f"use alpha {i}", "alpha") for i in range(1, nodes + 1)]
        self._texts = {
            ("planner", "pass"): planner_json(plan, 9),
            ("planner", "below"): planner_json(plan, 3, "weak plan"),
            ("tool", "pass"): tool_json("alpha", {"q": "good"}, 9),
            ("tool", "below"): tool_json("alpha", {"q": "good"}, 3),
            ("tool", "fails"): tool_json("alpha", {"q": "bad"}, 9),
            ("answer", "pass"): answer_json("done", 9),
            ("answer", "below"): answer_json("not quite", 3),
        }
        self._replies, self._served = replies, {"planner": 0, "tool": 0, "answer": 0}

    def _complete(self, request):
        agent = self._agent[request.system]
        kinds_of_agent = self._replies[agent]
        kind = kinds_of_agent[self._served[agent] % len(kinds_of_agent)]
        self._served[agent] += 1
        return ChatResponse(GARBAGE if kind == "garbage" else self._texts[agent, kind], 10, 5)


CAPS = st.integers(1, 2)
REPLY_KINDS = {
    "planner": st.lists(st.sampled_from(["pass", "below", "garbage"]), min_size=1, max_size=8),
    "tool": st.lists(st.sampled_from(["pass", "below", "fails", "garbage"]), min_size=1, max_size=8),
    "answer": st.lists(st.sampled_from(["pass", "below", "garbage"]), min_size=1, max_size=8),
}


class TestCallBound:
    @settings(max_examples=150, deadline=None)
    @given(CAPS, CAPS, CAPS, CAPS, st.integers(1, 3), st.fixed_dictionaries(REPLY_KINDS))
    def test_backend_calls_never_exceed_the_bound(self, rounds, revisions, retries, parse_retries, nodes, replies):
        config = RunConfig(max_rounds=rounds, revision_cap=revisions, subtask_retry_cap=retries,
                           parse_retry_cap=parse_retries)
        result = run_task(make_task(["alpha"]), config, AgentPolicyBackend(nodes, replies), flaky_registry())
        calls = result.events[-1]["backend_calls"]
        assert calls == result.token_totals.calls
        assert calls <= call_bound(config, nodes) <= call_bound(config, agents.AgentRunner.MAX_NODES)
        # Each loop of the bound stays inside its own cap.
        assert result.rounds_used <= rounds
        for event in result.events:
            if event["kind"] == "agent_call":
                assert event["parse_try"] <= parse_retries
                assert event["attempt"] <= (1 if event["agent"] == "answer" else revisions)
            elif event["kind"] == "execute":
                assert event["attempt"] <= retries

    @pytest.mark.parametrize("caps", [(1, 1, 1, 1), (2, 2, 2, 2), (2, 1, 2, 1), (1, 2, 1, 2)])
    def test_all_worst_case_script_reaches_the_bound(self, caps):
        rounds, revisions, retries, parse_retries = caps
        config = RunConfig(max_rounds=rounds, revision_cap=revisions, subtask_retry_cap=retries,
                           parse_retry_cap=parse_retries)
        limit = agents.AgentRunner.MAX_NODES
        plan = [(f"n{i}", f"use alpha {i}", "alpha") for i in range(1, limit + 1)]

        def attempt(reply):  # every parse try spent: garbage, then a usable reply
            return [step(GARBAGE)] * parse_retries + [step(reply)]

        script = []
        for _ in range(rounds):
            for _ in range(revisions):  # every plan is below its gate, so every revision runs
                script += attempt(planner_json(plan, 3, "weak plan"))
            for _ in range(limit):
                for node_attempt in range(1, retries + 1):  # only the last attempt succeeds
                    q = "good" if node_attempt == retries else "bad"
                    for _ in range(revisions):
                        script += attempt(tool_json("alpha", {"q": q}, 3))
            script += attempt(answer_json("not quite", 3))  # every answer is rejected
        backend = make_backend(script)
        result = run_task(make_task(["alpha"]), config, backend, flaky_registry())
        assert result.status is RunStatus.EXHAUSTED and result.rounds_used == rounds
        assert result.events[-1]["backend_calls"] == len(script) == call_bound(config, limit)
