"""Dual-memory semantics: positional numbering, resets, rendering, isolation."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualreflect import memory, promptkit
from dualreflect.memory import EMPTY_MEMORY_TEXT, LongTermMemory, ShortTermMemory
from dualreflect.model import (
    ExecutionResult,
    ExecutionStatus,
    IntraReflection,
    Plan,
    PlanNode,
    ToolCall,
    TrajectoryStep,
)
from dualreflect.promptkit import TemplateName, default_templates, describe_result, render, render_trajectory

TEMPLATES = default_templates()


def entry(attempt, tag="x"):
    """A failed attempt on node n1, as the orchestrator records it."""
    call = ToolCall("alpha", {"q": tag}, IntraReflection(evaluation=f"thought {tag}", score=8))
    return TrajectoryStep("n1", call, ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, f"boom {tag}"), attempt)


def record_step(stm, step):
    stm.record(step.call, describe_result(step.observation))


def bound_stm(node_id="n1"):
    stm = ShortTermMemory(TEMPLATES)
    stm.bind(PlanNode(node_id, f"subtask of {node_id}", "alpha"))
    return stm


def small_plan():
    return Plan(
        nodes=(PlanNode("n1", "do a thing", "alpha"),),
        reflection=IntraReflection(evaluation="fine", score=9),
    )


def ltm_round(tag="r"):
    """A failed round as ``(plan, steps, inter_reflection)``."""
    call = ToolCall("alpha", {"q": tag}, IntraReflection(evaluation=f"pick {tag}", score=8))
    step = TrajectoryStep("n1", call, ExecutionResult(ExecutionStatus.OK, f"out {tag}"), 1)
    return small_plan(), (step,), f"Answer (score 7/10) for {tag}"


def record_round(ltm, plan, steps, inter_reflection):
    ltm.record(render_trajectory(plan, steps), inter_reflection)


# --- The rendering both stores had when they kept steps and rounds and rendered
# every entry on every prompt: the reference their stored blocks must equal.


def reference_stm_render(subtask, steps):
    if not steps:
        return EMPTY_MEMORY_TEXT
    return "\n\n".join(
        render(
            TEMPLATES[TemplateName.STM_ENTRY],
            {
                "step": str(i),
                "subtask": subtask,
                "function_name": step.call.function,
                "parameters": json.dumps(step.call.parameters, sort_keys=True, ensure_ascii=False),
                "observation": describe_result(step.observation),
            },
        )
        for i, step in enumerate(steps, 1)
    )


def reference_ltm_render(rounds):
    if not rounds:
        return EMPTY_MEMORY_TEXT
    return "\n\n".join(
        render(
            TEMPLATES[TemplateName.LTM_ENTRY],
            {
                "round_index": str(i),
                "trajectory": render_trajectory(plan, steps),
                "inter_reflection": inter_reflection,
            },
        )
        for i, (plan, steps, inter_reflection) in enumerate(rounds, 1)
    )


TEXT = st.text(min_size=1, max_size=12)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8)
PARAMETERS = st.dictionaries(
    st.text(max_size=6),
    st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6),
    max_size=4,
)
REFLECTIONS = st.builds(IntraReflection, evaluation=TEXT, score=st.integers(1, 10))
CALLS = st.builds(ToolCall, function=TEXT, parameters=PARAMETERS, reflection=REFLECTIONS)
RESULTS = st.builds(ExecutionResult, status=st.sampled_from(ExecutionStatus), payload=TEXT)
NODES = st.lists(st.builds(PlanNode, id=st.sampled_from(["n1", "n2", "n3"]), subtask=TEXT, function=TEXT), max_size=3)
PLANS = st.builds(Plan, nodes=NODES.map(tuple), reflection=REFLECTIONS)


@st.composite
def rounds(draw):
    plan = draw(PLANS)
    ids = [node.id for node in plan.nodes] or ["n1"]
    steps = draw(
        st.lists(
            st.builds(TrajectoryStep, node_id=st.sampled_from(ids), call=CALLS, observation=RESULTS, attempt_index=st.integers(1, 3)),
            max_size=4,
        )
    )
    return plan, tuple(steps), draw(TEXT)


class TestStoredTextEqualsReference:
    @given(subtask=TEXT, steps=st.lists(st.builds(TrajectoryStep, node_id=st.just("n1"), call=CALLS, observation=RESULTS, attempt_index=st.integers(1, 3)), max_size=5))
    def test_stm(self, subtask, steps):
        stm = ShortTermMemory(TEMPLATES)
        stm.bind(PlanNode("n1", subtask, "alpha"))
        for step in steps:
            record_step(stm, step)
        assert stm.render() == reference_stm_render(subtask, steps)

    @given(st.lists(rounds(), max_size=4))
    def test_ltm(self, failed_rounds):
        ltm = LongTermMemory(TEMPLATES)
        for failed in failed_rounds:
            record_round(ltm, *failed)
        assert ltm.render() == reference_ltm_render(failed_rounds)

    def test_numbering_restarts_after_reset(self):
        stm = bound_stm()
        record_step(stm, entry(1, "old"))
        stm.bind(PlanNode("n2", "the next subtask", "alpha"))
        record_step(stm, entry(1, "new"))
        assert stm.render() == reference_stm_render("the next subtask", [entry(1, "new")])


@pytest.mark.parametrize("name", ["render", "render_parameters", "render_trajectory", "describe_result"])
def test_render_calls_no_renderer(monkeypatch, name):
    stm, ltm = bound_stm(), LongTermMemory(TEMPLATES)
    record_step(stm, entry(1))
    record_round(ltm, *ltm_round())
    expected = stm.render(), ltm.render()

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called while a memory store renders")

    for module in (memory, promptkit):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, refuse)
    assert (stm.render(), ltm.render()) == expected


class TestShortTerm:
    def test_record_appends_in_step_order(self):
        stm = bound_stm()
        record_step(stm, entry(1, "first"))
        record_step(stm, entry(2, "second"))
        assert len(stm.entries) == 2
        text = stm.render()
        assert text.index("Memory:\n1\n") < text.index("boom first") < text.index("Memory:\n2\n")

    def test_reset_clears_and_reports(self):
        stm = bound_stm()
        record_step(stm, entry(1))
        record_step(stm, entry(2))
        assert stm.reset() == 2
        assert stm.entries == []

    def test_reset_is_idempotent(self):
        stm = ShortTermMemory(TEMPLATES)
        assert stm.reset() == 0
        assert stm.reset() == 0

    def test_bind_moves_and_discards(self):
        stm = ShortTermMemory(TEMPLATES)
        assert stm.node_id == ""
        stm.bind(PlanNode("n1", "first subtask", "alpha"))
        record_step(stm, entry(1))
        assert stm.bind(PlanNode("n2", "second subtask", "alpha")) == 1
        assert stm.node_id == "n2" and stm.subtask == "second subtask" and stm.entries == []

    def test_render_sentinel_when_empty(self):
        assert bound_stm().render() == EMPTY_MEMORY_TEXT

    def test_render_single_entry_fills_template(self):
        stm = bound_stm()
        record_step(stm, entry(1, "only"))
        text = stm.render()
        assert "Memory:\n1" in text
        assert "Subtask:\nsubtask of n1" in text
        assert "Action:\nalpha" in text
        assert '"q": "only"' in text
        assert "Inter-Reflection:\n[simulated_failure] boom only" in text

    def test_render_two_failures_keeps_attempt_order(self):
        stm = bound_stm()
        record_step(stm, entry(1, "first"))
        record_step(stm, entry(2, "second"))
        text = stm.render()
        assert text.index("boom first") < text.index("boom second")
        assert text.count("Action Input:") == 2

    @given(st.integers(min_value=1, max_value=8))
    def test_render_orders_blocks_by_step(self, n):
        stm = bound_stm()
        for i in range(1, n + 1):
            record_step(stm, entry(i, f"tag{i}"))
        text = stm.render()
        positions = [text.index(f"boom tag{i}") for i in range(1, n + 1)]
        assert positions == sorted(positions)

    @given(st.permutations(list(range(1, 5))))
    def test_render_is_injective_on_order(self, perm):
        stm = bound_stm()
        for i in range(1, 5):
            record_step(stm, entry(i, f"tag{i}"))
        shuffled = bound_stm()
        for i in perm:
            record_step(shuffled, entry(i, f"tag{i}"))
        if list(perm) == [1, 2, 3, 4]:
            assert shuffled.render() == stm.render()
        else:
            assert shuffled.render() != stm.render()


class TestLongTerm:
    def test_append_in_round_order(self):
        ltm = LongTermMemory(TEMPLATES)
        record_round(ltm, *ltm_round("first"))
        record_round(ltm, *ltm_round("second"))
        assert len(ltm.entries) == 2
        text = ltm.render()
        assert text.index("Memory:\n1\n") < text.index("for first") < text.index("Memory:\n2\n")

    def test_reset_on_completion(self):
        ltm = LongTermMemory(TEMPLATES)
        for tag in ("a", "b", "c"):
            record_round(ltm, *ltm_round(tag))
        assert ltm.reset() == 3
        assert ltm.entries == []

    def test_fresh_reset_is_noop(self):
        assert LongTermMemory(TEMPLATES).reset() == 0

    def test_render_sentinel_when_empty(self):
        assert LongTermMemory(TEMPLATES).render() == EMPTY_MEMORY_TEXT

    def test_render_two_records_in_round_order(self):
        ltm = LongTermMemory(TEMPLATES)
        record_round(ltm, *ltm_round("one"))
        record_round(ltm, *ltm_round("two"))
        text = ltm.render()
        assert text.count("Memory:") == 2
        assert text.index("for one") < text.index("for two")
        assert "Inter-Reflection:\nAnswer (score 7/10) for one" in text


def test_concurrent_tasks_never_share_memory():
    def run_one(tag):
        stm = bound_stm(f"node-{tag}")
        ltm = LongTermMemory(TEMPLATES)
        for i in range(1, 4):
            record_step(stm, entry(i, f"{tag}-{i}"))
        record_round(ltm, *ltm_round(tag))
        return tag, stm.render(), ltm.render()

    tags = [f"sentinel-{i:02d}" for i in range(12)]
    with ThreadPoolExecutor(max_workers=6) as pool:
        outputs = list(pool.map(run_one, tags))
    for tag, stm_text, ltm_text in outputs:
        assert tag in stm_text and tag in ltm_text
        for other in tags:
            if other != tag:
                assert other not in stm_text
                assert other not in ltm_text
