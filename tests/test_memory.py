"""Dual-memory semantics: positional numbering, resets, rendering, isolation."""

from concurrent.futures import ThreadPoolExecutor

from hypothesis import given
from hypothesis import strategies as st

from dualreflect.memory import (
    EMPTY_MEMORY_TEXT,
    LongTermMemory,
    LTMRecord,
    ShortTermMemory,
)
from dualreflect.model import (
    ExecutionResult,
    ExecutionStatus,
    IntraReflection,
    Plan,
    PlanNode,
    ToolCall,
    TrajectoryStep,
)
from dualreflect.promptkit import default_templates


def entry(attempt, tag="x"):
    """A failed attempt on node n1, as the orchestrator records it."""
    call = ToolCall("alpha", {"q": tag}, IntraReflection(evaluation=f"thought {tag}", score=8))
    return TrajectoryStep("n1", call, ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, f"boom {tag}"), attempt)


def bound_stm(node_id="n1"):
    stm = ShortTermMemory()
    stm.bind(PlanNode(node_id, f"subtask of {node_id}", "alpha"))
    return stm


def small_plan():
    return Plan(
        nodes=(PlanNode("n1", "do a thing", "alpha"),),
        reflection=IntraReflection(evaluation="fine", score=9),
    )


def ltm_record(tag="r"):
    call = ToolCall("alpha", {"q": tag}, IntraReflection(evaluation=f"pick {tag}", score=8))
    step = TrajectoryStep("n1", call, ExecutionResult(ExecutionStatus.OK, f"out {tag}"), 1)
    return LTMRecord(
        plan=small_plan(),
        trajectory=(step,),
        inter_reflection=f"Answer (score 7/10) for {tag}",
    )


class TestShortTerm:
    def test_record_appends_in_step_order(self):
        stm = bound_stm()
        first, second = entry(1, "first"), entry(2, "second")
        stm.record(first)
        stm.record(second)
        assert stm.entries == [first, second]
        text = stm.render(default_templates())
        assert text.index("Memory:\n1\n") < text.index("boom first") < text.index("Memory:\n2\n")

    def test_reset_clears_and_reports(self):
        stm = bound_stm()
        stm.record(entry(1))
        stm.record(entry(2))
        assert stm.reset() == 2
        assert stm.entries == []

    def test_reset_is_idempotent(self):
        stm = ShortTermMemory()
        assert stm.reset() == 0
        assert stm.reset() == 0

    def test_bind_moves_and_discards(self):
        stm = ShortTermMemory()
        assert stm.node_id == ""
        stm.bind(PlanNode("n1", "first subtask", "alpha"))
        stm.record(entry(1))
        assert stm.bind(PlanNode("n2", "second subtask", "alpha")) == 1
        assert stm.node_id == "n2" and stm.subtask == "second subtask" and stm.entries == []

    def test_render_sentinel_when_empty(self):
        assert bound_stm().render(default_templates()) == EMPTY_MEMORY_TEXT

    def test_render_single_entry_fills_template(self):
        stm = bound_stm()
        stm.record(entry(1, "only"))
        text = stm.render(default_templates())
        assert "Memory:\n1" in text
        assert "Subtask:\nsubtask of n1" in text
        assert "Action:\nalpha" in text
        assert '"q": "only"' in text
        assert "Inter-Reflection:\n[simulated_failure] boom only" in text

    def test_render_two_failures_keeps_attempt_order(self):
        stm = bound_stm()
        stm.record(entry(1, "first"))
        stm.record(entry(2, "second"))
        text = stm.render(default_templates())
        assert text.index("boom first") < text.index("boom second")
        assert text.count("Action Input:") == 2

    @given(st.integers(min_value=1, max_value=8))
    def test_render_orders_blocks_by_step(self, n):
        stm = bound_stm()
        for i in range(1, n + 1):
            stm.record(entry(i, f"tag{i}"))
        text = stm.render(default_templates())
        positions = [text.index(f"boom tag{i}") for i in range(1, n + 1)]
        assert positions == sorted(positions)

    @given(st.permutations(list(range(1, 5))))
    def test_render_is_injective_on_order(self, perm):
        templates = default_templates()
        stm = bound_stm()
        for i in range(1, 5):
            stm.record(entry(i, f"tag{i}"))
        baseline = stm.render(templates)
        shuffled = bound_stm()
        shuffled.entries = [entry(i, f"tag{i}") for i in perm]
        if list(perm) == [1, 2, 3, 4]:
            assert shuffled.render(templates) == baseline
        else:
            assert shuffled.render(templates) != baseline


class TestLongTerm:
    def test_append_in_round_order(self):
        ltm = LongTermMemory()
        first, second = ltm_record("first"), ltm_record("second")
        ltm.append(first)
        ltm.append(second)
        assert ltm.records == [first, second]
        text = ltm.render(default_templates())
        assert text.index("Memory:\n1\n") < text.index("for first") < text.index("Memory:\n2\n")

    def test_reset_on_completion(self):
        ltm = LongTermMemory()
        for tag in ("a", "b", "c"):
            ltm.append(ltm_record(tag))
        assert ltm.reset() == 3
        assert ltm.records == []

    def test_fresh_reset_is_noop(self):
        assert LongTermMemory().reset() == 0

    def test_render_sentinel_when_empty(self):
        assert LongTermMemory().render(default_templates()) == EMPTY_MEMORY_TEXT

    def test_render_two_records_in_round_order(self):
        ltm = LongTermMemory()
        ltm.append(ltm_record("one"))
        ltm.append(ltm_record("two"))
        text = ltm.render(default_templates())
        assert text.count("Memory:") == 2
        assert text.index("for one") < text.index("for two")
        assert "Inter-Reflection:\nAnswer (score 7/10) for one" in text


def test_concurrent_tasks_never_share_memory():
    templates = default_templates()

    def run_one(tag):
        stm = bound_stm(f"node-{tag}")
        ltm = LongTermMemory()
        for i in range(1, 4):
            stm.record(entry(i, f"{tag}-{i}"))
        ltm.append(ltm_record(tag))
        return tag, stm.render(templates), ltm.render(templates)

    tags = [f"sentinel-{i:02d}" for i in range(12)]
    with ThreadPoolExecutor(max_workers=6) as pool:
        outputs = list(pool.map(run_one, tags))
    for tag, stm_text, ltm_text in outputs:
        assert tag in stm_text and tag in ltm_text
        for other in tags:
            if other != tag:
                assert other not in stm_text
                assert other not in ltm_text
