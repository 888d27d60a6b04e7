"""Dual run-scoped memory.

Short-term memory holds failed attempts for the subtask currently being
executed and empties on subtask success (or when the binding moves to a new
subtask). Long-term memory holds one record per failed round for the whole
task and empties only at overall task completion. Both render into the
corresponding prompt slots via the packaged entry templates.

Instances are confined to a single task run and never shared.
"""

from __future__ import annotations

from typing import Mapping

from .model import Plan, PlanNode, TrajectoryStep, Value, _set
from .promptkit import (
    PromptTemplate,
    TemplateName,
    describe_result,
    render,
    render_parameters,
    render_trajectory,
)

__all__ = [
    "EMPTY_MEMORY_TEXT",
    "ShortTermMemory",
    "LTMRecord",
    "LongTermMemory",
]

#: What the memory slots say before anything has failed; the user prompts
#: always include the slot, so it needs defined first-attempt content.
EMPTY_MEMORY_TEXT = "No previous failed trajectories."


class ShortTermMemory:
    """Failed attempts on the subtask currently bound, reset on success.

    Entries are the round's own trajectory steps, numbered by position when
    rendered. ``node_id`` is empty until the first :meth:`bind`.
    """

    def __init__(self) -> None:
        self.node_id = ""
        self.subtask = ""
        self.entries: list[TrajectoryStep] = []

    def bind(self, node: PlanNode) -> int:
        """Point the memory at a new subtask attempt sequence.

        Any leftover entries (possible only when the previous subtask
        exhausted its retries) are discarded; the failure itself survives in
        the round trajectory that long-term memory keeps. Returns how many
        entries were dropped.
        """
        cleared = self.reset()
        self.node_id, self.subtask = node.id, node.subtask
        return cleared

    def record(self, step: TrajectoryStep) -> None:
        self.entries.append(step)

    def reset(self) -> int:
        """Empty the store (idempotent); returns how many entries it held."""
        cleared = len(self.entries)
        self.entries.clear()
        return cleared

    def render(self, templates: Mapping[TemplateName, PromptTemplate]) -> str:
        if not self.entries:
            return EMPTY_MEMORY_TEXT
        template = templates[TemplateName.STM_ENTRY]
        blocks = [
            render(
                template,
                {
                    "step": str(i),
                    "subtask": self.subtask,
                    "function_name": step.call.function,
                    "parameters": render_parameters(step.call.parameters),
                    "observation": describe_result(step.observation),
                },
            )
            for i, step in enumerate(self.entries, 1)
        ]
        return "\n\n".join(blocks)


class LTMRecord(Value):
    """One failed round: the plan, every executed step, and why it failed.

    ``inter_reflection`` carries the rejected answer plus its score, or the
    terminal executor error when a subtask ran out of retries.
    """
    __slots__ = ("plan", "trajectory", "inter_reflection")

    def __init__(self, plan: Plan, trajectory: tuple[TrajectoryStep, ...], inter_reflection: str) -> None:
        _set(self, "plan", plan)
        _set(self, "trajectory", trajectory)
        _set(self, "inter_reflection", inter_reflection)


class LongTermMemory:
    """Task-scoped store of whole failed-round trajectories, numbered by
    position when rendered."""

    def __init__(self) -> None:
        self.records: list[LTMRecord] = []

    def append(self, record: LTMRecord) -> None:
        self.records.append(record)

    def reset(self) -> int:
        """Empty the store at overall task completion; returns prior size."""
        cleared = len(self.records)
        self.records.clear()
        return cleared

    def render(self, templates: Mapping[TemplateName, PromptTemplate]) -> str:
        if not self.records:
            return EMPTY_MEMORY_TEXT
        template = templates[TemplateName.LTM_ENTRY]
        blocks = [
            render(
                template,
                {
                    "round_index": str(i),
                    "trajectory": render_trajectory(r.plan, r.trajectory),
                    "inter_reflection": r.inter_reflection,
                },
            )
            for i, r in enumerate(self.records, 1)
        ]
        return "\n\n".join(blocks)
