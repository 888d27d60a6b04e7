"""Dual run-scoped memory.

Short-term memory holds failed attempts for the subtask currently being
executed and empties on subtask success (or when the binding moves to a new
subtask). Long-term memory holds one record per failed round for the whole
task and empties only at overall task completion. Both render into the
corresponding prompt slots via the packaged entry templates.

Instances are confined to a single task run and never shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .model import Plan, TrajectoryStep
from .promptkit import (
    PromptTemplate,
    TemplateName,
    render,
    render_parameters,
    render_trajectory,
)

__all__ = [
    "EMPTY_MEMORY_TEXT",
    "StepGap",
    "RoundGap",
    "STMEntry",
    "ShortTermMemory",
    "LTMRecord",
    "LongTermMemory",
]

#: What the memory slots say before anything has failed; the user prompts
#: always include the slot, so it needs defined first-attempt content.
EMPTY_MEMORY_TEXT = "No previous failed trajectories."


class StepGap(Exception):
    """A short-term entry skipped a step number."""


class RoundGap(Exception):
    """A long-term record skipped a round index."""


@dataclass(frozen=True)
class STMEntry:
    """One failed attempt on the current subtask.

    ``observation`` is the executor's result text and ``reflection`` the tool
    agent's own evaluation from that attempt; they are kept separate even
    though the entry template renders only the observation.
    """

    step: int
    subtask: str
    action: str
    action_input: dict[str, Any]
    observation: str
    reflection: str


class ShortTermMemory:
    """Failed attempts for the subtask currently bound, reset on success."""

    def __init__(self, node_id: str = ""):
        self.node_id = node_id
        self.entries: list[STMEntry] = []

    def bind(self, node_id: str) -> int:
        """Point the memory at a new subtask attempt sequence.

        Any leftover entries (possible only when the previous subtask
        exhausted its retries) are discarded; the failure itself survives in
        the round trajectory that long-term memory keeps. Returns how many
        entries were dropped.
        """
        cleared = self.reset()
        self.node_id = node_id
        return cleared

    def record(self, entry: STMEntry) -> None:
        expected = self.entries[-1].step + 1 if self.entries else 1
        if entry.step != expected:
            raise StepGap(f"expected step {expected}, got {entry.step}")
        self.entries.append(entry)

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
                    "step": str(e.step),
                    "subtask": e.subtask,
                    "function_name": e.action,
                    "parameters": render_parameters(e.action_input),
                    "observation": e.observation,
                },
            )
            for e in self.entries
        ]
        return "\n\n".join(blocks)


@dataclass(frozen=True)
class LTMRecord:
    """One failed round: the plan, every executed step, and why it failed.

    ``inter_reflection`` carries the rejected answer plus its score, or the
    terminal executor error when a subtask ran out of retries.
    """

    round_index: int
    plan: Plan
    trajectory: tuple[TrajectoryStep, ...]
    inter_reflection: str


class LongTermMemory:
    """Task-scoped store of whole failed-round trajectories."""

    def __init__(self, task_id: str):
        self.task_id = task_id
        self.records: list[LTMRecord] = []

    def append(self, record: LTMRecord) -> None:
        expected = self.records[-1].round_index + 1 if self.records else 1
        if record.round_index != expected:
            raise RoundGap(f"expected round {expected}, got {record.round_index}")
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
                    "round_index": str(r.round_index),
                    "trajectory": render_trajectory(r.plan, r.trajectory),
                    "inter_reflection": r.inter_reflection,
                },
            )
            for r in self.records
        ]
        return "\n\n".join(blocks)
