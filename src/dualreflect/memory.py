"""Dual run-scoped memory.

Short-term memory holds failed attempts for the subtask currently being
executed and empties on subtask success (or when the binding moves to a new
subtask). Long-term memory holds one entry per failed round for the whole
task and empties only at overall task completion. Each store renders an
entry into its packaged template once, when the entry is recorded, numbered
by its position; rendering a store for its prompt slot joins those blocks.

Instances are confined to a single task run and never shared.
"""

from __future__ import annotations

from typing import Mapping

from .model import PlanNode, ToolCall
from .promptkit import PromptTemplate, TemplateName, render, render_parameters

__all__ = [
    "EMPTY_MEMORY_TEXT",
    "ShortTermMemory",
    "LongTermMemory",
]

#: What the memory slots say before anything has failed; the user prompts
#: always include the slot, so it needs defined first-attempt content.
EMPTY_MEMORY_TEXT = "No previous failed trajectories."


class ShortTermMemory:
    """Failed attempts on the subtask currently bound, reset on success.

    Each entry is one attempt's rendered ``STMEntry`` block. ``node_id`` is
    empty until the first :meth:`bind`.
    """

    def __init__(self, templates: Mapping[TemplateName, PromptTemplate]) -> None:
        self._template = templates[TemplateName.STM_ENTRY]
        self.node_id = ""
        self.subtask = ""
        self.entries: list[str] = []

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

    def record(self, call: ToolCall, observation: str) -> None:
        """Store one failed attempt; ``observation`` is its ``describe_result`` text."""
        self.entries.append(
            render(
                self._template,
                {
                    "step": str(len(self.entries) + 1),
                    "subtask": self.subtask,
                    "function_name": call.function,
                    "parameters": render_parameters(call.parameters),
                    "observation": observation,
                },
            )
        )

    def reset(self) -> int:
        """Empty the store (idempotent); returns how many entries it held."""
        cleared = len(self.entries)
        self.entries.clear()
        return cleared

    def render(self) -> str:
        return "\n\n".join(self.entries) if self.entries else EMPTY_MEMORY_TEXT


class LongTermMemory:
    """Task-scoped store of failed rounds, each its rendered ``LTMEntry`` block."""

    def __init__(self, templates: Mapping[TemplateName, PromptTemplate]) -> None:
        self._template = templates[TemplateName.LTM_ENTRY]
        self.entries: list[str] = []

    def record(self, trajectory: str, inter_reflection: str) -> None:
        """Store one failed round: its ``render_trajectory`` text and why it
        failed, which is the rejected answer plus its score, or the terminal
        executor error when a subtask ran out of retries."""
        self.entries.append(
            render(
                self._template,
                {
                    "round_index": str(len(self.entries) + 1),
                    "trajectory": trajectory,
                    "inter_reflection": inter_reflection,
                },
            )
        )

    def reset(self) -> int:
        """Empty the store at overall task completion; returns prior size."""
        cleared = len(self.entries)
        self.entries.clear()
        return cleared

    def render(self) -> str:
        return "\n\n".join(self.entries) if self.entries else EMPTY_MEMORY_TEXT
