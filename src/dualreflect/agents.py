"""The three reflection-gated agents.

Each invocation renders its prompts, calls the backend, validates the JSON
reply, and gates its own output on the reflection score, all in one loop.
Planner and tool agents revise below-threshold output up to the revision cap
(re-prompting with the rejected attempts as context); the answer agent's
loop has a single attempt, so a failed answer gate is the orchestrator's
signal to store the round in long-term memory and start over.

Agents are stateless over their inputs and never touch memory stores;
memory writes happen only in the orchestrator.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any, Callable, Generic, Sequence, TypeVar

from .backend import ChatBackend, ChatRequest
from .memory import LongTermMemory, ShortTermMemory
from .model import FinalAnswer, Plan, PlanNode, RunConfig, TaskSpec, ToolCall, Value, _set, indented_json
from .promptkit import (
    MalformedJson,
    NoJsonFound,
    OutputKind,
    SchemaError,
    TemplateName,
    default_templates,
    extract_json,
    plan_to_output_dict,
    render,
    render_related_outputs,
    render_tool_list,
    tool_call_to_output_dict,
    validate_output,
)

__all__ = ["ParseExhausted", "GateOutcome", "gate", "AgentRunner", "prompt_hash"]

T = TypeVar("T", Plan, ToolCall, FinalAnswer)


class ParseExhausted(Exception):
    """Every parse try of one attempt produced unusable output."""

    def __init__(self, agent: str, tries: int):
        super().__init__(f"{agent} agent produced {tries} unusable outputs in a row")
        self.agent = agent
        self.tries = tries


class GateOutcome(Value, Generic[T]):
    """What came out of a gated invocation.

    ``passed`` is the gate verdict for the accepted value. When every attempt
    was rejected, ``accepted`` is the best-scoring one and ``passed`` is
    False: a planner or tool output then proceeds forced, and a rejected
    answer hands the round to inter-reflection.
    """
    __slots__ = ("accepted", "attempts", "passed")

    def __init__(self, accepted: T, attempts: int, passed: bool) -> None:
        _set(self, "accepted", accepted)
        _set(self, "attempts", attempts)
        _set(self, "passed", passed)


def gate(score: int, threshold: int) -> bool:
    """Uniform acceptance test: the output proceeds iff score >= threshold.
    ``IntraReflection`` and ``Thresholds`` own both ranges."""
    return score >= threshold


def prompt_hash(system: str, user: str) -> str:
    digest = _system_digest(system).copy()
    digest.update(user.encode("utf-8"))
    return digest.hexdigest()


@lru_cache(maxsize=8)
def _system_digest(system: str) -> Any:
    """sha256 state after the system prompt and the NUL separator, copied by
    every call; three system prompts are packaged."""
    return hashlib.sha256((system + "\x00").encode("utf-8"))


_CORRECTION = (
    "Correction: the previous reply could not be used ({reason}); "
    "respond again with exactly one JSON object in the required output format."
)

_REVISION_HEADER = "\n\nPrevious Rejected Attempts:\n"
_REVISION_FOOTER = (
    "\nThe attempts above scored below the required quality threshold. "
    "Revise your output to address the weaknesses identified in their intra-reflections."
)


class AgentRunner:
    """Runs the planner, tool, and answer agents for one task.

    ``emit`` receives trace events: ``agent_call`` per backend call and
    ``agent_output`` per successfully parsed attempt (exactly one per
    intra-reflection, so score histograms can fold over them).
    """

    #: Most subtasks a plan may hold; a longer one is a schema failure. With
    #: it, one run makes at most ``max_rounds * (1 + parse_retry_cap) *
    #: (revision_cap + MAX_NODES * subtask_retry_cap * revision_cap + 1)``
    #: backend calls.
    MAX_NODES = 32

    def __init__(
        self,
        task: TaskSpec,
        backend: ChatBackend,
        config: RunConfig,
        emit: Callable[..., None],
    ):
        self.task = task
        self.backend = backend
        self.config = config
        self.templates = default_templates()
        self.emit = emit
        self._tool_names = frozenset(t.name for t in task.tools)
        self._functions = render_tool_list(task.tools)

    # -- the three agents ----------------------------------------------------

    def plan(self, ltm: LongTermMemory) -> GateOutcome[Plan]:
        """Decompose the task, gated on theta_p, with long-term memory in the
        prompt. A plan of more than ``MAX_NODES`` nodes, or a node naming an
        unknown function, is a schema failure and consumes a parse retry."""
        base_user = render(
            self.templates[TemplateName.PLANNER_USER],
            {
                "task_description": self.task.description,
                "long_memory": ltm.render(),
                "functions": self._functions,
            },
        )

        def validate(value: Any) -> Plan:
            nodes = value.get("nodes")  # counted raw, before any node is checked and built
            if isinstance(nodes, list) and len(nodes) > self.MAX_NODES:
                raise SchemaError([f"nodes: {len(nodes)} subtasks, more than the limit of {self.MAX_NODES}"])
            plan = validate_output(value, OutputKind.PLANNER)
            unknown = [n.function for n in plan.nodes if n.function not in self._tool_names]
            if unknown:
                raise SchemaError([f"nodes: unknown function {name!r}" for name in unknown])
            return plan

        system = self.templates[TemplateName.PLANNER_SYSTEM].body
        return self._gated("planner", system, base_user, validate, self.config.thresholds.theta_p,
                           self.config.revision_cap, quote=plan_to_output_dict)

    def select_tool(
        self,
        node: PlanNode,
        related_outputs: Sequence[tuple[str, str]],
        stm: ShortTermMemory,
    ) -> GateOutcome[ToolCall]:
        """Pick a function and arguments for one subtask, gated on theta_t.

        The agent may pick a different function than the node was bound to;
        the divergence is flagged in the trace. Short-term memory fills the
        failed-trajectories slot.
        """
        base_user = render(
            self.templates[TemplateName.TOOL_USER],
            {
                "subtask": node.subtask,
                "related_outputs": render_related_outputs(related_outputs),
                "short_memory": stm.render(),
            },
        )

        def validate(value: Any) -> ToolCall:
            call = validate_output(value, OutputKind.TOOL)
            if call.function not in self._tool_names:
                raise SchemaError([f"function: unknown function {call.function!r}"])
            return call

        system = self.templates[TemplateName.TOOL_SYSTEM].body
        return self._gated("tool", system, base_user, validate, self.config.thresholds.theta_t,
                           self.config.revision_cap, quote=tool_call_to_output_dict, node_function=node.function)

    def answer(self, trajectory: str) -> GateOutcome[FinalAnswer]:
        """Synthesize the final answer from the round's trajectory text, the
        ``render_trajectory`` of its plan and steps.

        The same gate with a single attempt: a below-theta_a answer comes back
        with passed=False so the caller can store the same text in long-term
        memory and replan.
        """
        user = render(
            self.templates[TemplateName.ANSWER_USER],
            {"task_description": self.task.description, "trajectory": trajectory},
        )
        system = self.templates[TemplateName.ANSWER_SYSTEM].body
        validate = lambda value: validate_output(value, OutputKind.ANSWER)  # noqa: E731
        return self._gated("answer", system, user, validate, self.config.thresholds.theta_a, cap=1)

    # -- shared machinery ------------------------------------------------------

    def _gated(
        self,
        agent: str,
        system: str,
        base_user: str,
        validate: Callable[[Any], T],
        threshold: int,
        cap: int,
        quote: Callable[[T], dict[str, Any]] | None = None,
        node_function: str | None = None,
    ) -> GateOutcome[T]:
        """Up to ``cap`` attempts, each an initial call plus up to parse_retry_cap
        correction re-prompts; raises ParseExhausted when all are unusable."""
        backend, emit = self.backend, self.emit
        rejected: list[T] = []
        quotes: list[str] = []
        tries = 1 + self.config.parse_retry_cap
        for attempt in range(1, cap + 1):
            user = base_user + _REVISION_HEADER + "\n\n".join(quotes) + _REVISION_FOOTER if quotes else base_user
            reason = ""
            for parse_try in range(tries):
                prompt = user if parse_try == 0 else user + "\n\n" + _CORRECTION.format(reason=reason)
                response = backend.complete(ChatRequest(system, prompt, backend.model))
                emit(
                    "agent_call",
                    agent=agent,
                    attempt=attempt,
                    parse_try=parse_try,
                    prompt_hash=prompt_hash(system, prompt),
                    prompt_tokens=response.prompt_tokens,
                    completion_tokens=response.completion_tokens,
                )
                try:
                    value = validate(extract_json(response.text))
                    break
                except (NoJsonFound, MalformedJson, SchemaError) as exc:
                    reason = str(exc)
            else:
                raise ParseExhausted(agent, tries)
            score = value.reflection.score
            passed = gate(score, threshold)
            emit(
                "agent_output",
                agent=agent,
                attempt=attempt,
                score=score,
                accepted=passed,
                divergence=node_function is not None and value.function != node_function,
            )
            if passed:
                return GateOutcome(accepted=value, attempts=attempt, passed=True)
            rejected.append(value)
            if quote is not None and attempt < cap:  # quoted once, and only if a later attempt reads it
                quotes.append(
                    f"Attempt {attempt} (rejected, score {score}/10):\n"
                    + indented_json(quote(value))
                    + f"\nIts intra-reflection: {value.reflection.evaluation}"
                )
        best = max(rejected, key=lambda v: v.reflection.score)  # ties -> earliest
        return GateOutcome(accepted=best, attempts=cap, passed=False)
