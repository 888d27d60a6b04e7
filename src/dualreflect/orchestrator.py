"""The round state machine.

One run is a bounded loop of rounds: plan with long-term memory, execute
each node in plan order (selecting a tool, executing it, retrying on failure
with short-term memory), then synthesize an answer. An accepted answer ends
the run; a rejected answer or an unrecoverable execution failure stores the
round in long-term memory and replans. Every transition is emitted to an
ordered event trace which, under a scripted backend, is bit-deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any

from .agents import AgentRunner, ParseExhausted
from .backend import BackendError, ChatBackend, TokenTotals
from .memory import LongTermMemory, LTMRecord, ShortTermMemory
from .model import (
    ExecutionStatus,
    FinalAnswer,
    Plan,
    RunConfig,
    TaskSpec,
    TrajectoryStep,
)
from .promptkit import describe_result
from .sandbox import SandboxRegistry

__all__ = [
    "RunStatus",
    "RunResult",
    "TraceRecorder",
    "TaskRun",
    "run_task",
    "events_to_jsonl",
    "fold_event_tokens",
]

#: Every kind the trace may contain, in no particular order.
EVENT_KINDS = (
    "round_start",
    "agent_call",
    "agent_output",
    "execute",
    "stm_record",
    "stm_reset",
    "ltm_append",
    "ltm_reset",
    "round_end",
    "run_end",
)


class RunStatus(str, Enum):
    ACCEPTED = "accepted"
    EXHAUSTED = "exhausted"
    ABORTED = "aborted"


class TraceRecorder:
    """Ordered event log; each event carries task id, round, and a sequence
    number. Serialization sorts keys so identical runs are identical bytes.
    ``round`` is the run's only round counter."""

    def __init__(self, task_id: str):
        self.task_id = task_id
        self.round = 0
        self.events: list[dict[str, Any]] = []
        self._seq = 0

    def emit(self, kind: str, **fields: Any) -> None:
        self.events.append({"kind": kind, "round": self.round, "seq": self._seq, "task": self.task_id, **fields})
        self._seq += 1


def events_to_jsonl(events: list[dict[str, Any]] | tuple[dict[str, Any], ...]) -> str:
    return "".join(json.dumps(e, sort_keys=True, ensure_ascii=False) + "\n" for e in events)


def fold_event_tokens(events: list[dict[str, Any]] | tuple[dict[str, Any], ...]) -> TokenTotals:
    """Exact token totals recomputed from agent_call events."""
    prompt = completion = calls = 0
    for event in events:
        if event["kind"] == "agent_call":
            prompt += event["prompt_tokens"]
            completion += event["completion_tokens"]
            calls += 1
    return TokenTotals(prompt, completion, calls)


@dataclass(frozen=True)
class RunResult:
    """Terminal report of one run.

    An exhausted run still carries the best answer seen (highest answer
    score, ties to the earliest round); ``final_round`` is 0 when no round
    produced an answer at all.
    """

    status: RunStatus
    final_answer: FinalAnswer | None
    final_round: int
    rounds_used: int
    token_totals: TokenTotals
    events: tuple[dict[str, Any], ...]
    error: str | None = None

    def trace_jsonl(self) -> str:
        return events_to_jsonl(self.events)


class TaskRun:
    """One task's journey through the round loop.

    Strictly sequential within the run; safe to run many instances
    concurrently as long as each owns its backend (scripted) and session.
    """

    def __init__(
        self,
        task: TaskSpec,
        config: RunConfig,
        backend: ChatBackend,
        registry: SandboxRegistry,
    ):
        self.config = config
        self.trace = TraceRecorder(task.id)
        self.session = registry.session()
        self.ltm = LongTermMemory()
        self.stm = ShortTermMemory()
        self.runner = AgentRunner(task, backend, config, self.trace.emit)
        self._best: tuple[FinalAnswer, int] | None = None

    def run(self) -> RunResult:
        try:
            for _ in range(self.config.max_rounds):
                if self.run_round():
                    return self._finish(RunStatus.ACCEPTED)
        except (BackendError, ParseExhausted) as exc:
            return self._finish(RunStatus.ABORTED, str(exc))
        return self._finish(RunStatus.EXHAUSTED)

    def run_round(self) -> bool:
        """One plan -> execute -> answer cycle; its ``round_end`` event
        records the outcome (``accepted``, ``rejected``, or
        ``execution_failure``). Returns True when its answer passed."""
        config = self.config
        self.trace.round += 1
        self.trace.emit("round_start")

        plan_out = self.runner.plan(self.ltm)
        plan = plan_out.accepted
        trajectory: list[TrajectoryStep] = []
        related: list[tuple[str, str]] = []
        failure: str | None = None

        if not plan.nodes:
            failure = "planner produced an empty plan; nothing to execute"
        for node in plan.nodes:
            cleared = self.stm.bind(node)
            if cleared:
                self.trace.emit("stm_reset", node=node.id, reason="rebind", cleared=cleared)
            for attempt in range(1, config.subtask_retry_cap + 1):
                tool_out = self.runner.select_tool(node, related, self.stm)
                call = tool_out.accepted
                result = self.session.execute(call)
                self.trace.emit(
                    "execute",
                    node=node.id,
                    attempt=attempt,
                    function=call.function,
                    parameters=call.parameters,
                    status=result.status.value,
                    payload=result.payload,
                    score=call.reflection.score,
                    forced=not tool_out.passed,
                    divergence=call.function != node.function,
                )
                step = TrajectoryStep(node.id, call, result, attempt)
                trajectory.append(step)
                if result.status is ExecutionStatus.OK:
                    related.append((node.id, result.payload))
                    cleared = self.stm.reset()
                    self.trace.emit("stm_reset", node=node.id, reason="subtask_success", cleared=cleared)
                    break
                self.stm.record(step)
                self.trace.emit(
                    "stm_record",
                    node=node.id,
                    step=len(self.stm.entries),
                    action=call.function,
                    observation=describe_result(result),
                )
            else:
                failure = (
                    f"subtask {node.id} failed after {config.subtask_retry_cap} attempts; "
                    f"last error: {describe_result(result)}"
                )
                break

        base_fields = {
            "plan_score": plan.reflection.score,
            "plan_forced": not plan_out.passed,
            "plan_attempts": plan_out.attempts,
            "nodes_total": len(plan.nodes),
            "nodes_succeeded": len(related),
        }

        if failure is not None:
            self._store_round(plan, trajectory, failure)
            self.trace.emit("round_end", outcome="execution_failure", **base_fields)
            return False

        answer_out = self.runner.answer(plan, trajectory)
        answer = answer_out.accepted
        if self._best is None or answer.reflection.score > self._best[0].reflection.score:
            self._best = (answer, self.trace.round)
        if answer_out.passed:
            self.trace.emit(
                "round_end", outcome="accepted", answer_score=answer.reflection.score, **base_fields
            )
            return True
        self._store_round(
            plan,
            trajectory,
            f"Answer (score {answer.reflection.score}/10): {answer.text}\n"
            f"Evaluation: {answer.reflection.evaluation}",
        )
        self.trace.emit("round_end", outcome="rejected", answer_score=answer.reflection.score, **base_fields)
        return False

    def _store_round(self, plan: Plan, trajectory: list[TrajectoryStep], inter_reflection: str) -> None:
        self.ltm.append(LTMRecord(plan, tuple(trajectory), inter_reflection))
        self.trace.emit("ltm_append", round_index=self.trace.round, records=len(self.ltm.records))

    def _finish(self, status: RunStatus, error: str | None = None) -> RunResult:
        cleared = self.stm.reset()
        self.trace.emit("stm_reset", node=self.stm.node_id, reason="run_end", cleared=cleared)
        self.trace.emit("ltm_reset", reason=status.value, cleared=self.ltm.reset())

        answer, final_round = (None, 0) if self._best is None else self._best
        totals = fold_event_tokens(self.trace.events)
        end_fields: dict[str, Any] = {
            "status": status.value,
            "rounds_used": self.trace.round,
            "final_round": final_round,
            "prompt_tokens": totals.prompt_tokens,
            "completion_tokens": totals.completion_tokens,
            "backend_calls": totals.calls,
        }
        if answer is not None:
            end_fields["answer_score"] = answer.reflection.score
        if error is not None:
            end_fields["error"] = error
        self.trace.emit("run_end", **end_fields)
        return RunResult(
            status=status,
            final_answer=answer,
            final_round=final_round,
            rounds_used=self.trace.round,
            token_totals=totals,
            events=tuple(self.trace.events),
            error=error,
        )


def run_task(
    task: TaskSpec,
    config: RunConfig,
    backend: ChatBackend,
    registry: SandboxRegistry,
    trace_path: Path | str | None = None,
) -> RunResult:
    """Run one task to a terminal status.

    Backend and parse failures abort the run (partial trace preserved,
    memories reset) rather than raising. Deterministic under a scripted
    backend: same task, config, and script give byte-identical traces.
    """
    if trace_path is not None:
        Path(trace_path).parent.mkdir(parents=True, exist_ok=True)
    result = TaskRun(task, config, backend, registry).run()
    if trace_path is not None:
        Path(trace_path).write_text(result.trace_jsonl(), encoding="utf-8")
    return result
