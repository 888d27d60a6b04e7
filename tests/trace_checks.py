"""Event-trace replay checks used by orchestrator and acceptance tests.

These walk a run's event list and re-derive memory sizes and gate decisions
from the events alone, independently of the engine's internal state, then
report every violation found.
"""

from __future__ import annotations

from typing import Any

from dualreflect.model import Thresholds

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


def check_memory_lifecycle(events: tuple[dict[str, Any], ...]) -> list[str]:
    """Replays memory events: STM must be empty right after every subtask
    success, LTM size must equal completed failed rounds at every round
    boundary, and both must be empty at run end. Every ``stm_record`` step
    must be the STM size plus one and every ``ltm_append`` round index the
    new LTM size; the stores number entries by position, so this is where
    that numbering is checked."""
    violations: list[str] = []
    stm_size = 0
    ltm_size = 0
    failed_rounds = 0
    for i, event in enumerate(events):
        kind = event["kind"]
        if kind == "stm_record":
            if event["step"] != stm_size + 1:
                violations.append(f"seq {event['seq']}: stm_record step {event['step']} after size {stm_size}")
            stm_size += 1
        elif kind == "stm_reset":
            if event["cleared"] != stm_size:
                violations.append(f"seq {event['seq']}: stm_reset cleared {event['cleared']} but size was {stm_size}")
            stm_size = 0
        elif kind == "execute" and event["status"] == "ok":
            nxt = events[i + 1] if i + 1 < len(events) else None
            if nxt is None or nxt["kind"] != "stm_reset" or nxt["reason"] != "subtask_success":
                violations.append(f"seq {event['seq']}: successful execute not followed by a subtask_success stm_reset")
        elif kind == "ltm_append":
            ltm_size += 1
            if event["records"] != ltm_size or event["round_index"] != ltm_size:
                violations.append(f"seq {event['seq']}: ltm_append out of order ({event})")
        elif kind == "ltm_reset":
            if event["cleared"] != ltm_size:
                violations.append(f"seq {event['seq']}: ltm_reset cleared {event['cleared']} but size was {ltm_size}")
            ltm_size = 0
        elif kind == "round_end":
            if event["outcome"] in ("rejected", "execution_failure"):
                failed_rounds += 1
            if ltm_size != failed_rounds:
                violations.append(
                    f"seq {event['seq']}: LTM holds {ltm_size} records but {failed_rounds} rounds have failed"
                )
        elif kind == "run_end":
            if stm_size != 0:
                violations.append(f"seq {event['seq']}: STM not empty at run end (size {stm_size})")
            if ltm_size != 0:
                violations.append(f"seq {event['seq']}: LTM not empty at run end (size {ltm_size})")
    return violations


def check_gates(events: tuple[dict[str, Any], ...], thresholds: Thresholds) -> list[str]:
    """Gate semantics over the trace: accepted/rejected attempt scores must
    sit on the right side of their threshold, no executor call may carry a
    below-threshold score unless forced, and every round's plan must have
    passed its gate or been forced."""
    violations: list[str] = []
    per_agent = {"planner": thresholds.theta_p, "tool": thresholds.theta_t, "answer": thresholds.theta_a}
    for event in events:
        kind = event["kind"]
        if kind == "agent_output":
            threshold = per_agent[event["agent"]]
            if event["accepted"] and event["score"] < threshold:
                violations.append(f"seq {event['seq']}: accepted {event['agent']} output below threshold")
            if not event["accepted"] and event["score"] >= threshold:
                violations.append(f"seq {event['seq']}: rejected {event['agent']} output at/above threshold")
        elif kind == "execute":
            if event["score"] < thresholds.theta_t and not event["forced"]:
                violations.append(f"seq {event['seq']}: executor ran a below-threshold call without force")
        elif kind == "round_end":
            if event["plan_score"] < thresholds.theta_p and not event["plan_forced"]:
                violations.append(f"seq {event['seq']}: round proceeded on a below-threshold plan without force")
    return violations


def kinds(events: tuple[dict[str, Any], ...]) -> list[str]:
    return [e["kind"] for e in events]
