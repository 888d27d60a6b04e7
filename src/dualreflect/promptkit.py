"""Prompt templates, placeholder rendering, and model-output validation.

Templates ship as data files under ``prompts/`` and a sha256 manifest pins
them against accidental edits. Rendering is single-pass: slot values are
never re-scanned, so braces inside tool output cannot corrupt a prompt.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Sequence

from .model import (
    ExecutionResult,
    ExecutionStatus,
    FinalAnswer,
    IntraReflection,
    NodeStatus,
    Plan,
    PlanNode,
    ToolCall,
    ToolSpec,
    TrajectoryStep,
    clamp_score,
)

__all__ = [
    "TemplateName",
    "PromptTemplate",
    "OutputKind",
    "PromptError",
    "MissingSlot",
    "NoJsonFound",
    "MalformedJson",
    "SchemaError",
    "load_templates",
    "default_templates",
    "manifest_mismatches",
    "render",
    "extract_json",
    "validate_output",
    "plan_to_output_dict",
    "tool_call_to_output_dict",
    "render_parameters",
    "render_tool_list",
    "render_related_outputs",
    "render_trajectory",
    "describe_result",
    "NO_RESULTS_TEXT",
]


class TemplateName(str, Enum):
    PLANNER_SYSTEM = "PlannerSystem"
    PLANNER_USER = "PlannerUser"
    TOOL_SYSTEM = "ToolSystem"
    TOOL_USER = "ToolUser"
    ANSWER_SYSTEM = "AnswerSystem"
    ANSWER_USER = "AnswerUser"
    LTM_ENTRY = "LTMEntry"
    STM_ENTRY = "STMEntry"


#: Required slots per template; render() refuses to run with any missing.
PLACEHOLDERS: dict[TemplateName, tuple[str, ...]] = {
    TemplateName.PLANNER_SYSTEM: (),
    TemplateName.PLANNER_USER: ("task_description", "long_memory", "functions"),
    TemplateName.TOOL_SYSTEM: (),
    TemplateName.TOOL_USER: ("subtask", "related_outputs", "short_memory"),
    TemplateName.ANSWER_SYSTEM: (),
    TemplateName.ANSWER_USER: ("task_description", "trajectory"),
    TemplateName.LTM_ENTRY: ("round_index", "trajectory", "inter_reflection"),
    TemplateName.STM_ENTRY: ("step", "subtask", "function_name", "parameters", "observation"),
}

_SLOT_PATTERN = re.compile(r"\{([a-z_][a-z0-9_]*)\}")

MANIFEST_FILE = "MANIFEST.sha256"

#: Fills the "Results of Previous Subtasks" slot before anything has run.
NO_RESULTS_TEXT = "No completed subtasks yet."


class PromptError(Exception):
    """Base for template and output-validation failures."""


class MissingSlot(PromptError):
    def __init__(self, placeholder: str, template: str):
        super().__init__(f"template {template} is missing a value for slot {placeholder!r}")
        self.placeholder = placeholder


class NoJsonFound(PromptError):
    """The completion contained no JSON object at all."""


class MalformedJson(PromptError):
    def __init__(self, offset: int, detail: str):
        super().__init__(f"malformed JSON at byte {offset}: {detail}")
        self.offset = offset


class SchemaError(PromptError):
    """Agent output parsed as JSON but violates its declared schema."""

    def __init__(self, problems: Sequence[str]):
        super().__init__("; ".join(problems))
        self.problems = tuple(problems)


@dataclass(frozen=True)
class PromptTemplate:
    name: TemplateName
    body: str
    placeholders: tuple[str, ...]

    @cached_property
    def _parts(self) -> tuple[str, ...]:
        """The body split at its declared slots, once: literal text at even
        indices, slot names at odd ones. Undeclared ``{x}`` stays literal."""
        if not self.placeholders:
            return (self.body,)
        slot = re.compile(r"\{(" + "|".join(re.escape(p) for p in self.placeholders) + r")\}")
        return tuple(slot.split(self.body))


def _template_dir() -> Any:
    return resources.files("dualreflect").joinpath("prompts")


def load_templates(directory: Path | None = None) -> dict[TemplateName, PromptTemplate]:
    """Read all template files and verify each declares exactly its slots."""
    root = Path(directory) if directory is not None else _template_dir()
    templates: dict[TemplateName, PromptTemplate] = {}
    for name in TemplateName:
        body = root.joinpath(f"{name.value}.txt").read_text(encoding="utf-8")
        declared = PLACEHOLDERS[name]
        found = _SLOT_PATTERN.findall(body)
        if sorted(found) != sorted(declared):
            raise PromptError(
                f"template {name.value} slots {sorted(found)} do not match declared {sorted(declared)}"
            )
        templates[name] = PromptTemplate(name=name, body=body, placeholders=declared)
    return templates


_default_templates: dict[TemplateName, PromptTemplate] | None = None


def default_templates() -> dict[TemplateName, PromptTemplate]:
    """Packaged templates, loaded once per process."""
    global _default_templates
    if _default_templates is None:
        _default_templates = load_templates()
    return _default_templates


def manifest_mismatches(directory: Path | None = None) -> list[str]:
    """Compare template files against the golden sha256 manifest.

    Returns one line per mismatch; an empty list means every template is
    byte-identical to its pinned copy.
    """
    root = Path(directory) if directory is not None else _template_dir()
    manifest = root.joinpath(MANIFEST_FILE).read_text(encoding="utf-8")
    expected: dict[str, str] = {}
    for line in manifest.splitlines():
        if line.strip():
            digest, filename = line.split(None, 1)
            expected[filename.strip()] = digest
    problems = []
    for name in TemplateName:
        filename = f"{name.value}.txt"
        if filename not in expected:
            problems.append(f"{filename}: missing from manifest")
            continue
        actual = hashlib.sha256(root.joinpath(filename).read_bytes()).hexdigest()
        if actual != expected[filename]:
            problems.append(f"{filename}: sha256 {actual} != manifest {expected[filename]}")
    return problems


def render(template: PromptTemplate, slots: Mapping[str, str]) -> str:
    """Substitute every declared slot exactly once, in a single pass.

    Slot values are inserted verbatim and never re-scanned, so literal braces
    in values survive untouched and cannot trigger re-substitution.
    """
    for placeholder in template.placeholders:
        if placeholder not in slots:
            raise MissingSlot(placeholder, template.name.value)
    parts = template._parts
    out = list(parts)
    out[1::2] = [slots[name] for name in parts[1::2]]
    return "".join(out)


#: Shared by every call and thread, as ``json.loads`` shares its own.
_DECODER = json.JSONDecoder()


def extract_json(raw: str) -> dict[str, Any]:
    """Pull the first syntactically complete top-level JSON object out of a
    completion, skipping prose and code-fence markers around it."""
    first_error: tuple[int, str] | None = None
    idx = raw.find("{")
    while idx != -1:
        try:
            value, _ = _DECODER.raw_decode(raw, idx)
        except json.JSONDecodeError as exc:
            if first_error is None:
                first_error = (len(raw[: exc.pos].encode("utf-8")), exc.msg)
        except RecursionError:
            # Every later "{" sits inside the same nest, so none can do better.
            raise MalformedJson(len(raw[:idx].encode("utf-8")), "nesting too deep") from None
        else:
            if isinstance(value, dict):
                return value
        idx = raw.find("{", idx + 1)
    if first_error is None:
        raise NoJsonFound("completion contains no JSON object")
    raise MalformedJson(first_error[0], first_error[1])


# --- Output schemas ----------------------------------------------------------


class OutputKind(str, Enum):
    PLANNER = "planner"
    TOOL = "tool"
    ANSWER = "answer"


_SURROGATE_PROBLEM = "holds a lone surrogate, which is not UTF-8 text"


def _encodes(text: str) -> bool:
    """False for a string with a lone surrogate: ``extract_json`` decodes a
    ``\\ud800`` escape to one, and no prompt or trace line can hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text_problem(value: Any) -> str | None:
    """Why an agent output cannot keep ``value`` as text, or None."""
    if not isinstance(value, str) or not value:
        return "expected a non-empty string"
    return None if value.isascii() or _encodes(value) else _SURROGATE_PROBLEM


def _parameters_problem(value: Any) -> str | None:
    """Why no trace line can hold ``value``: a NaN or infinite float, or a key
    or string with a lone surrogate, at any depth. Iterative: ``extract_json``
    accepts nests deeper than the recursion limit."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, float) and not math.isfinite(item):
            return "parameters: expected finite numbers"
        if isinstance(item, str) and not item.isascii() and not _encodes(item):
            return f"parameters: {_SURROGATE_PROBLEM}"
        if isinstance(item, dict):
            stack.extend(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
    return None


def _reflection_from(raw: Any, problems: list[str]) -> IntraReflection | None:
    local: list[str] = []
    if not isinstance(raw, dict):
        problems.append("intra_reflection: expected an object with evaluation and score")
        return None
    evaluation = raw.get("evaluation")
    if problem := _text_problem(evaluation):
        local.append(f"intra_reflection.evaluation: {problem}")
    score_raw = raw.get("score")
    if isinstance(score_raw, bool) or not isinstance(score_raw, (int, float)):
        local.append("intra_reflection.score: expected a number")
    elif isinstance(score_raw, float) and not math.isfinite(score_raw):
        local.append("intra_reflection.score: expected a finite number")
    if local:
        problems.extend(local)
        return None
    score, clamped = clamp_score(score_raw)
    return IntraReflection(evaluation=evaluation, score=score, clamped=clamped)


def validate_output(value: Any, kind: OutputKind) -> Plan | ToolCall | FinalAnswer:
    """Check an extracted JSON value against its agent schema and build the
    corresponding typed result; raises :class:`SchemaError` listing every
    missing or mistyped field. Score clamping is applied here."""
    problems: list[str] = []
    if not isinstance(value, dict):
        raise SchemaError(["output: expected a JSON object"])

    if kind is OutputKind.PLANNER:
        nodes_raw = value.get("nodes")
        nodes: list[PlanNode] = []
        if not isinstance(nodes_raw, list):
            problems.append("nodes: expected an array")
        else:
            seen: set[str] = set()
            for i, raw in enumerate(nodes_raw):
                if not isinstance(raw, dict):
                    problems.append(f"nodes[{i}]: expected an object")
                    continue
                node_id = raw.get("id")
                subtask = raw.get("subtask")
                function = raw.get("function")
                status = raw.get("status")
                before = len(problems)
                for name, text in (("id", node_id), ("subtask", subtask), ("function", function)):
                    if problem := _text_problem(text):
                        problems.append(f"nodes[{i}].{name}: {problem}")
                if isinstance(status, bool) or status != NodeStatus.PENDING.value:
                    problems.append(f"nodes[{i}].status: expected 0 (pending)")
                if len(problems) == before:
                    if node_id in seen:
                        problems.append(f"nodes: duplicate id {node_id!r}")
                    else:
                        seen.add(node_id)
                        nodes.append(PlanNode(id=node_id, subtask=subtask, function=function))
        reflection = _reflection_from(value.get("intra_reflection"), problems)
        if problems:
            raise SchemaError(problems)
        return Plan(nodes=tuple(nodes), reflection=reflection)

    if kind is OutputKind.TOOL:
        function = value.get("function")
        parameters = value.get("parameters")
        if problem := _text_problem(function):
            problems.append(f"function: {problem}")
        if not isinstance(parameters, dict) or not all(isinstance(k, str) for k in parameters):
            problems.append("parameters: expected an object keyed by parameter name")
        elif problem := _parameters_problem(parameters):
            problems.append(problem)
        reflection = _reflection_from(value.get("intra_reflection"), problems)
        if problems:
            raise SchemaError(problems)
        return ToolCall(function=function, parameters=dict(parameters), reflection=reflection)

    answer = value.get("answer")
    if problem := _text_problem(answer):
        problems.append(f"answer: {problem}")
    reflection = _reflection_from(value.get("intra_reflection"), problems)
    if problems:
        raise SchemaError(problems)
    return FinalAnswer(text=answer, reflection=reflection)


# --- Typed value -> output JSON (used when quoting a prior attempt back) -----


def _reflection_dict(reflection: IntraReflection) -> dict[str, Any]:
    return {"evaluation": reflection.evaluation, "score": reflection.score}


def plan_to_output_dict(plan: Plan) -> dict[str, Any]:
    return {
        "nodes": [
            {"id": n.id, "status": NodeStatus.PENDING.value, "subtask": n.subtask, "function": n.function}
            for n in plan.nodes
        ],
        "intra_reflection": _reflection_dict(plan.reflection),
    }


def tool_call_to_output_dict(call: ToolCall) -> dict[str, Any]:
    return {
        "function": call.function,
        "parameters": call.parameters,
        "intra_reflection": _reflection_dict(call.reflection),
    }


# --- Slot-text builders -------------------------------------------------------


def render_parameters(parameters: Mapping[str, Any]) -> str:
    """Canonical one-line JSON for an argument map; key order is sorted so the
    same call always renders the same bytes."""
    return json.dumps(parameters, sort_keys=True, ensure_ascii=False)


def render_tool_list(tools: Sequence[ToolSpec]) -> str:
    """Human-readable function list for the planner's ``{functions}`` slot."""
    lines: list[str] = []
    for tool in tools:
        lines.append(f"- {tool.name}: {tool.description}")
        if not tool.parameters:
            lines.append("  parameters: none")
            continue
        parts = []
        for p in tool.parameters:
            kind = f"enum[{'|'.join(p.values)}]" if p.kind.value == "enum" else p.kind.value
            part = f"{p.name} ({kind}, {'required' if p.required else 'optional'})"
            if p.description:
                part += f": {p.description}"
            parts.append(part)
        lines.append("  parameters: " + "; ".join(parts))
    return "\n".join(lines)


def render_related_outputs(outputs: Sequence[tuple[str, str]]) -> str:
    """Observations of previously succeeded nodes, in node order."""
    if not outputs:
        return NO_RESULTS_TEXT
    return "\n".join(f"{node_id}: {text}" for node_id, text in outputs)


def describe_result(result: ExecutionResult) -> str:
    """Observation text as an agent sees it: raw payload when Ok, otherwise
    the error class plus message."""
    if result.status is ExecutionStatus.OK:
        return result.payload
    return f"[{result.status.value}] {result.payload}"


def render_trajectory(plan: Plan, steps: Sequence[TrajectoryStep]) -> str:
    """Chronological round record for the answer prompt and LTM entries.

    A node's status is read from ``steps``: succeeded if one of its steps ran
    OK, failed if it has steps and none ran OK, pending if it has none.
    """
    tried = {step.node_id for step in steps}
    ok = {step.node_id for step in steps if step.observation.status is ExecutionStatus.OK}
    lines = [f"Plan (score {plan.reflection.score}/10):"]
    for i, node in enumerate(plan.nodes, 1):
        status = NodeStatus.SUCCEEDED if node.id in ok else NodeStatus.FAILED if node.id in tried else NodeStatus.PENDING
        lines.append(f"{i}. {node.id} [{status.name.lower()}] {node.function}: {node.subtask}")
    if not plan.nodes:
        lines.append("(no subtasks)")
    blocks = ["\n".join(lines)]
    for i, step in enumerate(steps, 1):
        blocks.append(
            "\n".join(
                [
                    f"Step {i} ({step.node_id}, attempt {step.attempt_index})",
                    f"Action: {step.call.function}",
                    f"Action Input: {render_parameters(step.call.parameters)}",
                    f"Observation: {describe_result(step.observation)}",
                    f"Reflection (score {step.call.reflection.score}/10): {step.call.reflection.evaluation}",
                ]
            )
        )
    return "\n\n".join(blocks)
