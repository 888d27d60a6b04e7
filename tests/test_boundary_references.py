"""The rewritten boundary checks against their earlier, plainer forms.

``validate_output`` (agent replies) and ``_check_parameters`` (tool calls) were
rewritten to check each field once. Their earlier implementations are kept
below, verbatim but for names, as references: for every drawn input the new
code must build an equal typed value or report the same problems in the same
order, because problem texts reach correction prompts and short-term memory.
"""

import math
from typing import Any, Mapping

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualreflect import sandbox
from dualreflect.model import (
    ExecutionResult,
    ExecutionStatus,
    FinalAnswer,
    IntraReflection,
    NodeStatus,
    ParamKind,
    ParamSpec,
    Plan,
    PlanNode,
    ToolCall,
    ToolSpec,
    clamp_score,
)
from dualreflect.promptkit import OutputKind, SchemaError, validate_output

# --- References ---------------------------------------------------------------

_SURROGATE_PROBLEM = "holds a lone surrogate, which is not UTF-8 text"


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text_problem(value: Any) -> str | None:
    if not isinstance(value, str) or not value:
        return "expected a non-empty string"
    return None if value.isascii() or _encodes(value) else _SURROGATE_PROBLEM


def _parameters_problem(value: Any) -> str | None:
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


def reference_validate_output(value: Any, kind: OutputKind) -> Plan | ToolCall | FinalAnswer:
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


def reference_check_parameters(spec: ToolSpec, parameters: Mapping[str, Any]) -> list[str]:
    declared = {p.name: p for p in spec.parameters}
    problems = []
    for p in spec.parameters:
        if p.required and p.name not in parameters:
            problems.append(f"missing required parameter: {p.name}")
    for name in parameters:
        if name not in declared:
            problems.append(f"unknown parameter: {name}")
    for p in spec.parameters:
        if p.name in parameters:
            problems.extend(_check_kind(p, parameters[p.name]))
    return problems


def _check_kind(param: ParamSpec, value: Any) -> list[str]:
    kind = param.kind
    if kind is ParamKind.STRING and not isinstance(value, str):
        return [f"wrong type for parameter {param.name}: expected string"]
    if kind is ParamKind.NUMBER and (isinstance(value, bool) or not isinstance(value, (int, float))):
        return [f"wrong type for parameter {param.name}: expected number"]
    if kind is ParamKind.BOOLEAN and not isinstance(value, bool):
        return [f"wrong type for parameter {param.name}: expected boolean"]
    if kind is ParamKind.ENUM:
        if not isinstance(value, str):
            return [f"wrong type for parameter {param.name}: expected enum"]
        if param.values and value not in param.values:
            return [f"invalid value for parameter {param.name}: expected one of {', '.join(param.values)}"]
    return []


# --- Strategies -----------------------------------------------------------------

TEXTS = st.sampled_from(["", "a", "b", "ab", "é", "a\ud800", "\udfff"]) | st.text(max_size=4)
# Leaves as JSON decodes them, plus the floats a reply can smuggle in:
# NaN, the infinities and 1e400 (which Python's json reads as infinity).
LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers() | TEXTS
    | st.sampled_from([0.0, -0.0, 9.7, 1e400, float("nan"), float("inf"), float("-inf")]) | st.floats()
)
JSON = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXTS, inner, max_size=3), max_leaves=8
)
# Keys a directly built dict can hold, which JSON cannot.
KEYS = TEXTS | st.integers(0, 2) | st.none() | st.booleans() | st.just(1.5)


def mostly(good, bad):
    """``good`` in three draws of four, else ``bad``: most replies then get far
    enough to build a value, and each one can still fail at any field."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


def fields(required):
    """An object with every field, or with any of them missing."""
    return mostly(st.fixed_dictionaries(required), st.fixed_dictionaries({}, optional=required))


def text(*good):
    return mostly(st.sampled_from(good), TEXTS | JSON)


SCORES = mostly(
    st.integers(1, 10),
    st.sampled_from([True, False, 0, 0.0, 9.7, 11, 1e400, float("nan"), -float("inf"), "9"]) | st.integers() | JSON,
)
REFLECTIONS = fields({"evaluation": text("ok", "é"), "score": SCORES}) | JSON
STATUSES = mostly(st.sampled_from([0, 0.0, -0.0]), st.sampled_from([False, True, 1, 0.5, float("nan"), None, "0", [0]]))
NODES = mostly(
    fields({"id": text("n1", "n2", "n3"), "subtask": text("s", "t", "é"), "function": text("alpha", "beta"),
            "status": STATUSES}),
    JSON,
)
PARAMETERS = mostly(
    st.dictionaries(st.sampled_from(["q", "n", "é"]), LEAVES | JSON, max_size=3),
    st.dictionaries(KEYS, LEAVES, min_size=1, max_size=3)
    | st.dictionaries(st.sampled_from(["q", "a\ud800", "\udfff"]), LEAVES, min_size=1) | JSON,
)
REPLIES = {
    OutputKind.PLANNER: fields(
        {"nodes": mostly(st.lists(NODES, min_size=1, max_size=4), JSON), "intra_reflection": REFLECTIONS}
    ),
    OutputKind.TOOL: fields({"function": text("alpha"), "parameters": PARAMETERS, "intra_reflection": REFLECTIONS}),
    OutputKind.ANSWER: fields({"answer": text("done", "é"), "intra_reflection": REFLECTIONS}),
}
GOOD_REFLECTION = {"evaluation": "ok", "score": 9}
KINDS_AND_REPLIES = st.sampled_from(list(OutputKind)).flatmap(
    lambda kind: st.tuples(st.just(kind), mostly(REPLIES[kind], JSON))
)


@st.composite
def specs_and_parameters(draw):
    """A tool spec of random kinds and a parameter map that may miss, add or
    mistype any of its parameters."""
    names = st.sampled_from(["q", "n", "flag", "mode", "x"])
    params = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(list(ParamKind)))
        values = tuple(draw(st.lists(st.sampled_from(["fast", "slow", "a"]), max_size=2, unique=True)))
        params.append(ParamSpec(draw(names), kind, draw(st.booleans()), values=values))
    arguments = draw(st.dictionaries(names | TEXTS, LEAVES | st.sampled_from(["fast", "slow"]) | JSON, max_size=5))
    return ToolSpec("tool", "a tool", tuple(params)), arguments


def outcome(check, *args):
    try:
        return "value", check(*args)
    except SchemaError as exc:
        return "problems", exc.problems


class TestValidateOutputEqualsReference:
    @settings(max_examples=400, deadline=None)
    @given(KINDS_AND_REPLIES)
    # Rare draws, always run: keys only a directly built dict can hold, a lone
    # surrogate in a key, a bool status.
    @example((OutputKind.TOOL, {"function": "alpha", "parameters": {1: "x"}, "intra_reflection": GOOD_REFLECTION}))
    @example((OutputKind.TOOL, {"function": "alpha", "parameters": {"a\ud800": 1}, "intra_reflection": GOOD_REFLECTION}))
    @example((OutputKind.PLANNER, {"nodes": [{"id": "n1", "subtask": "s", "function": "alpha", "status": False}],
                                   "intra_reflection": GOOD_REFLECTION}))
    def test_same_value_or_same_problems(self, drawn):
        kind, reply = drawn
        assert outcome(validate_output, reply, kind) == outcome(reference_validate_output, reply, kind)


class TestCheckParametersEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(specs_and_parameters())
    def test_same_problems_in_the_same_order(self, drawn):
        spec, parameters = drawn
        tool = sandbox.SandboxTool(spec, ExecutionResult(ExecutionStatus.OK, "ok"))
        assert sandbox._check_parameters(tool, parameters) == reference_check_parameters(spec, parameters)
