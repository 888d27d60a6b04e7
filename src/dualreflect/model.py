"""Domain types shared by every part of the workflow engine.

Value objects are frozen ``Value``s: construct once, share freely across
concurrent task runs. Constructors own the score range, thresholds and caps,
a runnable task and the payload of an OK result; ``backend.ChatResponse``
owns script token counts. The shape of agent output (non-empty text, unique
node ids, a number for a score) is checked once, by
``promptkit.validate_output``.
"""

from __future__ import annotations

import json
import math
from enum import Enum, IntEnum
from operator import attrgetter
from typing import Any

__all__ = [
    "NodeStatus",
    "ParamKind",
    "PredicateKind",
    "ExecutionStatus",
    "ParamSpec",
    "ToolSpec",
    "ExpectedCall",
    "SuccessPredicate",
    "TaskSpec",
    "IntraReflection",
    "PlanNode",
    "Plan",
    "ToolCall",
    "ExecutionResult",
    "TrajectoryStep",
    "FinalAnswer",
    "Thresholds",
    "RunConfig",
    "clamp_score",
    "task_from_dict",
    "task_from_json",
    "tool_from_dict",
]


class NodeStatus(IntEnum):
    """Plan-node status: planner output carries PENDING's integer value, and
    ``render_trajectory`` prints each name, read from the round's steps."""

    PENDING = 0
    SUCCEEDED = 1
    FAILED = 2


class ParamKind(str, Enum):
    STRING = "string"
    NUMBER = "number"
    BOOLEAN = "boolean"
    ENUM = "enum"


class PredicateKind(str, Enum):
    EXPECTED_CALLS = "expected_calls"
    ANSWER_CONTAINS = "answer_contains"
    ALL_NODES_SUCCEEDED = "all_nodes_succeeded"


class ExecutionStatus(str, Enum):
    OK = "ok"
    TOOL_NOT_FOUND = "tool_not_found"
    INVALID_PARAMETERS = "invalid_parameters"
    SIMULATED_FAILURE = "simulated_failure"


def clamp_score(raw: int | float) -> tuple[int, bool]:
    """Floor a model-reported score to an integer and clamp it into [1, 10].

    Returns the score and a flag that is True only when the bounds clamp
    fired; flooring a fractional value alone is not flagged.
    """
    floored = math.floor(raw)
    if floored < 1:
        return 1, True
    if floored > 10:
        return 10, True
    return int(floored), False


_set = object.__setattr__


class Value:
    """Base of every value type: a frozen class whose ``__slots__`` are its
    fields. Equality (same class only), hashing and ``repr`` follow the field
    tuple, as on a frozen dataclass, so a value that holds a dict is
    unhashable. Each subclass's ``__init__`` checks its arguments and sets
    each field with ``_set`` (``object.__setattr__``); unpickling and
    ``copy`` set them the same way. Values can be weakly referenced."""
    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: field {name!r} cannot be assigned or deleted")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple[None, dict[str, Any]]) -> None:
        for name, value in state[1].items():
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


def as_dict(value: Any) -> Any:
    """``value`` with each :class:`Value` in it made a dict of its fields and
    each tuple a list, for ``json.dumps``."""
    if isinstance(value, Value):
        return {name: as_dict(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, (tuple, list)):
        return [as_dict(item) for item in value]
    if isinstance(value, dict):
        return {key: as_dict(item) for key, item in value.items()}
    return value


_encode = json.JSONEncoder(ensure_ascii=False).encode
#: ``json.dumps(value, sort_keys=True, ensure_ascii=False)`` without building
#: an encoder per call: the one-line form of parameters, requests and events.
_canonical_json = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_quote = json.encoder.encode_basestring  # the C quoting that ``_encode`` reaches for a str
#: Leaves written by exact type; others (a non-finite float, a subclass, ``{}``) go through ``_encode``.
_LEAVES = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get, type(None): lambda _: "null",
           float: lambda f: float.__repr__(f) if math.isfinite(f) else _encode(f)}


def indented_json(value: Any) -> str:
    """What ``json.dumps`` writes with ``ensure_ascii=False`` and an indent of 2,
    for a JSON value with string keys. The stdlib's indenting encoder leaves a
    reference cycle of closures on every call; this leaves none."""
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append ``value``'s text, nested at ``newline``'s indent, to ``out``. A
    container writes its leaf children in place and recurses only into containers."""
    if not (value and isinstance(value, (dict, list, tuple))):
        out.append(_LEAVES.get(type(value), _encode)(value))
        return
    is_dict, inner = isinstance(value, dict), newline + "  "
    out.append("{" if is_dict else "[")
    for item in value:
        out.append(inner)
        if is_dict:
            out += _quote(item), ": "
            item = value[item]
        if leaf := _LEAVES.get(type(item)):
            out.append(leaf(item))
        else:
            _write_json(item, inner, out)
        out.append(",")
    out[-1] = newline + ("}" if is_dict else "]")  # in place of the last comma


class ParamSpec(Value):
    """One declared tool parameter. ``values`` applies to enum kind only."""
    __slots__ = ("name", "kind", "required", "description", "values")

    def __init__(self, name: str, kind: ParamKind, required: bool, description: str = "",
                 values: tuple[str, ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "required", required)
        _set(self, "description", description)
        _set(self, "values", values)


class ToolSpec(Value):
    """A callable tool: name, human description, and parameter schema."""
    __slots__ = ("name", "description", "parameters")

    def __init__(self, name: str, description: str, parameters: tuple[ParamSpec, ...] = ()) -> None:
        _set(self, "name", name)
        _set(self, "description", description)
        _set(self, "parameters", parameters)


class ExpectedCall(Value):
    """One expected tool invocation; parameters=None matches any arguments."""
    __slots__ = ("function", "parameters")

    def __init__(self, function: str, parameters: dict[str, Any] | None = None) -> None:
        _set(self, "function", function)
        _set(self, "parameters", parameters)


class SuccessPredicate(Value):
    """Deterministic pass/fail check applied to a finished run."""
    __slots__ = ("kind", "payload")

    def __init__(self, kind: PredicateKind, payload: Any = None) -> None:
        _set(self, "kind", kind)
        _set(self, "payload", payload)


class TaskSpec(Value):
    """A task: description, candidate tool library, and how to score the run.

    A task is runnable by construction: every violated invariant is reported
    in one :class:`ValueError`, joined by ``"; "``.
    """
    __slots__ = ("id", "description", "tools", "success_check")

    def __init__(self, id: str, description: str, tools: tuple[ToolSpec, ...], success_check: SuccessPredicate) -> None:
        _set(self, "id", id)
        _set(self, "description", description)
        _set(self, "tools", tools)
        _set(self, "success_check", success_check)
        problems = _task_problems(self)
        if problems:
            raise ValueError("; ".join(problems))


class IntraReflection(Value):
    """An agent's pre-handoff self-evaluation: free text plus a 1-10 score."""
    __slots__ = ("evaluation", "score", "clamped")

    def __init__(self, evaluation: str, score: int, clamped: bool = False) -> None:
        if isinstance(score, bool) or not isinstance(score, int) or not 1 <= score <= 10:
            raise ValueError(f"reflection score must be an integer in [1, 10], got {score!r}")
        _set(self, "evaluation", evaluation)
        _set(self, "score", score)
        _set(self, "clamped", clamped)


class PlanNode(Value):
    """One subtask with the function it is bound to."""
    __slots__ = ("id", "subtask", "function")

    def __init__(self, id: str, subtask: str, function: str) -> None:
        _set(self, "id", id)
        _set(self, "subtask", subtask)
        _set(self, "function", function)


class Plan(Value):
    """Ordered subtask nodes plus the planner's self-evaluation.

    List order is execution order; there is no separate dependency edge set.
    """
    __slots__ = ("nodes", "reflection")

    def __init__(self, nodes: tuple[PlanNode, ...], reflection: IntraReflection) -> None:
        _set(self, "nodes", nodes)
        _set(self, "reflection", reflection)


class ToolCall(Value):
    """A concrete invocation: function name, argument map, self-evaluation."""
    __slots__ = ("function", "parameters", "reflection")

    def __init__(self, function: str, parameters: dict[str, Any], reflection: IntraReflection) -> None:
        _set(self, "function", function)
        _set(self, "parameters", parameters)
        _set(self, "reflection", reflection)


class ExecutionResult(Value):
    """What the executor saw: a status plus observation or error text."""
    __slots__ = ("status", "payload")

    def __init__(self, status: ExecutionStatus, payload: str) -> None:
        if status is ExecutionStatus.OK and not payload:
            raise ValueError("successful execution must carry a non-empty payload")
        _set(self, "status", status)
        _set(self, "payload", payload)


class TrajectoryStep(Value):
    """One executed attempt: which node, what was called, what came back."""
    __slots__ = ("node_id", "call", "observation", "attempt_index")

    def __init__(self, node_id: str, call: ToolCall, observation: ExecutionResult, attempt_index: int) -> None:
        _set(self, "node_id", node_id)
        _set(self, "call", call)
        _set(self, "observation", observation)
        _set(self, "attempt_index", attempt_index)


class FinalAnswer(Value):
    """The synthesized natural-language answer plus its self-evaluation."""
    __slots__ = ("text", "reflection")

    def __init__(self, text: str, reflection: IntraReflection) -> None:
        _set(self, "text", text)
        _set(self, "reflection", reflection)


class Thresholds(Value):
    """Quality gates for the planner, tool, and answer agents."""
    __slots__ = ("theta_p", "theta_t", "theta_a")

    def __init__(self, theta_p: int = 9, theta_t: int = 8, theta_a: int = 8) -> None:
        for name, value in zip(self.__slots__, (theta_p, theta_t, theta_a)):
            if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= 10:
                raise ValueError(f"{name} must be an integer in [1, 10], got {value!r}")
            _set(self, name, value)


class RunConfig(Value):
    """Caps and thresholds governing one task run."""
    __slots__ = ("thresholds", "max_rounds", "revision_cap", "subtask_retry_cap", "parse_retry_cap")

    def __init__(self, thresholds: Thresholds = Thresholds(), max_rounds: int = 5, revision_cap: int = 3,
                 subtask_retry_cap: int = 3, parse_retry_cap: int = 2) -> None:
        _set(self, "thresholds", thresholds)
        for name, value in zip(self.__slots__[1:], (max_rounds, revision_cap, subtask_retry_cap, parse_retry_cap)):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            _set(self, name, value)

    @classmethod
    def from_dict(cls, data: Any) -> "RunConfig":
        """Build a config from its JSON form; absent keys keep their defaults.

        Strict: a non-object, an unknown key or a wrongly typed value raises
        :class:`ValueError` rather than being ignored.
        """
        values = dict(_known_keys(cls, data, "run config"))
        values["thresholds"] = Thresholds(**_known_keys(Thresholds, values.get("thresholds", {}), "thresholds"))
        return cls(**values)


def _known_keys(cls: type, data: Any, what: str) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(data) - set(cls.__slots__))
    if unknown:
        raise ValueError(f"{what} has unknown key(s): {', '.join(unknown)}")
    return data


def _task_problems(task: TaskSpec) -> list[str]:
    problems: list[str] = []
    if not task.id:
        problems.append("id: must be non-empty")
    if not task.description:
        problems.append("description: must be non-empty")
    if not task.tools:
        problems.append("tools: must declare at least one tool")

    seen_tools: set[str] = set()
    for i, tool in enumerate(task.tools):
        where = f"tools[{i}]"
        if not tool.name:
            problems.append(f"{where}.name: must be non-empty")
        elif tool.name in seen_tools:
            problems.append(f"{where}.name: duplicate tool name {tool.name!r}")
        else:
            seen_tools.add(tool.name)
        seen_params: set[str] = set()
        for j, param in enumerate(tool.parameters):
            pwhere = f"{where}.parameters[{j}]"
            if not param.name:
                problems.append(f"{pwhere}.name: must be non-empty")
            elif param.name in seen_params:
                problems.append(f"{pwhere}.name: duplicate parameter name {param.name!r}")
            else:
                seen_params.add(param.name)
            if param.kind is ParamKind.ENUM and not param.values:
                problems.append(f"{pwhere}: enum parameter must list allowed values")

    problems.extend(_check_predicate(task))
    return problems


def _check_predicate(task: TaskSpec) -> list[str]:
    pred = task.success_check
    problems: list[str] = []
    if pred.kind is PredicateKind.EXPECTED_CALLS:
        calls = pred.payload
        if not isinstance(calls, tuple) or not calls:
            problems.append("success_check.payload: expected a non-empty list of expected calls")
            return problems
        tools = {t.name: {p.name: p for p in t.parameters} for t in task.tools}
        for i, call in enumerate(calls):
            where = f"success_check.payload[{i}]"
            if not isinstance(call, ExpectedCall) or not call.function:
                problems.append(f"{where}: expected call must name a function")
            elif task.tools and call.function not in tools:
                problems.append(f"{where}: function {call.function!r} is not in the tool library")
            elif task.tools and isinstance(call.parameters, dict):
                for name, value in call.parameters.items():
                    param = tools[call.function].get(name)
                    problem = "references undeclared parameter" if param is None else _kind_problem(param, value)
                    if problem:
                        problems.append(f"{where}.parameters.{name}: {problem}")
    elif pred.kind is PredicateKind.ANSWER_CONTAINS:
        subs = pred.payload
        if not isinstance(subs, tuple) or not subs or not all(isinstance(s, str) and s for s in subs):
            problems.append("success_check.payload: expected a non-empty list of non-empty substrings")
    elif pred.kind is PredicateKind.ALL_NODES_SUCCEEDED:
        if pred.payload is not None:
            problems.append("success_check.payload: must be empty for this predicate kind")
    return problems


#: Each parameter kind's JSON type; only a boolean parameter takes a bool.
_KIND_TYPES = {ParamKind.STRING: str, ParamKind.NUMBER: (int, float), ParamKind.BOOLEAN: bool, ParamKind.ENUM: str}


def _kind_problem(param: ParamSpec, value: Any) -> str | None:
    kind = param.kind
    if not isinstance(value, _KIND_TYPES[kind]) or isinstance(value, bool) and kind is not ParamKind.BOOLEAN:
        return f"wrong type for parameter {param.name}: expected {kind.value}"
    if param.values and kind is ParamKind.ENUM and value not in param.values:
        return f"invalid value for parameter {param.name}: expected one of {', '.join(param.values)}"
    return None


# --- JSON parsing ------------------------------------------------------------
#
# One JSON document per task. Parsing is strict: a field of the wrong JSON
# type is an error, not coerced.


_SURROGATE_PROBLEM = "holds a lone surrogate, which is not UTF-8 text"


def _encodes(text: str) -> bool:
    """False for a string with a lone surrogate: JSON can carry one (a
    ``\\ud800`` escape decodes to it), and no prompt or trace line can hold it."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text(value: Any, what: str) -> str:
    """``value`` if it is a string that encodes as UTF-8 (see :func:`_encodes`);
    else a :class:`ValueError` naming ``what``."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {type(value).__name__}")
    if not _encodes(value):
        raise ValueError(f"{what} {_SURROGATE_PROBLEM}")
    return value


def tool_from_dict(data: Any) -> ToolSpec:
    if not isinstance(data, dict):
        raise ValueError("tool entry must be an object")
    try:
        name = _text(data["name"], "tool name")
        description = _text(data["description"], f"tool {name!r} description")
    except KeyError as exc:
        raise ValueError(f"tool entry missing field {exc.args[0]!r}") from None
    raw_params = data.get("parameters", [])
    if not isinstance(raw_params, list):
        raise ValueError("tool parameters must be an array")
    params = []
    for raw in raw_params:
        if not isinstance(raw, dict):
            raise ValueError("parameter entry must be an object")
        param_name = _text(raw.get("name", ""), "parameter name")
        where = f"parameter {param_name!r}"
        try:
            kind = ParamKind(raw["kind"])
        except (KeyError, ValueError):
            raise ValueError(f"{where} has a missing or unknown kind") from None
        values = raw.get("values", [])
        if not isinstance(values, list):
            raise ValueError(f"{where} values must be an array of strings")
        required = raw.get("required", False)
        if not isinstance(required, bool):
            raise ValueError(f"{where} required must be a boolean, got {type(required).__name__}")
        params.append(
            ParamSpec(
                name=param_name,
                kind=kind,
                required=required,
                description=_text(raw.get("description", ""), f"{where} description"),
                values=tuple(_text(v, f"{where} values entry") for v in values),
            )
        )
    return ToolSpec(name=name, description=description, parameters=tuple(params))


def _predicate_from_dict(data: Any) -> SuccessPredicate:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("success_check must be an object with a 'kind' field")
    try:
        kind = PredicateKind(data["kind"])
    except ValueError:
        raise ValueError(f"unknown success_check kind {data['kind']!r}") from None
    payload = data.get("payload")
    if kind is PredicateKind.EXPECTED_CALLS:
        if not isinstance(payload, list):
            raise ValueError("expected_calls payload must be an array")
        calls = []
        for raw in payload:
            if not isinstance(raw, dict) or "function" not in raw:
                raise ValueError("expected call entries must be objects with a 'function' field")
            parameters = raw.get("parameters")
            if parameters is not None and not isinstance(parameters, dict):
                raise ValueError("expected call parameters must be an object")
            calls.append(ExpectedCall(_text(raw["function"], "expected call function"), parameters))
        return SuccessPredicate(kind, tuple(calls))
    if kind is PredicateKind.ANSWER_CONTAINS:
        if not isinstance(payload, list):
            raise ValueError("answer_contains payload must be an array of strings")
        return SuccessPredicate(kind, tuple(_text(s, "answer_contains entry") for s in payload))
    return SuccessPredicate(kind, payload)


def task_from_dict(data: Any) -> TaskSpec:
    if not isinstance(data, dict):
        raise ValueError("task document must be a JSON object")
    missing = [k for k in ("id", "description", "tools", "success_check") if k not in data]
    if missing:
        raise ValueError(f"task document missing fields: {', '.join(missing)}")
    if not isinstance(data["tools"], list):
        raise ValueError("task tools must be an array")
    return TaskSpec(
        id=_text(data["id"], "task id"),
        description=_text(data["description"], "task description"),
        tools=tuple(tool_from_dict(t) for t in data["tools"]),
        success_check=_predicate_from_dict(data["success_check"]),
    )


def task_from_json(text: str) -> TaskSpec:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"task document is not valid JSON: {exc}") from None
    return task_from_dict(data)
