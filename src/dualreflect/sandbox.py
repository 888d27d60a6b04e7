"""Simulated tool executor.

A registry of tools with declarative behaviors: ordered rules matched on
parameter values and/or per-tool call count, with a mandatory default. Rules
make failure injectable ("fail the first N calls, then succeed") while
keeping execution pure data — failures come back as results, never as
exceptions, so the orchestrator always sees them.

The registry is read-only after load; per-tool call counters live in a
per-run session so concurrent runs never share executor state.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .model import (
    ExecutionResult,
    ExecutionStatus,
    ToolCall,
    ToolSpec,
    Value,
    _kind_problem,
    _set,
    _text,
    tool_from_dict,
)

__all__ = [
    "BehaviorRule",
    "SandboxTool",
    "SandboxRegistry",
    "SandboxSession",
    "ExecutionResult",
    "ExecutionStatus",
    "registry_from_dict",
    "registry_from_json",
]


class BehaviorRule(Value):
    """First-match-wins behavior: equality matchers on parameters and/or a
    1-based per-tool call index."""
    __slots__ = ("result", "params", "call_index")

    def __init__(self, result: ExecutionResult, params: dict[str, Any] | None = None, call_index: int | None = None):
        _set(self, "result", result)
        _set(self, "params", params)
        _set(self, "call_index", call_index)

    def matches(self, parameters: Mapping[str, Any], call_index: int) -> bool:
        if self.call_index is not None and call_index != self.call_index:
            return False
        if self.params is not None:
            for name, expected in self.params.items():
                if name not in parameters or parameters[name] != expected:
                    return False
        return True


class SandboxTool(Value):
    """A tool's spec and behaviour; ``_names``, its parameter names, is built once at load."""
    __slots__ = ("spec", "default", "rules", "_names")

    def __init__(self, spec: ToolSpec, default: ExecutionResult, rules: tuple[BehaviorRule, ...] = ()) -> None:
        _set(self, "spec", spec)
        _set(self, "default", default)
        _set(self, "rules", rules)
        _set(self, "_names", frozenset(p.name for p in spec.parameters))


class SandboxRegistry:
    """All tools of a suite; shareable once constructed."""

    def __init__(self, tools: list[SandboxTool] | tuple[SandboxTool, ...]):
        self._tools: dict[str, SandboxTool] = {}
        for tool in tools:
            if tool.spec.name in self._tools:
                raise ValueError(f"duplicate sandbox tool {tool.spec.name!r}")
            self._tools[tool.spec.name] = tool

    def get(self, name: str) -> SandboxTool | None:
        return self._tools.get(name)

    def tool_specs(self) -> tuple[ToolSpec, ...]:
        return tuple(tool.spec for tool in self._tools.values())

    def session(self) -> "SandboxSession":
        """A fresh stateful view; one per task run."""
        return SandboxSession(self)


class SandboxSession:
    """Per-run executor: owns the call counters the rules may match on."""

    def __init__(self, registry: SandboxRegistry):
        self._registry = registry
        self._counters: dict[str, int] = {}

    def execute(self, call: ToolCall) -> ExecutionResult:
        """Run one call; pure given (call, counters) — same input, same result.

        Every failure mode is encoded in the result status. Only calls that
        pass lookup and parameter validation consume a call-index slot.
        """
        tool = self._registry.get(call.function)
        if tool is None:
            return ExecutionResult(ExecutionStatus.TOOL_NOT_FOUND, f"unknown function: {call.function}")
        problems = _check_parameters(tool, call.parameters)
        if problems:
            return ExecutionResult(ExecutionStatus.INVALID_PARAMETERS, "; ".join(problems))
        self._counters[call.function] = index = self._counters.get(call.function, 0) + 1
        for rule in tool.rules:
            if rule.matches(call.parameters, index):
                return rule.result
        return tool.default


def _check_parameters(tool: SandboxTool, parameters: Mapping[str, Any]) -> list[str]:
    """Missing required parameters in spec order, then unknown ones in call
    order, then wrongly kinded ones in spec order."""
    missing, wrong = [], []
    for p in tool.spec.parameters:
        if p.name not in parameters:
            if p.required:
                missing.append(f"missing required parameter: {p.name}")
        elif problem := _kind_problem(p, parameters[p.name]):
            wrong.append(problem)
    return missing + [f"unknown parameter: {name}" for name in parameters if name not in tool._names] + wrong


# --- Suite file loading -------------------------------------------------------


def _result_from_dict(data: Any, path: str) -> ExecutionResult:
    if not isinstance(data, dict) or "status" not in data or "payload" not in data:
        raise ValueError(f"{path}: expected an object with status and payload")
    try:
        status = ExecutionStatus(data["status"])
    except ValueError:
        raise ValueError(f"{path}.status: unknown status {data['status']!r}") from None
    try:
        return ExecutionResult(status, _text(data["payload"], "payload"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def registry_from_dict(data: Any) -> SandboxRegistry:
    if not isinstance(data, dict) or not isinstance(data.get("tools"), list):
        raise ValueError("suite file must be an object with a 'tools' array")
    tools = []
    for i, raw in enumerate(data["tools"]):
        path = f"tools[{i}]"
        if not isinstance(raw, dict) or "spec" not in raw or "default" not in raw:
            raise ValueError(f"{path}: expected an object with spec and default")
        try:
            spec = tool_from_dict(raw["spec"])
        except ValueError as exc:
            raise ValueError(f"{path}.spec: {exc}") from None
        declared = {p.name: p for p in spec.parameters}
        if not isinstance(raw.get("rules", []), list):
            raise ValueError(f"{path}.rules: expected an array")
        rules = []
        for j, raw_rule in enumerate(raw.get("rules", [])):
            rpath = f"{path}.rules[{j}]"
            if not isinstance(raw_rule, dict) or "result" not in raw_rule:
                raise ValueError(f"{rpath}: expected an object with when/result")
            when = raw_rule.get("when", {})
            if not isinstance(when, dict):
                raise ValueError(f"{rpath}.when: expected an object")
            params = when.get("params")
            if params is not None:
                if not isinstance(params, dict):
                    raise ValueError(f"{rpath}.when.params: expected an object")
                for name, value in params.items():
                    if name not in declared:
                        raise ValueError(f"{rpath}.when.params.{name}: references undeclared parameter")
                    if problem := _kind_problem(declared[name], value):
                        raise ValueError(f"{rpath}.when.params.{name}: {problem}")
            call_index = when.get("call_index")
            if call_index is not None and (isinstance(call_index, bool) or not isinstance(call_index, int) or call_index < 1):
                raise ValueError(f"{rpath}.when.call_index: expected an integer >= 1")
            rules.append(
                BehaviorRule(
                    result=_result_from_dict(raw_rule["result"], f"{rpath}.result"),
                    params=dict(params) if params is not None else None,
                    call_index=call_index,
                )
            )
        tools.append(
            SandboxTool(spec=spec, default=_result_from_dict(raw["default"], f"{path}.default"), rules=tuple(rules))
        )
    return SandboxRegistry(tools)


def registry_from_json(text: str) -> SandboxRegistry:
    try:
        return registry_from_dict(json.loads(text))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"suite file is not valid JSON: {exc}") from None
