"""Executor semantics: validation, rule matching, counters, suite loading."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualreflect.model import (
    ExecutionStatus,
    IntraReflection,
    ParamKind,
    ParamSpec,
    ToolCall,
    ToolSpec,
)
from dualreflect.sandbox import (
    BehaviorRule,
    ExecutionResult,
    SandboxRegistry,
    SandboxTool,
    load_registry,
    registry_from_dict,
)


def call(function="weather", parameters=None, score=9):
    return ToolCall(
        function=function,
        parameters=parameters if parameters is not None else {"city": "Paris", "date": "2026-09-12"},
        reflection=IntraReflection(evaluation="pick", score=score),
    )


WEATHER_SPEC = ToolSpec(
    name="weather",
    description="weather lookup",
    parameters=(
        ParamSpec("city", ParamKind.STRING, True),
        ParamSpec("date", ParamKind.STRING, True),
        ParamSpec("units", ParamKind.ENUM, False, "", ("metric", "imperial")),
        ParamSpec("days", ParamKind.NUMBER, False),
        ParamSpec("detailed", ParamKind.BOOLEAN, False),
    ),
)


def weather_registry(rules=(), default_payload="sunny"):
    tool = SandboxTool(spec=WEATHER_SPEC, default=ExecutionResult(ExecutionStatus.OK, default_payload), rules=tuple(rules))
    return SandboxRegistry([tool])


class TestExecute:
    def test_valid_call_hits_default(self):
        session = weather_registry().session()
        result = session.execute(call())
        assert result == ExecutionResult(ExecutionStatus.OK, "sunny")

    def test_unknown_tool(self):
        session = weather_registry().session()
        result = session.execute(call(function="nope"))
        assert result.status is ExecutionStatus.TOOL_NOT_FOUND
        assert "nope" in result.payload

    def test_missing_required_param_named(self):
        session = weather_registry().session()
        result = session.execute(call(parameters={"city": "Paris"}))
        assert result.status is ExecutionStatus.INVALID_PARAMETERS
        assert result.payload == "missing required parameter: date"

    def test_unknown_param_named(self):
        session = weather_registry().session()
        result = session.execute(call(parameters={"city": "P", "date": "d", "zoom": 1}))
        assert result.status is ExecutionStatus.INVALID_PARAMETERS
        assert "unknown parameter: zoom" in result.payload

    @pytest.mark.parametrize(
        "params, fragment",
        [
            ({"city": 5, "date": "d"}, "wrong type for parameter city: expected string"),
            ({"city": "P", "date": "d", "days": "three"}, "wrong type for parameter days: expected number"),
            ({"city": "P", "date": "d", "days": True}, "wrong type for parameter days: expected number"),
            ({"city": "P", "date": "d", "detailed": "yes"}, "wrong type for parameter detailed: expected boolean"),
            ({"city": "P", "date": "d", "units": "fahrenheit"}, "expected one of metric, imperial"),
            ({"city": "P", "date": "d", "units": 3}, "wrong type for parameter units: expected enum"),
        ],
    )
    def test_strict_kind_checking(self, params, fragment):
        session = weather_registry().session()
        result = session.execute(call(parameters=params))
        assert result.status is ExecutionStatus.INVALID_PARAMETERS
        assert fragment in result.payload

    def test_all_problems_reported_together(self):
        session = weather_registry().session()
        result = session.execute(call(parameters={"date": 7, "zoom": 1}))
        assert "missing required parameter: city" in result.payload
        assert "unknown parameter: zoom" in result.payload
        assert "wrong type for parameter date" in result.payload

    def test_param_matcher_rules_first_match_wins(self):
        rules = [
            BehaviorRule(result=ExecutionResult(ExecutionStatus.OK, "rain"), params={"city": "London"}),
            BehaviorRule(result=ExecutionResult(ExecutionStatus.OK, "fog"), params={"city": "London"}),
        ]
        session = weather_registry(rules).session()
        assert session.execute(call(parameters={"city": "London", "date": "d"})).payload == "rain"
        assert session.execute(call(parameters={"city": "Paris", "date": "d"})).payload == "sunny"

    def test_fail_first_then_succeed_counter(self):
        rules = [
            BehaviorRule(result=ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, "flaky"), call_index=1),
        ]
        session = weather_registry(rules).session()
        first = session.execute(call())
        second = session.execute(call())
        assert first.status is ExecutionStatus.SIMULATED_FAILURE
        assert second.status is ExecutionStatus.OK

    def test_invalid_call_does_not_consume_counter(self):
        rules = [BehaviorRule(result=ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, "flaky"), call_index=1)]
        session = weather_registry(rules).session()
        session.execute(call(parameters={}))  # invalid, rejected before counting
        assert session.execute(call()).status is ExecutionStatus.SIMULATED_FAILURE

    def test_sessions_do_not_share_counters(self):
        rules = [BehaviorRule(result=ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, "flaky"), call_index=1)]
        registry = weather_registry(rules)
        assert registry.session().execute(call()).status is ExecutionStatus.SIMULATED_FAILURE
        assert registry.session().execute(call()).status is ExecutionStatus.SIMULATED_FAILURE

    def test_replaying_call_sequence_is_deterministic(self):
        rules = [
            BehaviorRule(result=ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, "flaky"), call_index=1),
            BehaviorRule(result=ExecutionResult(ExecutionStatus.OK, "cached"), params={"city": "London"}),
        ]
        registry = weather_registry(rules)
        sequence = [
            call(),
            call(parameters={"city": "London", "date": "d"}),
            call(parameters={"city": "Paris", "date": "d", "zoom": 1}),
            call(function="nope"),
        ]
        session1 = registry.session()
        session2 = registry.session()
        out1 = [session1.execute(c) for c in sequence]
        out2 = [session2.execute(c) for c in sequence]
        assert out1 == out2

    @given(
        st.text(min_size=0, max_size=12),
        st.dictionaries(
            st.text(min_size=0, max_size=8),
            st.one_of(st.text(max_size=8), st.integers(), st.booleans(), st.none(), st.lists(st.integers(), max_size=3)),
            max_size=4,
        ),
    )
    def test_execute_never_raises_on_arbitrary_calls(self, name, params):
        rules = [BehaviorRule(result=ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, "x"), call_index=2)]
        session = weather_registry(rules).session()
        try:
            tool_call = ToolCall(name, params, IntraReflection(evaluation="e", score=5))
        except ValueError:
            return
        result = session.execute(tool_call)
        assert result.status in ExecutionStatus


SUITE_DOC = {
    "tools": [
        {
            "spec": {
                "name": "weather",
                "description": "weather lookup",
                "parameters": [
                    {"name": "city", "kind": "string", "required": True, "description": ""},
                    {"name": "date", "kind": "string", "required": True, "description": ""},
                ],
            },
            "rules": [
                {"when": {"call_index": 1}, "result": {"status": "simulated_failure", "payload": "warming up"}},
                {"when": {"params": {"city": "London"}}, "result": {"status": "ok", "payload": "rain"}},
            ],
            "default": {"status": "ok", "payload": "sunny"},
        },
        {
            "spec": {"name": "booker", "description": "books tables", "parameters": []},
            "default": {"status": "ok", "payload": "booked"},
        },
    ]
}


class TestLoadRegistry:
    def test_two_tool_suite_loads(self, tmp_path):
        path = tmp_path / "sandbox.json"
        path.write_text(json.dumps(SUITE_DOC), encoding="utf-8")
        registry = load_registry(path)
        assert [t.name for t in registry.tool_specs()] == ["weather", "booker"]

    def test_stateful_fail_then_succeed_honored(self, tmp_path):
        path = tmp_path / "sandbox.json"
        path.write_text(json.dumps(SUITE_DOC), encoding="utf-8")
        session = load_registry(path).session()
        c = call(parameters={"city": "Paris", "date": "d"})
        assert session.execute(c).status is ExecutionStatus.SIMULATED_FAILURE
        assert session.execute(c).status is ExecutionStatus.OK

    def test_rule_referencing_undeclared_param_is_schema_error(self):
        doc = json.loads(json.dumps(SUITE_DOC))
        doc["tools"][0]["rules"].append({"when": {"params": {"zoom": 1}}, "result": {"status": "ok", "payload": "x"}})
        with pytest.raises(ValueError) as err:
            registry_from_dict(doc)
        assert "tools[0].rules[2].when.params.zoom" in str(err.value)

    def test_ok_result_requires_payload(self):
        doc = json.loads(json.dumps(SUITE_DOC))
        doc["tools"][1]["default"] = {"status": "ok", "payload": ""}
        with pytest.raises(ValueError) as err:
            registry_from_dict(doc)
        assert "tools[1].default" in str(err.value)

    def test_unknown_status_is_schema_error_with_path(self):
        doc = json.loads(json.dumps(SUITE_DOC))
        doc["tools"][0]["rules"][0]["result"]["status"] = "exploded"
        with pytest.raises(ValueError) as err:
            registry_from_dict(doc)
        assert "tools[0].rules[0].result.status" in str(err.value)
