"""Core type invariants, task validation, parsing."""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualreflect.agents import GateOutcome
from dualreflect.backend import ChatRequest, TokenTotals
from dualreflect.model import (
    ExecutionResult,
    ExecutionStatus,
    ExpectedCall,
    IntraReflection,
    ParamKind,
    ParamSpec,
    PlanNode,
    PredicateKind,
    RunConfig,
    SuccessPredicate,
    TaskSpec,
    Thresholds,
    ToolCall,
    ToolSpec,
    TrajectoryStep,
    as_dict,
    clamp_score,
    indented_json,
    task_from_dict,
    task_from_json,
)
from scenarios import all_nodes_succeeded, answer_contains, expected_calls, task_doc


def two_tool_task(**overrides):
    fields = dict(
        id="t1",
        description="do things",
        tools=(
            ToolSpec("alpha", "first tool", (ParamSpec("q", ParamKind.STRING, True, "query"),)),
            ToolSpec("beta", "second tool"),
        ),
        success_check=all_nodes_succeeded(),
    )
    fields.update(overrides)
    return TaskSpec(**fields)


def violations(**overrides):
    """The violations a task with these fields is rejected for, in order."""
    with pytest.raises(ValueError) as info:
        two_tool_task(**overrides)
    return str(info.value).split("; ")


class TestValidateTask:
    """A TaskSpec checks itself when it is built and names every violation."""

    def test_well_formed_task_has_empty_report(self):
        assert two_tool_task().id == "t1"

    def test_duplicate_tool_names_reported_once(self):
        assert violations(tools=(ToolSpec("alpha", "a"), ToolSpec("alpha", "b"))) == [
            "tools[1].name: duplicate tool name 'alpha'"
        ]

    def test_zero_tools_reported_once(self):
        assert violations(tools=()) == ["tools: must declare at least one tool"]

    def test_reports_every_violation_at_once(self):
        assert violations(id="", description="", tools=(ToolSpec("", "x"),)) == [
            "id: must be non-empty",
            "description: must be non-empty",
            "tools[0].name: must be non-empty",
        ]

    def test_enum_param_without_values(self):
        tools = (ToolSpec("a", "d", (ParamSpec("m", ParamKind.ENUM, True),)),)
        assert violations(tools=tools) == ["tools[0].parameters[0]: enum parameter must list allowed values"]

    def test_expected_calls_must_reference_declared_tools(self):
        predicate = expected_calls([ExpectedCall("gamma")])
        assert violations(success_check=predicate) == [
            "success_check.payload[0]: function 'gamma' is not in the tool library"
        ]


class TestScores:
    @pytest.mark.parametrize("bad", [0, 11, -3, 2.5, "9", None, True])
    def test_reflection_rejects_out_of_range_or_non_int(self, bad):
        with pytest.raises((ValueError, TypeError)):
            IntraReflection(evaluation="e", score=bad)

    @pytest.mark.parametrize(
        "raw, expected, clamped",
        [(7, 7, False), (8.9, 8, False), (10, 10, False), (11, 10, True), (0.4, 1, True), (-2, 1, True), (1.0, 1, False)],
    )
    def test_clamp_score(self, raw, expected, clamped):
        assert clamp_score(raw) == (expected, clamped)

    @pytest.mark.parametrize("bad", [0, 11])
    def test_thresholds_validate_range(self, bad):
        with pytest.raises(ValueError):
            Thresholds(theta_p=bad)

    def test_run_config_rejects_zero_caps(self):
        with pytest.raises(ValueError):
            RunConfig(max_rounds=0)


class TestOtherInvariants:
    def test_ok_execution_requires_payload(self):
        with pytest.raises(ValueError):
            ExecutionResult(ExecutionStatus.OK, "")
        assert ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, "").payload == ""


def hot_values():
    """One value of each type a run builds most often."""
    reflection = IntraReflection("fits", 9, True)
    call = ToolCall("lookup", {"q": "x", "n": [1, 2.5], "opt": None}, reflection)
    return {
        "TokenTotals": TokenTotals(1, 2, 3),
        "ChatRequest": ChatRequest("system", "user"),
        "IntraReflection": reflection,
        "GateOutcome": GateOutcome(reflection, 1, True),
        "ToolCall": call,
        "PlanNode": PlanNode("n1", "look it up", "lookup"),
        "TrajectoryStep": TrajectoryStep("n1", call, ExecutionResult(ExecutionStatus.OK, "found"), 2),
    }


class TestValue:
    """Value types behave as frozen dataclasses did: fixed fields, equality
    and hashing by field tuple within one class, and the same repr."""

    @pytest.mark.parametrize("name", sorted(hot_values()))
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = hot_values()[name]
        field = value.__slots__[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is before

    @pytest.mark.parametrize("name", sorted(hot_values()))
    def test_pickle_and_copy_give_an_equal_value(self, name):
        value = hot_values()[name]
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.copy(value) == value and copy.deepcopy(value) == value

    def test_equal_fields_in_different_types_are_not_equal(self):
        assert Thresholds(1, 2, 3) != TokenTotals(1, 2, 3)
        assert TokenTotals(1, 2, 3) != (1, 2, 3)
        assert TokenTotals(1, 2, 3) == TokenTotals(1, 2, 3)

    def test_equal_values_hash_equal(self):
        first, second = PlanNode("n1", "look it up", "lookup"), PlanNode("n1", "look it up", "lookup")
        assert first == second and first is not second
        assert hash(first) == hash(second) and len({first, second}) == 1
        assert first != PlanNode("n1", "look it up", "search")

    def test_value_holding_a_dict_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(hot_values()["ToolCall"])

    def test_repr_names_every_field(self):
        assert repr(IntraReflection("e", 9)) == "IntraReflection(evaluation='e', score=9, clamped=False)"

    def test_as_dict_json_equals_dataclasses_asdict(self):
        # The expected strings are json.dumps(dataclasses.asdict(...)) of the
        # same values, taken when these types were frozen dataclasses.
        task = TaskSpec(
            "t",
            "d",
            (ToolSpec("lookup", "find", (ParamSpec("units", ParamKind.ENUM, True, "u", ("c", "f")),)),),
            SuccessPredicate(PredicateKind.EXPECTED_CALLS, (ExpectedCall("lookup"), ExpectedCall("lookup", {"units": "c"}))),
        )
        assert json.dumps(as_dict(hot_values()["TrajectoryStep"])) == (
            '{"node_id": "n1", "call": {"function": "lookup", "parameters": {"q": "x", "n": [1, 2.5], "opt": null}, '
            '"reflection": {"evaluation": "fits", "score": 9, "clamped": true}}, '
            '"observation": {"status": "ok", "payload": "found"}, "attempt_index": 2}'
        )
        assert json.dumps(as_dict(task)) == (
            '{"id": "t", "description": "d", "tools": [{"name": "lookup", "description": "find", "parameters": '
            '[{"name": "units", "kind": "enum", "required": true, "description": "u", "values": ["c", "f"]}]}], '
            '"success_check": {"kind": "expected_calls", "payload": [{"function": "lookup", "parameters": null}, '
            '{"function": "lookup", "parameters": {"units": "c"}}]}}'
        )


# Any text, and short strings of the characters JSON escapes or passes through.
TEXT = st.text(max_size=8) | st.text('"\\/\x00\x1f\x7f\n\u2028é😀', max_size=4)
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324])
    | TEXT
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=16,
)


class TestIndentedJson:
    @settings(max_examples=60, deadline=None)
    @given(JSON_TREES)
    def test_equals_json_dumps_with_indent_2(self, value):
        assert indented_json(value) == json.dumps(value, ensure_ascii=False, indent=2)


class TestTaskJson:
    def test_round_trip_equality_and_bytes(self):
        task = two_tool_task(
            tools=(
                ToolSpec(
                    "alpha",
                    "first tool",
                    (
                        ParamSpec("q", ParamKind.STRING, True, "query"),
                        ParamSpec("n", ParamKind.NUMBER, False),
                        ParamSpec("mode", ParamKind.ENUM, False, "style", ("fast", "slow")),
                    ),
                ),
            ),
            success_check=expected_calls(
                [ExpectedCall("alpha", {"q": "x"}), ExpectedCall("alpha")]
            ),
        )
        assert task_from_dict(task_doc(task)) == task
        assert task_from_json(json.dumps(task_doc(task))) == task

    def test_answer_contains_round_trip(self):
        task = two_tool_task(success_check=answer_contains(["done", "128 EUR"]))
        assert task_from_dict(task_doc(task)) == task
        assert task_from_json(json.dumps(task_doc(task))) == task

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "{}",
            '{"id": "x", "description": "d", "tools": "nope", "success_check": {"kind": "answer_contains", "payload": []}}',
            '{"id": "x", "description": "d", "tools": [], "success_check": {"kind": "bogus", "payload": null}}',
        ],
    )
    def test_malformed_documents_raise(self, text):
        with pytest.raises(ValueError):
            task_from_json(text)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["tools"][0].update(name=7), "tool name must be a string, got int"),
            (lambda d: d["tools"][0].update(description=None), "tool 'alpha' description must be a string"),
            (lambda d: d["tools"][0]["parameters"][0].update(name=1), "parameter name must be a string"),
            (lambda d: d["tools"][0]["parameters"][0].update(description=[]), "parameter 'q' description must"),
            (lambda d: d["tools"][0]["parameters"][1].update(values=["fast", 1]), "'mode' values entry must"),
            (lambda d: d["success_check"]["payload"][0].update(function=1), "expected call function must"),
            (lambda d: d["success_check"]["payload"][0].update(parameters=[]), "parameters must be an object"),
            (lambda d: d["success_check"].update(kind="answer_contains", payload=[1]), "answer_contains entry"),
        ],
    )
    def test_wrong_typed_field_is_named_not_coerced(self, edit, message):
        params = (ParamSpec("q", ParamKind.STRING, True), ParamSpec("mode", ParamKind.ENUM, True, "", ("fast",)))
        task = two_tool_task(
            tools=(ToolSpec("alpha", "a", params),),
            success_check=expected_calls([ExpectedCall("alpha")]),
        )
        doc = task_doc(task)
        edit(doc)
        with pytest.raises(ValueError, match=message):
            task_from_dict(doc)
