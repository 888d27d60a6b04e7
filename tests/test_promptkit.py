"""Template loading/rendering, JSON extraction corpus, output validation."""

import json
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualreflect.model import FinalAnswer, Plan, RunConfig, ToolCall
from dualreflect.orchestrator import RunStatus, run_task
from dualreflect.promptkit import (
    MalformedJson,
    MissingSlot,
    NoJsonFound,
    OutputKind,
    PromptError,
    PromptTemplate,
    SchemaError,
    TemplateName,
    default_templates,
    extract_json,
    load_templates,
    render,
    render_related_outputs,
    render_tool_list,
    validate_output,
)
from scenarios import (
    answer_json,
    make_backend,
    make_registry,
    make_task,
    manifest_mismatches,
    planner_json,
    step,
    tool_json,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_corpus():
    return json.loads((FIXTURES / "extract_json_corpus.json").read_text(encoding="utf-8"))


class TestTemplates:
    def test_all_eight_templates_load(self):
        templates = default_templates()
        assert set(templates) == set(TemplateName)

    def test_manifest_matches_golden_hashes(self):
        assert manifest_mismatches() == []

    def test_tampered_template_detected(self, tmp_path):
        import dualreflect

        prompt_dir = Path(dualreflect.__file__).parent / "prompts"
        for f in prompt_dir.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        target = tmp_path / "PlannerUser.txt"
        target.write_text(target.read_text(encoding="utf-8") + "extra line\n", encoding="utf-8")
        mismatches = manifest_mismatches(tmp_path)
        assert len(mismatches) == 1 and "PlannerUser.txt" in mismatches[0]

    def test_template_missing_from_manifest_detected(self, tmp_path):
        import dualreflect

        prompt_dir = Path(dualreflect.__file__).parent / "prompts"
        for f in prompt_dir.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        manifest = tmp_path / "MANIFEST.sha256"
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if "AnswerSystem.txt" not in line), encoding="utf-8")
        assert manifest_mismatches(tmp_path) == ["AnswerSystem.txt: missing from manifest"]

    def test_load_rejects_wrong_slots(self, tmp_path):
        import dualreflect

        prompt_dir = Path(dualreflect.__file__).parent / "prompts"
        for f in prompt_dir.iterdir():
            (tmp_path / f.name).write_bytes(f.read_bytes())
        (tmp_path / "AnswerUser.txt").write_text("Given Task:\n{task_description}\n", encoding="utf-8")
        with pytest.raises(PromptError):
            load_templates(tmp_path)


class TestRender:
    def test_planner_user_fills_all_slots(self):
        templates = default_templates()
        text = render(
            templates[TemplateName.PLANNER_USER],
            {"task_description": "the task", "long_memory": "none", "functions": "- f: desc"},
        )
        for marker in ("{task_description}", "{long_memory}", "{functions}"):
            assert marker not in text
        assert "the task" in text and "Available Functions:" in text

    def test_missing_slot_is_named(self):
        templates = default_templates()
        with pytest.raises(MissingSlot) as err:
            render(templates[TemplateName.TOOL_USER], {"subtask": "s", "related_outputs": "r"})
        assert err.value.placeholder == "short_memory"

    def test_brace_bearing_slot_values_pass_through_unscanned(self):
        # A value containing another template's slot marker must survive
        # untouched and must not be re-substituted.
        templates = default_templates()
        payload = 'tool emitted {"weird": "{long_memory}", "n": {"m": 1}}'
        text = render(
            templates[TemplateName.TOOL_USER],
            {"subtask": "s", "related_outputs": payload, "short_memory": "none"},
        )
        expected = templates[TemplateName.TOOL_USER].body
        expected = expected.replace("{subtask}", "s")
        expected = expected.replace("{related_outputs}", payload)
        expected = expected.replace("{short_memory}", "none")
        assert text == expected
        assert payload in text

    def test_system_templates_render_verbatim(self):
        templates = default_templates()
        body = templates[TemplateName.PLANNER_SYSTEM].body
        assert render(templates[TemplateName.PLANNER_SYSTEM], {}) == body
        assert '"score": <score>' in body  # the JSON example block survives loading


def regex_render(template, slots):
    """Reference ``render``: one regex alternation over the declared slots,
    substituted in a single pass."""
    if not template.placeholders:
        return template.body
    pattern = re.compile("|".join(re.escape("{" + p + "}") for p in template.placeholders))
    return pattern.sub(lambda m: slots[m.group(0)[1:-1]], template.body)


#: Slot names, some of them prefixes of others.
SLOT_NAMES = ("a", "ab", "abc", "b", "_x", "task_1")


@st.composite
def templates_with_slots(draw):
    """A body mixing literal text, stray braces, undeclared ``{x}`` markers
    and declared slots (repeated and adjacent), with values that carry
    braces and slot markers of their own."""
    picked = draw(st.permutations(SLOT_NAMES))
    names = picked[: draw(st.integers(0, 4))]  # the rest stay undeclared
    markers = [f"{{{n}}}" for n in picked]
    text = st.text(alphabet="ab_{} \nλ", max_size=6) | st.sampled_from(["{", "}", "{}", "{{"])
    piece = text | st.sampled_from(markers)
    body = "".join(draw(st.lists(piece, max_size=12)))
    value = st.text(max_size=6) | st.lists(piece, max_size=3).map("".join)
    slots = draw(st.fixed_dictionaries({n: value for n in names}))
    return PromptTemplate(TemplateName.PLANNER_USER, body, tuple(names)), slots


class TestRenderMatchesRegexSubstitution:
    @settings(max_examples=300, deadline=None)
    @given(templates_with_slots())
    def test_generated_templates(self, case):
        template, slots = case
        assert render(template, slots) == regex_render(template, slots)
        assert render(template, slots) == regex_render(template, slots)  # the split body is reused

    @pytest.mark.parametrize("name", list(TemplateName))
    def test_packaged_templates(self, name):
        template = default_templates()[name]
        slots = {p: f"<{p} {{{p}}} {{x}}>" for p in template.placeholders}
        assert render(template, slots) == regex_render(template, slots)


class TestExtractJsonCorpus:
    @pytest.mark.parametrize("entry", load_corpus(), ids=lambda e: e["name"])
    def test_corpus_entry(self, entry):
        raw = entry["raw"]
        if entry["expect"] == "object":
            assert extract_json(raw) == entry["object"]
        elif entry["expect"] == "no_json":
            with pytest.raises(NoJsonFound):
                extract_json(raw)
        else:
            with pytest.raises(MalformedJson) as err:
                extract_json(raw)
            if "offset" in entry:
                assert err.value.offset == entry["offset"]

    def test_corpus_is_large_enough(self):
        corpus = load_corpus()
        assert len(corpus) >= 20
        assert sum(1 for e in corpus if e["expect"] != "object") >= 4

    def test_round_trip_render_then_extract(self):
        # A rendered prompt whose slot carries valid JSON output still yields
        # exactly that JSON on extraction.
        templates = default_templates()
        obj = {"answer": "done", "intra_reflection": {"evaluation": "ok", "score": 9}}
        text = render(
            templates[TemplateName.ANSWER_USER],
            {"task_description": "plain words, no braces", "trajectory": json.dumps(obj)},
        )
        assert extract_json(text) == obj


class TestValidateOutput:
    def test_planner_output_builds_pending_plan(self):
        corpus = {e["name"]: e for e in load_corpus()}
        value = extract_json(corpus["planner_shaped_fenced"]["raw"])
        plan = validate_output(value, OutputKind.PLANNER)
        assert isinstance(plan, Plan)
        assert len(plan.nodes) == 2
        assert plan.reflection.score == 9

    def test_corpus_validation_outcomes(self):
        for entry in load_corpus():
            spec = entry.get("validate")
            if spec is None:
                continue
            kind = OutputKind(spec["kind"])
            value = extract_json(entry["raw"])
            if spec["outcome"] == "ok":
                result = validate_output(value, kind)
                if "score" in spec:
                    assert result.reflection.score == spec["score"], entry["name"]
                if "clamped" in spec:
                    assert result.reflection.clamped is spec["clamped"], entry["name"]
            else:
                with pytest.raises(SchemaError):
                    validate_output(value, kind)

    def test_schema_error_lists_every_problem(self):
        bad = {"nodes": [{"id": "", "status": 2, "subtask": "", "function": ""}], "intra_reflection": {}}
        with pytest.raises(SchemaError) as err:
            validate_output(bad, OutputKind.PLANNER)
        assert len(err.value.problems) >= 5

    def test_tool_output_becomes_tool_call(self):
        value = {"function": "f", "parameters": {"a": 1}, "intra_reflection": {"evaluation": "e", "score": 8}}
        call = validate_output(value, OutputKind.TOOL)
        assert isinstance(call, ToolCall) and call.parameters == {"a": 1}

    def test_answer_clamp_flag_set(self):
        value = {"answer": "done", "intra_reflection": {"evaluation": "e", "score": 11}}
        answer = validate_output(value, OutputKind.ANSWER)
        assert isinstance(answer, FinalAnswer)
        assert answer.reflection.score == 10 and answer.reflection.clamped

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            validate_output([1, 2], OutputKind.ANSWER)

    @pytest.mark.parametrize(
        "kind, reply, problem",
        [
            (OutputKind.PLANNER, {"nodes": 5}, "nodes: expected an array"),
            (OutputKind.PLANNER, {"nodes": [5]}, "nodes[0]: expected an object"),
            (OutputKind.TOOL, {"function": "f", "parameters": [1]}, "parameters: expected an object keyed by parameter name"),
            (OutputKind.ANSWER, {"answer": "done", "intra_reflection": 5}, "intra_reflection: expected an object with evaluation and score"),
            (OutputKind.TOOL, {"function": "f", "parameters": {1: "x"}}, "parameters: expected an object keyed by parameter name"),
        ],
        ids=["nodes", "node", "parameters", "intra_reflection", "parameter-key"],
    )  # fmt: skip
    def test_mistyped_field_is_named(self, kind, reply, problem):
        with pytest.raises(SchemaError) as err:
            validate_output({"intra_reflection": {"evaluation": "e", "score": 9}, **reply}, kind)
        assert err.value.problems == (problem,)


class TestSlotBuilders:
    def test_tool_list_mentions_every_tool_and_param(self):
        from dualreflect.model import ParamKind, ParamSpec, ToolSpec

        text = render_tool_list(
            [
                ToolSpec("alpha", "does a", (ParamSpec("q", ParamKind.STRING, True, "query"),)),
                ToolSpec("beta", "does b", (ParamSpec("mode", ParamKind.ENUM, False, "", ("x", "y")),)),
                ToolSpec("gamma", "does c", ()),
            ]
        )
        assert "- alpha: does a" in text and "q (string, required): query" in text
        assert "enum[x|y]" in text
        assert text.endswith("\n- gamma: does c\n  parameters: none")

    def test_related_outputs_sentinel_and_order(self):
        assert render_related_outputs([]) == "No completed subtasks yet."
        text = render_related_outputs([("n1", "first"), ("n2", "second")])
        assert text.index("n1: first") < text.index("n2: second")


# Arbitrary JSON, with the non-finite floats Python's json module reads and
# writes. Replies are mostly shaped like the agent output schemas so that
# most of them get as far as score parsing.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=10,
)
NAMES = st.text(min_size=1, max_size=8) | JSON_VALUES
SCORES = st.sampled_from([float("nan"), float("inf"), float("-inf")]) | st.floats() | st.integers() | JSON_VALUES
REFLECTIONS = st.fixed_dictionaries({"evaluation": NAMES, "score": SCORES}) | JSON_VALUES
NODES = st.fixed_dictionaries({"id": NAMES, "subtask": NAMES, "function": NAMES, "status": st.just(0) | JSON_VALUES})
REPLIES = (
    st.fixed_dictionaries({"nodes": st.lists(NODES, max_size=3) | JSON_VALUES, "intra_reflection": REFLECTIONS})
    | st.fixed_dictionaries(
        {
            "function": NAMES,
            "parameters": st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=3) | JSON_VALUES,
            "intra_reflection": REFLECTIONS,
        }
    )
    | st.fixed_dictionaries({"answer": NAMES, "intra_reflection": REFLECTIONS})
    | st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4)
)
COMPLETIONS = st.text() | st.tuples(st.text(max_size=10), REPLIES, st.text(max_size=10)).map(
    lambda parts: parts[0] + json.dumps(parts[1]) + parts[2]
)

# Replies with every field of the right JSON type, so most of them reach a
# typed value: the strings may be empty or hold a lone surrogate, node ids
# repeat, a score may be out of range, fractional or a bool, and a parameter
# may be NaN or infinite.
# One reply carries the fields of all three agents; each kind reads only its
# own. The second kind is a valid tool reply but for one NaN or infinite
# parameter, possibly nested: only the finite-number check refuses it.
SHORT = st.sampled_from(["", "a", "b", "ab", "ba", "a\ud800"])
SHAPED_NODES = st.fixed_dictionaries({"id": SHORT, "subtask": SHORT, "function": SHORT, "status": st.just(0)})
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
SHAPED_REPLIES = st.fixed_dictionaries(
    {
        "nodes": st.lists(SHAPED_NODES, min_size=1, max_size=3),
        "function": SHORT,
        "parameters": st.dictionaries(SHORT, st.floats(), max_size=2),
        "answer": SHORT,
        "intra_reflection": st.fixed_dictionaries(
            {"evaluation": SHORT, "score": st.integers(-1, 12) | st.floats(-1, 12) | st.booleans()}
        ),
    }
) | st.fixed_dictionaries(
    {
        "function": st.sampled_from(["a", "ab"]),
        "parameters": st.fixed_dictionaries(
            {"q": NON_FINITE | st.lists(NON_FINITE, min_size=1, max_size=2).map(lambda items: [items])},
            optional={"r": st.integers() | st.text(alphabet="ab", max_size=3)},
        ),
        "intra_reflection": st.fixed_dictionaries(
            {"evaluation": st.sampled_from(["a", "ab"]), "score": st.integers(1, 10)}
        ),
    }
)

NOT_FINITE = "intra_reflection.score: expected a finite number"
NOT_A_NUMBER = "intra_reflection.score: expected a number"
# json.dumps writes it as the ASCII escape a model could send.
LONE = "a\udc00b"


def nonempty_str(value):
    return isinstance(value, str) and value != ""


class TestModelOutputBoundary:
    @settings(max_examples=300, deadline=None)
    @given(COMPLETIONS | SHAPED_REPLIES.map(json.dumps))
    def test_any_completion_is_typed_or_prompt_error(self, text):
        # The parser is the one owner of these facts: the typed values do not
        # re-check them, so every value it builds must already hold them.
        for kind in OutputKind:
            try:
                value = validate_output(extract_json(text), kind)
            except PromptError:
                continue
            assert isinstance(value, (Plan, ToolCall, FinalAnswer))
            score = value.reflection.score
            assert nonempty_str(value.reflection.evaluation)
            assert type(score) is int and 1 <= score <= 10
            kept = [value.reflection.evaluation]
            if isinstance(value, Plan):
                ids = [node.id for node in value.nodes]
                assert len(set(ids)) == len(ids)
                for node in value.nodes:
                    assert nonempty_str(node.id) and nonempty_str(node.subtask) and nonempty_str(node.function)
                    kept += [node.id, node.subtask, node.function]
            elif isinstance(value, ToolCall):
                assert nonempty_str(value.function)
                kept += [value.function, value.parameters]
            else:
                assert nonempty_str(value.text)
                kept.append(value.text)
            # Every prompt and trace line that quotes the value can be written.
            json.dumps(kept, ensure_ascii=False, allow_nan=False).encode("utf-8")

    @pytest.mark.parametrize(
        "literal, message",
        [pytest.param(literal, NOT_FINITE, id=literal) for literal in ("NaN", "Infinity", "-Infinity", "1e400", "-1e400")]
        # A bool is an int to Python; the parser is the only check that refuses it.
        + [pytest.param(literal, NOT_A_NUMBER, id=literal) for literal in ("true", '"8"')],
    )
    def test_non_finite_score_is_schema_error(self, literal, message):
        raw = '{"answer": "done", "intra_reflection": {"evaluation": "e", "score": %s}}' % literal
        with pytest.raises(SchemaError) as err:
            validate_output(extract_json(raw), OutputKind.ANSWER)
        assert err.value.problems == (message,)

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "[[1e400]]"])
    def test_non_finite_parameter_is_schema_error(self, literal):
        raw = '{"function": "f", "parameters": {"q": %s}, "intra_reflection": {"evaluation": "e", "score": 9}}' % literal
        with pytest.raises(SchemaError) as err:
            validate_output(extract_json(raw), OutputKind.TOOL)
        assert err.value.problems == ("parameters: expected finite numbers",)

    @pytest.mark.parametrize(
        "kind, reply, field",
        [
            (OutputKind.PLANNER, {"nodes": [{"id": LONE, "status": 0, "subtask": "s", "function": "f"}]}, "nodes[0].id"),
            (OutputKind.PLANNER, {"nodes": [{"id": "n", "status": 0, "subtask": LONE, "function": "f"}]}, "nodes[0].subtask"),
            (OutputKind.PLANNER, {"nodes": [{"id": "n", "status": 0, "subtask": "s", "function": LONE}]}, "nodes[0].function"),
            (OutputKind.ANSWER, {"answer": "done", "intra_reflection": {"evaluation": LONE, "score": 9}}, "intra_reflection.evaluation"),
            (OutputKind.TOOL, {"function": LONE, "parameters": {}}, "function"),
            (OutputKind.TOOL, {"function": "f", "parameters": {LONE: 1}}, "parameters"),
            (OutputKind.TOOL, {"function": "f", "parameters": {"q": [{"r": LONE}]}}, "parameters"),
            (OutputKind.ANSWER, {"answer": LONE}, "answer"),
        ],
        ids=["node-id", "node-subtask", "node-function", "evaluation", "function", "parameter-name", "parameter-value", "answer"],
    )  # fmt: skip
    def test_lone_surrogate_is_schema_error(self, kind, reply, field):
        raw = json.dumps({"intra_reflection": {"evaluation": "e", "score": 9}, **reply})
        assert raw.isascii()  # the backend takes it; extract_json decodes the escape
        with pytest.raises(SchemaError) as err:
            validate_output(extract_json(raw), kind)
        assert err.value.problems == (f"{field}: holds a lone surrogate, which is not UTF-8 text",)

    @pytest.mark.parametrize(
        "index, reply",
        [
            # Rejected: the revision prompt would quote the evaluation.
            pytest.param(0, planner_json([("n1", "use alpha once", "alpha")], 5, evaluation=LONE), id="plan-evaluation"),
            # Executed: the trace line would hold the parameter.
            pytest.param(1, tool_json("alpha", {"q": LONE}, 9), id="tool-parameter"),
        ],
    )
    def test_lone_surrogate_reply_costs_one_parse_retry(self, tmp_path, index, reply):
        steps = [
            step(planner_json([("n1", "use alpha once", "alpha")], 9)),
            step(tool_json("alpha", {"q": "x"}, 9)),
            step(answer_json("the final summary", 9)),
        ]
        steps.insert(index, step(reply))
        backend = make_backend(steps)
        trace = tmp_path / "trace.jsonl"
        result = run_task(make_task(["alpha"]), RunConfig(), backend, make_registry(["alpha"]), trace_path=trace)
        assert result.status is RunStatus.ACCEPTED
        retried = [e["agent"] for e in result.events if e["kind"] == "agent_call" and e["parse_try"] == 1]
        assert retried == [("planner", "tool")[index]]
        assert "holds a lone surrogate, which is not UTF-8 text" in backend.requests[index + 1].user
        assert trace.read_text(encoding="utf-8") == result.trace_jsonl()

    def test_deep_finite_parameter_is_accepted(self):
        # extract_json accepts nests almost as deep as the recursion limit;
        # this one is deeper, so a recursive walk could not check it.
        nest = 1.5
        for _ in range(sys.getrecursionlimit()):
            nest = [nest]
        value = {"function": "f", "parameters": {"q": nest}, "intra_reflection": {"evaluation": "e", "score": 9}}
        assert isinstance(validate_output(value, OutputKind.TOOL), ToolCall)

    def test_nan_scored_reply_costs_one_parse_retry(self):
        nodes = [("n1", "use alpha once", "alpha")]
        steps = [
            step(planner_json(nodes, float("nan"))),
            step(planner_json(nodes, 9)),
            step(tool_json("alpha", {"q": "x"}, 9)),
            step(answer_json("the final summary", 9)),
        ]
        result = run_task(make_task(["alpha"]), RunConfig(), make_backend(steps), make_registry(["alpha"]))
        assert result.status is RunStatus.ACCEPTED
        calls = [(e["agent"], e["attempt"], e["parse_try"]) for e in result.events if e["kind"] == "agent_call"]
        assert calls == [("planner", 1, 0), ("planner", 1, 1), ("tool", 1, 0), ("answer", 1, 0)]
        assert result.events[-1]["kind"] == "run_end"

    def test_deep_nesting_is_malformed_json_at_the_first_brace(self):
        start = time.perf_counter()
        with pytest.raises(MalformedJson, match="at byte 6: nesting too deep"):
            extract_json('prose ' + '{"a":' * 100000)
        assert time.perf_counter() - start < 0.5

    def test_deeply_nested_reply_costs_one_parse_retry(self):
        nodes = [("n1", "use alpha once", "alpha")]
        steps = [
            step('{"a":' * 100000),
            step(planner_json(nodes, 9)),
            step(tool_json("alpha", {"q": "x"}, 9)),
            step(answer_json("the final summary", 9)),
        ]
        result = run_task(make_task(["alpha"]), RunConfig(), make_backend(steps), make_registry(["alpha"]))
        assert result.status is RunStatus.ACCEPTED
        calls = [(e["agent"], e["attempt"], e["parse_try"]) for e in result.events if e["kind"] == "agent_call"]
        assert calls == [("planner", 1, 0), ("planner", 1, 1), ("tool", 1, 0), ("answer", 1, 0)]
        assert result.events[-1]["kind"] == "run_end"
