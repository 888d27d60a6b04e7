"""Shared scenario machinery for the test suite.

Builds scripted-backend step lists in the exact order the round loop
consumes them, together with the matching task, sandbox registry, and the
outcome the scenario was authored to produce. The randomized generator
simulates the control flow independently of the engine (tool call counters,
retry caps, gate thresholds) so trace-level assertions have a second opinion
to check against.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import dualreflect
from dualreflect.backend import ChatResponse, ScriptedBackend, ScriptStep
from dualreflect.model import (
    ExpectedCall,
    ParamKind,
    ParamSpec,
    PredicateKind,
    RunConfig,
    SuccessPredicate,
    TaskSpec,
    Thresholds,
    ToolSpec,
    as_dict,
)
from dualreflect.promptkit import TemplateName
from dualreflect.sandbox import BehaviorRule, ExecutionResult, ExecutionStatus, SandboxRegistry, SandboxTool

# --- Agent-output JSON builders -------------------------------------------------


def planner_json(nodes: list[tuple[str, str, str]], score: int | float, evaluation: str = "plan looks solid") -> str:
    return json.dumps(
        {
            "nodes": [
                {"id": node_id, "status": 0, "subtask": subtask, "function": function}
                for node_id, subtask, function in nodes
            ],
            "intra_reflection": {"evaluation": evaluation, "score": score},
        }
    )


def tool_json(function: str, parameters: dict[str, Any], score: int | float, evaluation: str = "call fits the subtask") -> str:
    return json.dumps(
        {
            "function": function,
            "parameters": parameters,
            "intra_reflection": {"evaluation": evaluation, "score": score},
        }
    )


def answer_json(text: str, score: int | float, evaluation: str = "answer covers the task") -> str:
    return json.dumps({"answer": text, "intra_reflection": {"evaluation": evaluation, "score": score}})


def step(text: str, prompt_tokens: int = 100, completion_tokens: int = 25) -> ScriptStep:
    return ScriptStep(response=ChatResponse(text, prompt_tokens, completion_tokens))


def make_backend(steps: list[ScriptStep]) -> ScriptedBackend:
    return ScriptedBackend(steps)


def cyclic_garbage(action) -> int:
    """Objects that only the cyclic garbage collector can free, left behind by
    ``action()``: the collector is off while it runs, then counts them."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


# --- Simple task/registry builders ----------------------------------------------


def expected_calls(calls: list[ExpectedCall] | tuple[ExpectedCall, ...]) -> SuccessPredicate:
    return SuccessPredicate(PredicateKind.EXPECTED_CALLS, tuple(calls))


def answer_contains(substrings: list[str] | tuple[str, ...]) -> SuccessPredicate:
    return SuccessPredicate(PredicateKind.ANSWER_CONTAINS, tuple(substrings))


def all_nodes_succeeded() -> SuccessPredicate:
    return SuccessPredicate(PredicateKind.ALL_NODES_SUCCEEDED)


def simple_tool(name: str, fail_first: int = 0, payload: str | None = None) -> SandboxTool:
    """A tool with one optional string parameter that fails its first
    ``fail_first`` (valid) calls and succeeds afterwards."""
    spec = ToolSpec(
        name=name,
        description=f"simulated tool {name}",
        parameters=(ParamSpec(name="q", kind=ParamKind.STRING, required=False),),
    )
    rules = tuple(
        BehaviorRule(
            result=ExecutionResult(ExecutionStatus.SIMULATED_FAILURE, f"{name} transient failure {i}"),
            call_index=i,
        )
        for i in range(1, fail_first + 1)
    )
    return SandboxTool(spec=spec, default=ExecutionResult(ExecutionStatus.OK, payload or f"{name} result"), rules=rules)


def make_task(
    tool_names: list[str],
    predicate: SuccessPredicate | None = None,
    task_id: str = "task",
    description: str = "Exercise the simulated tools and summarize the results.",
) -> TaskSpec:
    tools = tuple(simple_tool(name).spec for name in tool_names)
    return TaskSpec(
        id=task_id,
        description=description,
        tools=tools,
        success_check=predicate or all_nodes_succeeded(),
    )


def make_registry(tool_names: list[str], fail_first: dict[str, int] | None = None) -> SandboxRegistry:
    fail_first = fail_first or {}
    return SandboxRegistry([simple_tool(name, fail_first.get(name, 0)) for name in tool_names])


# --- Randomized scenarios ---------------------------------------------------------


@dataclass
class Scenario:
    """A scripted run plus the outcome it was authored to produce."""

    seed: int
    task: TaskSpec
    registry: SandboxRegistry
    steps: list[ScriptStep]
    config: RunConfig
    expected_status: str
    expected_rounds: int
    expected_failed_rounds: int
    expected_final_round: int
    expected_answer_score: int | None
    declared_scores: dict[str, list[int]] = field(default_factory=dict)

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend(self.steps)


GARBAGE = "I could not decide on a structured reply this time."


def build_random_scenario(seed: int) -> Scenario:
    """Author a random but fully determined scripted scenario.

    Mixes in gate-failing revisions, forced outcomes, parse garbage,
    divergent tool picks, transient executor failures, dead subtasks, and
    rejected answers. All expectations are computed here, independently of
    the engine, by simulating the documented control flow.
    """
    rng = random.Random(seed)
    thresholds = Thresholds(theta_p=9, theta_t=8, theta_a=8)
    config = RunConfig(thresholds=thresholds, max_rounds=rng.randint(1, 5))
    tool_names = [f"tool{i}" for i in range(rng.randint(1, 4))]
    fail_first = {name: rng.choice([0, 0, 0, 1, 2, 3]) for name in tool_names}
    task = make_task(tool_names, task_id=f"rand-{seed}")
    registry = make_registry(tool_names, fail_first)

    texts: list[str] = []
    declared: dict[str, list[int]] = {"planner": [], "tool": [], "answer": []}
    counters = {name: 0 for name in tool_names}

    def emit(agent: str, text: str, score: int | None) -> None:
        texts.append(text)
        if score is not None:
            declared[agent].append(score)

    def maybe_garbage() -> None:
        if rng.random() < 0.10:
            texts.append(GARBAGE)

    status = "exhausted"
    failed_rounds = 0
    rounds_used = 0
    answers: list[tuple[int, int]] = []  # (score, round)

    for round_index in range(1, config.max_rounds + 1):
        rounds_used = round_index
        nodes = [
            (f"r{round_index}n{i}", f"subtask {i} of round {round_index}", rng.choice(tool_names))
            for i in range(1, rng.randint(1, 3) + 1)
        ]

        # Planner: occasional rejected revisions, rarely a forced best-of.
        roll = rng.random()
        if roll < 0.05:
            plan_scores = [rng.randint(5, 8) for _ in range(config.revision_cap)]
        elif roll < 0.30:
            plan_scores = [rng.randint(5, 8), rng.randint(9, 10)]
        else:
            plan_scores = [rng.randint(9, 10)]
        for attempt, score in enumerate(plan_scores, 1):
            maybe_garbage()
            emit("planner", planner_json(nodes, score, f"plan r{round_index} attempt {attempt}"), score)

        round_dead = False
        for node_id, subtask, bound_function in nodes:
            succeeded = False
            for attempt in range(1, config.subtask_retry_cap + 1):
                called = bound_function
                if len(tool_names) > 1 and rng.random() < 0.10:
                    called = rng.choice([n for n in tool_names if n != bound_function])
                params = {"q": f"{node_id} attempt {attempt}"}
                roll = rng.random()
                if roll < 0.05:
                    tool_scores = [rng.randint(4, 7) for _ in range(config.revision_cap)]
                elif roll < 0.25:
                    tool_scores = [rng.randint(4, 7), rng.randint(8, 10)]
                else:
                    tool_scores = [rng.randint(8, 10)]
                for rev, score in enumerate(tool_scores, 1):
                    maybe_garbage()
                    emit("tool", tool_json(called, params, score, f"pick for {node_id} attempt {attempt} rev {rev}"),
                         score)
                counters[called] += 1
                if counters[called] > fail_first[called]:
                    succeeded = True
                    break
            if not succeeded:
                round_dead = True
                break
        if round_dead:
            failed_rounds += 1
            continue

        accept = rng.random() < 0.35
        score = rng.randint(8, 10) if accept else rng.randint(4, 7)
        maybe_garbage()
        emit("answer", answer_json(f"Round {round_index} summary for seed {seed}.", score), score)
        answers.append((score, round_index))
        if accept:
            status = "accepted"
            break
        failed_rounds += 1

    if answers:
        best_score = max(score for score, _ in answers)
        final_round = min(r for score, r in answers if score == best_score)
        answer_score = best_score
    else:
        final_round = 0
        answer_score = None

    steps = [
        step(text, prompt_tokens=100 + (13 * i) % 97, completion_tokens=10 + (7 * i) % 53)
        for i, text in enumerate(texts)
    ]
    return Scenario(
        seed=seed,
        task=task,
        registry=registry,
        steps=steps,
        config=config,
        expected_status=status,
        expected_rounds=rounds_used,
        expected_failed_rounds=failed_rounds,
        expected_final_round=final_round,
        expected_answer_score=answer_score,
        declared_scores=declared,
    )


# --- The two-round correction case study -----------------------------------------


CASE_TOOLS = ("find_exhibition", "check_weather", "book_table", "estimate_budget")

CASE_PAYLOADS = {
    "find_exhibition": "Impressionist masters exhibition at Musee d'Orsay, open 09:30-18:00.",
    "check_weather": "Sunny, 22 C, light breeze all day.",
    "book_table": "Table for two booked at Le Jardin at 12:30.",
    "estimate_budget": "Estimated total: 128 EUR (tickets 32, lunch 70, transit 26).",
}


def case_study_task() -> TaskSpec:
    tools = tuple(
        ToolSpec(
            name=name,
            description=f"Simulated {name.replace('_', ' ')} lookup.",
            parameters=(
                ParamSpec(name="city", kind=ParamKind.STRING, required=True),
                ParamSpec(name="query", kind=ParamKind.STRING, required=False),
            ),
        )
        for name in CASE_TOOLS
    )
    return TaskSpec(
        id="city-day-trip",
        description=(
            "Plan a one-day museum visit to Paris on 2026-09-12 within a 150 EUR budget: "
            "find an exhibition, check the weather, book a lunch table, and estimate the total cost."
        ),
        tools=tools,
        success_check=answer_contains(["Musee d'Orsay", "128 EUR"]),
    )


def case_study_registry() -> SandboxRegistry:
    tools = [
        SandboxTool(
            spec=spec,
            default=ExecutionResult(ExecutionStatus.OK, CASE_PAYLOADS[spec.name]),
        )
        for spec in case_study_task().tools
    ]
    return SandboxRegistry(tools)


def case_study_steps() -> list[ScriptStep]:
    """Script for the two-round flow: a flawed tool pick corrected by its own
    gate in round 1, a rejected round-1 answer, and a round-2 plan that adds
    the missing budget subtask and is accepted."""
    round1_nodes = [
        ("r1n1", "Find a museum exhibition in Paris for 2026-09-12.", "find_exhibition"),
        ("r1n2", "Check the weather in Paris for 2026-09-12.", "check_weather"),
        ("r1n3", "Book a lunch table in Paris for 2026-09-12.", "book_table"),
    ]
    round2_nodes = [
        ("r2n1", "Find a museum exhibition in Paris for 2026-09-12.", "find_exhibition"),
        ("r2n2", "Check the weather in Paris for 2026-09-12.", "check_weather"),
        ("r2n3", "Book a lunch table in Paris for 2026-09-12.", "book_table"),
        ("r2n4", "Estimate the total cost of the day against the 150 EUR budget.", "estimate_budget"),
    ]
    texts = [
        planner_json(round1_nodes, 9, "Plan covers exhibition, weather, and lunch."),
        # Round 1, node 1: flawed parameters, then corrected by the tool gate.
        tool_json("find_exhibition", {"city": "Paris", "query": "next saturday"}, 6,
                  "The date is vague relative wording instead of the required 2026-09-12."),
        tool_json("find_exhibition", {"city": "Paris", "query": "exhibitions on 2026-09-12"}, 9,
                  "Query now pins the exact date from the task."),
        tool_json("check_weather", {"city": "Paris", "query": "2026-09-12"}, 8),
        tool_json("book_table", {"city": "Paris", "query": "lunch 12:30"}, 9),
        # Round 1 answer: rejected.
        answer_json(
            "Visit the Impressionist masters exhibition at Musee d'Orsay, expect sunny weather, "
            "and have lunch at Le Jardin at 12:30.",
            7,
            "The task asked for a budget estimate and the answer has none.",
        ),
        planner_json(round2_nodes, 9, "Added the missing budget-estimation subtask."),
        tool_json("find_exhibition", {"city": "Paris", "query": "exhibitions on 2026-09-12"}, 9),
        tool_json("check_weather", {"city": "Paris", "query": "2026-09-12"}, 8),
        tool_json("book_table", {"city": "Paris", "query": "lunch 12:30"}, 9),
        tool_json("estimate_budget", {"city": "Paris", "query": "tickets+lunch+transit"}, 9),
        # Round 2 answer: accepted.
        answer_json(
            "Spend the day at the Impressionist masters exhibition at Musee d'Orsay (sunny, 22 C), "
            "lunch at Le Jardin at 12:30, with an estimated total of 128 EUR - inside the 150 EUR budget.",
            9,
            "Answer now covers every subtask including the budget.",
        ),
    ]
    return [
        step(text, prompt_tokens=200 + 10 * i, completion_tokens=40 + 5 * i)
        for i, text in enumerate(texts)
    ]


def case_study_config() -> RunConfig:
    return RunConfig(thresholds=Thresholds(theta_p=9, theta_t=8, theta_a=8), max_rounds=5)


# --- Materializing bundles on disk ------------------------------------------------


def task_doc(task: TaskSpec) -> dict[str, Any]:
    """The ``task.json`` document of ``task``: str enums encode as their
    values, tuples as arrays and a wildcard expected call's parameters as null."""
    return json.loads(json.dumps(as_dict(task)))


def sandbox_doc(registry: SandboxRegistry) -> dict[str, Any]:
    """The ``sandbox.json`` document of ``registry``."""
    tools = []
    for spec in registry.tool_specs():
        tool = registry.get(spec.name)
        rules = []
        for rule in tool.rules:
            when = {"params": rule.params, "call_index": rule.call_index}
            rules.append({"when": {k: v for k, v in when.items() if v is not None}, "result": as_dict(rule.result)})
        tools.append({"spec": as_dict(spec), "default": as_dict(tool.default), "rules": rules})
    return {"tools": tools}


def write_bundle(root, task: TaskSpec, registry: SandboxRegistry, steps: list[ScriptStep] | None) -> None:
    """Write a runnable task bundle (task.json, sandbox.json, script.jsonl)."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for name, doc in [("task.json", task_doc(task)), ("sandbox.json", sandbox_doc(registry))]:
        (root / name).write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    if steps is not None:
        lines = [
            json.dumps(
                {
                    "text": s.response.text,
                    "prompt_tokens": s.response.prompt_tokens,
                    "completion_tokens": s.response.completion_tokens,
                },
                ensure_ascii=False,
            )
            for s in steps
        ]
        (root / "script.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_json(change):
    def rewrite(text: str) -> str:
        data = json.loads(text)
        change(data)
        return json.dumps(data)

    return rewrite


#: Ways to break one file of a valid bundle: case -> (file, rewrite of its
#: text, what the load error must say).
BROKEN_BUNDLES = {
    "rules-not-array": (
        "sandbox.json",
        _edit_json(lambda d: d["tools"][0].update(rules=5)),
        "tools[0].rules: expected an array",
    ),
    "sandbox-values-not-array": (
        "sandbox.json",
        _edit_json(lambda d: d["tools"][0]["spec"]["parameters"][0].update(values=5)),
        "values must be an array of strings",
    ),
    "task-values-not-array": (
        "task.json",
        _edit_json(lambda d: d["tools"][0]["parameters"][0].update(values=5)),
        "values must be an array of strings",
    ),
    # Fields are typed, not coerced; a lone surrogate is not text.
    "task-id-not-string": ("task.json", _edit_json(lambda d: d.update(id=7)), "task id must be a string, got int"),
    "task-required-not-boolean": (
        "task.json",
        _edit_json(lambda d: d["tools"][0]["parameters"][0].update(required="false")),
        "parameter 'q' required must be a boolean, got str",
    ),
    "task-description-lone-surrogate": (
        "task.json",
        _edit_json(lambda d: d.update(description="\ud800")),
        "task description holds a lone surrogate",
    ),
    "sandbox-payload-not-string": (
        "sandbox.json",
        _edit_json(lambda d: d["tools"][0]["default"].update(payload=5)),
        "sandbox.json: tools[0].default: payload must be a string, got int",
    ),
    "script-text-lone-surrogate": (
        "script.jsonl",
        lambda text: text + '{"text": "\\ud800", "prompt_tokens": 1, "completion_tokens": 1}\n',
        "bad script line 2: completion text holds a lone surrogate",
    ),
    "script-request-lone-surrogate": (
        "script.jsonl",
        lambda text: text + json.dumps(
            {"text": "x", "prompt_tokens": 1, "completion_tokens": 1, "request": {"system": "s", "user": "\ud800"}}
        ) + "\n",
        "bad script line 2: request user holds a lone surrogate",
    ),
    "script-request-not-object": (
        "script.jsonl",
        lambda text: text + '{"text": "x", "prompt_tokens": 1, "completion_tokens": 1, "request": null}\n',
        "bad script line 2: request must be an object",
    ),
    "task-parameter-name-empty": (
        "task.json",
        _edit_json(lambda d: d["tools"][0]["parameters"][0].update(name="")),
        "tools[0].parameters[0].name: must be non-empty",
    ),
    "task-parameter-unknown-kind": (
        "task.json",
        _edit_json(lambda d: d["tools"][0]["parameters"][0].update(kind="date")),
        "parameter 'q' has a missing or unknown kind",
    ),
    "task-tool-without-description": (
        "task.json",
        _edit_json(lambda d: d["tools"][0].pop("description")),
        "tool entry missing field 'description'",
    ),
    "task-success-check-not-object": (
        "task.json",
        _edit_json(lambda d: d.update(success_check=5)),
        "success_check must be an object with a 'kind' field",
    ),
    "task-not-object": ("task.json", lambda text: "[]", "task document must be a JSON object"),
    "task-tool-not-object": ("task.json", _edit_json(lambda d: d["tools"].append(5)), "tool entry must be an object"),
    "task-parameters-not-array": (
        "task.json",
        _edit_json(lambda d: d["tools"][0].update(parameters=5)),
        "tool parameters must be an array",
    ),
    "task-parameter-not-object": (
        "task.json",
        _edit_json(lambda d: d["tools"][0]["parameters"].append(5)),
        "parameter entry must be an object",
    ),
    "task-duplicate-parameter": (
        "task.json",
        _edit_json(lambda d: d["tools"][0].update(parameters=d["tools"][0]["parameters"] * 2)),
        "tools[0].parameters[1].name: duplicate parameter name 'q'",
    ),
    **{
        f"task-{case}": (
            "task.json",
            _edit_json(lambda d, kind=kind, payload=payload: d.update(success_check={"kind": kind, "payload": payload})),
            message,
        )
        for case, kind, payload, message in [
            ("expected-calls-not-array", "expected_calls", {}, "expected_calls payload must be an array"),
            ("expected-calls-empty", "expected_calls", [], "expected a non-empty list of expected calls"),
            ("expected-call-not-object", "expected_calls", [5], "expected call entries must be objects"),
            ("expected-call-no-function", "expected_calls", [{"function": ""}], "payload[0]: expected call must name"),
            ("answer-contains-not-array", "answer_contains", "x", "answer_contains payload must be an array"),
            ("answer-contains-empty-substring", "answer_contains", [""], "expected a non-empty list of non-empty"),
            ("all-nodes-succeeded-payload", "all_nodes_succeeded", [1], "payload: must be empty for this predicate"),
            (
                "expected-call-undeclared-parameter",
                "expected_calls",
                [{"function": "alpha", "parameters": {"n": 1}}],
                "success_check.payload[0].parameters.n: references undeclared parameter",
            ),
        ]
    },
    # Python's True == 1, so a true that loaded for a number would match a call's 1.
    "task-expected-call-true-for-number": (
        "task.json",
        _edit_json(lambda d: (
            d["tools"][0]["parameters"].append({"name": "n", "kind": "number"}),
            d.update(success_check={"kind": "expected_calls", "payload": [{"function": "alpha", "parameters": {"n": True}}]}),
        )),
        "success_check.payload[0].parameters.n: wrong type for parameter n: expected number",
    ),
    "sandbox-rule-true-for-number": (
        "sandbox.json",
        _edit_json(lambda d: (
            d["tools"][0]["spec"]["parameters"].append({"name": "n", "kind": "number"}),
            d["tools"][0].update(rules=[{"when": {"params": {"n": True}}, "result": {"status": "ok", "payload": "x"}}]),
        )),
        "tools[0].rules[0].when.params.n: wrong type for parameter n: expected number",
    ),
    "sandbox-not-object": ("sandbox.json", lambda text: "[]", "suite file must be an object with a 'tools' array"),
    "sandbox-tool-without-default": (
        "sandbox.json",
        _edit_json(lambda d: d["tools"][0].pop("default")),
        "tools[0]: expected an object with spec and default",
    ),
    "sandbox-default-not-object": (
        "sandbox.json",
        _edit_json(lambda d: d["tools"][0].update(default=5)),
        "tools[0].default: expected an object with status and payload",
    ),
    "sandbox-duplicate-tool": (
        "sandbox.json",
        _edit_json(lambda d: d.update(tools=d["tools"] * 2)),
        "duplicate sandbox tool 'alpha'",
    ),
    **{
        f"sandbox-{case}": (
            "sandbox.json",
            _edit_json(lambda d, rule=rule: d["tools"][0].update(rules=[rule])),
            f"tools[0].rules[0]{message}",
        )
        for case, rule, message in [
            ("rule-not-object", 5, ": expected an object with when/result"),
            ("when-not-object", {"when": 5, "result": {}}, ".when: expected an object"),
            ("when-params-not-object", {"when": {"params": 5}, "result": {}}, ".when.params: expected an object"),
            ("call-index-zero", {"when": {"call_index": 0}, "result": {}}, ".when.call_index: expected an integer >= 1"),
        ]
    },
    "sandbox-nested-too-deep": ("sandbox.json", lambda text: "[" * 100000, "not valid JSON"),
    "task-nested-too-deep": ("task.json", lambda text: "[" * 100000, "not valid JSON"),
    "script-request-empty-system": (
        "script.jsonl",
        lambda text: json.dumps(
            {"text": "x", "prompt_tokens": 1, "completion_tokens": 1, "request": {"system": "", "user": "u"}}
        ) + "\n" + text,
        "bad script line 1: system and user prompts must be non-empty",
    ),
    "script-line-missing-field": ("script.jsonl", lambda text: '{"text": "x"}\n' + text, "bad script line 1"),
    "script-line-nested-too-deep": ("script.jsonl", lambda text: text + "[" * 100000 + "\n", "bad script line 2"),
    **{
        f"script-line-{name}-count": (
            "script.jsonl",
            lambda text, raw=raw: text + f'{{"text": "x", "prompt_tokens": {raw}, "completion_tokens": 1}}\n',
            "bad script line 2: token counts must be non-negative integers",
        )
        for name, raw in [("infinite", "Infinity"), ("overflowing", "1e400"), ("boolean", "true")]
    },
}


def write_broken_bundle(root, case: str) -> None:
    """A one-tool bundle with one file broken as ``BROKEN_BUNDLES[case]`` says."""
    write_bundle(root, make_task(["alpha"], task_id="broken"), make_registry(["alpha"]), [step("x")])
    name, rewrite, _ = BROKEN_BUNDLES[case]
    path = Path(root) / name
    path.write_text(rewrite(path.read_text(encoding="utf-8")), encoding="utf-8")


def accept_at_round_bundle(root, k: int, total_rounds: int = 7, task_id: str | None = None) -> TaskSpec:
    """A bundle whose answers are rejected until round ``k``, where the
    accepted answer carries a marker the success predicate looks for."""
    marker = f"FINAL-ANSWER-R{k}"
    task = make_task(
        ["alpha"],
        predicate=answer_contains([marker]),
        task_id=task_id or f"accept-at-{k}",
    )
    steps = []
    for r in range(1, total_rounds + 1):
        steps.append(step(planner_json([(f"r{r}n1", "poke the tool", "alpha")], 9)))
        steps.append(step(tool_json("alpha", {"q": f"round {r}"}, 9)))
        if r == k:
            steps.append(step(answer_json(f"Completed with {marker}.", 9)))
        else:
            steps.append(step(answer_json(f"Weak summary of round {r}.", 7)))
    write_bundle(root, task, make_registry(["alpha"]), steps)
    return task


# --- The prompt-template manifest ---------------------------------------------------

MANIFEST_FILE = "MANIFEST.sha256"


def manifest_mismatches(directory: Path | None = None) -> list[str]:
    """Compare template files against the golden sha256 manifest.

    ``directory`` defaults to the packaged templates. Returns one line per
    mismatch; an empty list means every template is byte-identical to its
    pinned copy.
    """
    root = Path(directory) if directory is not None else Path(dualreflect.__file__).parent / "prompts"
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
