"""Seeded task-suite generators for the benchmark workloads.

Each generator authors a suite of task bundles (task.json, sandbox.json,
script.jsonl) on disk, plus ``expected.json`` with the outcome every task was
authored to produce. Expectations come from simulating the documented round
loop here, independently of the engine, so a run that drifts from them is a
failed run.

The generators write the bundle file format directly and import nothing from
``dualreflect`` or ``tests``: an edit to either cannot silently change the
workload.

Each task's structure (answer rejections, nodes per round, which tool each
node binds, gate outcomes, garbage replies, tool failures, divergent picks)
is dealt from shuffled decks by a generator with a fixed seed, so the suite
has the same shape for every ``--seed``; the seed picks the content: task and
subtask texts, tool names, payloads, parameters and scores within each gate
band. Per-cell percentiles of a 16- or 48-task suite would otherwise move by
10-25 % from seed to seed with its composition alone.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

THRESHOLDS = {"theta_p": 9, "theta_t": 8, "theta_a": 8}
#: Seed of the structure decks; ``--seed`` only varies content.
SHAPE_SEED = 0
#: RunConfig defaults the simulation below mirrors.
REVISION_CAP = 3
SUBTASK_RETRY_CAP = 3

GARBAGE = "I could not settle on a structured reply for this step."

WORDS = (
    "amber basin cedar delta ember fjord glacier harbor island juniper kestrel lagoon meadow "
    "nectar orchard prairie quarry ridge summit tundra upland valley willow yarrow zephyr "
    "anchor beacon canyon dune estuary forest grove heath inlet jetty knoll ledge marsh "
    "narrows oasis peak quay reef shoal terrace vale wharf atoll bluff cove dell fen gulch "
    "hollow isle kettle loch mesa moor plateau rapids sound strait tarn weir"
).split()

TOOL_NAMES = (
    "search_flights", "lookup_weather", "find_hotel", "book_table", "convert_currency",
    "estimate_budget", "find_exhibition", "check_transit",
)


@dataclass(frozen=True)
class Profile:
    """How one workload's suite is shaped. Tuple fields are decks: each task,
    round, node or reply draws the next card, and a deck is reshuffled when it
    runs out."""

    n_tasks: int
    repeats: int
    jobs: int
    max_rounds: int
    rejects: tuple[int | None, ...]  # answers rejected before acceptance; None = never accepted
    nodes: tuple[int, ...]  # nodes per round
    tools: tuple[int, ...]  # tools per task
    fail_first: tuple[int, ...]  # failing calls per tool before it succeeds
    plan_gate: tuple[str, ...]  # "pass", "revise" or "forced"
    tool_gate: tuple[str, ...]
    garbage: tuple[bool, ...]  # an unparsable reply before this output
    diverge: tuple[bool, ...]  # the tool agent picks another tool than the plan bound
    payload_words: tuple[int, int]
    eval_words: tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: Profile
    backend: str  # "scripted" or "http"
    #: Percentile reported as run_ms_tail and backend.call_ms_tail: the
    #: highest that keeps at least ten samples beyond it in a 30 s run. It is
    #: fixed per workload so that a faster engine (more samples per run)
    #: cannot switch it; the printed line gives the samples beyond it. On
    #: scripted-mixed p99.9 sits among the ~25 ms cells that a full (gen-2)
    #: garbage collection lands in; p99 to p99.8 sit on the step below them
    #: and moved 0.3-0.5 (quartile spread over median) between 30 s runs.
    tail_pct: float


_GATES = ("pass",) * 14 + ("revise",) * 5 + ("forced",)
_NOISE = (True,) + (False,) * 9

MIXED = Profile(
    n_tasks=48,
    repeats=5,
    jobs=1,
    max_rounds=5,
    rejects=(0, 0, 0, 0, 0, 1, 1, 1, 2, None),
    nodes=(1, 2, 2, 3),
    tools=(1, 2, 3, 4),
    fail_first=(0, 0, 0, 0, 0, 1, 1, 2, 3),
    plan_gate=_GATES,
    tool_gate=_GATES,
    garbage=_NOISE,
    diverge=_NOISE,
    payload_words=(4, 12),
    eval_words=(4, 10),
)

DEEP = Profile(
    n_tasks=16,
    repeats=3,
    jobs=1,
    max_rounds=10,
    rejects=(7, 8, 9, None),
    nodes=(2, 2, 3, 3),
    tools=(2, 3, 3, 4),
    fail_first=(0, 0, 0, 1, 2),
    plan_gate=_GATES,
    tool_gate=_GATES,
    garbage=(False,),
    diverge=_NOISE,
    payload_words=(40, 80),
    eval_words=(25, 50),
)

HTTP = dataclasses.replace(MIXED, n_tasks=16, repeats=1, jobs=2)

#: ``deep-memory`` runs by hand but is not in BENCHMARK.json: on a shared
#: 2-vCPU host its run-to-run spread (0.16 in runs/s, 0.25 in the tail over
#: ten seeds) was too wide to hold a regression bound.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scripted-mixed",
            "engine CPU is the whole cost: promptkit, agents, orchestrator and the per-cell script re-parse, jobs=1",
            MIXED,
            "scripted",
            99.9,
        ),
        Workload(
            "deep-memory",
            "7+ rejected rounds with long payloads grow long-term memory, trajectory rendering and prompts; jobs=1",
            DEEP,
            "scripted",
            99.0,
        ),
        Workload(
            "http-latency",
            "scripted-mixed tasks via one shared HttpBackend to a 10 ms stub at jobs=2: transport and concurrency dominate",
            HTTP,
            "http",
            95.0,
        ),
    )
}


class Deck:
    """Cards dealt in a shuffled order; the pile refills when empty."""

    def __init__(self, rng: random.Random, cards: tuple[Any, ...]):
        self._rng = rng
        self._cards = cards
        self._pile: list[Any] = []

    def draw(self) -> Any:
        if not self._pile:
            self._pile = list(self._cards)
            self._rng.shuffle(self._pile)
        return self._pile.pop()


def _words(rng: random.Random, bounds: tuple[int, int]) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(*bounds)))


def _gate_scores(rng: random.Random, outcome: str, threshold: int) -> list[int]:
    low = (threshold - 4, threshold - 1)
    high = (threshold, 10)
    if outcome == "forced":
        return [rng.randint(*low) for _ in range(REVISION_CAP)]
    if outcome == "revise":
        return [rng.randint(*low), rng.randint(*high)]
    return [rng.randint(*high)]


def _tool_spec(name: str) -> dict[str, Any]:
    return {
        "name": name,
        "description": f"Simulated {name.replace('_', ' ')} lookup.",
        "parameters": [
            {"name": "q", "kind": "string", "required": True, "description": "what to look up"},
            {"name": "limit", "kind": "number", "required": False, "description": "maximum results"},
        ],
    }


def _reflection(evaluation: str, score: int) -> dict[str, Any]:
    return {"evaluation": evaluation, "score": score}


def author_task(
    rng: random.Random, shape: random.Random, decks: dict[str, Deck], profile: Profile, task_id: str
) -> dict[str, Any]:
    """Author one task: bundle documents, script steps and expected outcome.
    ``shape`` and ``decks`` decide structure, ``rng`` decides content."""
    tool_names = rng.sample(TOOL_NAMES, decks["tools"].draw())
    fail_first = {name: decks["fail_first"].draw() for name in tool_names}
    rejects = decks["rejects"].draw()
    description = f"Task {task_id}: plan around the {_words(rng, (6, 10))} using the simulated tools."
    payloads = {name: f"{name} result for {task_id}: {_words(rng, profile.payload_words)}" for name in tool_names}

    steps: list[dict[str, Any]] = []

    def reply(text: str, hint: str) -> None:
        if decks["garbage"].draw():
            steps.append({"hint": f"{hint} (garbage)", "text": GARBAGE})
        steps.append({"hint": hint, "text": text})

    counters = {name: 0 for name in tool_names}
    answers: list[tuple[int, int]] = []  # (score, round)
    status = "exhausted"
    rounds_used = 0
    for rnd in range(1, profile.max_rounds + 1):
        rounds_used = rnd
        nodes = [
            (f"r{rnd}n{i}", f"{task_id} round {rnd} step {i}: {_words(rng, (3, 6))}", shape.choice(tool_names))
            for i in range(1, decks["nodes"].draw() + 1)
        ]
        plan_nodes = [{"id": n, "status": 0, "subtask": s, "function": f} for n, s, f in nodes]
        for attempt, score in enumerate(_gate_scores(rng, decks["plan_gate"].draw(), THRESHOLDS["theta_p"]), 1):
            evaluation = f"plan r{rnd} attempt {attempt}: {_words(rng, profile.eval_words)}"
            reply(json.dumps({"nodes": plan_nodes, "intra_reflection": _reflection(evaluation, score)}),
                  f"planner r{rnd} a{attempt}")

        dead = False
        for node_id, _, bound in nodes:
            for attempt in range(1, SUBTASK_RETRY_CAP + 1):
                called = bound
                if decks["diverge"].draw() and len(tool_names) > 1:
                    called = shape.choice([n for n in tool_names if n != bound])
                params: dict[str, Any] = {"q": f"{node_id} attempt {attempt} {_words(rng, (2, 4))}"}
                if rng.random() < 0.5:
                    params["limit"] = rng.randint(1, 20)
                gate = decks["tool_gate"].draw()
                for rev, score in enumerate(_gate_scores(rng, gate, THRESHOLDS["theta_t"]), 1):
                    evaluation = f"{node_id} attempt {attempt} rev {rev}: {_words(rng, profile.eval_words)}"
                    reply(json.dumps({"function": called, "parameters": params,
                                      "intra_reflection": _reflection(evaluation, score)}),
                          f"tool {node_id} a{attempt} rev{rev}")
                counters[called] += 1
                if counters[called] > fail_first[called]:
                    break
            else:
                dead = True
                break
        if dead:
            continue

        accept = rejects is not None and len(answers) == rejects
        score = rng.randint(8, 10) if accept else rng.randint(4, 7)
        text = f"Round {rnd} answer for {task_id}: {_words(rng, profile.payload_words)}"
        evaluation = f"answer r{rnd}: {_words(rng, profile.eval_words)}"
        reply(json.dumps({"answer": text, "intra_reflection": _reflection(evaluation, score)}), f"answer r{rnd}")
        answers.append((score, rnd))
        if accept:
            status = "accepted"
            break

    for i, s in enumerate(steps):
        s["prompt_tokens"] = 300 + (37 * i) % 211
        s["completion_tokens"] = 20 + len(s["text"]) // 4
    best = max((score for score, _ in answers), default=None)
    final_round = min((r for score, r in answers if score == best), default=0)

    tools = [_tool_spec(name) for name in tool_names]
    sandbox = {
        "tools": [
            {
                "spec": spec,
                "default": {"status": "ok", "payload": payloads[spec["name"]]},
                "rules": [
                    {"when": {"call_index": i},
                     "result": {"status": "simulated_failure",
                                "payload": f"{spec['name']} transient failure {i} for {task_id}"}}
                    for i in range(1, fail_first[spec["name"]] + 1)
                ],
            }
            for spec in tools
        ]
    }
    task = {
        "id": task_id,
        "description": description,
        "tools": tools,
        "success_check": {"kind": "all_nodes_succeeded", "payload": None},
    }
    expected = {
        "status": status,
        "passed": final_round > 0,
        "rounds_used": rounds_used,
        "final_round": final_round,
        "answer_score": best,
        "backend_calls": len(steps),
        "prompt_tokens": sum(s["prompt_tokens"] for s in steps),
        "completion_tokens": sum(s["completion_tokens"] for s in steps),
    }
    return {"task": task, "sandbox": sandbox, "steps": steps, "expected": expected}


def generate(profile: Profile, seed: int) -> list[dict[str, Any]]:
    """All tasks of one suite, fully determined by ``seed``."""
    rng, shape = random.Random(seed), random.Random(SHAPE_SEED)
    decks = {
        name: Deck(shape, getattr(profile, name))
        for name in ("rejects", "nodes", "tools", "fail_first", "plan_gate", "tool_gate", "garbage", "diverge")
    }
    return [author_task(rng, shape, decks, profile, f"s{seed}-t{i:03d}") for i in range(profile.n_tasks)]


def write_suite(tasks: list[dict[str, Any]], root: Path) -> None:
    """Materialize bundles under ``root`` plus ``root/../expected.json``."""
    root.mkdir(parents=True)
    for t in tasks:
        bundle = root / t["task"]["id"]
        bundle.mkdir()
        (bundle / "task.json").write_text(json.dumps(t["task"], indent=2) + "\n", encoding="utf-8")
        (bundle / "sandbox.json").write_text(json.dumps(t["sandbox"], indent=2) + "\n", encoding="utf-8")
        (bundle / "script.jsonl").write_text("".join(json.dumps(s) + "\n" for s in t["steps"]), encoding="utf-8")
    expected = {t["task"]["id"]: t["expected"] for t in tasks}
    (root.parent / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
