"""Suite evaluation.

Loads task bundles (task + sandbox + backend script), runs each through the
round loop ``repeats`` times, decides pass/fail with the task's success
predicate, and aggregates pass rates, exact token totals, and per-agent
reflection-score histograms. Reports land as JSON, a plain-text table, and
CSVs for external plotting.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable

from .backend import ChatBackend, ScriptedBackend, ScriptStep, script_from_jsonl
from .model import PredicateKind, RunConfig, TaskSpec, task_from_json
from .orchestrator import RunResult, RunStatus, run_task
from .sandbox import SandboxRegistry, load_registry

__all__ = [
    "SCHEMA_VERSION",
    "SuiteError",
    "TaskBundle",
    "RunRecord",
    "SuiteResult",
    "load_bundle",
    "load_suite",
    "check_success",
    "evaluate",
    "report",
]

SCHEMA_VERSION = 1

TASK_FILE = "task.json"
SANDBOX_FILE = "sandbox.json"
SCRIPT_FILE = "script.jsonl"

AGENTS = ("planner", "tool", "answer")


class SuiteError(Exception):
    """A suite or bundle cannot be loaded or does not validate."""


@dataclass(frozen=True)
class TaskBundle:
    """One runnable task: its spec, sandbox registry, and optional script,
    parsed once at load and shared read-only by every run."""

    task: TaskSpec
    registry: SandboxRegistry
    script: tuple[ScriptStep, ...] | None
    root: Path

    @property
    def script_path(self) -> Path | None:
        return None if self.script is None else self.root / SCRIPT_FILE

    def make_backend(self) -> ScriptedBackend:
        """A fresh scripted backend; each run must own its own instance."""
        if self.script is None:
            raise SuiteError(f"{self.root}: bundle has no {SCRIPT_FILE}, cannot build a scripted backend")
        return ScriptedBackend(self.script)


def load_bundle(path: Path | str) -> TaskBundle:
    root = Path(path)
    task_path = root / TASK_FILE
    sandbox_path = root / SANDBOX_FILE
    if not task_path.is_file():
        raise SuiteError(f"{root}: missing {TASK_FILE}")
    if not sandbox_path.is_file():
        raise SuiteError(f"{root}: missing {SANDBOX_FILE}")
    try:
        task = task_from_json(task_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SuiteError(f"{task_path}: {exc}") from None
    try:
        registry = load_registry(sandbox_path)
    except ValueError as exc:
        raise SuiteError(f"{sandbox_path}: {exc}") from None
    _check_specs_agree(task, registry, sandbox_path)
    script_path = root / SCRIPT_FILE
    script = None
    if script_path.is_file():
        try:
            script = tuple(script_from_jsonl(script_path.read_text(encoding="utf-8")))
        except ValueError as exc:
            raise SuiteError(f"{script_path}: {exc}") from None
    return TaskBundle(task=task, registry=registry, script=script, root=root)


def _check_specs_agree(task: TaskSpec, registry: SandboxRegistry, sandbox_path: Path) -> None:
    """The planner sees ``task.tools`` and the executor checks calls against
    the sandbox specs; a bundle whose two copies differ is rejected."""
    declared = {tool.name: tool for tool in task.tools}
    for spec in registry.tool_specs():
        if spec.name not in declared:
            raise SuiteError(f"{sandbox_path}: tool {spec.name!r} is not declared in {TASK_FILE}")
        if spec != declared[spec.name]:
            raise SuiteError(f"{sandbox_path}: spec of tool {spec.name!r} differs from its {TASK_FILE} declaration")
    for name in declared:
        if registry.get(name) is None:
            raise SuiteError(f"{sandbox_path}: tool {name!r} declared in {TASK_FILE} has no behaviour")


def load_suite(path: Path | str, require_scripts: bool = True) -> list[TaskBundle]:
    """Load every bundle under a suite directory, sorted by task id."""
    root = Path(path)
    if not root.is_dir():
        raise SuiteError(f"suite directory not found: {root}")
    bundles = [load_bundle(child) for child in sorted(root.iterdir()) if (child / TASK_FILE).is_file()]
    ids = [b.task.id for b in bundles]
    if len(set(ids)) != len(ids):
        raise SuiteError(f"duplicate task ids in suite: {sorted(ids)}")
    if require_scripts:
        missing = [str(b.root) for b in bundles if b.script_path is None]
        if missing:
            raise SuiteError("scripted suite is missing backend scripts: " + ", ".join(missing))
    return sorted(bundles, key=lambda b: b.task.id)


def check_success(task: TaskSpec, result: RunResult) -> bool:
    """Apply the task's success predicate to a finished run; an aborted run
    fails every predicate."""
    if result.status is RunStatus.ABORTED:
        return False
    pred = task.success_check
    if pred.kind is PredicateKind.ANSWER_CONTAINS:
        return result.final_answer is not None and all(s in result.final_answer.text for s in pred.payload)
    if pred.kind is PredicateKind.ALL_NODES_SUCCEEDED:
        return result.final_round > 0
    executed = [
        (e["function"], e["parameters"])
        for e in result.events
        if e["kind"] == "execute" and e["status"] == "ok" and e["round"] == result.final_round
    ]
    # Entries with parameters match first: a wildcard can take any leftover call.
    for expected in sorted(pred.payload, key=lambda e: e.parameters is None):
        for i, (function, parameters) in enumerate(executed):
            if function == expected.function and (expected.parameters is None or parameters == expected.parameters):
                executed.pop(i)
                break
        else:
            return False
    return not executed


@dataclass(frozen=True)
class RunRecord:
    """Summary of one (task, repeat) cell. ``error`` says why an aborted run
    stopped; a cell whose backend or run raised is aborted with no tokens."""

    task_id: str
    repeat: int
    status: str
    passed: bool
    rounds_used: int
    final_round: int
    answer_score: int | None
    prompt_tokens: int
    completion_tokens: int
    backend_calls: int
    error: str | None = None


@dataclass(frozen=True)
class SuiteResult:
    """Aggregates over a whole suite evaluation.

    ``pass_rate`` is the mean of per-repeat pass percentages (population
    stdev in ``pass_rate_stdev``); both are None for an empty suite. Token
    figures are exact sums over the runs' trace events.
    """

    schema_version: int
    repeats: int
    task_ids: tuple[str, ...]
    runs: tuple[RunRecord, ...]
    pass_rate: float | None
    pass_rate_per_repeat: tuple[float, ...]
    pass_rate_stdev: float | None
    tokens_total: int
    tokens_mean_per_run: float | None
    histograms: dict[str, tuple[int, ...]]


BackendFactory = Callable[[TaskBundle], ChatBackend]

#: The ``RunRecord`` columns copied by name from the run's ``run_end`` event.
_RUN_END_COLUMNS = tuple(f.name for f in fields(RunRecord) if f.name not in ("task_id", "repeat", "passed"))


def _run_cell(
    bundle: TaskBundle, repeat: int, config: RunConfig, factory: BackendFactory
) -> tuple[RunRecord, list[tuple[str, int]]]:
    """One run, reduced to its record and its (agent, score) pairs so the
    run's events die with the cell. Any exception from the backend factory or
    the run is this cell's failure, never the eval's."""
    try:
        result = run_task(bundle.task, config, factory(bundle), bundle.registry)
        passed = check_success(bundle.task, result)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return RunRecord(bundle.task.id, repeat, RunStatus.ABORTED.value, False, 0, 0, None, 0, 0, 0, error=error), []
    summary = {name: result.events[-1].get(name) for name in _RUN_END_COLUMNS}
    record = RunRecord(bundle.task.id, repeat, passed=passed, **summary)
    return record, [(e["agent"], e["score"]) for e in result.events if e["kind"] == "agent_output"]


def evaluate(
    suite_dir: Path | str,
    config: RunConfig,
    repeats: int = 1,
    jobs: int = 1,
    backend_factory: BackendFactory | None = None,
) -> SuiteResult:
    """Run every task in the suite ``repeats`` times.

    By default each run gets its own scripted backend from the bundle's
    script; pass ``backend_factory`` to evaluate against something else
    (e.g. a live endpoint). A task that aborts is recorded as a fail and
    never halts the suite. Aggregation is order-independent, so ``jobs`` > 1
    changes nothing but wall time.
    """
    import statistics

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    bundles = load_suite(suite_dir, require_scripts=backend_factory is None)
    factory = backend_factory if backend_factory is not None else (lambda bundle: bundle.make_backend())
    # Built in (repeat, task id) order, which pool.map keeps: the runs need no sort.
    cells = [(bundle, repeat) for repeat in range(1, repeats + 1) for bundle in bundles]
    if jobs > 1 and cells:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(lambda cell: _run_cell(cell[0], cell[1], config, factory), cells))
    else:
        outcomes = [_run_cell(bundle, repeat, config, factory) for bundle, repeat in cells]

    records = tuple(record for record, _ in outcomes)
    histograms = {agent: [0] * 10 for agent in AGENTS}
    for _, scores in outcomes:
        for agent, score in scores:
            histograms[agent][score - 1] += 1

    passes = [0] * repeats
    for r in records:
        passes[r.repeat - 1] += r.passed
    n_tasks = len(bundles)
    per_repeat = [100.0 * count / n_tasks if n_tasks else 0.0 for count in passes]
    tokens_total = sum(r.prompt_tokens + r.completion_tokens for r in records)
    return SuiteResult(
        schema_version=SCHEMA_VERSION,
        repeats=repeats,
        task_ids=tuple(b.task.id for b in bundles),
        runs=records,
        pass_rate=statistics.fmean(per_repeat) if n_tasks else None,
        pass_rate_per_repeat=tuple(per_repeat) if n_tasks else (),
        pass_rate_stdev=statistics.pstdev(per_repeat) if n_tasks else None,
        tokens_total=tokens_total,
        tokens_mean_per_run=tokens_total / len(records) if records else None,
        histograms={agent: tuple(counts) for agent, counts in histograms.items()},
    )


# --- Serialization and reports --------------------------------------------------


def _fmt(value: float | None, suffix: str = "") -> str:
    return "n/a" if value is None else f"{value:.1f}{suffix}"


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    text = str(value).lower() if isinstance(value, bool) else str(value)
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _text_table(result: SuiteResult) -> str:
    header = f"{'task':<24} {'rep':>3} {'status':<10} {'pass':<5} {'rounds':>6} {'tokens':>8}"
    lines = [header, "-" * len(header)]
    for r in result.runs:
        lines.append(
            f"{r.task_id:<24} {r.repeat:>3} {r.status:<10} {str(r.passed).lower():<5} "
            f"{r.rounds_used:>6} {r.prompt_tokens + r.completion_tokens:>8}"
        )
    lines.append("")
    lines.append(f"tasks: {len(result.task_ids)}  repeats: {result.repeats}")
    lines.append(f"pass rate: {_fmt(result.pass_rate, '%')} (stdev {_fmt(result.pass_rate_stdev)})")
    lines.append(f"tokens total: {result.tokens_total}  mean per run: {_fmt(result.tokens_mean_per_run)}")
    return "\n".join(lines) + "\n"


def report(result: SuiteResult, out_dir: Path | str) -> dict[str, Path]:
    """Write report.json, report.txt, histograms.csv, and runs.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "json": out / "report.json",
        "text": out / "report.txt",
        "histograms": out / "histograms.csv",
        "runs": out / "runs.csv",
    }
    paths["json"].write_text(json.dumps(asdict(result), indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    paths["text"].write_text(_text_table(result), encoding="utf-8")

    hist_lines = ["agent,score,count"]
    for agent in AGENTS:
        for score, count in enumerate(result.histograms.get(agent, (0,) * 10), 1):
            hist_lines.append(f"{agent},{score},{count}")
    paths["histograms"].write_text("\n".join(hist_lines) + "\n", encoding="utf-8")

    columns = [f.name for f in fields(RunRecord)]
    run_lines = [",".join(columns)]
    for r in result.runs:
        run_lines.append(",".join(_csv_cell(getattr(r, column)) for column in columns))
    paths["runs"].write_text("\n".join(run_lines) + "\n", encoding="utf-8")
    return paths
