"""Golden behaviour: the scripted engine's output, byte for byte.

``tests/golden/`` holds the ``run --trace-out`` trace of every ``suites/demo``
bundle and the four report files of ``eval --suite suites/demo --repeats 3``.
Every test here regenerates them through ``cli.main`` and compares bytes; the
eval runs at ``--jobs 1`` and at ``--jobs 2``, and its cells also fold to the
same reports in any order. One sha256 covers the trace and every system and
user prompt of the 200 seeded random scenarios plus the case study. A
refactor that keeps behaviour keeps all of these unchanged.

To re-record after an intended behaviour change::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualreflect import harness
from dualreflect.backend import ScriptedBackend
from dualreflect.cli import main
from dualreflect.model import RunConfig
from dualreflect.orchestrator import run_task
from scenarios import (
    build_random_scenario,
    case_study_config,
    case_study_registry,
    case_study_steps,
    case_study_task,
)

GOLDEN = Path(__file__).parent / "golden"
DEMO_SUITE = Path(__file__).parent.parent / "suites" / "demo"
DEMO_TASKS = ("city-day-trip", "flaky-lookup")
REPORT_FILES = ("report.json", "report.txt", "histograms.csv", "runs.csv")
EVAL_REPEATS = 3
N_SCENARIOS = 200

#: sha256 over the traces and prompts of the seeded scenarios and the case study.
SCENARIO_DIGEST = "6c66ca972b6e60e92d738b1db162cfdc6864cb174f3fa41b2bae1dba91ec8867"


def write_trace(task: str, out: Path) -> None:
    assert main(["run", "--task", str(DEMO_SUITE / task), "--trace-out", str(out)]) == 0


def write_reports(out_dir: Path, jobs: int) -> None:
    argv = ["eval", "--suite", str(DEMO_SUITE), "--repeats", str(EVAL_REPEATS), "--jobs", str(jobs)]
    assert main([*argv, "--report-dir", str(out_dir)]) == 0


def scenario_digest() -> str:
    runs = [(s.task, s.config, s.backend(), s.registry) for s in map(build_random_scenario, range(N_SCENARIOS))]
    runs.append((case_study_task(), case_study_config(), ScriptedBackend(case_study_steps()), case_study_registry()))
    digest = hashlib.sha256()
    for task, config, backend, registry in runs:
        result = run_task(task, config, backend, registry)
        digest.update(result.trace_jsonl().encode("utf-8"))
        for request in backend.requests:
            digest.update(json.dumps([request.system, request.user], ensure_ascii=False).encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("task", DEMO_TASKS)
def test_demo_trace_matches_golden(task, tmp_path):
    out = tmp_path / f"{task}.trace.jsonl"
    write_trace(task, out)
    assert out.read_bytes() == (GOLDEN / out.name).read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_demo_eval_reports_match_golden(jobs, tmp_path):
    write_reports(tmp_path, jobs)
    for name in REPORT_FILES:
        assert (tmp_path / name).read_bytes() == (GOLDEN / "eval" / name).read_bytes(), name


@pytest.fixture(scope="module")
def demo_cells():
    """The (record, scores) outcome of every cell of the golden eval, in cell order."""
    bundles = harness.load_suite(DEMO_SUITE)
    return [
        harness._run_cell(bundle, repeat, RunConfig(), lambda b: b.make_backend())
        for repeat in range(1, EVAL_REPEATS + 1)
        for bundle in bundles
    ]


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(len(DEMO_TASKS) * EVAL_REPEATS)))
def test_cells_fold_to_the_golden_reports_in_any_order(demo_cells, order):
    result = harness._fold(DEMO_TASKS, EVAL_REPEATS, [demo_cells[i] for i in order])
    with tempfile.TemporaryDirectory() as out:
        harness.report(result, out)
        for name in REPORT_FILES:
            assert (Path(out) / name).read_bytes() == (GOLDEN / "eval" / name).read_bytes(), name


def test_scenario_traces_and_prompts_match_digest():
    assert scenario_digest() == SCENARIO_DIGEST


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for task in DEMO_TASKS:
        write_trace(task, GOLDEN / f"{task}.trace.jsonl")
    write_reports(GOLDEN / "eval", jobs=1)
    print(f"SCENARIO_DIGEST = {scenario_digest()!r}", file=sys.stderr)
