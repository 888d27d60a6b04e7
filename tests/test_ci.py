"""The CI workflow parses, every job has steps, and the repo paths its
``run:`` steps name exist. An invalid workflow file makes GitHub run no job
at all, so nothing else would notice."""

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
# A repo-relative path in a shell command: not part of a longer path such as /tmp/suites.
REPO_PATH = re.compile(r"(?<![\w/.-])((?:suites|tests|perfbench)/[\w./-]*)")


def workflow_jobs():
    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    assert isinstance(workflow, dict) and isinstance(workflow.get("jobs"), dict) and workflow["jobs"]
    return workflow["jobs"]


def test_every_job_has_steps():
    for name, job in workflow_jobs().items():
        steps = job.get("steps")
        assert isinstance(steps, list) and steps, f"job {name} has no steps"
        for step in steps:
            assert isinstance(step, dict) and ("run" in step or "uses" in step), f"job {name}: step {step!r}"


def test_run_steps_name_existing_repo_paths():
    named = {
        path
        for job in workflow_jobs().values()
        for step in job["steps"]
        for path in REPO_PATH.findall(step.get("run", ""))
    }
    assert {"tests/no_http_stack.py", "perfbench/run.py", "suites/demo"} <= named
    missing = sorted(path for path in named if not (ROOT / path).exists())
    assert not missing, f"paths named in {WORKFLOW.name} do not exist: {missing}"
