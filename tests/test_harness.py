"""Suite evaluation: pass rates, histograms, reports, sweeps, predicates."""

import json
import shutil
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualreflect import harness
from dualreflect.backend import RecordingBackend, ScriptedBackend
from dualreflect.harness import (
    SuiteError,
    check_success,
    evaluate,
    load_bundle,
    load_suite,
    report,
)
from dualreflect.model import (
    ExpectedCall,
    RunConfig,
    SuccessPredicate,
    Thresholds,
)
from dualreflect.orchestrator import RunStatus, run_task
from dualreflect.sandbox import SandboxRegistry
from scenarios import (
    BROKEN_BUNDLES,
    GARBAGE,
    accept_at_round_bundle,
    answer_json,
    build_random_scenario,
    make_backend,
    make_registry,
    make_task,
    planner_json,
    simple_tool,
    step,
    tool_json,
    write_broken_bundle,
    write_bundle,
)

CFG = RunConfig(thresholds=Thresholds(theta_p=9, theta_t=8, theta_a=8), max_rounds=5)
DEMO_SUITE = Path(__file__).parent.parent / "suites" / "demo"
DEMO_BUNDLES = load_suite(DEMO_SUITE)


def passing_steps(marker="ALL-GOOD"):
    return [
        step(planner_json([("n1", "poke alpha", "alpha")], 9)),
        step(tool_json("alpha", {"q": "x"}, 9)),
        step(answer_json(f"Summary: {marker}.", 9)),
    ]


def write_three_task_suite(root):
    """Two passing tasks and one whose predicate cannot match."""
    for i, marker in enumerate(["ALL-GOOD", "ALL-GOOD", "NEVER-SAID"], 1):
        task = make_task(
            ["alpha"],
            predicate=SuccessPredicate.answer_contains([marker]),
            task_id=f"task-{i}",
        )
        write_bundle(root / f"task-{i}", task, make_registry(["alpha"]), passing_steps("ALL-GOOD"))


class TestEvaluate:
    def test_pass_rate_two_of_three(self, tmp_path):
        write_three_task_suite(tmp_path)
        result = evaluate(tmp_path, CFG)
        assert result.pass_rate == pytest.approx(66.7, abs=0.04)
        assert [r.passed for r in result.runs] == [True, True, False]

    def test_repeats_on_deterministic_scripts_have_zero_stdev(self, tmp_path):
        write_three_task_suite(tmp_path)
        result = evaluate(tmp_path, CFG, repeats=3)
        assert result.pass_rate_stdev == 0.0
        assert len(result.runs) == 9
        assert result.pass_rate_per_repeat == (result.pass_rate,) * 3

    def test_pass_rates_that_differ_across_repeats(self, tmp_path):
        write_three_task_suite(tmp_path)
        # Answers in cell order: task-2 misses its marker at repeat 1 only.
        markers = iter(["ALL-GOOD", "WRONG", "WRONG", "ALL-GOOD", "ALL-GOOD", "WRONG"])
        factory = lambda bundle: ScriptedBackend(passing_steps(next(markers)))

        result = evaluate(tmp_path, CFG, repeats=2, backend_factory=factory)
        assert [(r.repeat, r.task_id, r.passed) for r in result.runs] == [
            (1, "task-1", True), (1, "task-2", False), (1, "task-3", False),
            (2, "task-1", True), (2, "task-2", True), (2, "task-3", False),
        ]  # fmt: skip
        assert result.pass_rate_per_repeat == pytest.approx((100 / 3, 200 / 3))
        assert result.pass_rate == pytest.approx(50.0)
        assert result.pass_rate_stdev == pytest.approx(50 / 3)

    def test_aborted_task_is_a_fail_not_a_crash(self, tmp_path):
        write_three_task_suite(tmp_path)
        bad_task = make_task(["alpha"], task_id="task-4-aborts")
        write_bundle(tmp_path / "task-4", bad_task, make_registry(["alpha"]), [step(GARBAGE)] * 3)
        result = evaluate(tmp_path, CFG)
        record = next(r for r in result.runs if r.task_id == "task-4-aborts")
        assert record.status == "aborted" and record.passed is False
        assert record.error == "planner agent produced 3 unusable outputs in a row"
        assert len(result.runs) == 4

    def test_jobs_do_not_change_aggregates(self, tmp_path):
        write_three_task_suite(tmp_path)
        sequential = evaluate(tmp_path, CFG, repeats=2, jobs=1)
        parallel = evaluate(tmp_path, CFG, repeats=2, jobs=4)
        assert sequential == parallel

    def test_no_run_result_outlives_its_cell(self, tmp_path, monkeypatch):
        # Memory must not grow with tasks x repeats: each run's events are
        # folded into its record and histogram counts before the next starts.
        write_three_task_suite(tmp_path)
        earlier = []

        def checked_run_task(*args, **kwargs):
            assert [ref() for ref in earlier] == [None] * len(earlier)
            result = run_task(*args, **kwargs)
            earlier.append(weakref.ref(result))
            return result

        monkeypatch.setattr(harness, "run_task", checked_run_task)
        result = evaluate(tmp_path, CFG, repeats=2, jobs=1)
        assert len(earlier) == 6 and [r.passed for r in result.runs] == [True, True, False] * 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_factory_failure_stays_in_its_cell(self, tmp_path, jobs):
        write_three_task_suite(tmp_path / "suite")

        def factory(bundle):
            if bundle.task.id == "task-2":
                raise RuntimeError("boom, no backend")
            return bundle.make_backend()

        result = evaluate(tmp_path / "suite", CFG, jobs=jobs, backend_factory=factory)
        assert [(r.task_id, r.status, r.passed) for r in result.runs] == [
            ("task-1", "accepted", True),
            ("task-2", "aborted", False),
            ("task-3", "accepted", False),
        ]
        assert result.runs[1].error == "RuntimeError: boom, no backend"
        assert result.runs[1].backend_calls == 0 and result.runs[0].error is None
        paths = report(result, tmp_path / "out")
        assert all(path.is_file() for path in paths.values())
        assert '"RuntimeError: boom, no backend"' in paths["runs"].read_text(encoding="utf-8")

    def test_recording_write_failure_stays_in_its_cell(self, tmp_path):
        write_three_task_suite(tmp_path / "suite")

        def factory(bundle):
            recording = tmp_path / "rec" / bundle.task.id
            backend = RecordingBackend(bundle.make_backend(), recording)
            if bundle.task.id == "task-3":  # the first append of this run fails
                recording.unlink()
                recording.mkdir()
            return backend

        result = evaluate(tmp_path / "suite", CFG, backend_factory=factory)
        assert [r.status for r in result.runs] == ["accepted", "accepted", "aborted"]
        assert result.runs[2].error.startswith("IsADirectoryError: ")

    def test_keyboard_interrupt_is_not_contained(self, tmp_path):
        write_three_task_suite(tmp_path / "suite")

        def factory(bundle):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            evaluate(tmp_path / "suite", CFG, backend_factory=factory)

    @pytest.mark.parametrize("counts", [{"repeats": 0}, {"jobs": 0}, {"jobs": -3}])
    def test_counts_below_one_rejected(self, tmp_path, counts):
        write_three_task_suite(tmp_path)
        name = next(iter(counts))
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            evaluate(tmp_path, CFG, **counts)

    def test_token_mean_is_exact_fold(self, tmp_path):
        write_three_task_suite(tmp_path)
        result = evaluate(tmp_path, CFG, repeats=2)
        total = sum(r.prompt_tokens + r.completion_tokens for r in result.runs)
        assert result.tokens_total == total
        assert result.tokens_mean_per_run == total / 6

    def test_missing_script_rejected_up_front(self, tmp_path):
        task = make_task(["alpha"], task_id="t")
        write_bundle(tmp_path / "t", task, make_registry(["alpha"]), steps=None)
        with pytest.raises(SuiteError):
            evaluate(tmp_path, CFG)

    def test_duplicate_task_ids_rejected(self, tmp_path):
        task = make_task(["alpha"], task_id="same")
        write_bundle(tmp_path / "a", task, make_registry(["alpha"]), passing_steps())
        write_bundle(tmp_path / "b", task, make_registry(["alpha"]), passing_steps())
        with pytest.raises(SuiteError):
            load_suite(tmp_path)

    @pytest.mark.parametrize(
        "declared, sandboxed, culprit, reason",
        [
            (["alpha"], [replace(simple_tool("alpha").spec, parameters=())], "alpha", "differs"),
            (["alpha"], [simple_tool("alpha").spec, simple_tool("beta").spec], "beta", "not declared"),
            (["alpha", "beta"], [simple_tool("alpha").spec], "beta", "no behaviour"),
        ],
    )
    def test_sandbox_specs_must_equal_task_tools(self, tmp_path, declared, sandboxed, culprit, reason):
        registry = SandboxRegistry([replace(simple_tool(spec.name), spec=spec) for spec in sandboxed])
        write_bundle(tmp_path / "t", make_task(declared, task_id="t"), registry, passing_steps())
        with pytest.raises(SuiteError, match=reason) as err:
            load_bundle(tmp_path / "t")
        assert repr(culprit) in str(err.value) and "sandbox.json" in str(err.value)

    @pytest.mark.parametrize("case", sorted(BROKEN_BUNDLES))
    def test_malformed_bundle_file_is_a_suite_error(self, tmp_path, case):
        name, _, message = BROKEN_BUNDLES[case]
        write_broken_bundle(tmp_path / "t", case)
        with pytest.raises(SuiteError) as err:
            load_bundle(tmp_path / "t")
        assert str(tmp_path / "t" / name) in str(err.value) and message in str(err.value)

    @pytest.mark.parametrize("name", ["task.json", "sandbox.json"])
    def test_bundle_missing_file_is_a_suite_error(self, tmp_path, name):
        write_bundle(tmp_path / "t", make_task(["alpha"], task_id="t"), make_registry(["alpha"]), passing_steps())
        (tmp_path / "t" / name).unlink()
        with pytest.raises(SuiteError) as err:
            load_bundle(tmp_path / "t")
        assert str(err.value) == f"{tmp_path / 't'}: missing {name}"

    def test_missing_suite_directory_is_a_suite_error(self, tmp_path):
        with pytest.raises(SuiteError, match="^suite directory not found: "):
            load_suite(tmp_path / "absent")

    def test_script_parsed_once_per_bundle(self, tmp_path):
        write_bundle(tmp_path / "t", make_task(["alpha"], task_id="t"), make_registry(["alpha"]), passing_steps())
        bundle = load_bundle(tmp_path / "t")
        (tmp_path / "t" / "script.jsonl").unlink()
        runs = [run_task(bundle.task, CFG, bundle.make_backend(), bundle.registry) for _ in range(2)]
        assert [r.status for r in runs] == [RunStatus.ACCEPTED] * 2


class TestHistograms:
    def test_histogram_matches_declared_scores(self, tmp_path):
        # One revision in the tool seat: declared scores P:9, T:6, T:9, A:7
        # in round 1, then P:9, T:8, A:9 in round 2.
        task = make_task(["alpha"], predicate=SuccessPredicate.answer_contains(["fine"]), task_id="hist")
        steps = [
            step(planner_json([("r1n1", "s", "alpha")], 9)),
            step(tool_json("alpha", {"q": "bad"}, 6)),
            step(tool_json("alpha", {"q": "good"}, 9)),
            step(answer_json("meh", 7)),
            step(planner_json([("r2n1", "s", "alpha")], 9)),
            step(tool_json("alpha", {"q": "good"}, 8)),
            step(answer_json("fine", 9)),
        ]
        write_bundle(tmp_path / "hist", task, make_registry(["alpha"]), steps)
        result = evaluate(tmp_path, CFG)
        expected = {
            "planner": {9: 2},
            "tool": {6: 1, 8: 1, 9: 1},
            "answer": {7: 1, 9: 1},
        }
        for agent, counts in expected.items():
            histogram = result.histograms[agent]
            assert sum(histogram) == sum(counts.values())
            for score, count in counts.items():
                assert histogram[score - 1] == count

    def test_histogram_totals_equal_reflection_events(self, tmp_path):
        scenario = build_random_scenario(7)
        write_bundle(tmp_path / "rand", scenario.task, scenario.registry, scenario.steps)
        result = evaluate(tmp_path, scenario.config)
        declared_total = sum(len(v) for v in scenario.declared_scores.values())
        assert sum(sum(h) for h in result.histograms.values()) == declared_total


class TestReport:
    def test_report_files_and_round_trip(self, tmp_path):
        write_three_task_suite(tmp_path / "suite")
        result = evaluate(tmp_path / "suite", CFG, repeats=2)
        paths = report(result, tmp_path / "out")
        for key in ("json", "text", "histograms", "runs"):
            assert paths[key].is_file()
        assert json.loads(paths["json"].read_text(encoding="utf-8")) == json.loads(json.dumps(asdict(result)))
        runs_lines = paths["runs"].read_text(encoding="utf-8").strip().splitlines()
        assert len(runs_lines) == 1 + 3 * 2  # header + tasks x repeats
        hist_lines = paths["histograms"].read_text(encoding="utf-8").strip().splitlines()
        assert len(hist_lines) == 1 + 30  # header + 3 agents x 10 scores

    def test_runs_csv_quotes_error_text(self, tmp_path):
        record = harness.RunRecord("t", 1, "aborted", False, 0, 0, None, 0, 0, 0, error='a, "b"\nc')
        result = replace(evaluate(tmp_path, CFG), runs=(record,))
        runs = report(result, tmp_path / "out")["runs"].read_text(encoding="utf-8")
        assert runs.endswith('t,1,aborted,false,0,0,,0,0,0,"a, ""b""\nc"\n')

    def test_empty_suite_reports_na(self, tmp_path):
        (tmp_path / "suite").mkdir()
        result = evaluate(tmp_path / "suite", CFG)
        assert result.pass_rate is None and result.tokens_mean_per_run is None
        paths = report(result, tmp_path / "out")
        text = paths["text"].read_text(encoding="utf-8")
        assert "pass rate: n/a" in text


def run_end_case(status):
    """A task, registry, script and config whose run ends with ``status``."""
    task = make_task(["alpha", "beta"], task_id=f"ends-{status.value}")
    if status is RunStatus.ACCEPTED:
        return task, make_registry(["alpha", "beta"]), passing_steps(), CFG
    if status is RunStatus.EXHAUSTED:  # no round reaches an answer: final_round 0
        steps = [step(planner_json([("n1", "s", "alpha")], 9)), step(tool_json("alpha", {"q": "x"}, 9))] * 2
        cfg = RunConfig(max_rounds=2, subtask_retry_cap=1)
        return task, make_registry(["alpha", "beta"], {"alpha": 2}), steps, cfg
    if status is RunStatus.ABORTED:
        return task, make_registry(["alpha", "beta"]), [step(GARBAGE)] * 3, CFG
    raise AssertionError(f"no run ends with status {status.value!r}")


class TestRunEndSummary:
    @pytest.mark.parametrize("status", list(RunStatus), ids=lambda s: s.value)
    def test_record_columns_are_the_run_end_fields(self, tmp_path, monkeypatch, status):
        # Every status a run can end with; a renamed run_end field fails here
        # instead of leaving its runs.csv column empty.
        task, registry, steps, cfg = run_end_case(status)
        results = []

        def capturing_run_task(*args, **kwargs):
            results.append(run_task(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "run_task", capturing_run_task)
        bundle = harness.TaskBundle(task, registry, tuple(steps), tmp_path)
        record, _ = harness._run_cell(bundle, 1, cfg, lambda b: b.make_backend())
        (result,) = results
        assert result.status is status

        run_end = result.events[-1]
        columns = {f.name for f in fields(harness.RunRecord)} - {"task_id", "repeat", "passed"}
        keys = set(run_end) - {"kind", "round", "seq", "task"}
        assert keys <= columns
        assert columns - keys == {name for name in columns if getattr(record, name) is None}

        answer_score = None if result.final_answer is None else result.final_answer.reflection.score
        totals = result.token_totals
        assert record == harness.RunRecord(
            task.id, 1, result.status.value, check_success(task, result), result.rounds_used, result.final_round,
            answer_score, totals.prompt_tokens, totals.completion_tokens, totals.calls, result.error,
        )  # fmt: skip
        if status is RunStatus.EXHAUSTED:
            assert record.final_round == 0 and record.answer_score is None
        if status is RunStatus.ABORTED:
            assert record.error == "planner agent produced 3 unusable outputs in a row"


class TestPredicates:
    def run_with_predicate(self, predicate, call_params=None):
        task = make_task(["alpha", "beta"], predicate=predicate, task_id="pred")
        steps = [
            step(planner_json([("n1", "s", "alpha")], 9)),
            step(tool_json("alpha", call_params or {"q": "x"}, 9)),
            step(answer_json("It is done: RESULT=42.", 9)),
        ]
        return task, run_task(task, CFG, make_backend(steps), make_registry(["alpha", "beta"]))

    def test_answer_contains_all_substrings(self):
        task, result = self.run_with_predicate(SuccessPredicate.answer_contains(["done", "RESULT=42"]))
        assert check_success(task, result) is True

    def test_answer_contains_fails_on_missing_substring(self):
        task, result = self.run_with_predicate(SuccessPredicate.answer_contains(["done", "RESULT=43"]))
        assert check_success(task, result) is False

    def test_expected_calls_multiset_match(self):
        predicate = SuccessPredicate.expected_calls([ExpectedCall("alpha", {"q": "x"})])
        task, result = self.run_with_predicate(predicate)
        assert check_success(task, result) is True

    def two_call_run(self):
        """A run whose final round executed alpha{q: x} and alpha{q: y}."""
        task = make_task(["alpha", "beta"], task_id="pred")
        steps = [
            step(planner_json([("n1", "s", "alpha"), ("n2", "s", "alpha")], 9)),
            step(tool_json("alpha", {"q": "x"}, 9)),
            step(tool_json("alpha", {"q": "y"}, 9)),
            step(answer_json("done", 9)),
        ]
        return task, run_task(task, CFG, make_backend(steps), make_registry(["alpha", "beta"]))

    @pytest.mark.parametrize("wildcard_first", [True, False])
    def test_expected_calls_wildcard_leaves_parameterized_match(self, wildcard_first):
        task, result = self.two_call_run()
        payload = [ExpectedCall("alpha"), ExpectedCall("alpha", {"q": "x"})]
        predicate = SuccessPredicate.expected_calls(payload if wildcard_first else payload[::-1])
        assert check_success(replace(task, success_check=predicate), result) is True

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_expected_calls_verdict_ignores_payload_order(self, data):
        task, result = self.two_call_run()
        entries = st.sampled_from([None, {"q": "x"}, {"q": "y"}, {"q": "z"}]).map(lambda p: ExpectedCall("alpha", p))
        payload = data.draw(st.lists(entries, min_size=1, max_size=4))
        permuted = data.draw(st.permutations(payload))
        verdicts = {
            check_success(replace(task, success_check=SuccessPredicate.expected_calls(p)), result)
            for p in (payload, permuted)
        }
        assert len(verdicts) == 1

    def test_expected_calls_parameter_mismatch_fails(self):
        predicate = SuccessPredicate.expected_calls([ExpectedCall("alpha", {"q": "y"})])
        task, result = self.run_with_predicate(predicate)
        assert check_success(task, result) is False

    def test_expected_calls_surplus_call_fails(self):
        predicate = SuccessPredicate.expected_calls([ExpectedCall("beta")])
        task, result = self.run_with_predicate(predicate)
        assert check_success(task, result) is False

    def test_all_nodes_succeeded_requires_an_answer_round(self):
        task, result = self.run_with_predicate(SuccessPredicate.all_nodes_succeeded())
        assert check_success(task, result) is True

    def test_all_nodes_succeeded_fails_when_no_round_reached_an_answer(self):
        # The one subtask fails its only attempt in both rounds, so the answer
        # agent never runs and the run exhausts with final_round 0.
        task = make_task(["alpha", "beta"], predicate=SuccessPredicate.all_nodes_succeeded(), task_id="pred")
        steps = [step(planner_json([("n1", "s", "alpha")], 9)), step(tool_json("alpha", {"q": "x"}, 9))] * 2
        cfg = RunConfig(max_rounds=2, subtask_retry_cap=1)
        result = run_task(task, cfg, make_backend(steps), make_registry(["alpha", "beta"], {"alpha": 2}))
        assert result.status is RunStatus.EXHAUSTED and result.final_round == 0
        assert [e["outcome"] for e in result.events if e["kind"] == "round_end"] == ["execution_failure"] * 2
        assert check_success(task, result) is False

    @pytest.mark.parametrize(
        "predicate",
        [
            SuccessPredicate.answer_contains(["RESULT=42"]),
            SuccessPredicate.expected_calls([ExpectedCall("alpha", {"q": "x"})]),
            SuccessPredicate.all_nodes_succeeded(),
        ],
        ids=["answer_contains", "expected_calls", "all_nodes_succeeded"],
    )
    def test_aborted_run_fails_every_predicate(self, predicate):
        # Round 1 answers with the matching text below theta_a; round 2 runs
        # out of script. The run keeps round 1's answer but is aborted.
        task = make_task(["alpha", "beta"], predicate=predicate, task_id="pred")
        steps = [
            step(planner_json([("n1", "s", "alpha")], 9)),
            step(tool_json("alpha", {"q": "x"}, 9)),
            step(answer_json("It is done: RESULT=42.", 7)),
        ]
        result = run_task(task, CFG, make_backend(steps), make_registry(["alpha", "beta"]))
        assert result.status is RunStatus.ABORTED
        assert result.final_round == 1 and "RESULT=42" in result.final_answer.text
        assert check_success(task, result) is False


class TestSweeps:
    def sweep_bundle(self, root, theta_p):
        """Same logical scenario; the script covers the revision the higher
        threshold needs (plan scores 8 then 9)."""
        task = make_task(["alpha"], predicate=SuccessPredicate.answer_contains(["ok"]), task_id="sweep")
        steps = [step(planner_json([("n1", "s", "alpha")], 8))]
        if theta_p > 8:
            steps.append(step(planner_json([("n1", "s", "alpha")], 9)))
        steps.append(step(tool_json("alpha", {"q": "x"}, 9)))
        steps.append(step(answer_json("ok", 9)))
        write_bundle(root, task, make_registry(["alpha"]), steps)
        return task

    @pytest.mark.parametrize("theta_p, expected_attempts", [(7, 1), (8, 1), (9, 2)])
    def test_threshold_sweep_gates_flip_only_at_crossings(self, tmp_path, theta_p, expected_attempts):
        self.sweep_bundle(tmp_path / "sweep", theta_p)
        cfg = RunConfig(thresholds=Thresholds(theta_p=theta_p, theta_t=8, theta_a=8), max_rounds=5)
        result = evaluate(tmp_path, cfg)
        assert result.pass_rate == 100.0  # decision unchanged across the sweep
        planner_scores = result.histograms["planner"]
        assert sum(planner_scores) == expected_attempts

    @pytest.mark.parametrize("max_rounds, expected_pass", [(3, False), (5, True), (7, True)])
    def test_rounds_sweep_accept_at_four(self, tmp_path, max_rounds, expected_pass):
        accept_at_round_bundle(tmp_path / "k4", k=4)
        cfg = RunConfig(thresholds=CFG.thresholds, max_rounds=max_rounds)
        result = evaluate(tmp_path, cfg)
        assert (result.pass_rate == 100.0) is expected_pass


def leaf_paths(node, path=()):
    """Paths to every scalar, empty list and empty object in a JSON document."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from leaf_paths(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from leaf_paths(value, (*path, i))
    else:
        yield path


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=12),
    st.integers(),
    st.floats(),
    st.text(max_size=12),
    st.sampled_from(["", "q", "lookup", "string", "integer", "ok", "simulated_failure", "answer_contains"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from(["name", "kind", "q", "x"]), st.integers(), max_size=2),
)

# Edge values for fields that must be JSON integers, such as token counts.
NON_INTEGERS = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.9, 1.0, True, False, "7"])

COMPLETION_EDITS = st.text(max_size=6) | st.sampled_from(['"', "{", "}", "[", "]", ",", "null", "-1", "11", "1e999"])


class TestBoundaryProperties:
    """Outside input ends as a typed value or a documented failure."""

    @staticmethod
    def mutate_one_leaf(data, doc, values=JSON_VALUES):
        """Replace one leaf of ``doc`` with a drawn value, or delete it."""
        *parents, key = data.draw(st.sampled_from(list(leaf_paths(doc))))
        parent = doc
        for part in parents:
            parent = parent[part]
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(values)

    @staticmethod
    def load_mutant(tmp_path, bundle, name, text):
        root = tmp_path / "mutant"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(bundle.root, root)
        (root / name).write_text(text, encoding="utf-8")
        try:
            load_bundle(root)
        except SuiteError:
            pass

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_single_leaf_mutation_loads_or_is_a_suite_error(self, tmp_path, data):
        bundle = data.draw(st.sampled_from(DEMO_BUNDLES))
        name = data.draw(st.sampled_from([harness.TASK_FILE, harness.SANDBOX_FILE]))
        doc = json.loads((bundle.root / name).read_text(encoding="utf-8"))
        self.mutate_one_leaf(data, doc)
        self.load_mutant(tmp_path, bundle, name, json.dumps(doc))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_script_line_leaf_mutation_loads_or_is_a_suite_error(self, tmp_path, data):
        # Demo scripts are captures, so a line's leaves include its request's.
        bundle = data.draw(st.sampled_from(DEMO_BUNDLES))
        lines = (bundle.root / harness.SCRIPT_FILE).read_text(encoding="utf-8").splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        doc = json.loads(lines[i])
        self.mutate_one_leaf(data, doc, data.draw(st.sampled_from([NON_INTEGERS, JSON_VALUES])))
        lines[i] = json.dumps(doc)
        self.load_mutant(tmp_path, bundle, harness.SCRIPT_FILE, "\n".join(lines) + "\n")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_completion_ends_with_one_run_end(self, data):
        bundle = data.draw(st.sampled_from(DEMO_BUNDLES))
        # Without their recorded requests the steps serve whatever the mutant
        # asks next, so the run goes on past the mutated reply.
        steps = [replace(s, request=None) for s in bundle.script]
        i = data.draw(st.integers(0, len(steps) - 1))
        text = steps[i].response.text
        start = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:start]
        else:
            end = data.draw(st.integers(start, len(text)))
            text = text[:start] + data.draw(COMPLETION_EDITS) + text[end:]
        steps[i] = replace(steps[i], response=replace(steps[i].response, text=text))
        result = run_task(bundle.task, RunConfig(), ScriptedBackend(steps), bundle.registry)
        assert [e["kind"] for e in result.events].count("run_end") == 1
        assert result.events[-1]["kind"] == "run_end"
        assert result.status in (RunStatus.ACCEPTED, RunStatus.EXHAUSTED, RunStatus.ABORTED)
