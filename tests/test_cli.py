"""Command-line contract: subcommands, exit codes, config precedence."""

import csv
import json
import shutil
from pathlib import Path

import pytest

from dualreflect.cli import main, resolve_config
from scenarios import (
    BROKEN_BUNDLES,
    case_study_registry,
    case_study_steps,
    case_study_task,
    make_registry,
    make_task,
    step,
    task_doc,
    write_broken_bundle,
    write_bundle,
)

DEMO_SUITE = Path(__file__).parent.parent / "suites" / "demo"
GOLDEN = Path(__file__).parent / "golden"


def write_case_bundle(root):
    write_bundle(root, case_study_task(), case_study_registry(), case_study_steps())


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["eval", "--nonsense"]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["run"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--repeats", "--jobs"])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_eval_count_below_one_is_usage_error(self, tmp_path, capsys, flag, value):
        report_dir = tmp_path / "report"
        argv = ["eval", "--suite", str(DEMO_SUITE), flag, value, "--report-dir", str(report_dir)]
        assert main(argv) == 2
        assert f"{flag}: expected an integer >= 1, got '{value}'" in capsys.readouterr().err
        assert not report_dir.exists()


class TestRun:
    def test_run_bundle_success(self, tmp_path, capsys):
        bundle = tmp_path / "case"
        write_case_bundle(bundle)
        code = main(["run", "--task", str(bundle), "--trace-out", str(tmp_path / "trace.jsonl")])
        out = capsys.readouterr().out
        assert code == 0
        assert "accepted in 2 round(s)" in out
        assert "success predicate: pass" in out
        trace_lines = (tmp_path / "trace.jsonl").read_text(encoding="utf-8").strip().splitlines()
        assert json.loads(trace_lines[0])["kind"] == "round_start"
        assert json.loads(trace_lines[-1])["kind"] == "run_end"

    def test_trace_out_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--task", str(DEMO_SUITE / "flaky-lookup"), "--trace-out", "missing-dir/trace.jsonl"])
        assert code == 0
        assert "success predicate: pass" in capsys.readouterr().out
        trace = (tmp_path / "missing-dir" / "trace.jsonl").read_bytes()
        assert trace == (GOLDEN / "flaky-lookup.trace.jsonl").read_bytes()

    @pytest.mark.parametrize("task", ["city-day-trip", "flaky-lookup"])
    def test_http_run_trace_equals_golden(self, tmp_path, capsys, monkeypatch, task):
        from dualreflect.backend import script_from_jsonl
        from http_stub import serve_script

        steps = script_from_jsonl((DEMO_SUITE / task / "script.jsonl").read_text(encoding="utf-8"))
        trace = tmp_path / "trace.jsonl"
        with serve_script(steps) as (base_url, server):
            monkeypatch.setenv("MIRROR_API_BASE", base_url)
            code = main(["run", "--task", str(DEMO_SUITE / task), "--backend", "http", "--trace-out", str(trace)])
            assert len(server.requests) == len(steps)
        capsys.readouterr()
        assert code == 0
        assert trace.read_bytes() == (GOLDEN / f"{task}.trace.jsonl").read_bytes()

    def test_scripted_run_without_script_exits_one(self, tmp_path, capsys):
        write_bundle(tmp_path / "b", make_task(["alpha"], task_id="no-script"), make_registry(["alpha"]), steps=None)
        assert main(["run", "--task", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bundle has no script.jsonl" in err

    def test_run_aborting_bundle_exits_one(self, tmp_path, capsys):
        task = make_task(["alpha"], task_id="will-abort")
        write_bundle(tmp_path / "b", task, make_registry(["alpha"]), [step("not json")] * 3)
        code = main(["run", "--task", str(tmp_path / "b")])
        capsys.readouterr()
        assert code == 1

    def test_threshold_flag_changes_behavior(self, tmp_path, capsys):
        # With theta-a lowered to 7 the round-1 answer (score 7) is accepted.
        bundle = tmp_path / "case"
        write_case_bundle(bundle)
        code = main(["run", "--task", str(bundle), "--theta-a", "7"])
        out = capsys.readouterr().out
        assert code == 0 and "accepted in 1 round(s)" in out

    def test_record_writes_backend_trace(self, tmp_path, capsys):
        bundle = tmp_path / "case"
        write_case_bundle(bundle)
        record_path = tmp_path / "backend.jsonl"
        assert main(["run", "--task", str(bundle), "--record", str(record_path)]) == 0
        capsys.readouterr()
        assert len(record_path.read_text(encoding="utf-8").strip().splitlines()) == 12


class TestEval:
    def test_demo_suite_passes(self, tmp_path, capsys):
        code = main(
            ["eval", "--suite", str(DEMO_SUITE), "--repeats", "2", "--jobs", "2",
             "--report-dir", str(tmp_path / "report")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pass rate: 100.0%" in out
        assert (tmp_path / "report" / "report.json").is_file()
        assert (tmp_path / "report" / "runs.csv").is_file()

    def test_eval_with_config_file_and_repeats(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"thresholds": {"theta_a": 8}, "max_rounds": 5}), encoding="utf-8")
        code = main(
            ["eval", "--suite", str(DEMO_SUITE), "--config", str(config), "--repeats", "3",
             "--report-dir", str(tmp_path / "report")]
        )
        out = capsys.readouterr().out
        assert code == 0 and "report written" in out
        report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
        assert report["repeats"] == 3 and report["pass_rate_stdev"] == 0.0

    def test_eval_exit_one_when_any_task_aborts(self, tmp_path, capsys):
        task = make_task(["alpha"], task_id="aborts")
        write_bundle(tmp_path / "suite" / "aborts", task, make_registry(["alpha"]), [step("junk")] * 3)
        code = main(["eval", "--suite", str(tmp_path / "suite"), "--report-dir", str(tmp_path / "report")])
        capsys.readouterr()
        assert code == 1

    def test_eval_http_backend_against_stub(self, tmp_path, capsys, monkeypatch):
        from dualreflect.backend import script_from_jsonl
        from http_stub import serve_script

        combined = []
        for name in ("city-day-trip", "flaky-lookup"):  # bundle order is sorted task id
            combined += script_from_jsonl((DEMO_SUITE / name / "script.jsonl").read_text(encoding="utf-8"))
        with serve_script(combined) as (base_url, server):
            monkeypatch.setenv("MIRROR_API_BASE", base_url)
            code = main(
                ["eval", "--suite", str(DEMO_SUITE), "--backend", "http",
                 "--report-dir", str(tmp_path / "report")]
            )
            assert len(server.requests) == len(combined)
        out = capsys.readouterr().out
        assert code == 0 and "pass rate: 100.0%" in out

    def test_tampered_capture_aborts_its_cell(self, tmp_path, capsys):
        suite = tmp_path / "demo"
        shutil.copytree(DEMO_SUITE, suite)
        script = suite / "flaky-lookup" / "script.jsonl"
        lines = script.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[1])
        entry["request"]["user"] = entry["request"]["user"].replace("lookup", "lookout", 1)
        lines[1] = json.dumps(entry, sort_keys=True, ensure_ascii=False)
        script.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["eval", "--suite", str(suite), "--report-dir", str(tmp_path / "report")]) == 1
        capsys.readouterr()
        with (tmp_path / "report" / "runs.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["task_id"], row["status"]) for row in rows] == [
            ("city-day-trip", "accepted"),
            ("flaky-lookup", "aborted"),
        ]
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("request 2 diverged from the recording at byte ")
        assert "recorded ..." in rows[1]["error"] and "... got ..." in rows[1]["error"]


class TestReplay:
    @pytest.mark.parametrize("task", ["city-day-trip", "flaky-lookup"])
    def test_demo_script_is_its_own_capture(self, tmp_path, capsys, task):
        script = DEMO_SUITE / task / "script.jsonl"
        capture, trace = tmp_path / "capture.jsonl", tmp_path / "trace.jsonl"
        assert main(["run", "--task", str(DEMO_SUITE / task), "--record", str(capture)]) == 0
        assert capture.read_bytes() == script.read_bytes()
        assert main(["replay", "--task", str(DEMO_SUITE / task), "--trace", str(script), "--trace-out", str(trace)]) == 0
        assert trace.read_bytes() == (GOLDEN / f"{task}.trace.jsonl").read_bytes()
        capsys.readouterr()

    def test_missing_trace_exits_one_before_any_run(self, tmp_path, capsys):
        trace_out = tmp_path / "out" / "trace.jsonl"
        argv = ["replay", "--task", str(DEMO_SUITE / "flaky-lookup"), "--trace", str(tmp_path / "missing.jsonl"),
                "--trace-out", str(trace_out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "missing.jsonl" in captured.err
        assert not (tmp_path / "out").exists()

    def test_old_format_capture_is_a_bad_script_line(self, tmp_path, capsys):
        trace = tmp_path / "old.jsonl"
        request = {"model": "scripted", "system": "s", "temperature": 0.0, "user": "u"}
        response = {"completion_tokens": 5, "prompt_tokens": 10, "text": "r"}
        trace.write_text(json.dumps({"request": request, "response": response}) + "\n", encoding="utf-8")
        assert main(["replay", "--task", str(DEMO_SUITE / "flaky-lookup"), "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {trace}: bad script line 1: 'text'\n"

    def test_record_then_replay_exits_zero(self, tmp_path, capsys):
        bundle = tmp_path / "case"
        write_case_bundle(bundle)
        trace = tmp_path / "backend.jsonl"
        assert main(["run", "--task", str(bundle), "--record", str(trace)]) == 0
        assert main(["replay", "--task", str(bundle), "--trace", str(trace)]) == 0
        capsys.readouterr()

    def test_tampered_trace_exits_one_with_message(self, tmp_path, capsys):
        bundle = tmp_path / "case"
        write_case_bundle(bundle)
        trace = tmp_path / "backend.jsonl"
        assert main(["run", "--task", str(bundle), "--record", str(trace)]) == 0
        lines = trace.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[0])
        entry["request"]["user"] = entry["request"]["user"].replace("Paris", "Prague")
        lines[0] = json.dumps(entry, sort_keys=True, ensure_ascii=False)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["replay", "--task", str(bundle), "--trace", str(trace)])
        out = capsys.readouterr().out
        assert code == 1
        assert "diverged" in out


class TestValidate:
    def test_valid_bundle(self, tmp_path, capsys):
        bundle = tmp_path / "case"
        write_case_bundle(bundle)
        assert main(["validate", "--task", str(bundle)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_invalid_task_file(self, tmp_path, capsys):
        doc = task_doc(make_task(["alpha"]))
        doc["id"] = ""
        doc["tools"] *= 2
        path = tmp_path / "task.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--task", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: id: must be non-empty; tools[1].name: duplicate tool name 'alpha'\n"
        )

    def test_validate_suite(self, capsys):
        assert main(["validate", "--suite", str(DEMO_SUITE)]) == 0
        assert "2 task(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(BROKEN_BUNDLES))
    @pytest.mark.parametrize("command", ["validate", "run", "eval"])
    def test_malformed_bundle_is_an_error_exit_one(self, tmp_path, capsys, command, case):
        suite = tmp_path / "suite"
        write_broken_bundle(suite / "t", case)
        argv = {
            "validate": ["validate", "--task", str(suite / "t")],
            "run": ["run", "--task", str(suite / "t")],
            "eval": ["eval", "--suite", str(suite), "--report-dir", str(tmp_path / "report")],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and BROKEN_BUNDLES[case][2] in err


class TestConfigPrecedence:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(
            json.dumps({"thresholds": {"theta_p": 7, "theta_a": 9}, "max_rounds": 2, "revision_cap": 4}),
            encoding="utf-8",
        )

        class Args:
            config = config_file
            max_rounds = None
            theta_p = 8
            theta_t = None
            theta_a = None

        cfg = resolve_config(Args())
        assert cfg.thresholds.theta_p == 8  # flag wins
        assert cfg.thresholds.theta_a == 9  # file wins
        assert cfg.thresholds.theta_t == 8  # default
        assert cfg.max_rounds == 2 and cfg.revision_cap == 4

    def test_defaults_match_documented_values(self):
        class Args:
            config = None
            max_rounds = None
            theta_p = None
            theta_t = None
            theta_a = None

        cfg = resolve_config(Args())
        assert (cfg.thresholds.theta_p, cfg.thresholds.theta_t, cfg.thresholds.theta_a) == (9, 8, 8)
        assert (cfg.max_rounds, cfg.revision_cap, cfg.subtask_retry_cap, cfg.parse_retry_cap) == (5, 3, 3, 2)


class TestConfigErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", "run config must be a JSON object"),
            ('{"thresholds": 5}', "thresholds must be a JSON object"),
            ('{"max_round": 2}', "unknown key(s): max_round"),
            ('{"thresholds": {"theta_q": 9}}', "unknown key(s): theta_q"),
            ('{"max_rounds": "2"}', "max_rounds must be an integer"),
            ('{"thresholds": {"theta_p": 11}}', "theta_p must be an integer in [1, 10]"),
            ("{not json", "Expecting property name"),
            pytest.param("[" * 100000, "maximum recursion depth", id="nested-too-deep"),
            (None, "No such file"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["run", "--task", str(DEMO_SUITE / "flaky-lookup")], ["eval", "--suite", str(DEMO_SUITE)]],
        ids=["run", "eval"],
    )
    def test_bad_config_file_is_usage_error(self, tmp_path, capsys, command, text, message):
        config = tmp_path / "config.json"
        if text is not None:
            config.write_text(text, encoding="utf-8")
        assert main([*command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
