"""Command-line front end.

Subcommands: ``run`` (one task bundle), ``eval`` (a suite), ``replay``
(re-drive a task from a ``run --record`` capture, served as a script whose
steps check their recorded requests), and ``validate`` (schema check a task
or suite). Exit codes: 0 on success, 1 when any run aborts /
validation fails / a replay diverges, 2 on usage errors, which include an
unreadable or invalid run configuration.

Config precedence: built-in defaults, then the ``--config`` JSON file, then
explicit flags. Environment variables configure backend auth only.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack, closing
from pathlib import Path
from typing import Sequence

from .backend import ChatBackend, HttpBackend, RecordingBackend, ScriptedBackend, script_from_jsonl
from .harness import SuiteError, check_success, evaluate, load_bundle, load_suite, report
from .model import RunConfig, Thresholds, as_dict, task_from_json
from .orchestrator import RunResult, RunStatus, run_task

__all__ = ["main", "build_parser", "resolve_config"]


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualreflect",
        description="Reflection-gated multi-agent tool workflow runner and evaluation harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="JSON config file mirroring the run-config fields")
        p.add_argument("--max-rounds", type=int, help="round cap override")
        p.add_argument("--theta-p", type=int, help="planner gate threshold override")
        p.add_argument("--theta-t", type=int, help="tool gate threshold override")
        p.add_argument("--theta-a", type=int, help="answer gate threshold override")

    def add_backend_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--backend", choices=("scripted", "http"), default="scripted")
        p.add_argument("--model", default="default", help="model name for the http backend")

    p_run = sub.add_parser("run", help="run a single task bundle")
    p_run.add_argument("--task", type=Path, required=True, help="bundle directory (task.json + sandbox.json [+ script.jsonl])")
    p_run.add_argument("--trace-out", type=Path, help="write the event trace to this JSONL file")
    add_config_flags(p_run)
    add_backend_flags(p_run)
    p_run.add_argument("--record", type=Path, metavar="PATH", help="record backend exchanges to a JSONL trace")

    p_eval = sub.add_parser("eval", help="evaluate a suite directory")
    p_eval.add_argument("--suite", type=Path, required=True)
    p_eval.add_argument("--repeats", type=_positive_int, default=1)
    p_eval.add_argument("--jobs", type=_positive_int, default=1)
    p_eval.add_argument("--report-dir", type=Path, default=Path("report"))
    add_backend_flags(p_eval)
    add_config_flags(p_eval)

    p_replay = sub.add_parser("replay", help="re-drive a task from a run --record capture")
    p_replay.add_argument("--task", type=Path, required=True)
    p_replay.add_argument("--trace", type=Path, required=True, help="run --record capture (JSONL)")
    p_replay.add_argument("--trace-out", type=Path)
    add_config_flags(p_replay)

    p_validate = sub.add_parser("validate", help="schema-check a task bundle or a suite")
    group = p_validate.add_mutually_exclusive_group(required=True)
    group.add_argument("--task", type=Path)
    group.add_argument("--suite", type=Path)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags.

    Raises :class:`ValueError` for an invalid config file or flag value and
    :class:`OSError` for an unreadable file.
    """
    config_path = getattr(args, "config", None)
    config = RunConfig()
    if config_path is not None:
        try:
            config = RunConfig.from_dict(json.loads(Path(config_path).read_text(encoding="utf-8")))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{config_path}: {exc}") from None

    def flags(*names: str) -> dict[str, int]:
        return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}

    thresholds = Thresholds(**{**as_dict(config.thresholds), **flags("theta_p", "theta_t", "theta_a")})
    return RunConfig(**{**as_dict(config), "thresholds": thresholds, **flags("max_rounds")})


def _print_result(task_id: str, result: RunResult, passed: bool) -> None:
    totals = result.token_totals
    print(f"task {task_id}: {result.status.value} in {result.rounds_used} round(s)")
    if result.final_answer is not None:
        print(f"  answer (score {result.final_answer.reflection.score}/10, round {result.final_round}): "
              f"{result.final_answer.text}")
    if result.error is not None:
        print(f"  error: {result.error}")
    print(f"  success predicate: {'pass' if passed else 'fail'}")
    print(f"  tokens: prompt {totals.prompt_tokens}, completion {totals.completion_tokens}, calls {totals.calls}")


def _cmd_run(args: argparse.Namespace, config: RunConfig) -> int:
    """``run`` and ``replay``: one bundle, one run."""
    bundle = load_bundle(args.task)
    with ExitStack() as stack:
        if args.command == "replay":
            try:
                steps = script_from_jsonl(args.trace.read_text(encoding="utf-8"))
            except ValueError as exc:
                raise ValueError(f"{args.trace}: {exc}") from None
            backend: ChatBackend = ScriptedBackend(steps)
        elif args.backend == "http":
            backend = stack.enter_context(closing(HttpBackend(model=args.model)))
        else:
            backend = bundle.make_backend()
        if getattr(args, "record", None) is not None:
            backend = RecordingBackend(backend, args.record)
        result = run_task(bundle.task, config, backend, bundle.registry, trace_path=args.trace_out)
    _print_result(bundle.task.id, result, check_success(bundle.task, result))
    return 1 if result.status is RunStatus.ABORTED else 0


def _cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    factory = None
    with ExitStack() as stack:
        if args.backend == "http":
            shared = stack.enter_context(closing(HttpBackend(model=args.model)))  # safe for concurrent runs
            factory = lambda bundle: shared
        result = evaluate(args.suite, config, repeats=args.repeats, jobs=args.jobs, backend_factory=factory)
    paths = report(result, args.report_dir)
    print((paths["text"]).read_text(encoding="utf-8"), end="")
    print(f"report written to {args.report_dir}")
    return 1 if any(r.status == RunStatus.ABORTED.value for r in result.runs) else 0


def _cmd_validate(args: argparse.Namespace, config: RunConfig) -> int:
    """``validate`` has no config flags: ``config`` is the defaults, unused."""
    if args.suite is not None:
        print(f"suite ok: {len(load_suite(args.suite, require_scripts=False))} task(s)")
    elif args.task.is_dir():
        load_bundle(args.task)
    else:
        try:
            task_from_json(args.task.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ValueError(f"{args.task}: {exc}") from None
    print("valid")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return {"eval": _cmd_eval, "validate": _cmd_validate}.get(args.command, _cmd_run)(args, config)
    except (SuiteError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
