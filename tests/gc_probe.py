"""Garbage-collector activity during suite evals, stdlib only.

    PYTHONPATH=src python tests/gc_probe.py SUITE --repeats N [--jobs J] [--evals E]

Runs ``harness.evaluate`` plus ``harness.report`` on SUITE with the default
``RunConfig`` (as ``dualreflect eval`` does without config flags): once to
warm up, then E times with ``gc.callbacks`` counting. It prints, per eval:

- the collections of each generation that started while a cell was open, and
  those that started while none was. A cell is open from its backend factory
  call until its ``run_task`` returns, as perfbench's cell timer draws it, so a
  collection inside a cell is a pause in that cell's ``run_ms``;
- the objects found unreachable by those collections and by one more after
  the last eval: the garbage that only the cyclic collector frees.

The last line repeats the figures as one JSON object. The file is not named
``test_*``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tempfile
import threading
from pathlib import Path
from typing import Any

from dualreflect import harness
from dualreflect.model import RunConfig


def probe(suite: Path, repeats: int, jobs: int, evals: int) -> dict[str, Any]:
    open_cells: set[int] = set()  # threads whose cell is open; set.add and discard are atomic
    inside, outside, collected = [0, 0, 0], [0, 0, 0], [0]
    inner = harness.run_task

    def factory(bundle: Any) -> Any:
        open_cells.add(threading.get_ident())
        return bundle.make_backend()

    def run_task(*args: Any, **kwargs: Any) -> Any:
        try:
            return inner(*args, **kwargs)
        finally:
            open_cells.discard(threading.get_ident())

    def count(phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            (inside if open_cells else outside)[info["generation"]] += 1
        else:
            collected[0] += info["collected"]

    config = RunConfig()
    harness.run_task = run_task
    try:
        with tempfile.TemporaryDirectory() as out:
            runs = 0
            for n in range(evals + 1):
                if n == 1:  # after the warm-up: count only what the measured evals leave
                    gc.collect()
                    gc.callbacks.append(count)
                result = harness.evaluate(suite, config, repeats=repeats, jobs=jobs, backend_factory=factory)
                harness.report(result, Path(out) / "report")
                runs = len(result.runs)
    finally:
        harness.run_task = inner
        if count in gc.callbacks:
            gc.callbacks.remove(count)
    collected[0] += gc.collect()  # cyclic garbage that no collection reached during the evals
    return {
        "evals": evals,
        "cells_per_eval": runs,
        "collections_inside_cells_per_eval": [n / evals for n in inside],
        "collections_outside_cells_per_eval": [n / evals for n in outside],
        "cyclic_objects_collected_per_eval": collected[0] / evals,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", type=Path)
    parser.add_argument("--repeats", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--evals", type=int, default=20, help="measured evals after one warm-up (default 20)")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.jobs < 1 or args.evals < 1:
        parser.error("--repeats, --jobs and --evals must be at least 1")
    figures = probe(args.suite, args.repeats, args.jobs, args.evals)
    print(f"suite {args.suite} repeats {args.repeats} jobs {args.jobs} evals {args.evals} "
          f"cells per eval {figures['cells_per_eval']} python {sys.version.split()[0]}")
    for gen in range(3):
        print(f"gen{gen} collections per eval: inside cells {figures['collections_inside_cells_per_eval'][gen]:.2f}, "
              f"outside cells {figures['collections_outside_cells_per_eval'][gen]:.2f}")
    print(f"cyclic objects collected per eval: {figures['cyclic_objects_collected_per_eval']:.1f}")
    print(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
