"""The dualreflect benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Generates the workload's suite from the seed,
measures it in a fresh interpreter with a fixed environment (worker.py), and
prints every metric by name with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are BENCHMARK.json's end-to-end list, with ``--trace 1`` its
per-layer list. Exits 1 when any run failed its check, 2 on a usage or
set-up error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

from metrics import LAYER_MAP
from workloads import WORKLOADS, generate, write_suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 21
#: The worker must finish within this many seconds beyond --seconds.
WORKER_SLACK_S = 120


def fixed_env() -> dict[str, str]:
    """The worker's whole environment. ``requests`` scans os.environ on every
    call, so an inherited environment would make results depend on the shell."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
    }


def run_script(script: str, args: list[str], timeout: float) -> Any:
    """Run one of the benchmark's scripts in a fresh interpreter; return its
    last stdout line, parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        env=fixed_env(), cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest = ROOT / "BENCHMARK.json"
    if not (SRC / "dualreflect" / "__init__.py").is_file() or not manifest.is_file():
        print(f"error: run from a dualreflect checkout; {SRC / 'dualreflect'} or {manifest} is missing",
              file=sys.stderr)
        return 2
    declared = json.loads(manifest.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        write_suite(generate(workload.profile, args.seed), work / "suite")
        timeout = args.seconds + WORKER_SLACK_S
        out = run_script("worker.py", ["measure", str(work), args.workload, str(args.seconds), str(args.trace)],
                         timeout)
        if not args.trace:
            setups = [run_script("setup_time.py", [str(work / "suite")], 60) for _ in range(SETUP_SAMPLES)]
            out["metrics"]["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # left in place while another run uses it

    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    info = out["info"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"python {platform.python_version()} nproc {os.cpu_count()} env_vars {out['env_vars']} PYTHONHASHSEED 0")
    for name, m in metrics.items():
        note = ""
        if name == "run_ms_tail":
            note = f" (p{info['tail_pct']:g}, {info['tail_beyond']} of {info['cells']} cells beyond)"
        elif name == "runs_per_s":
            note = f" (median of {info['evals']} evals)"
        elif name in LAYER_MAP:
            note = f"  (moves {LAYER_MAP[name]})"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    if args.trace:
        for span, s in info["spans"].items():
            print(f"span {span} n={s['spans']} total_ms={s['total_ms']:.3f} self_ms={s['self_ms']:.3f}")
    print(f"failed_runs_frac {out['failed'] / max(1, out['attempted']):.6g} ({out['failed']} of {out['attempted']} runs)")
    for error in out["errors"]:
        print(f"check failed: {error}")
    correct = out["failed"] == 0 and not out["errors"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
