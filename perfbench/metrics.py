"""Metric helpers and the layer -> end-to-end metric map.

Metric names, units and regression bounds live in ``BENCHMARK.json`` at the
repository root; this module adds what that file has no room for: which
end-to-end metric, on which workload, each per-layer metric should move.

Per-layer ``*_us_per_call`` metrics are microseconds spent in that function or
layer divided by backend calls, so a layer's figures add up per call;
``*_per_run`` divide by task runs. Self time is a span minus its child spans.
``deep-memory`` in the map is the by-hand workload (not in BENCHMARK.json);
on the benchmark's workloads the same metrics move less.
"""

from __future__ import annotations

import math
from typing import Sequence

#: per-layer metric -> the end-to-end metric and workload it should move.
LAYER_MAP = {
    "harness.load_suite_ms": "setup_s on every workload",
    "harness.script_loads_per_run": "runs_per_s on scripted-mixed; 0 on http-latency",
    "harness.script_load_us_per_run": "runs_per_s on scripted-mixed; 0 on http-latency",
    "harness.report_ms": "runs_per_s, most on scripted-mixed",
    "harness.jobs_speedup": "runs_per_s at jobs=2 on http-latency; below 1 where threads slow CPU-bound evals (jobs=1 time over jobs=2)",
    "backend.calls_per_run": "count; every per-call cost scales with it",
    "backend.call_ms_p50": "run_ms_p50 on http-latency",
    "backend.call_ms_tail": "run_ms_tail on http-latency",
    "backend.overhead_us_per_call": "runs_per_s and run_ms_p50 on http-latency (client time minus stub service time)",
    "backend.cpu_us_per_call": "runs_per_s on http-latency: two clients share one GIL",
    "backend.connections_opened": "run_ms_tail on http-latency (over the whole run, counted by the stub)",
    "backend.retries": "failed runs (requests the stub saw beyond the calls completed)",
    "backend.stub_service_ms_p50": "sanity check that the stub is not the bottleneck",
    "promptkit.render_us_per_call": "runs_per_s on scripted-mixed and deep-memory",
    "promptkit.render_trajectory_us_per_call": "runs_per_s on deep-memory",
    "promptkit.extract_us_per_call": "runs_per_s on scripted-mixed",
    "promptkit.validate_us_per_call": "runs_per_s on scripted-mixed",
    "promptkit.parse_fail_ratio": "runs_per_s on scripted-mixed (failed parses over parse attempts)",
    "agents.self_us_per_call": "runs_per_s on scripted-mixed and deep-memory",
    "agents.prompt_hash_us_per_call": "runs_per_s on deep-memory",
    "agents.gate_pass_ratio": "count of useful outputs: gate passes over gate checks",
    "memory.ltm_render_us_per_call": "runs_per_s and run_ms_tail on deep-memory; about 0 on scripted-mixed",
    "memory.stm_render_us_per_call": "runs_per_s on scripted-mixed",
    "memory.ltm_chars_mean": "prompt_chars_per_call on deep-memory",
    "sandbox.execute_us": "small on every workload (per execute)",
    "sandbox.ok_ratio": "executes that returned ok over executes",
    "orchestrator.self_us_per_run": "runs_per_s on scripted-mixed",
    "orchestrator.emit_us_per_event": "runs_per_s; events are kept until the eval ends, so peak_rss_mb too",
    "orchestrator.events_per_run": "runs_per_s and peak_rss_mb",
    "orchestrator.rounds_per_run": "count; the workload's shape",
    "model.validate_task_us_per_run": "runs_per_s on scripted-mixed",
    "trace.overhead_frac": "nothing; it is the traced eval wall time over the untraced one, minus 1",
}


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an unsorted, non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def tail(samples: Sequence[float], pct: float) -> tuple[float, int]:
    """The nearest-rank ``pct`` of a non-empty sample and how many samples lie
    beyond it."""
    return percentile(samples, pct), len(samples) - max(1, math.ceil(pct / 100.0 * len(samples)))
