"""Per-layer spans, recorded by wrapping dualreflect's public functions.

:meth:`Tracer.install` replaces every function and public method listed in
each module's ``__all__`` with a timing wrapper, in every ``dualreflect``
module that holds a reference to it (``from .promptkit import render`` makes
a second reference), and :meth:`Tracer.uninstall` puts the originals back.
Nothing in ``src/`` is edited.

Each wrapper is a span named ``<module>.<qualname>``. Spans nest per thread;
a span's self time is its duration minus the durations of the spans called
directly inside it. Spans are folded into per-name totals as they close
rather than kept, so memory stays flat however long the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

#: The package's modules, one layer each.
LAYERS = ("harness", "backend", "promptkit", "agents", "memory", "sandbox", "orchestrator", "model")


class Stat:
    """Folded spans of one name."""

    __slots__ = ("count", "total_ns", "self_ns", "errors", "ok", "size", "cpu_ns", "samples")

    def __init__(self) -> None:
        self.count = self.total_ns = self.self_ns = self.errors = self.ok = self.size = self.cpu_ns = 0
        self.samples: list[int] = []


@dataclass(frozen=True)
class Probe:
    """Extra measurements for one span name: thread CPU time, each duration,
    how many results count as ok, and a size summed over results."""

    cpu: bool = False
    samples: bool = False
    ok: Callable[[Any], bool] | None = None
    size: Callable[[Any], int] | None = None


class Tracer:
    def __init__(self, probes: dict[str, Probe] | None = None):
        self.stats: dict[str, Stat] = {}
        self._probes = probes or {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def layer_self_ns(self, layer: str) -> int:
        return sum(s.self_ns for name, s in self.stats.items() if name.split(".", 1)[0] == layer)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"dualreflect.{layer}") for layer in LAYERS}
        holders = [*modules.values(), importlib.import_module("dualreflect")]
        patches: list[tuple[Any, str, Any, Any]] = []
        for layer, module in modules.items():
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-exported from another layer
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    for holder in holders:
                        patches.extend((holder, attr, obj, wrapper) for attr, val in vars(holder).items() if val is obj)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
                    for attr, val in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(val):
                            patches.append((obj, attr, val, self._wrap(f"{layer}.{name}.{attr}", val)))
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        self._patches = [(owner, attr, original) for owner, attr, original, _ in patches]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stat = self.stats.setdefault(name, Stat())
        probe = self._probes.get(name, Probe())
        local, lock = self._local, self._lock
        clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0]
            stack.append(children)
            cpu0 = cpu_clock() if probe.cpu else 0
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                duration = clock() - start
                cpu = cpu_clock() - cpu0 if probe.cpu else 0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with lock:
                    stat.count += 1
                    stat.total_ns += duration
                    stat.self_ns += duration - children[0]
                    stat.cpu_ns += cpu
                    if failed:
                        stat.errors += 1
                    else:
                        stat.ok += bool(probe.ok and probe.ok(result))
                        stat.size += probe.size(result) if probe.size else 0
                    if probe.samples:
                        stat.samples.append(duration)

        return span
