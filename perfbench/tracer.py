"""Outside-in layer tracing: wrap the layers' public functions, record spans.

Nothing inside the program changes: :class:`Tracer` replaces module and
class attributes of ``repro`` with timing wrappers for the duration of a
``with tracer:`` block and restores them afterwards.  Each span records
its layer, start, end, parent span, thread and an optional info value
(hit/miss, words scanned, request id).  Spans stay in memory; the layer
totals are computed from them once the traced phase is over, and the spans
themselves can be written out with :meth:`Tracer.dump`.

A span's *self time* is its duration minus the time its child spans cover,
so nested layers (``dtypes.encode`` inside ``patterns.generate`` inside
``sweep.run_configs``) are each charged only for their own work.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Orchestration layers; every other layer is a leaf for the coverage check.
ROOT_LAYERS = ("sweep.run_configs", "serve.submit")


def _subclasses(cls: type) -> "list[type]":
    found, todo = {}, [cls]
    while todo:
        current = todo.pop()
        found[current] = None
        todo.extend(current.__subclasses__())
    return list(found)


def _words(streams: Any) -> int:
    """Operand words an estimator scans: the A and B elements it is handed."""
    return int(streams.a_used.size + streams.b_used.size)


class Tracer:
    """Records spans around the layer boundaries listed in :meth:`_targets`."""

    def __init__(self) -> None:
        #: (span id, parent id, layer, start, end, self seconds, thread id, info)
        self.spans: "list[tuple]" = []
        self._next_id = iter(range(1, sys.maxsize)).__next__
        self._local = threading.local()
        self._patched: "list[tuple[object, str, bool, Any]]" = []

    # ------------------------------------------------------------ wrapping

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(
        self, layer: str, fn: Callable, info: "Callable | None", pre: "Callable | None"
    ) -> Callable:
        """``pre(args)`` runs before the call; ``info(args, result, pre_value)``
        after it, and its value is stored with the span."""
        spans, next_id, stack_of = self.spans, self._next_id, self._stack

        if inspect.iscoroutinefunction(fn):
            # Coroutines interleave on one thread, so they cannot share the
            # thread's span stack: an async span is a root with no children.
            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                before = pre(args) if pre is not None else None
                start = time.perf_counter()
                result = await fn(*args, **kwargs)
                end = time.perf_counter()
                value = info(args, result, before) if info is not None else None
                spans.append(
                    (next_id(), 0, layer, start, end, end - start, threading.get_ident(), value)
                )
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span_id = next_id()
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            before = pre(args) if pre is not None else None
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            value = info(args, result, before) if info is not None else None
            spans.append(
                (span_id, parent, layer, start, end, end - start - frame[1],
                 threading.get_ident(), value)
            )
            return result

        return wrapper

    def _patch(
        self,
        owner: object,
        name: str,
        layer: str,
        info: "Callable | None" = None,
        pre: "Callable | None" = None,
    ) -> None:
        own = name in vars(owner)
        original = getattr(owner, name)
        self._patched.append((owner, name, own, original))
        setattr(owner, name, self._wrap(layer, original, info, pre))

    def _patch_function(self, fn: Callable, layer: str, info: "Callable | None" = None) -> None:
        """Wrap ``fn`` in every ``repro`` module that binds it by name."""
        wrapped = self._wrap(layer, fn, info, None)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, True, fn))
                    setattr(module, attr, wrapped)

    def _targets(self) -> None:
        from repro.activity import accumulator, memory_traffic, multiplier, operand_bus
        from repro.cache import fingerprint
        from repro.cache.store import ActivityCache, ExperimentCache
        from repro.dtypes.base import DTypeSpec
        from repro.experiments import plan, sweep
        from repro.kernels import schedule
        from repro.patterns.base import Pattern
        from repro.power.model import PowerModel
        from repro.runtime.model import RuntimeModel
        from repro.serve.service import EstimationService
        from repro.telemetry.dcgm import DcgmMonitor
        from repro.telemetry.trace import PowerTrace

        for cls in _subclasses(Pattern):
            if "generate" in vars(cls):
                self._patch(cls, "generate", "patterns.generate")
        for cls in _subclasses(DTypeSpec):
            for method in ("encode", "decode"):
                if method in vars(cls):
                    self._patch(cls, method, f"dtypes.{method}")
        for fn in (schedule.build_streams, schedule.build_streams_stacked):
            self._patch_function(fn, "kernels.build_streams")
        for component, module in (
            ("operand", operand_bus),
            ("multiplier", multiplier),
            ("datapath", accumulator),
            ("memory", memory_traffic),
        ):
            for suffix in ("", "_batch"):
                fn = getattr(module, f"estimate_{component}_activity{suffix}")
                self._patch_function(
                    fn, f"activity.{component}", lambda a, r, b: _words(a[0])
                )
        for fn in (
            fingerprint.experiment_fingerprint,
            fingerprint.activity_fingerprint,
            fingerprint.plan_fingerprint,
        ):
            self._patch_function(fn, "cache.fingerprint")

        # Cache and plan outcomes are read off the handle's own counters
        # around the call: (hit, disk hit) and hit.
        self._patch(
            ExperimentCache,
            "get",
            "cache.result.get",
            lambda a, r, b: (r is not None, a[0].stats.disk_hits - b),
            lambda a: a[0].stats.disk_hits,
        )
        self._patch(ExperimentCache, "put", "cache.result.put")
        self._patch(ActivityCache, "get", "cache.activity.get", lambda a, r, b: r is not None)
        self._patch(ActivityCache, "put", "cache.activity.put")
        self._patch_function(plan.build_plan, "plan.build")
        self._patch(
            plan.PlanCache,
            "get_or_build",
            "plan.build",
            lambda a, r, b: a[0].stats.hits - b,
            lambda a: a[0].stats.hits,
        )
        self._patch(PowerModel, "estimate", "power.estimate")
        self._patch(RuntimeModel, "estimate", "runtime.estimate")
        self._patch(DcgmMonitor, "power_trace", "telemetry.power_trace")
        self._patch(PowerTrace, "trim_warmup", "telemetry.power_trace")
        self._patch(PowerTrace, "mean_power_watts", "telemetry.power_trace")
        self._patch_function(
            sweep.run_configs, "sweep.run_configs", lambda a, r, b: [id(c) for c in a[0]]
        )
        self._patch(
            EstimationService, "submit", "serve.submit", lambda a, r, b: (id(a[1]), a[1].label)
        )

    def __enter__(self) -> "Tracer":
        self._targets()
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, name, own, original in reversed(self._patched):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def layer_totals(self) -> "dict[str, dict[str, float]]":
        """Per layer: span count, total self seconds, and summed info."""
        totals: "dict[str, dict[str, float]]" = {}
        for _, _, layer, _, _, self_s, _, _ in self.spans:
            entry = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self_s
        return totals

    def info(self, layer: str) -> list:
        return [span[7] for span in self.spans if span[2] == layer]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON document (after the traced phase)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "parent", "layer", "start", "end", "self_s", "thread", "info")
        with path.open("w", encoding="utf-8") as handle:
            json.dump(
                {"fields": fields, "spans": [list(span) for span in self.spans]},
                handle,
                default=str,
            )
