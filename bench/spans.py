"""Span tracer that times calls into photonmux's layers from outside the package.

The benchmark rebinds the module attributes through which one layer calls the
next (for example ``photonmux.optimize.single_photon_probability``) to traced
wrappers, and routes its own top-level calls through the same wrappers.  Each
call records one span: name, parent span, start and end.  A span stack keeps
the time covered by child spans, so every span also carries its self time.
Spans stay in memory and are written out once, after the traced phase.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path


class Tracer:
    """Collects spans; ``wrap`` turns a function into a traced one."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # One tuple per span: (name index, parent span id or -1, t0 ns, t1 ns, self ns, value).
        self.spans: list[tuple | None] = []
        self._stack: list[list[int]] = []  # [span id, ns covered by child spans]
        self.peak_traced_bytes: dict[str, int] = {}

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn, measure=None, track_memory: bool = False):
        """Traced version of ``fn``.

        ``measure(args, kwargs, result)`` returns a number stored with the
        span (cells evaluated, truncation order, trials).  With
        ``track_memory`` the call runs under ``tracemalloc`` and the largest
        traced peak of any call is kept per span name.
        """
        idx = self._index(name)
        spans, stack = self.spans, self._stack
        if track_memory:
            fn = self._memory_probe(name, fn)

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[sid] = (idx, parent, t0, t1, t1 - t0 - frame[1], None)
            if measure is not None:
                spans[sid] = spans[sid][:5] + (measure(args, kwargs, result),)
            return result

        traced.__wrapped__ = fn
        return traced

    def _memory_probe(self, name: str, fn):
        peaks = self.peak_traced_bytes

        def probed(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                if started:
                    tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)

        return probed

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, summed self seconds, call durations, summed values."""
        out: dict[str, dict] = {}
        for span in self.spans:
            if span is None:
                continue
            idx, _, t0, t1, self_ns, value = span
            agg = out.setdefault(
                self.names[idx], {"calls": 0, "self_s": 0.0, "durations_s": [], "value": 0.0}
            )
            agg["calls"] += 1
            agg["self_s"] += self_ns * 1e-9
            agg["durations_s"].append((t1 - t0) * 1e-9)
            if value is not None:
                agg["value"] += value
        return out

    def write(self, path: Path, origin_ns: int, extra: dict) -> None:
        """Write every span, times relative to ``origin_ns``, as one JSON document."""
        rows = [
            [s[0], s[1], s[2] - origin_ns, s[3] - origin_ns, s[4], s[5]]
            for s in self.spans
            if s is not None
        ]
        doc = dict(extra, names=self.names, span_fields=["name", "parent", "t0_ns", "t1_ns", "self_ns", "value"])
        doc["spans"] = rows
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


class Rebinding:
    """Context manager that swaps module attributes for traced wrappers and restores them."""

    def __init__(self, tracer: Tracer, targets):
        self._tracer = tracer
        self._targets = targets  # (module, attribute, span name, measure, track_memory)
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, name, measure, track_memory in self._targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._tracer.wrap(name, original, measure, track_memory))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False
