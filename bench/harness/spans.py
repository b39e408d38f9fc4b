"""The benchmark's own span recorder.

Spans are recorded from outside the program, around calls into each
layer's public functions; ``repro.observe`` stays off.  A span has a name,
a layer (the ``repro`` module the call enters), start and end, the span
that caused it, and the id of the op it belongs to.  Spans are held in
memory and written as Chrome-trace JSON when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Recorder:
    """Collects spans; ``enabled = False`` makes :meth:`span` a no-op so
    untraced and traced passes run the same code."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        record = {"name": name, "layer": layer, "op": self.op_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "tid": 1, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: int | None = None, tid: int = 1) -> int:
        """Record a span whose times were taken elsewhere (another thread,
        or a duration the server reported)."""
        self.spans.append({"name": name, "layer": layer, "op": self.op_id,
                           "parent": parent, "tid": tid,
                           "start": start, "end": end})
        return len(self.spans) - 1

    # -- analysis ----------------------------------------------------------

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Self time per layer: each span's duration minus the part of it
        its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, covered):
            own = max(0.0, span["end"] - span["start"] - children)
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
        return totals

    def write_chrome_trace(self, path: str) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {"name": s["name"], "cat": s["layer"], "ph": "X", "pid": 1,
             "tid": s["tid"], "ts": (s["start"] - origin) * 1e6,
             "dur": (s["end"] - s["start"]) * 1e6,
             "args": {"op": s["op"], "parent": s["parent"]}}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
