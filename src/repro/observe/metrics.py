"""Counters and quantile-capable histograms for ``repro.observe``.

A :class:`MetricsRegistry` is a flat namespace of monotonically increasing
**counters** (``count("eval.rule_applications")``) and value-recording
**histograms** (``observe("pipeline.pass.cse", seconds)``).  Metric names
are dotted paths whose first segment names the subsystem that emits them —
``eval.*``, ``vm.*``, ``pipeline.*``, ``hotspot.*``, ``guard.*``,
``server.*`` — so a JSON export groups naturally.

Histograms keep moments (count/total/min/max) *and* fixed log-scale
buckets — ten per decade, covering ``1e-9 .. ~1e5`` — so p50/p95/p99 are
first-class without per-value storage.  The layout is unit-agnostic: it
assumes only that observed values are positive and span at most fourteen
decades, which covers nanoseconds-to-hours in seconds, bytes, and counts
alike.  Quantile estimates carry the bucket's relative error (one tenth
of a decade, ≈ ±12%), clamped into the observed min/max.

Thread-safety contract (the server hammers one registry from its worker
pool): counters are **sharded per writer thread** — each thread bumps a
private dict, reads merge the shards — so the hot path takes no lock and
concurrent totals still reconcile exactly.  Histogram recording and all
snapshot reads serialize on one registry lock; they are orders of
magnitude rarer than counter bumps (per span vs per rule application).

Snapshots round-trip through JSON losslessly::

    registry.to_json() == MetricsRegistry.from_json(registry.to_json()).to_json()
"""

from __future__ import annotations

import json
import math
import threading
from typing import Optional

#: log-bucket layout: bucket ``i`` covers ``[10^(i/10), 10^((i+1)/10))``
BUCKETS_PER_DECADE = 10
_MIN_INDEX = -9 * BUCKETS_PER_DECADE   # 1e-9
_MAX_INDEX = 5 * BUCKETS_PER_DECADE - 1  # just under 1e5
_UNDERFLOW = _MIN_INDEX - 1              # values <= 0 (and < 1e-9)


def _bucket_index(value: float) -> int:
    if value <= 0.0:
        return _UNDERFLOW
    index = math.floor(math.log10(value) * BUCKETS_PER_DECADE)
    if index < _MIN_INDEX:
        return _UNDERFLOW
    return min(index, _MAX_INDEX)


class Histogram:
    """Streaming summary of observed values: moments plus log buckets."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        #: sparse ``bucket index -> observation count``
        self.buckets: dict[int, int] = {}

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> Optional[float]:
        """Estimate the ``fraction`` quantile from the log buckets.

        Returns ``None`` on an empty histogram (or one restored from a
        pre-bucket snapshot).  The estimate is the geometric midpoint of
        the bucket holding the target rank, clamped into the observed
        ``[min, max]``; the underflow bucket reports the observed minimum.
        """
        if not self.count or not self.buckets:
            return None
        target = max(1, math.ceil(fraction * self.count))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                if index == _UNDERFLOW:
                    return self.minimum if self.minimum is not None else 0.0
                low = 10.0 ** (index / BUCKETS_PER_DECADE)
                high = 10.0 ** ((index + 1) / BUCKETS_PER_DECADE)
                estimate = math.sqrt(low * high)
                if self.maximum is not None:
                    estimate = min(estimate, self.maximum)
                if self.minimum is not None:
                    estimate = max(estimate, self.minimum)
                return estimate
        return self.maximum  # pragma: no cover - ranks always land above

    @property
    def p50(self) -> Optional[float]:
        return self.quantile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self.quantile(0.95)

    @property
    def p99(self) -> Optional[float]:
        return self.quantile(0.99)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "Histogram":
        histogram = cls()
        histogram.count = data["count"]
        histogram.total = data["total"]
        histogram.minimum = data["min"]
        histogram.maximum = data["max"]
        histogram.buckets = {
            int(index): count
            for index, count in data.get("buckets", {}).items()
        }
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Histogram n={self.count} total={self.total:.6g} "
            f"min={self.minimum} max={self.maximum} p99={self.p99}>"
        )


class _Shard(threading.local):
    #: this thread's counter dict; ``None`` until the thread first counts
    counters: Optional[dict] = None


class MetricsRegistry:
    """A named collection of counters and histograms with JSON export."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = _Shard()
        #: one private counter dict per writer thread (single-writer each)
        self._shards: list[dict] = []
        #: counters restored from snapshots / merged by ``from_dict``
        self._base: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------------

    def _new_shard(self) -> dict:
        shard = self._tls.counters = {}
        with self._lock:
            self._shards.append(shard)
        return shard

    def count(self, name: str, delta: int = 1) -> None:
        shard = self._tls.counters
        if shard is None:
            shard = self._new_shard()
        if name in shard:
            shard[name] += delta
        else:
            shard[name] = delta

    def drain(self, tally: dict) -> None:
        """Add every non-zero count in ``tally`` to its counter and zero
        it there: how a caller that tallied in plain integers reports."""
        shard = self._tls.counters
        if shard is None:
            shard = self._new_shard()
        for name in tally:
            delta = tally[name]
            if delta:
                tally[name] = 0
                if name in shard:
                    shard[name] += delta
                else:
                    shard[name] = delta

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.record(value)

    # -- reading -------------------------------------------------------------

    @property
    def counters(self) -> dict:
        """Merged view of the base counters plus every thread's shard."""
        with self._lock:
            shards = list(self._shards)
            merged = dict(self._base)
        for shard in shards:
            # list(...) snapshots the shard in one GIL-atomic C call, so a
            # concurrently writing owner thread cannot resize it mid-walk
            for name, value in list(shard.items()):
                merged[name] = merged.get(name, 0) + value
        return merged

    def counter(self, name: str) -> int:
        with self._lock:
            shards = list(self._shards)
            total = self._base.get(name, 0)
        for shard in shards:
            total += shard.get(name, 0)
        return total

    def histogram(self, name: str) -> Optional[Histogram]:
        return self.histograms.get(name)

    def clear(self) -> None:
        with self._lock:
            self._base.clear()
            for shard in self._shards:
                shard.clear()
            self.histograms.clear()

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        counters = self.counters
        with self._lock:
            snapshots = {
                name: histogram.snapshot()
                for name, histogram in sorted(self.histograms.items())
            }
        return {
            "counters": dict(sorted(counters.items())),
            "histograms": snapshots,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        registry = cls()
        registry._base.update(data.get("counters", {}))
        for name, snapshot in data.get("histograms", {}).items():
            registry.histograms[name] = Histogram.from_snapshot(snapshot)
        return registry

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry counters={len(self.counters)} "
            f"histograms={len(self.histograms)}>"
        )
