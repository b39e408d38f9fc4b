"""Admission control: per-request budgets, a bounded queue, load shedding.

Every accepted request runs under an :class:`~repro.runtime.guard.
ExecutionGuard` derived from a :class:`RequestBudget` — the deadline /
step / memory budgets PR 1 built for ``TimeConstrained`` become the
server's fairness mechanism: no single request can hold a worker slot
longer than the budget allows, whatever the tenant submitted.

Concurrency is a two-stage funnel:

1. **shed or queue** — at most ``queue_limit`` requests may be *waiting*
   for a worker slot.  A request arriving past that bound is shed
   immediately with a structured :class:`~repro.errors.RejectedError`
   (``reason="queue-full"``) carrying a ``retry_after`` hint scaled by the
   current depth, so clients back off harder the deeper the overload;
2. **run** — at most ``max_concurrent`` requests hold evaluation slots.

The slots are a counting semaphore on one :class:`threading.Condition`:
a request is admitted on the connection thread that read it, and that
thread blocks in :meth:`AdmissionController.slot` until a slot frees.
The accounting (``waiting``/``running``/``shed``/``peak_queue_depth``)
lives under the same lock, so a request costs one acquisition to enter
and one to leave.

Shedding at the door instead of timing out in the queue keeps the
server's latency distribution honest under overload: a request we cannot
serve within its deadline is cheaper to refuse in microseconds than to
fail in seconds (the classic load-shedding argument).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro import observe as _observe
from repro.errors import RejectedError
from repro.runtime.guard import ExecutionGuard


@dataclass(frozen=True)
class RequestBudget:
    """The resource envelope one request may consume."""

    deadline_seconds: Optional[float] = 1.0
    steps: Optional[int] = 2_000_000
    memory_bytes: Optional[int] = 64 * 1024 * 1024

    def make_guard(self, label: str = "server.request") -> ExecutionGuard:
        return ExecutionGuard(
            deadline=(
                time.monotonic() + self.deadline_seconds
                if self.deadline_seconds is not None else None
            ),
            step_budget=self.steps,
            memory_budget=self.memory_bytes,
            label=label,
        )

    def scaled(self, factor: float) -> "RequestBudget":
        """A proportionally tighter budget (degraded-mode admission)."""
        return RequestBudget(
            deadline_seconds=(
                self.deadline_seconds * factor
                if self.deadline_seconds is not None else None
            ),
            steps=int(self.steps * factor) if self.steps is not None else None,
            memory_bytes=(
                int(self.memory_bytes * factor)
                if self.memory_bytes is not None else None
            ),
        )


class AdmissionController:
    """The bounded queue in front of the evaluation slots."""

    def __init__(
        self,
        max_concurrent: int = 4,
        queue_limit: int = 32,
        base_retry_after: float = 0.05,
    ):
        self.max_concurrent = max_concurrent
        self.queue_limit = queue_limit
        self.base_retry_after = base_retry_after
        self.waiting = 0
        self.running = 0
        self.shed = 0
        self.admitted = 0
        self.peak_queue_depth = 0
        self._free = threading.Condition(threading.Lock())

    def queue_depth(self) -> int:
        return self.waiting

    def count_shed(self) -> None:
        """Count a request shed by a narrower bound than the queue's."""
        with self._free:
            self.shed += 1
        _observe.count("server.shed")

    @contextmanager
    def slot(self):
        """Admit (or shed) one request; hold an evaluation slot for the
        block.  Blocks the calling thread while every slot is taken."""
        free = self._free
        with free:
            waiting = self.waiting
            if waiting >= self.queue_limit:
                self.shed += 1
                _observe.count("server.shed")
                raise RejectedError(
                    "queue-full",
                    f"admission queue is saturated ({waiting} waiting, "
                    f"limit {self.queue_limit})",
                    retry_after=self.base_retry_after * (
                        1.0 + waiting / max(1, self.queue_limit)
                    ),
                )
            self.waiting = joined = waiting + 1
            if joined > self.peak_queue_depth:
                self.peak_queue_depth = joined
            try:
                while self.running >= self.max_concurrent:
                    free.wait()
            finally:
                self.waiting -= 1
            self.running += 1
            self.admitted += 1
            running, waiting = self.running, self.waiting
        tracer = _observe.active_tracer()
        if tracer is not None:
            # the depth this request joined at, counting itself
            tracer.metrics.observe("server.queue_depth", joined)
        _observe.count("server.admitted")
        _observe.event("server.admit", "server",
                       queue_depth=waiting, running=running)
        try:
            yield
        finally:
            with free:
                self.running -= 1
                free.notify()

    def snapshot(self) -> dict:
        return {
            "waiting": self.waiting,
            "running": self.running,
            "admitted": self.admitted,
            "shed": self.shed,
            "queue_limit": self.queue_limit,
            "max_concurrent": self.max_concurrent,
            "peak_queue_depth": self.peak_queue_depth,
        }
