"""Reference-counted memory management for compiled code (feature F7).

The TWIR memory-management pass (§4.5) inserts ``MemoryAcquire`` at the head
of each variable's live interval and ``MemoryRelease`` at the tail.  Both are
"written polymorphically and are noop for unmanaged objects and Reference
Increment and ReferenceDecrement for reference counted objects" — exactly
what these functions do: machine scalars pass through untouched, while
managed objects (packed arrays, boxed expressions) have their counts
adjusted and are released at zero.

CPython garbage-collects regardless; the explicit counts exist so tests can
assert the paper's invariants (balanced acquire/release, no use after
free).

Counting references and accounting for storage are separate: storage is
charged against the active :class:`~repro.runtime.guard.ExecutionGuard`
where it is created — :func:`memory_charge`, called by the allocating
runtime-library functions and by the statement generated code puts in
front of an inline allocation — which is how ``MemoryConstrained`` sees a
compiled tensor before it exists.  Acquire and release never charge.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.guard import CHECKPOINT, charge_memory
from repro.runtime.packed import PackedArray

#: collected diagnostics: counts of acquire/release per run (test hook)
_STATS = {"acquire": 0, "release": 0, "freed": 0}

#: nominal bytes per packed element (machine word), for guard accounting
_WORD = 8


def memory_charge(elements: int) -> None:
    """Book ``elements`` machine words that are about to be allocated
    against the active guard (one call per buffer, whatever its rank).
    Nothing is armed in an unguarded run, and then this is one test."""
    if CHECKPOINT[0] and elements > 0:
        charge_memory(_WORD * elements)


def memory_acquire(value: Any) -> Any:
    """Polymorphic acquire: refcount increment for managed objects, noop else."""
    if isinstance(value, PackedArray) or hasattr(value, "ref_count"):
        value.ref_count += 1
        _STATS["acquire"] += 1
    return value


def memory_release(value: Any) -> Any:
    """Polymorphic release: refcount decrement; frees storage at zero."""
    if isinstance(value, PackedArray) or hasattr(value, "ref_count"):
        value.ref_count -= 1
        _STATS["release"] += 1
        if value.ref_count <= 0:
            _STATS["freed"] += 1
    return value


def memory_stats() -> dict[str, int]:
    return dict(_STATS)


def reset_memory_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0
