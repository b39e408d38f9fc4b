"""Deterministic fault injection at named execution sites.

Robustness claims — "every fallback path unwinds cleanly", "an abort never
corrupts session state" — are untestable from the outside: real overflows
and aborts are timing- and input-dependent.  This harness lets a test
*schedule* a fault at a precise, named point of the execution pipeline:

=====================  ==============================================
site                   fired from
=====================  ==============================================
``vm.instruction``     the WVM dispatch loop, before each instruction
``abort.check``        the checkpoint slow path as bound by compiled code
                       (``_check_abort`` at loop headers and prologues,
                       §4.5), before the abort flag is polled
``guard.checkpoint``   every visit of the slow path from a compiled tier
                       (VM backward jumps, template/compiled/exported
                       loop headers and prologues), before the guard chain
                       is charged; interpreter steps fire no site
``<tier>.call``        the native run of a governed artifact
                       (:class:`~repro.runtime.guard.GovernedFunction`):
                       ``compiled.call``, ``template.call``,
                       ``bytecode.call`` — trips its circuit breaker
                       deterministically
``artifact.load``      :meth:`~repro.artifacts.ArtifactStore.get`, after
                       the entry file is found but before it is parsed —
                       with the ``corrupt`` kind this drives the
                       artifact cache's bad-entry recovery (miss + evict,
                       never a crash)
``runtime.<name>``     the runtime-library primitive ``<name>``; the
                       injector wraps the shared ``RUNTIME`` table entry
                       for the scope of the context manager
=====================  ==============================================

Faults fire on hit counts, not wall clock, so a scheduled fault is exactly
reproducible: ``Fault("vm.instruction", "abort", after=40)`` aborts on the
41st instruction boundary, every run.

Usage::

    with inject_faults(Fault("abort.check", "abort", after=2)):
        result = session.evaluate_protected(call)
    assert full_form(result) == "$Aborted"

The hot-path cost when disarmed is one module-attribute load and ``None``
test per site visit; arming is process-global but test-scoped, and also
arms the checkpoint word (:data:`repro.runtime.guard.CHECKPOINT`) so every
checkpoint reaches the slow path and its two sites.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.errors import (
    ArtifactCorruptError,
    IntegerOverflowError,
    WolframAbort,
    WolframBudgetError,
    WolframRuntimeError,
    WolframTimeoutError,
)

#: exception factories by fault kind
_FAULT_KINDS: dict[str, Callable[[], BaseException]] = {
    "overflow": lambda: IntegerOverflowError("injected machine integer overflow"),
    "abort": lambda: WolframAbort(),
    "timeout": lambda: WolframTimeoutError("injected deadline expiry"),
    "budget": lambda: WolframBudgetError("memory", "injected budget exhaustion"),
    "runtime": lambda: WolframRuntimeError("Injected", "injected runtime error"),
    # a backend/programming error that must NOT ride the soft-failure channel
    "backend-raise": lambda: AttributeError("injected backend failure"),
    # artifact-cache entry corruption; the store must recover (miss + evict)
    "corrupt": lambda: ArtifactCorruptError("injected artifact corruption"),
}


@dataclass
class Fault:
    """One scheduled fault: raise ``kind`` at the named ``site``.

    ``after`` hits of the site are skipped first; the fault then fires on
    the next ``times`` hits (default once) and goes dormant.  ``error``
    overrides the exception built from ``kind``.
    """

    site: str
    kind: str = "runtime"
    after: int = 0
    times: int = 1
    error: Optional[Callable[[], BaseException]] = None
    hits: int = 0
    fired: int = 0

    def make_error(self) -> BaseException:
        if self.error is not None:
            return self.error()
        factory = _FAULT_KINDS.get(self.kind)
        if factory is None:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        return factory()

    def visit(self) -> Optional[BaseException]:
        """Count one hit; return the exception to raise, if due."""
        self.hits += 1
        if self.hits > self.after and self.fired < self.times:
            self.fired += 1
            return self.make_error()
        return None


class FaultInjector:
    """The armed set of faults, indexed by site."""

    def __init__(self, faults: list[Fault]):
        self.faults = faults
        self._by_site: dict[str, list[Fault]] = {}
        for fault in faults:
            self._by_site.setdefault(fault.site, []).append(fault)
        self._wrapped_primitives: dict[str, Callable] = {}

    def fire(self, site: str) -> None:
        for fault in self._by_site.get(site, ()):
            error = fault.visit()
            if error is not None:
                raise error

    # -- runtime-library wrapping ------------------------------------------------

    def arm_runtime_sites(self) -> None:
        """Wrap ``RUNTIME[<name>]`` for every ``runtime.<name>`` site.

        The generated code's ``_rt`` global aliases the shared ``RUNTIME``
        dict, so swapping entries in place reaches functions compiled with
        inlining off, whose every primitive call is a look-up in it.
        Optimised code binds the entries it calls when its ``def`` runs,
        so a swap reaches it only if it is compiled (or restored from the
        artifact cache) while armed; it then keeps the wrapper, which calls
        straight through once this injector is no longer the armed one.
        """
        from repro.compiler.runtime_library import RUNTIME

        for site in self._by_site:
            if not site.startswith("runtime."):
                continue
            name = site[len("runtime."):]
            original = RUNTIME.get(name)
            if original is None:
                raise KeyError(f"no runtime primitive named {name!r}")
            self._wrapped_primitives[name] = original

            def wrapped(*args, _site=site, _original=original, **kwargs):
                if _INJECTOR is self:
                    self.fire(_site)
                return _original(*args, **kwargs)

            RUNTIME[name] = wrapped

    def disarm_runtime_sites(self) -> None:
        from repro.compiler.runtime_library import RUNTIME

        for name, original in self._wrapped_primitives.items():
            RUNTIME[name] = original
        self._wrapped_primitives.clear()


#: the active injector; ``None`` when disarmed (the common case)
_INJECTOR: Optional[FaultInjector] = None


def injection_active() -> bool:
    return _INJECTOR is not None


def fire(site: str) -> None:
    """Hot-path hook: raise the scheduled fault for ``site``, if armed."""
    injector = _INJECTOR
    if injector is not None:
        injector.fire(site)


@contextmanager
def inject_faults(*faults: Fault) -> Iterator[FaultInjector]:
    """Arm the given faults for the duration of the block (not reentrant)."""
    global _INJECTOR
    if _INJECTOR is not None:
        raise RuntimeError("fault injection is already armed")
    from repro.runtime import guard

    injector = FaultInjector(list(faults))
    injector.arm_runtime_sites()
    _INJECTOR = injector
    guard.arm(1)
    try:
        yield injector
    finally:
        guard.arm(-1)
        _INJECTOR = None
        injector.disarm_runtime_sites()
