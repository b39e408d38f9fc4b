"""The shared warmed base image multi-tenant sessions are layered over.

One process hosts thousands of sessions, but almost everything a session
needs is identical across tenants: the builtin table, the attribute sets,
and — when the operator supplies a *prelude* of shared definitions — the
DownValue rule lists and their dispatch indexes.  :class:`BaseImage` warms
exactly one :class:`~repro.engine.evaluator.Evaluator` with that prelude,
freezes its :class:`~repro.engine.definitions.KernelState` into an
immutable mapping, and then stamps out per-session evaluators whose states
are copy-on-write overlays (``KernelState(base=...)``): a session that
redefines a prelude symbol gets a private copy, and nothing a session
writes is ever observable from another session.

This is the Futamura-projection reading of the server tier (PAPERS.md,
Williams & Perugini): the frozen image is the engine *specialized* to a
fixed definition set, paid for once at boot instead of once per session.
The projection goes one step further with an AOT **warm image**
(:mod:`repro.artifacts.aot`): :meth:`BaseImage.from_image` boots from a
manifest that embeds the compiled artifacts of the prelude's hot
definitions, so every session's tier-up to compiled code is a cache probe
instead of a pipeline run.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.engine.definitions import Definition, KernelState
from repro.engine.evaluator import Evaluator
from repro.errors import ReproError


class BaseImageError(ReproError):
    """The prelude failed to evaluate while warming the base image."""


class BaseImage:
    """An immutable, shared ``name -> Definition`` layer plus a factory
    for session evaluators layered over it.

    ``preload`` names prelude definitions every session evaluator promotes
    straight to the compiled tier at creation
    (:meth:`~repro.runtime.hotspot.HotspotProfiler.preload`); it is
    normally supplied by a warm image's manifest, where the promotion is
    backed by embedded artifacts.
    """

    def __init__(self, prelude: Iterable[str] = (),
                 preload: Iterable[str] = ()):
        self.prelude = tuple(prelude)
        self.preload = tuple(preload)
        warmer = Evaluator()
        for source in self.prelude:
            try:
                warmer.run(source)
            except ReproError as error:
                raise BaseImageError(
                    f"prelude expression {source!r} failed: {error}"
                ) from error
        if warmer.messages:
            raise BaseImageError(
                "prelude produced messages: " + "; ".join(warmer.messages)
            )
        #: the frozen layer; ``freeze`` pre-builds every dispatch index so
        #: sessions share them instead of paying the first-call rebuild
        self.definitions: Mapping[str, Definition] = warmer.state.freeze()
        # the warming evaluator is discarded here — nothing holds a mutable
        # handle to the frozen definitions

    @classmethod
    def from_image(cls, image) -> "BaseImage":
        """Boot from an AOT warm image (a manifest path or dict).

        Seeds the process artifact store with the image's embedded
        compiled artifacts, then warms the prelude exactly as a cold boot
        would — the difference is that every session's preload of the
        manifest's hot definitions resolves from the cache with zero
        pipeline passes.  See :mod:`repro.artifacts.aot`.
        """
        from repro.artifacts import aot

        manifest = aot.load_image(image) if isinstance(image, str) else image
        aot.validate_manifest(manifest)
        aot.seed_store(manifest)
        return cls(prelude=manifest.get("prelude", ()),
                   preload=manifest.get("preload", ()))

    def __len__(self) -> int:
        return len(self.definitions)

    def create_state(self) -> KernelState:
        """A fresh copy-on-write overlay state sharing this image."""
        return KernelState(base=self.definitions)

    def create_evaluator(
        self,
        recursion_limit: int = 1024,
        iteration_limit: int = 4096,
        compile_support: bool = True,
    ) -> Evaluator:
        """A fully equipped session evaluator over a fresh overlay."""
        evaluator = Evaluator(
            recursion_limit=recursion_limit,
            iteration_limit=iteration_limit,
            state=self.create_state(),
        )
        if compile_support:
            from repro.compiler import install_engine_support

            install_engine_support(evaluator)
            profiler = getattr(evaluator, "hotspot", None)
            if profiler is not None:
                # AOT preload: promote the manifest's hot definitions to
                # the compiled tier before the session's first dispatch;
                # with the image's artifacts seeded this is a cache probe
                # per symbol, not a pipeline run
                for name in self.preload:
                    profiler.preload(evaluator, name)
        return evaluator
