"""``repro.artifacts`` — the persistent, content-addressed artifact cache
and the AOT warm-image mode (ROADMAP: "Persistent content-addressed
artifact cache + AOT specialization").

Why it exists
-------------

Every process restart re-pays JIT warmup: the server's base image, the
hotspot ladder's compiled rung, and every ``FunctionCompile`` all run
the same multi-pass pipeline over the same definitions, per process.
That pipeline is the one thing cached: the legacy bytecode compiler
(``Compile``) is a single forward pass that costs less than a hit.
This package makes the pipeline's results durable and, via the AOT
mode, specializes the engine to a fixed definition set ahead of time —
the first Futamura projection reading of ``repro serve``'s warm boot.

Layout
------

* :mod:`repro.artifacts.keys` — canonical SHA-256 keys over the source
  function (one streamed walk of the tree), the semantic compiler
  options, the backend, the Python bytecode identity, the
  runtime-library fingerprint, and the package version, so semantically
  identical compiles hit across processes;
* :mod:`repro.artifacts.store` — the on-disk object tree
  (``$REPRO_ARTIFACT_CACHE`` or ``~/.cache/repro``): atomic
  write-rename, LRU size cap (``REPRO_ARTIFACT_CACHE_MAX``), a content
  digest checked before any decode, corruption-tolerant loads,
  ``artifact.cache`` spans and counters;
* :mod:`repro.artifacts.codec` — what an entry holds and how a hit is
  rebuilt from it (``lookup`` / ``store``, the two calls
  ``FunctionCompile`` makes);
* :mod:`repro.artifacts.aot` — ``python -m repro aot``: warm a
  definition set, emit a manifest-driven self-contained image, and boot
  a server :class:`~repro.server.base.BaseImage` from it.

On-disk format and compatibility policy: see
:mod:`repro.artifacts.store` — in short, entries are schema-versioned
JSON objects named by their own key and led by the digest of their own
bytes; any version or format skew makes old entries unreachable misses
(reclaimed by the LRU sweep), and a corrupt entry is evicted and
recompiled, never raised and never decoded.
"""

from repro.artifacts.keys import (
    function_key,
    runtime_fingerprint,
    type_from_wire,
    type_to_wire,
)
from repro.artifacts.store import (
    ArtifactStore,
    cache_enabled,
    cache_root_from_environment,
    get_store,
)

__all__ = [
    "ArtifactStore",
    "cache_enabled",
    "cache_root_from_environment",
    "function_key",
    "get_store",
    "runtime_fingerprint",
    "type_from_wire",
    "type_to_wire",
]
