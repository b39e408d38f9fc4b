"""The persistent, content-addressed artifact store.

On-disk format
--------------

One directory tree, ccache-style::

    <root>/objects/<digest[:2]>/<digest>.json

Each object file is a single JSON document whose first member is the
SHA-256 of every byte after it::

    {"sha256":"<64 hex>","key":"<digest>","kind":"python",
     ...,"schema":2,...}

A read checks that digest over the bytes it got **before decoding any of
them** (the prefix is fixed-width, so finding it needs no parser): a
truncated file, a flipped byte anywhere — inside the stored source, the
code blob or the digest itself — and every schema-1 entry (which has no
such prefix) stop there.  Only then is the JSON parsed; ``schema`` is the
entry-format version (bump it and every older entry reads as a miss),
``key`` must equal the file's own digest (a copied or renamed file never
masquerades as another entry), and ``kind`` names the decoder
(:mod:`repro.artifacts.codec`): the generated-Python JIT tier stores its
module's marshalled code object, source, signature and constant pool.
Everything else in the entry belongs to the decoder.  The content
digest is what makes handing entry bytes to ``marshal`` acceptable:
``marshal.loads`` is not safe on arbitrary input, and nothing reaches it
that has not passed the check.

:meth:`ArtifactStore.get` returns the decoded document, ``sha256``
included, and :meth:`ArtifactStore.put` accepts it back (that is how an
AOT image's embedded objects are seeded): an entry that carries a digest
is written only if the digest still holds for it.

Compatibility policy
--------------------

Entries carry no migration path *by design*: the lookup key already
folds in the repro package version, the runtime-library fingerprint, the
Python bytecode identity and the key schema, so any skew — a package
upgrade, an edited runtime module, another interpreter, an entry-format
change — simply makes old entries unreachable and the LRU sweep reclaims
them.  A reachable entry that fails to read or decode (truncation,
digest, schema or key mismatch, garbled JSON) is treated as a **miss**:
the file is evicted and the caller recompiles.  An entry that is simply
not there — never stored, or evicted by another process between two
lookups — is a miss and nothing else.  The cache must never be the thing
that crashes a compile.

Operational behaviour
---------------------

* **atomic writes** — entries are written to a temp file in the same
  directory and ``os.replace``d into place, so a concurrent reader sees
  either the whole entry or none of it;
* **LRU size cap** — after each store the tree is swept and the
  least-recently-used entries (file mtime; hits refresh it) are evicted
  until total size fits ``REPRO_ARTIFACT_CACHE_MAX`` bytes;
* **observability** — lookups and stores run inside ``artifact.cache``
  spans, and ``artifact.cache.hits`` / ``.misses`` / ``.stores`` /
  ``.evictions`` / ``.corrupt`` / ``.unstorable`` counters land in the
  observe metrics registry when tracing is enabled; the same counts are
  always available on :attr:`ArtifactStore.stats` (``unstorable`` is a
  compile whose artifact had no wire form: it recompiles every time);
* **fault injection** — reads visit the ``artifact.load`` site, so the
  ``artifact.corrupt`` fault class (:mod:`repro.testing`) can prove the
  recovery path deterministically.

Location: ``$REPRO_ARTIFACT_CACHE`` when set (``0``/``off``/``false``/
``no`` disables the cache entirely), else ``~/.cache/repro``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from typing import Optional

from repro import observe as _observe
from repro.errors import ArtifactCorruptError
from repro.testing import faults as _faults

#: entry-format version; a mismatch reads as a miss and evicts
ENTRY_SCHEMA = 2

#: how every object file starts; the 64 hex digits that follow are the
#: SHA-256 of everything after their closing ``",``
_DIGEST_FIELD = b'{"sha256":"'
_BODY_AT = len(_DIGEST_FIELD) + 64 + len(b'",')

_UTIME_TAKES_FD = os.utime in os.supports_fd

_ENV_DIR = "REPRO_ARTIFACT_CACHE"
_ENV_MAX = "REPRO_ARTIFACT_CACHE_MAX"
_DISABLED = {"0", "off", "false", "no", "disabled"}

#: default LRU size cap: 256 MiB
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def cache_root_from_environment() -> Optional[str]:
    """The configured store root, or ``None`` when the cache is off."""
    raw = os.environ.get(_ENV_DIR)
    if raw is not None and raw.strip().lower() in _DISABLED:
        return None
    if raw:
        return raw
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def max_bytes_from_environment() -> int:
    raw = os.environ.get(_ENV_MAX)
    if raw is None:
        return DEFAULT_MAX_BYTES
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_MAX_BYTES


def _encode(entry: dict) -> tuple[str, bytes]:
    """``(content digest, bytes of the object file)`` of ``entry``; the
    members are written sorted, so the bytes — and with them the digest —
    are a function of the entry's content alone, whatever order a JSON
    round trip (an AOT image, say) left its members in."""
    body = json.dumps(entry, sort_keys=True,
                      separators=(",", ":"))[1:].encode("ascii")
    content = hashlib.sha256(body).hexdigest()
    return content, _DIGEST_FIELD + content.encode("ascii") + b'",' + body


def _decode(data: bytes, digest: str) -> dict:
    """The entry in the bytes of one object file; nothing is decoded
    before their content digest has been checked."""
    body = memoryview(data)[_BODY_AT:]
    if (
        not data.startswith(_DIGEST_FIELD)
        or data[_BODY_AT - 2:_BODY_AT] != b'",'
        or hashlib.sha256(body).hexdigest().encode("ascii")
        != data[len(_DIGEST_FIELD):_BODY_AT - 2]
    ):
        raise ArtifactCorruptError("content digest mismatch")
    entry = json.loads(data)
    if not isinstance(entry, dict):
        raise ArtifactCorruptError("entry is not an object")
    if entry.get("schema") != ENTRY_SCHEMA:
        raise ArtifactCorruptError(
            f"entry schema {entry.get('schema')!r} != {ENTRY_SCHEMA}"
        )
    if entry.get("key") != digest:
        raise ArtifactCorruptError("entry key mismatch")
    return entry


class ArtifactStore:
    """One content-addressed object tree (see the module docstring)."""

    def __init__(self, root: str, max_bytes: Optional[int] = None):
        self.root = root
        self.max_bytes = (
            max_bytes if max_bytes is not None
            else max_bytes_from_environment()
        )
        self.stats = {
            "hits": 0, "misses": 0, "stores": 0,
            "evictions": 0, "corrupt": 0, "unstorable": 0,
        }
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------------

    def _objects_dir(self) -> str:
        return os.path.join(self.root, "objects")

    def _object_path(self, digest: str) -> str:
        return os.path.join(
            self._objects_dir(), digest[:2], f"{digest}.json"
        )

    # -- lookups -------------------------------------------------------------

    def get(self, digest: str) -> Optional[dict]:
        """The decoded entry for ``digest``, or ``None`` on a miss.

        A file that is not there is a plain miss.  Corruption of any
        shape — unreadable file, content digest absent (a schema-1 entry)
        or not that of the bytes read, garbled JSON, schema or key
        mismatch, an injected ``artifact.load`` fault — counts as
        ``corrupt`` and a miss, evicts the entry, and never raises.
        """
        path = self._object_path(digest)
        with _observe.span("artifact.cache", "artifact", op="get",
                           key=digest[:12]):
            try:
                with open(path, "rb") as handle:
                    _faults.fire("artifact.load")
                    entry = _decode(handle.read(), digest)
                    try:  # refresh LRU recency
                        os.utime(handle.fileno() if _UTIME_TAKES_FD else path)
                    except OSError:
                        pass
            except FileNotFoundError:
                # never stored, or evicted by a sweep since: not corruption
                self._count("misses")
                return None
            except (OSError, ValueError, ArtifactCorruptError):
                # bad entry -> miss + evict, never a crash
                self._count("corrupt")
                self._count("misses")
                self.evict(digest)
                return None
            self._count("hits")
            return entry

    def put(self, digest: str, entry: dict) -> Optional[str]:
        """Atomically store ``entry`` under ``digest``; returns the path,
        or ``None`` when the entry cannot be serialized or written.

        A fresh payload is stamped with the schema and its key.  An entry
        that already carries ``sha256`` — one :meth:`get` returned, or one
        embedded in an AOT image — is written back only if that digest,
        its schema and its key still hold for what is written; otherwise
        it counts as ``corrupt`` and nothing is stored."""
        entry = dict(entry)
        claimed = entry.pop("sha256", None)
        if claimed is None:
            entry["schema"], entry["key"] = ENTRY_SCHEMA, digest
        try:
            content, data = _encode(entry)
        except (TypeError, ValueError):
            self.decline()
            return None
        if claimed is not None and (
            claimed != content
            or entry.get("schema") != ENTRY_SCHEMA
            or entry.get("key") != digest
        ):
            self._count("corrupt")
            return None
        path = self._object_path(digest)
        with _observe.span("artifact.cache", "artifact", op="put",
                           key=digest[:12], bytes=len(data)):
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(path), suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as handle:
                        handle.write(data)
                    os.replace(tmp, path)  # atomic write-rename
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError:
                return None
            self._count("stores")
            self._enforce_cap(keep=digest)
        return path

    def decline(self) -> None:
        """Count a compile whose artifact has no wire form; it is never
        stored, so every later compile of it runs the whole pipeline."""
        self._count("unstorable")

    def evict(self, digest: str) -> bool:
        try:
            os.unlink(self._object_path(digest))
        except OSError:
            return False
        self._count("evictions")
        return True

    def clear(self) -> None:
        for path, _, _ in self._entries():
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- size management -----------------------------------------------------

    def _entries(self) -> list[tuple[str, float, int]]:
        """``(path, mtime, size)`` for every object file on disk."""
        out = []
        objects = self._objects_dir()
        if not os.path.isdir(objects):
            return out
        for shard in os.listdir(objects):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                out.append((path, stat.st_mtime, stat.st_size))
        return out

    def size_bytes(self) -> int:
        return sum(size for _, _, size in self._entries())

    def _enforce_cap(self, keep: Optional[str] = None) -> None:
        """Evict least-recently-used entries until under ``max_bytes``.

        ``keep`` names the just-stored digest, exempt from this sweep so
        a store can never evict its own entry."""
        with self._lock:
            entries = self._entries()
            total = sum(size for _, _, size in entries)
            if total <= self.max_bytes:
                return
            keep_path = self._object_path(keep) if keep else None
            for path, _, size in sorted(entries, key=lambda e: e[1]):
                if path == keep_path:
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                self._count("evictions")
                total -= size
                if total <= self.max_bytes:
                    return

    # -- counters ------------------------------------------------------------

    def _count(self, name: str) -> None:
        self.stats[name] += 1
        _observe.count(f"artifact.cache.{name}")


#: store instances keyed by (root, max_bytes); the store holds no open
#: handles, so sharing one per configuration is safe
_stores: dict[tuple[str, int], ArtifactStore] = {}
_stores_lock = threading.Lock()

#: process-level override installed by AOT warm boot when the environment
#: has no cache configured (see :func:`activate_store`)
_active_override: Optional[ArtifactStore] = None


def activate_store(store: Optional[ArtifactStore]) -> None:
    """Install ``store`` as the process-wide store regardless of the
    environment; ``None`` deactivates the override.

    Used by AOT warm boot (:mod:`repro.artifacts.aot`): a server booting
    from a self-contained image must serve its embedded artifacts even on
    a host where ``REPRO_ARTIFACT_CACHE`` is unset or disabled, so boot
    seeds a store (temp-dir rooted in that case) and activates it here.
    """
    global _active_override
    _active_override = store


def active_override() -> Optional[ArtifactStore]:
    """The store currently installed by :func:`activate_store`, if any.

    Callers that activate a temporary store must restore *this* (not the
    resolved :func:`get_store` result) afterwards — re-activating an
    environment-resolved store would pin it past the environment change
    that produced it.
    """
    return _active_override


def get_store() -> Optional[ArtifactStore]:
    """The store for the current environment, or ``None`` when disabled.

    Resolved from ``REPRO_ARTIFACT_CACHE`` / ``REPRO_ARTIFACT_CACHE_MAX``
    on every call, so tests and the AOT tooling can repoint the cache
    without restarting the process.  An :func:`activate_store` override
    (AOT warm boot) takes precedence over the environment.
    """
    if _active_override is not None:
        return _active_override
    root = cache_root_from_environment()
    if root is None:
        return None
    max_bytes = max_bytes_from_environment()
    key = (root, max_bytes)
    with _stores_lock:
        store = _stores.get(key)
        if store is None:
            store = _stores[key] = ArtifactStore(root, max_bytes)
        return store


def cache_enabled() -> bool:
    return cache_root_from_environment() is not None
