"""``python -m repro aot`` — build and boot AOT warm images.

A warm image is the first Futamura projection applied twice: the server's
base image already specializes the engine to a fixed prelude; the warm
image additionally specializes the *compiler* to it, carrying the compiled
artifacts of every hot definition so a booting process never runs the
pipeline for them.

The image is one self-contained JSON manifest::

    {
      "kind": "repro-aot-image", "schema": 1,
      "repro":   "<package version>",
      "runtime": "<runtime-library fingerprint>",
      "prelude":  ["f[n_Integer] := ...", ...],
      "preload":  ["f", ...],      # definitions promoted at build time
      "deferred": ["g", ...],      # definitions left to runtime profiling
      "compiles": ["Function[...]", ...],  # extra warmed FunctionCompile
      "objects":  {"<digest>": {...entry...}, ...}
    }

``objects`` embeds the artifact-store entries produced while warming —
schema-2 entries, each with its content digest and marshalled code object
(:mod:`repro.artifacts.store`) — so the image needs no cache directory to
travel with it: booting seeds them into the process store
(:func:`seed_store`), creating a temp-dir store when the host has none
configured, and every preload is then a lookup: no ``compile``, no
pipeline.  ``repro``/``runtime`` are recorded for operators — they are
*already folded into every object key*, as is the Python that wrote the
code objects, so a version-skewed image degrades safely: its entries
become unreachable, every compile misses, and the boot completes cold
rather than serving stale code.  So does an image whose objects are not
what their digests say (a schema-1 image has none): those are not seeded.

Build:  ``python -m repro aot --prelude FILE [--compile EXPR]... --out IMG``
Verify: ``python -m repro aot --boot IMG`` (boots, reports probe stats)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Iterable, Optional

from repro.artifacts.store import (
    ArtifactStore,
    activate_store,
    active_override,
    get_store,
)
from repro.errors import ArtifactError

IMAGE_KIND = "repro-aot-image"
IMAGE_SCHEMA = 1


def build_image(
    prelude: Iterable[str],
    compile_sources: Iterable[str] = (),
    out: Optional[str] = None,
) -> dict:
    """Warm ``prelude`` ahead of time and return the image manifest.

    The build runs against a private temp-dir store (never the user's
    cache), so ``objects`` holds exactly the artifacts this prelude
    needs: every definition :meth:`~repro.runtime.hotspot
    .HotspotProfiler.preload` accepts, plus each explicit
    ``compile_sources`` ``Function[...]``.  Definitions synthesis cannot
    type without an observed call are listed under ``deferred`` — they
    stay on the runtime profiling ladder.
    """
    from repro import __version__
    from repro.artifacts.keys import runtime_fingerprint
    from repro.server.base import BaseImage

    prelude = tuple(prelude)
    compile_sources = tuple(compile_sources)
    previous = active_override()
    build_store = ArtifactStore(
        tempfile.mkdtemp(prefix="repro-aot-build-")
    )
    activate_store(build_store)
    try:
        image = BaseImage(prelude=prelude)
        evaluator = image.create_evaluator()
        profiler = evaluator.hotspot
        preloaded, deferred = [], []
        for name in sorted(image.definitions):
            definition = image.definitions[name]
            if not definition.rule_count():
                continue
            if profiler is not None and profiler.preload(evaluator, name):
                preloaded.append(name)
            else:
                deferred.append(name)
        for source in compile_sources:
            from repro.compiler.api import FunctionCompile

            FunctionCompile(source)
    finally:
        activate_store(previous)

    objects = {}
    for path, _, _ in build_store._entries():
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        objects[entry["key"]] = entry
    manifest = {
        "kind": IMAGE_KIND,
        "schema": IMAGE_SCHEMA,
        "repro": __version__,
        "runtime": runtime_fingerprint(),
        "prelude": list(prelude),
        "preload": preloaded,
        "deferred": deferred,
        "compiles": list(compile_sources),
        "objects": objects,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return manifest


def load_image(path: str) -> dict:
    """Read and validate a manifest file; raises :class:`ArtifactError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise ArtifactError(f"cannot read AOT image {path!r}: {error}")
    validate_manifest(manifest)
    return manifest


def validate_manifest(manifest) -> None:
    if not isinstance(manifest, dict):
        raise ArtifactError("not a repro AOT image")
    if manifest.get("kind") != IMAGE_KIND:
        raise ArtifactError(
            f"not a repro AOT image (kind={manifest.get('kind')!r})"
        )
    if manifest.get("schema") != IMAGE_SCHEMA:
        raise ArtifactError(
            f"AOT image schema {manifest.get('schema')!r} is not "
            f"{IMAGE_SCHEMA}; rebuild the image with this package"
        )


def seed_store(manifest: dict) -> ArtifactStore:
    """Make the image's embedded objects resolvable in this process.

    Seeds the environment-configured store when one is enabled; on a host
    with no cache configured, roots a store in a fresh temp dir and
    :func:`~repro.artifacts.store.activate_store`-s it so the boot is
    still warm.  Version-skewed objects are seeded too — harmless, since
    their keys can never be looked up by this package version or Python.
    """
    store = get_store()
    if store is None:
        store = ArtifactStore(tempfile.mkdtemp(prefix="repro-aot-"))
        activate_store(store)
    for digest, entry in manifest.get("objects", {}).items():
        # only what ``put`` can check against its own content digest: an
        # object without one (a schema-1 image) is left out, and one that
        # no longer matches its digest is refused there
        if "sha256" in entry and not os.path.exists(
            store._object_path(digest)
        ):
            store.put(digest, entry)
    return store


def boot_warm(manifest: dict):
    """Boot a server base image from the manifest, artifacts seeded."""
    from repro.server.base import BaseImage

    image = BaseImage.from_image(manifest)
    evaluator = image.create_evaluator()
    return image, evaluator


def main(argv=None, output=None) -> int:
    """The ``python -m repro aot`` entry point."""
    out = output or sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro aot",
        description="build or boot an AOT warm image",
    )
    parser.add_argument("--prelude", metavar="FILE",
                        help="definitions to warm, one expression per line "
                        "(# comments allowed)")
    parser.add_argument("--compile", action="append", default=[],
                        metavar="EXPR", dest="compiles",
                        help="additionally warm this Function[...] through "
                        "FunctionCompile (repeatable)")
    parser.add_argument("--out", metavar="IMAGE",
                        help="write the image manifest here")
    parser.add_argument("--boot", metavar="IMAGE",
                        help="boot from an existing image and report, "
                        "instead of building one")
    args = parser.parse_args(argv)

    if args.boot:
        try:
            manifest = load_image(args.boot)
            store = seed_store(manifest)
            before = dict(store.stats)
            image, _ = boot_warm(manifest)
        except Exception as error:
            out.write(f"boot failed: {error}\n")
            return 1
        probes = store.stats["hits"] - before["hits"]
        out.write(
            f"booted {len(image)} base definitions, "
            f"{len(image.preload)} preloaded "
            f"({probes} artifact cache hits)\n"
        )
        return 0

    if not args.prelude:
        parser.error("--prelude FILE is required to build an image")
    try:
        with open(args.prelude, "r", encoding="utf-8") as handle:
            prelude = tuple(
                line.strip() for line in handle
                if line.strip() and not line.strip().startswith("#")
            )
    except OSError as error:
        out.write(f"cannot read prelude: {error}\n")
        return 1
    try:
        manifest = build_image(prelude, args.compiles, out=args.out)
    except Exception as error:
        out.write(f"build failed: {error}\n")
        return 1
    out.write(
        f"warmed {len(manifest['preload'])} definition(s) "
        f"({len(manifest['deferred'])} deferred to runtime profiling), "
        f"{len(manifest['objects'])} artifact(s)"
        + (f" -> {args.out}\n" if args.out else "\n")
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
