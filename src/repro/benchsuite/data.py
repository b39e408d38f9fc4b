"""Deterministic workload generators for the benchmark suite.

Paper-scale sizes (§6) and a ``scale`` argument mapping them down so the
whole harness runs in CI time; ``scale=1.0`` reproduces the paper's sizes
(``--repro-scale 1.0`` on the ``benchmarks/`` scripts).
"""

from __future__ import annotations

import random
import string as _string
from dataclasses import dataclass

#: a twentieth of the paper's sizes: the whole Figure-2 table in seconds
DEFAULT_SCALE = 0.05


@dataclass(frozen=True)
class Figure2Sizes:
    """Workload sizes; paper values at scale=1.0."""

    fnv_length: int          # 10^6-character string
    mandel_resolution: float  # 0.1 grid step over [-1,1]x[-1,0.5]
    dot_n: int               # 1000x1000
    blur_side: int           # 1000x1000 image
    histogram_length: int    # 10^6 integers
    primeq_limit: int        # 10^6
    qsort_length: int        # 2^15 pre-sorted


def figure2_sizes(scale: float = DEFAULT_SCALE) -> Figure2Sizes:
    return Figure2Sizes(
        fnv_length=max(int(1_000_000 * scale), 1_000),
        mandel_resolution=0.1 if scale >= 0.5 else 0.2,
        dot_n=max(int(1000 * scale ** 0.5), 50),
        blur_side=max(int(1000 * scale ** 0.5), 40),
        histogram_length=max(int(1_000_000 * scale), 10_000),
        primeq_limit=max(int(1_000_000 * scale * 0.05), 2_000),
        qsort_length=max(int((1 << 15) * scale), 512),
    )


def fnv_string(length: int, seed: int = 7) -> str:
    generator = random.Random(seed)
    alphabet = _string.ascii_letters + _string.digits + " .,;!?"
    return "".join(generator.choice(alphabet) for _ in range(length))


def mandelbrot_points(resolution: float) -> list[complex]:
    """The paper's region: [-1, 1] x [-1, 0.5]."""
    points = []
    x = -1.0
    while x <= 1.0 + 1e-9:
        y = -1.0
        while y <= 0.5 + 1e-9:
            points.append(complex(x, y))
            y += resolution
        x += resolution
    return points


def random_matrix(n: int, seed: int = 11) -> list[list[float]]:
    generator = random.Random(seed)
    return [[generator.random() for _ in range(n)] for _ in range(n)]


def blur_image_flat(side: int, seed: int = 13) -> list[float]:
    generator = random.Random(seed)
    return [generator.random() * 255.0 for _ in range(side * side)]


def blur_image_nested(side: int, seed: int = 13) -> list[list[float]]:
    flat = blur_image_flat(side, seed)
    return [flat[y * side:(y + 1) * side] for y in range(side)]


def histogram_data(length: int, seed: int = 17) -> list[int]:
    generator = random.Random(seed)
    return [generator.randrange(1_000_000) for _ in range(length)]


def presorted_list(length: int) -> list[int]:
    """The paper sorts a pre-sorted 2^15 list."""
    return list(range(length))
