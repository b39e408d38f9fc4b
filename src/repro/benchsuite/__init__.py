"""The benchmark-suite substrate: Figure-2 workloads in every tier, the
Figure-1 random-walk experiment, and supporting data generators."""

from repro.benchsuite.data import DEFAULT_SCALE, figure2_sizes
from repro.benchsuite.harness import (
    BenchmarkResult,
    Figure2Harness,
    TierResult,
    best_of,
)

__all__ = [
    "BenchmarkResult", "DEFAULT_SCALE", "Figure2Harness", "TierResult",
    "best_of", "figure2_sizes",
]
