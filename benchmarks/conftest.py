"""Shared fixtures for the paper-experiment scripts.

Workload sizes follow ``--repro-scale`` (default: small CI-friendly
sizes; 1.0 = the paper's sizes).
"""

from __future__ import annotations

import pytest

from repro.benchsuite import DEFAULT_SCALE, Figure2Harness, figure2_sizes


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale", type=float, default=DEFAULT_SCALE,
        help="workload scale (1.0 = paper sizes)",
    )


@pytest.fixture(scope="session")
def scale(request) -> float:
    return request.config.getoption("--repro-scale")


@pytest.fixture(scope="session")
def sizes(scale):
    return figure2_sizes(scale)


@pytest.fixture(scope="session")
def harness(scale) -> Figure2Harness:
    return Figure2Harness(scale=scale)
