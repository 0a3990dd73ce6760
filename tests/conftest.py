"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

#: Repository root and its src/ directory (the self-analysis target).
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator, fresh per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def rng_stream():
    """A factory of independent deterministic generators."""

    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make


def assert_sorted(values) -> None:
    """Assert a vector is nondecreasing (helper imported by test modules)."""
    arr = np.asarray(values)
    assert (np.diff(arr) >= 0).all(), f"not sorted: {arr}"


class SrcModel:
    """``src/`` read, parsed and indexed once for the self-clean tests.

    Each family's report (perf's under the shipped ratchet) and perf's
    worklist are computed on first use and then shared, exactly as one
    ``repro sanitize --flow --perf --race --shape`` run shares them.
    """

    def __init__(self) -> None:
        from repro.sanitize import SourceTree

        self.tree = SourceTree([SRC])

    @cached_property
    def sanitize(self):
        from repro.sanitize import sanitize_paths

        return sanitize_paths(self.tree)

    @cached_property
    def flow(self):
        from repro.flow import analyze_paths

        return analyze_paths(self.tree)

    @cached_property
    def perf(self):
        from repro.perf import analyze_paths
        from repro.sanitize import Baseline

        baseline = Baseline.load(ROOT / "perf-baseline.json")
        return analyze_paths(self.tree, baseline=baseline)

    @cached_property
    def worklist(self):
        from repro.perf import worklist_paths

        return worklist_paths(self.tree)

    @cached_property
    def race(self):
        from repro.race import analyze_paths

        return analyze_paths(self.tree)

    @cached_property
    def shape(self):
        from repro.shape import analyze_paths

        return analyze_paths(self.tree)


@pytest.fixture(scope="session")
def src_model() -> SrcModel:
    """The shared ``src/`` model (read-only: tests must not mutate it)."""
    return SrcModel()
