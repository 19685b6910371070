"""Shared fixtures for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.gpusim.arch import GPUArchitecture, KEPLER_K80
from repro.gpusim.device import GPU
from repro.gpusim.kernel import ExecutionEngine
from repro.interconnect.topology import SystemTopology, tsubame_kfc


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def k80() -> GPUArchitecture:
    return KEPLER_K80


@pytest.fixture
def gpu() -> GPU:
    """A standalone K80 device."""
    return GPU(0, KEPLER_K80)


@pytest.fixture
def machine() -> SystemTopology:
    """One TSUBAME-KFC node: 2 PCIe networks x 4 GPUs."""
    return tsubame_kfc(1)


@pytest.fixture
def cluster() -> SystemTopology:
    """Two TSUBAME-KFC nodes."""
    return tsubame_kfc(2)


@pytest.fixture
def big_cluster() -> SystemTopology:
    """Eight nodes, for M x W combination studies."""
    return tsubame_kfc(8)


@pytest.fixture
def blockwise_machine() -> SystemTopology:
    """A node whose kernel engine executes blocks one at a time in random
    order — used to prove block independence."""
    engine = ExecutionEngine(mode="blockwise", rng=np.random.default_rng(7))
    return tsubame_kfc(1, engine=engine)


@pytest.fixture
def fresh_resolver():
    """Swap in an empty process-wide PlanResolver, restored on teardown.

    The resolver is shared via the ``ScanExecutor.resolver`` class
    attribute; tests that count misses or export/prime plans need their
    own, or warm state from earlier tests leaks into the counts.
    """
    from repro.core.executor import PlanResolver, ScanExecutor

    original = ScanExecutor.resolver
    resolver = PlanResolver()
    ScanExecutor.resolver = resolver
    try:
        yield resolver
    finally:
        ScanExecutor.resolver = original


def random_batch(rng, g, n, dtype=np.int32, low=0, high=100) -> np.ndarray:
    return rng.integers(low, high, (g, n)).astype(dtype)


@contextmanager
def warp_flow():
    """Bind every kernel body to the Section 3.1 warp flow, whatever the
    dtype, while the block runs.

    Integer and bool launches take one-pass bodies
    (``repro.core.kernels._exact``); inside the block they replay the
    register/shuffle/shared-memory/cascade flow floats run, so tests can
    pin both bodies to the same bytes and records. The choice is made when
    a body is bound: use fresh machines and sessions inside the block, as
    a launch program keeps the bodies it bound for as long as its pool
    blocks are handed back.
    """
    from repro.core import kernels

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_exact", lambda dtype: False)
        yield
