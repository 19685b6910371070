"""Runtime benchmarks of the functional simulator itself.

These measure the wall-clock speed of the *simulation* (functional
execution: the warp flow for floats, one pass per chunk for integer and
bool payloads), not the simulated GPU times — useful to keep the
library usable as a development substrate."""

import numpy as np
import pytest

from repro import scan
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.prioritized import ScanMPPC
from repro.core.single_gpu import ScanSP


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    return rng.integers(0, 100, (16, 1 << 14)).astype(np.int32)


def test_functional_sp(machine, batch, benchmark):
    result = benchmark(lambda: scan(batch, topology=machine, proposal="sp", collect=False))
    assert result.total_time_s > 0


@pytest.mark.parametrize("proposal", ["sp", "sp-dlb"])
def test_functional_float32(machine, batch, proposal, benchmark):
    """The float block flow on 16 x 2^14 elements. The values are
    integer-valued with sums below 2^24, so every association is exact
    and the output must equal ``np.cumsum``."""
    floats = batch.astype(np.float32)
    result = benchmark(lambda: scan(floats, topology=machine, proposal=proposal))
    assert result.output.tobytes() == np.cumsum(floats, axis=1).tobytes()


def test_functional_mps_w4(machine, batch, benchmark):
    result = benchmark(
        lambda: scan(batch, topology=machine, proposal="mps", W=4, V=4, collect=False)
    )
    assert result.total_time_s > 0


def test_functional_mppc_w8(machine, batch, benchmark):
    result = benchmark(
        lambda: scan(batch, topology=machine, proposal="mppc", W=8, V=4, collect=False)
    )
    assert result.total_time_s > 0


def test_estimate_path_speed(machine, benchmark):
    """The analytic path must stay micro-fast: it is the tuner's inner loop."""
    problem = ProblemConfig.from_sizes(N=1 << 28, G=1)
    executor = ScanSP(machine.gpus[0])
    benchmark(executor.estimate, problem)


def test_estimate_mppc_paper_scale(machine, benchmark):
    problem = ProblemConfig.from_sizes(N=1 << 13, G=1 << 15)
    executor = ScanMPPC(machine, NodeConfig.from_counts(W=8, V=4))
    benchmark(executor.estimate, problem)
