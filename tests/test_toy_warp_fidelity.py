"""Fidelity tests at the paper's Figure-4 scale: warpSize = 4.

Figure 4 draws the warp scan with warpSize=4, P=4 and Lx=4 "for clarity";
running the full kernel machinery on an architecture with those toy
dimensions makes every intermediate value small enough to check by hand.
The kernel pipeline runs under ``warp_flow`` (``tests/conftest.py``), so
its integer payloads go through the Figure-4 flow rather than the
one-pass exact bodies.
"""

import numpy as np

from repro.gpusim.arch import KEPLER_K80
from repro.gpusim.device import GPU
from repro.gpusim.events import Trace
from repro.gpusim.warp import warp_exclusive_scan, warp_inclusive_scan
from repro.core.kernels import (
    chunk_reduce_step,
    intermediate_scan_step,
    scan_add_step,
)
from repro.core.params import KernelParams, ProblemConfig
from repro.core.plan import build_execution_plan
from tests.conftest import warp_flow

#: A toy architecture with 4-lane warps (the paper's Figure 4 setting).
TOY = KEPLER_K80.with_overrides(
    name="toy (warpSize=4)",
    warp_size=4,
    max_threads_per_sm=512,
    max_warps_per_sm=128,
)


class TestFigure4Values:
    def test_hand_checked_inclusive(self):
        """The staged example: per-thread 4-element scans, then the warp."""
        lanes = np.array([1, 2, 3, 4], dtype=np.int64)
        out, cost = warp_inclusive_scan(lanes, "add", width=4, pattern="lf")
        np.testing.assert_array_equal(out, [1, 3, 6, 10])
        assert cost.steps == 2

    def test_hand_checked_exclusive(self):
        lanes = np.array([1, 2, 3, 4], dtype=np.int64)
        out, _ = warp_exclusive_scan(lanes, "add", width=4, pattern="lf")
        np.testing.assert_array_equal(out, [0, 1, 3, 6])


class TestToyKernelPipeline:
    def make_gpu(self):
        return GPU(0, TOY)

    def run_pipeline(self, gpu, host, kp):
        g, n = host.shape
        problem = ProblemConfig.from_sizes(N=n, G=g, dtype=host.dtype)
        plan = build_execution_plan(TOY, problem, K=kp.K, stage1_template=kp)
        data = gpu.upload(host)
        aux = gpu.alloc((g, plan.chunks_total), host.dtype)
        trace = Trace()
        with warp_flow():
            chunk_reduce_step(plan, gpu.arch, g).launch(trace, gpu, data, aux)
            intermediate_scan_step(plan, gpu.arch).launch(trace, gpu, aux)
            scan_add_step(plan, gpu.arch, g).launch(trace, gpu, data, aux)
        out = data.to_host()
        gpu.free(aux)
        gpu.free(data)
        return out

    def test_figure4_geometry(self, rng):
        """Lx=4 threads, P=4 elements/thread, warpSize=4: one warp/block."""
        gpu = self.make_gpu()
        kp = KernelParams(s=0, p=2, l=2, lx=2, ly=0, K=2)
        host = rng.integers(0, 50, (2, 128)).astype(np.int32)
        out = self.run_pipeline(gpu, host, kp)
        np.testing.assert_array_equal(out, np.cumsum(host, axis=1, dtype=np.int32))

    def test_multi_warp_toy_block(self, rng):
        """Lx=16 with warpSize=4: four toy warps exchanging through smem."""
        gpu = self.make_gpu()
        kp = KernelParams(s=2, p=1, l=4, lx=4, ly=0, K=1)
        host = rng.integers(-20, 20, (4, 256)).astype(np.int64)
        out = self.run_pipeline(gpu, host, kp)
        np.testing.assert_array_equal(out, np.cumsum(host, axis=1))

    def test_blockwise_agrees_on_toy_arch(self, rng):
        from repro.gpusim.kernel import ExecutionEngine

        kp = KernelParams(s=1, p=1, l=3, lx=3, ly=0, K=2)
        host = rng.integers(0, 9, (2, 128)).astype(np.int32)
        out_vec = self.run_pipeline(GPU(0, TOY), host, kp)
        blk = GPU(1, TOY, engine=ExecutionEngine("blockwise", np.random.default_rng(2)))
        out_blk = self.run_pipeline(blk, host, kp)
        np.testing.assert_array_equal(out_vec, out_blk)
