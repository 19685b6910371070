"""Buffer pool: recycling semantics, poison mode, and scan equivalence.

The pool may only change *where* bytes live, never what any scan
computes or what the cost model reports. The equivalence tests drive
full scans through recycled, sentinel-poisoned buffers in both execution
modes and demand bit-identical outputs and identical simulated time.
"""

import numpy as np
import pytest

from repro.core.api import scan
from repro.core.kernels import _BlockScanCore
from repro.gpusim.arch import KEPLER_K80
from repro.gpusim.device import GPU
from repro.gpusim.kernel import ExecutionEngine
from repro.gpusim.memory import POISON_BYTE, BufferPool
from repro.gpusim.metrics import buffer_pool_stats
from repro.interconnect.topology import tsubame_kfc
from tests.conftest import warp_flow
from tests.test_differential import PROPOSALS

#: (proposal, placement) points small enough for blockwise execution.
SERVING_POINTS = [
    ("sp", dict(W=1, V=1, M=1)),
    ("mps", dict(W=4, V=4, M=1)),
    ("mppc", dict(W=8, V=4, M=1)),
]


def _batch(g=4, n=4096, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(-(2**20), 2**20, size=(g, n)).astype(np.int64)


class TestBufferPoolUnit:
    def test_miss_then_hit_same_class(self):
        pool = BufferPool()
        arr, block = pool.take((8, 16), np.int64)
        assert arr.shape == (8, 16) and arr.dtype == np.int64
        pool.put(block, np.int64)
        arr2, block2 = pool.take((16, 8), np.int64)  # same nbytes class
        assert block2 is block
        assert pool.stats()["hits"] == 1 and pool.stats()["misses"] == 1

    def test_size_classes_are_powers_of_two(self):
        pool = BufferPool()
        _, block = pool.take(300, np.uint8)
        assert block.nbytes == 512
        _, tiny = pool.take(1, np.uint8)
        assert tiny.nbytes == 256  # floor class

    def test_dtype_keys_do_not_mix(self):
        pool = BufferPool()
        _, block = pool.take(128, np.int64)
        pool.put(block, np.int64)
        _, other = pool.take(256, np.float32)  # same class, other dtype
        assert other is not block
        assert pool.misses == 2

    def test_poison_fills_recycled_blocks_only(self):
        pool = BufferPool(poison=True)
        arr, block = pool.take(64, np.uint8)
        arr[...] = 7
        pool.put(block, np.uint8)
        recycled, _ = pool.take(64, np.uint8)
        assert (recycled == POISON_BYTE).all()

    def test_trim_drops_parked_blocks(self):
        pool = BufferPool()
        _, block = pool.take(1024, np.uint8)
        pool.put(block, np.uint8)
        assert pool.pooled_buffers == 1
        assert pool.trim() == block.nbytes
        assert pool.pooled_buffers == 0 and pool.pooled_bytes == 0

    def test_non_integer_dimension_fails_alone(self):
        # (4.0, 2) and (4, 2) are equal keys: the bad spelling must not be
        # kept for the good one.
        pool = BufferPool()
        with pytest.raises(TypeError):
            pool.take((4.0, 2), np.int32)
        arr, _ = pool.take((4, 2), np.int32)
        assert arr.shape == (4, 2) and arr.dtype == np.int32

    def test_counters_reconcile(self):
        pool = BufferPool()
        blocks = []
        for n in (100, 200, 100, 400):
            _, b = pool.take(n, np.uint8)
            blocks.append(b)
        for b in blocks:
            pool.put(b, np.uint8)
        _, _ = pool.take(100, np.uint8)
        stats = pool.stats()
        assert stats["hits"] + stats["misses"] == stats["allocs"] == 5
        assert stats["releases"] == 4


class TestPoolThroughDevice:
    def test_free_returns_block_and_releases_accounting(self):
        gpu = GPU(0, KEPLER_K80, buffer_pool=BufferPool())
        buf = gpu.upload(np.arange(32, dtype=np.int64))
        assert gpu.pool.used == 256
        gpu.free(buf)
        assert gpu.pool.used == 0
        assert gpu.buffer_pool.pooled_buffers == 1
        buf2 = gpu.upload(np.arange(32, dtype=np.int64))
        assert gpu.buffer_pool.hits == 1
        np.testing.assert_array_equal(buf2.to_host(), np.arange(32))

    def test_topology_toggle(self):
        topo = tsubame_kfc(1)
        assert not buffer_pool_stats(topo)["enabled"]
        topo.enable_buffer_pooling(poison=True)
        assert all(g.buffer_pool.poison for g in topo.gpus)
        topo.disable_buffer_pooling()
        assert not buffer_pool_stats(topo)["enabled"]


class TestPooledScanEquivalence:
    """Pool + poison on, both engine modes, versus an unpooled reference."""

    @pytest.mark.parametrize("proposal,spec", SERVING_POINTS)
    def test_modes_identical_with_poisoned_pool(self, proposal, spec):
        data = _batch()
        reference = scan(data, topology=tsubame_kfc(1), proposal=proposal, **spec)

        for mode in ("vectorized", "blockwise"):
            topo = tsubame_kfc(
                1, engine=ExecutionEngine(mode=mode, rng=np.random.default_rng(5))
            )
            topo.enable_buffer_pooling(poison=True)
            first = scan(data, topology=topo, proposal=proposal, **spec)
            # Second serve runs on recycled, sentinel-filled buffers.
            second = scan(data, topology=topo, proposal=proposal, **spec)

            for result in (first, second):
                assert np.array_equal(result.output, reference.output), (
                    f"{proposal}/{mode}: pooled output differs"
                )
                assert result.trace.total_time() == reference.trace.total_time()

            stats = buffer_pool_stats(topo)
            assert stats["enabled"]
            assert stats["hits"] + stats["misses"] == stats["allocs"]
            assert stats["hits"] > 0, f"{proposal}/{mode}: second call never reused"

    @pytest.mark.parametrize("proposal,spec", SERVING_POINTS)
    def test_fast_paths_bit_identical(self, proposal, spec):
        data = _batch(seed=23)
        with warp_flow():
            slow = scan(data, topology=tsubame_kfc(1), proposal=proposal, **spec)
        fast = scan(data, topology=tsubame_kfc(1), proposal=proposal, **spec)
        assert np.array_equal(slow.output, fast.output)
        assert slow.trace.total_time() == fast.trace.total_time()

    @pytest.mark.parametrize("dtype", [np.int32, np.bool_],
                             ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("proposal,spec,nodes", PROPOSALS,
                             ids=[p[0] for p in PROPOSALS])
    def test_fast_paths_bit_identical_every_proposal(self, monkeypatch, proposal,
                                                     spec, nodes, dtype):
        """Exact dtypes take the one-pass kernel bodies, and the warp flow
        under ``warp_flow``: same bytes, same trace — also when the
        warp-flow bodies a pooled machine bound there replay on a warm
        call after it."""
        data = _batch(seed=29)
        data = (data > 0) if dtype is np.bool_ else data.astype(dtype)
        fast = scan(data, topology=tsubame_kfc(nodes), proposal=proposal,
                    **spec)
        machine = tsubame_kfc(nodes)
        machine.enable_buffer_pooling()
        with warp_flow():
            slow = scan(data, topology=machine, proposal=proposal, **spec)
        assert slow.output.dtype == fast.output.dtype == data.dtype
        assert slow.output.tobytes() == fast.output.tobytes()
        assert slow.trace.records == fast.trace.records
        assert slow.trace.total_time() == fast.trace.total_time()

        flows = []
        run_flow = _BlockScanCore.run
        monkeypatch.setattr(
            _BlockScanCore, "run",
            lambda core, chunks: flows.append(1) or run_flow(core, chunks),
        )
        warm = scan(data, topology=machine, proposal=proposal, **spec)
        assert flows, "held warp-flow bodies must replay on a warm call"
        assert warm.output.tobytes() == fast.output.tobytes()
        assert warm.trace.records == fast.trace.records
