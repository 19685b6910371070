"""Tests for device memory accounting, buffers, and the GPU launcher."""

import numpy as np
import pytest

from repro.errors import AllocationError, DeviceMismatchError, LaunchError
from repro.gpusim.arch import KEPLER_K80
from repro.gpusim.device import GPU
from repro.gpusim.events import Trace
from repro.gpusim.kernel import LaunchConfig, LaunchStats
from repro.gpusim.memory import BufferPool, MemoryPool


class TestMemoryPool:
    def test_tracks_usage_and_peak(self):
        pool = MemoryPool(1000)
        pool.allocate(400, owner="t")
        pool.allocate(300, owner="t")
        assert pool.used == 700 and pool.peak == 700 and pool.free == 300
        pool.release(300)
        assert pool.used == 400 and pool.peak == 700

    def test_out_of_memory(self):
        pool = MemoryPool(100)
        with pytest.raises(AllocationError, match="out of device memory"):
            pool.allocate(101, owner="t")

    def test_over_release_rejected(self):
        pool = MemoryPool(100)
        pool.allocate(50, owner="t")
        with pytest.raises(AllocationError):
            pool.release(60)

    def test_zero_capacity_rejected(self):
        with pytest.raises(AllocationError):
            MemoryPool(0)


class TestDeviceArray:
    def test_alloc_upload_download(self, gpu, rng):
        host = rng.integers(0, 100, (4, 8)).astype(np.int32)
        buf = gpu.upload(host)
        np.testing.assert_array_equal(buf.to_host(), host)
        assert buf.device is gpu
        assert gpu.pool.used == host.nbytes
        gpu.free(buf)
        assert gpu.pool.used == 0

    def test_to_host_is_a_copy(self, gpu):
        buf = gpu.upload(np.zeros(8, dtype=np.int32))
        out = buf.to_host()
        out[:] = 7
        assert buf.data.sum() == 0
        gpu.free(buf)

    def test_views_share_storage(self, gpu):
        buf = gpu.alloc((4, 8), np.int32, fill=0)
        view = buf.view(slice(None), slice(0, 4))
        view.data[...] = 9
        assert buf.data[:, :4].sum() == 9 * 16
        gpu.free(buf)

    def test_view_cannot_be_freed(self, gpu):
        buf = gpu.alloc((4, 8), np.int32, fill=0)
        view = buf.view(slice(0, 2))
        with pytest.raises(LaunchError, match="view"):
            gpu.free(view)
        gpu.free(buf)

    def test_device_mismatch_guard(self):
        a, b = GPU(0, KEPLER_K80), GPU(1, KEPLER_K80)
        buf = a.alloc((8,), np.int32, fill=0)
        with pytest.raises(DeviceMismatchError):
            buf.require_on(b)
        with pytest.raises(DeviceMismatchError):
            b.free(buf)

    def test_fill_from_host_shape_check(self, gpu):
        buf = gpu.alloc((4, 4), np.int32)
        with pytest.raises(AllocationError):
            buf.fill_from_host(np.zeros((2, 2), dtype=np.int32))
        gpu.free(buf)

    def test_upload_into_host_storage(self, rng):
        """``upload(host, out=...)`` copies into the given storage (a
        column block of a result array here), charges its bytes like any
        upload, and ``free`` releases the charge, takes no pool block and
        leaves the storage to its owner."""
        gpu = GPU(0, KEPLER_K80, memory_capacity=1 << 12)
        gpu.buffer_pool = BufferPool()
        host = rng.integers(0, 100, (4, 8)).astype(np.int32)
        result = np.zeros((4, 16), np.int32)
        buf = gpu.upload(host, out=result[:, 8:])
        assert buf.mapped and buf.pool_block is None
        assert np.shares_memory(buf.data, result)
        assert (result[:, 8:] == host).all() and not result[:, :8].any()
        assert gpu.pool.used == host.nbytes
        assert gpu.buffer_pool.allocs == 0
        gpu.free(buf)
        assert gpu.pool.used == 0 and gpu.buffer_pool.releases == 0
        assert (result[:, 8:] == host).all()
        with pytest.raises(LaunchError, match="view"):
            gpu.free(buf)  # a second free is a view's
        with pytest.raises(AllocationError, match="does not match"):
            gpu.upload(host, out=result[:, :4])
        with pytest.raises(AllocationError, match="out of device memory"):
            gpu.upload(np.zeros((8, 256), np.int32),
                       out=np.empty((8, 256), np.int32))
        assert gpu.pool.used == 0

    def test_virtual_allocation_accounts_bytes(self, gpu):
        buf = gpu.alloc_virtual((1 << 20,), np.int32)
        assert buf.virtual
        assert gpu.pool.used == (1 << 20) * 4
        gpu.free(buf)
        assert gpu.pool.used == 0

    def test_capacity_enforced(self):
        small = GPU(0, KEPLER_K80, memory_capacity=1024)
        with pytest.raises(AllocationError):
            small.alloc((1024,), np.int32)


class TestLaunch:
    def _config(self):
        return LaunchConfig(
            grid_x=4, grid_y=2, block_x=128, block_y=1,
            regs_per_thread=32, smem_per_block=512,
        )

    def _stats(self, nbytes=0):
        stats = LaunchStats()
        stats.read_global(nbytes)
        return stats

    def test_body_sees_all_blocks(self, gpu):
        seen = []

        def body(ctx, block_ids):
            seen.extend(block_ids.tolist())

        trace = Trace()
        record = gpu.launch(trace, "k", "phase", self._config(), body,
                            self._stats(8 * 4))
        assert sorted(seen) == list(range(8))
        assert record.global_bytes_read == 8 * 4
        assert record.time_s > 0
        assert trace.records == [record]

    def test_precomputed_stats_path(self, gpu):
        stats = LaunchStats()
        stats.read_global(1024)
        trace = Trace()
        record = gpu.launch(trace, "k", "phase", self._config(), None, stats)
        assert record.global_bytes_read == 1024

    def test_no_body_no_stats_rejected(self, gpu):
        with pytest.raises(LaunchError):
            gpu.launch(Trace(), "k", "p", self._config(), None)

    def test_oversized_block_rejected_at_launch(self, gpu):
        config = LaunchConfig(
            grid_x=1, grid_y=1, block_x=128, block_y=1,
            regs_per_thread=32, smem_per_block=60000,
        )
        with pytest.raises(LaunchError):
            gpu.launch(Trace(), "k", "p", config, lambda ctx, ids: None,
                       self._stats())

    def test_launch_config_validation(self):
        with pytest.raises(LaunchError):
            LaunchConfig(grid_x=0, grid_y=1, block_x=1, block_y=1,
                         regs_per_thread=1, smem_per_block=0)
        with pytest.raises(LaunchError):
            LaunchConfig(grid_x=1, grid_y=1, block_x=1, block_y=1,
                         regs_per_thread=0, smem_per_block=0)

    def test_block_xy_decomposition(self, gpu):
        """Linear ids are x-major: id = by*grid_x + bx."""
        pairs = []

        def body(ctx, block_ids):
            bx, by = ctx.block_xy(block_ids)
            pairs.extend(zip(bx.tolist(), by.tolist()))

        gpu.launch(Trace(), "k", "p", self._config(), body, self._stats())
        assert (3, 0) in pairs and (0, 1) in pairs and (3, 1) in pairs
        assert len(set(pairs)) == 8

    def test_bandwidth_scale_slows_kernel(self, gpu):
        stats = self._stats(10 * 1024 * 1024)

        t1 = gpu.launch(Trace(), "k", "p", self._config(), None, stats).time_s
        gpu.bandwidth_scale = 0.5
        t2 = gpu.launch(Trace(), "k", "p", self._config(), None, stats).time_s
        gpu.bandwidth_scale = 1.0
        assert t2 > t1
