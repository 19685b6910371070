"""The simulated GPU device: memory pool + kernel launcher + cost model.

One :class:`GPU` instance corresponds to one CUDA device (one K80 die in
the paper's platform). It owns a memory pool, executes kernel bodies
through an :class:`~repro.gpusim.kernel.ExecutionEngine`, prices each
launch with the :class:`~repro.gpusim.costmodel.CostModel`, and appends the
resulting :class:`~repro.gpusim.events.KernelRecord` to the caller's trace.

Pricing is a pure function of the launch's inputs, so each device keeps
the records it priced: a launch whose pricing inputs all match an earlier
one reuses that record instead of pricing again (see :meth:`GPU.launch`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.obs import flight
from repro.errors import AllocationError, DeviceLostError, LaunchError
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.costmodel import CostModel, KernelCostInput
from repro.gpusim.events import KernelRecord, Trace
from repro.gpusim.kernel import (
    ExecutionEngine,
    KernelContext,
    LaunchConfig,
    LaunchStats,
)
from repro.gpusim.memory import BufferPool, DeviceArray, MemoryPool
from repro.gpusim.occupancy import OccupancyResult

#: Bound on the launch configurations and priced records one device
#: remembers; a full memo is dropped and refilled by later launches.
_LAUNCH_MEMO_CAP = 256


class GPU:
    """One simulated CUDA device."""

    def __init__(
        self,
        device_id: int,
        arch: GPUArchitecture,
        engine: ExecutionEngine | None = None,
        cost_model: CostModel | None = None,
        memory_capacity: int | None = None,
        buffer_pool: BufferPool | None = None,
    ):
        self.id = device_id
        self.arch = arch
        self.engine = engine or ExecutionEngine()
        self.cost_model = cost_model or CostModel(arch)
        self.pool = MemoryPool(memory_capacity or arch.global_memory_bytes)
        #: Optional caching allocator: freed buffers are parked on a
        #: free-list and recycled by later same-class allocations (the warm
        #: serving path). ``None`` means every alloc is fresh storage.
        self.buffer_pool = buffer_pool
        #: Runtime bandwidth factor; the topology's boost-contention
        #: context lowers it while a dual-die board-mate is busy.
        self.bandwidth_scale: float = 1.0
        #: Availability: a device that went offline (injected fault or
        #: health quarantine) refuses allocations and launches.
        self.offline: bool = False
        #: Installed :class:`~repro.gpusim.faults.FaultSchedule`; launches
        #: tick it so count/time-triggered faults can fire mid-run.
        self.fault_schedule = None
        #: Launch memo (:meth:`launch`): occupancy and the body's context
        #: per launch configuration and priced records per pricing key,
        #: valid for the pricing state they were computed under.
        self._occupancy: dict[LaunchConfig,
                              tuple[OccupancyResult, KernelContext]] = {}
        self._records: dict[tuple, KernelRecord] = {}
        self._priced_under: tuple = (None, None, None, None)

    def _check_online(self) -> None:
        if self.offline:
            raise DeviceLostError(
                f"{self.name} is offline (device lost)", gpu_id=self.id
            )

    @property
    def name(self) -> str:
        return f"gpu:{self.id}"

    @property
    def lane(self) -> str:
        """Trace lane: each GPU's stream serialises its own launches."""
        return self.name

    # ---------------------------------------------------------------- memory

    def alloc(self, shape, dtype, fill: object | None = None) -> DeviceArray:
        """Allocate a device buffer, accounting against the pool capacity.

        With a :class:`~repro.gpusim.memory.BufferPool` attached, retired
        same-class buffers are recycled; contents are then whatever the
        previous owner left (or the poison sentinel), matching the
        uninitialized-memory semantics of ``cudaMalloc``.
        """
        self._check_online()
        if self.buffer_pool is None:
            arr = np.empty(shape, dtype=dtype)
            self.pool.allocate(arr.nbytes, owner=self.name)
            if fill is not None:
                arr[...] = fill
            return DeviceArray(self, arr)
        arr, block = self.buffer_pool.take(shape, dtype)
        try:
            self.pool.allocate(arr.nbytes, owner=self.name)
        except Exception:
            self.buffer_pool.put(block, arr.dtype)
            raise
        if fill is not None:
            arr[...] = fill
        return DeviceArray(self, arr, pool_block=block)

    def alloc_virtual(self, shape, dtype) -> DeviceArray:
        """Allocate a *virtual* buffer: shape/dtype and pool accounting only.

        Used by the analytic estimate path, which prices kernels and
        transfers without ever touching element data; the backing storage
        is a broadcast scalar, so reading is possible but cheap and writing
        is forbidden.
        """
        self._check_online()
        dtype = np.dtype(dtype)
        logical = np.broadcast_to(dtype.type(0), tuple(shape))
        self.pool.allocate(logical.nbytes, owner=self.name)
        return DeviceArray(self, logical, virtual=True)

    def upload(self, host: np.ndarray, out: np.ndarray | None = None) -> DeviceArray:
        """Copy a host array into a (possibly recycled) device buffer.

        ``host`` may be any strided view (e.g. one GPU's column slice of a
        batch): it is copied into the contiguous device buffer in one pass.

        ``out`` is storage of ``host``'s shape and dtype to copy into
        instead, which the returned buffer then maps (e.g. this GPU's
        portion of a call's result array, so the kernels scan in place on
        the array the caller gets back). Its bytes are charged to this
        device as any upload's, and :meth:`free` releases the charge and
        leaves the storage to its owner. No pool block is taken.
        """
        self._check_online()
        host = np.asarray(host)
        if out is not None:
            if out.shape != host.shape or out.dtype != host.dtype:
                raise AllocationError(
                    f"upload target {out.shape} {out.dtype} does not match "
                    f"host array {host.shape} {host.dtype}"
                )
            self.pool.allocate(out.nbytes, owner=self.name)
            out[...] = host
            return DeviceArray(self, out, mapped=True)
        if self.buffer_pool is None:
            self.pool.allocate(host.nbytes, owner=self.name)
            return DeviceArray(self, host.copy())
        arr, block = self.buffer_pool.take(host.shape, host.dtype)
        try:
            self.pool.allocate(host.nbytes, owner=self.name)
        except Exception:
            self.buffer_pool.put(block, host.dtype)
            raise
        arr[...] = host
        return DeviceArray(self, arr, pool_block=block)

    def free(self, buffer: DeviceArray) -> None:
        """Release a buffer's bytes back to the pool (views must not be freed).

        Pooled buffers park their backing block on the device's free-list
        for recycling, and mapped buffers (:meth:`upload` with ``out``)
        leave their storage to its owner; accounting is released either
        way, so capacity semantics (the paper's Case-2 out-of-memory) are
        unchanged.
        """
        buffer.require_on(self)
        if buffer.pool_block is not None:
            self.pool.release(buffer.nbytes)
            if self.buffer_pool is not None:
                self.buffer_pool.put(buffer.pool_block, buffer.dtype)
            buffer.pool_block = None
            return
        if buffer.mapped:
            self.pool.release(buffer.nbytes)
            buffer.mapped = False
            return
        if not buffer.virtual and buffer.data.base is not None:
            raise LaunchError("cannot free a view; free the owning allocation")
        self.pool.release(buffer.nbytes)

    # --------------------------------------------------------------- kernels

    def launch(
        self,
        trace: Trace,
        name: str,
        phase: str,
        config: LaunchConfig,
        body: Callable[[KernelContext, np.ndarray], None] | None,
        stats: LaunchStats | None = None,
        coalesced: bool = True,
        ordered: bool = False,
        extra_latency_s: float = 0.0,
    ) -> KernelRecord:
        """Run one kernel: execute the body, price it, record it.

        ``stats`` are the launch's counters, derived in closed form from
        its geometry; the launch is priced from them alone, and a launch
        without them raises :class:`~repro.errors.LaunchError`.
        ``body(ctx, block_ids)`` must process exactly the blocks named in
        ``block_ids``; it only moves data, and ``body=None`` (a launch
        into virtual buffers, the analytic estimate) runs nothing. The
        launch validates residency (occupancy must be >= 1 block) before
        executing, like a real CUDA launch would fail on an over-sized
        configuration.

        ``extra_latency_s`` adds schedule-independent exposed latency that
        the roofline cannot see — e.g. the decoupled-lookback polling
        stall, which is round-trip-bound rather than bandwidth-bound.

        The record is priced once per pricing key: the kernel name, phase,
        launch configuration, ``coalesced``, ``extra_latency_s``, the
        device's ``bandwidth_scale`` and the launch's ``stats``, under the
        same architecture, cost model and cost params. A launch
        that matches an earlier key reuses its record; the fault tick, the
        body, the trace append, the fault clock and the telemetry run on
        every launch either way.
        """
        if self.fault_schedule is not None:
            # Count-triggered faults fire *before* the launch executes, so
            # the n-th call is the first to see the failure.
            self.fault_schedule.tick()
        self._check_online()
        model = self.cost_model
        under = self._priced_under
        if (under[0] is not self.arch or under[1] is not model
                or under[2] is not model.params or under[3] is not model.arch):
            # Architecture, cost model and cost params are frozen objects:
            # the memo holds while they are the same objects.
            self._occupancy.clear()
            self._records.clear()
            self._priced_under = (self.arch, model, model.params, model.arch)
        geometry = self._occupancy.get(config)
        if geometry is None:
            # Residency is checked before any body runs.
            geometry = (config.occupancy_on(self.arch), KernelContext(config))
            if len(self._occupancy) >= _LAUNCH_MEMO_CAP:
                self._occupancy.clear()
            self._occupancy[config] = geometry
        occ, ctx = geometry
        if stats is None:
            raise LaunchError("a launch needs its counters")
        if body is not None:
            self.engine.run(ctx, body, ordered=ordered)
        key = (
            self.id, name, phase, config, coalesced, extra_latency_s,
            self.bandwidth_scale,
            stats.global_bytes_read, stats.global_bytes_written,
            stats.shuffle_instructions, stats.operator_applications,
            stats.addressing_instructions,
        )
        record = self._records.get(key)
        if record is None:
            record = self._price(name, phase, config, occ, stats, coalesced,
                                 extra_latency_s)
            if len(self._records) >= _LAUNCH_MEMO_CAP:
                self._records.clear()
            self._records[key] = record
        trace.add(record)
        if self.fault_schedule is not None:
            self.fault_schedule.advance_time(record.time_s)
        if obs.is_enabled():
            obs.counter("kernel.launches", name=name).inc()
            obs.counter("kernel.sim_time_s", name=name).inc(record.time_s)
            if flight.is_armed():
                flight.note("kernel", name=name, phase=phase, lane=self.lane,
                            time_s=record.time_s)
        return record

    def _price(
        self,
        name: str,
        phase: str,
        config: LaunchConfig,
        occ: OccupancyResult,
        stats: LaunchStats,
        coalesced: bool,
        extra_latency_s: float,
    ) -> KernelRecord:
        """Price one launch with the cost model into its trace record."""
        cost = KernelCostInput(
            total_blocks=config.blocks,
            global_bytes_read=stats.global_bytes_read,
            global_bytes_written=stats.global_bytes_written,
            shuffle_instructions=stats.shuffle_instructions,
            operator_applications=stats.operator_applications,
            addressing_instructions=stats.addressing_instructions,
            coalesced=coalesced,
            occupancy=occ,
            bandwidth_scale=self.bandwidth_scale,
        )
        return KernelRecord(
            name=name,
            phase=phase,
            lane=self.lane,
            time_s=self.cost_model.kernel_time(cost) + extra_latency_s,
            gpu_id=self.id,
            grid=(config.grid_x, config.grid_y),
            block=(config.block_x, config.block_y),
            global_bytes_read=stats.global_bytes_read,
            global_bytes_written=stats.global_bytes_written,
            shuffle_instructions=stats.shuffle_instructions,
            operator_applications=stats.operator_applications,
            blocks_per_sm=occ.blocks_per_sm,
            warp_occupancy=occ.warp_occupancy,
            stall_s=extra_latency_s,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GPU(id={self.id}, arch={self.arch.name!r})"
