"""One source of launch counters, and buffers that decide whether work happens.

Every kernel launch is priced from its ``LaunchStep``'s closed-form
counters, so kernel bodies only move data. Whether they do is decided by
the buffers: a body runs, and a copy or collective moves data, only when
its destination is a real buffer. These tests pin both halves:

- *host cost*: a warm functional call builds no ``LaunchStats`` at all,
  under the vectorized and the blockwise engine;
- *virtual buffers decide*: an estimate runs no kernel body, and a copy
  or any collective into virtual buffers records the trace the same call
  records on real buffers, and writes nothing;
- *direct launches*: ``LaunchStep.launch`` checks residency and shapes,
  and a virtual buffer runs no body there either.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import (
    chunk_reduce_step,
    intermediate_scan_step,
    single_pass_step,
)
from repro.core.params import ProblemConfig
from repro.core.plan import build_execution_plan
from repro.core.session import ScanSession
from repro.errors import ConfigurationError, DeviceMismatchError
from repro.gpusim.events import Trace
from repro.gpusim.faults import FaultPlan, FaultyTransferEngine
from repro.gpusim.kernel import ExecutionEngine, LaunchStats
from repro.interconnect.topology import tsubame_kfc
from repro.interconnect.transfer import TransferEngine
from repro.mpisim.communicator import Communicator

#: (proposal, placement, dtype) of the warm calls the guard takes.
GUARDED_CALLS = [
    ("sp", {}, np.float32),
    ("sp-dlb", {}, np.float32),
    ("chained", {}, np.float32),
    ("mps", {"W": 4, "V": 4}, np.float32),
    ("sp", {}, np.int32),
]
GUARDED_IDS = [f"{p}-{np.dtype(d).name}" for p, _, d in GUARDED_CALLS]
SHAPE = (4, 1 << 12)


def _data(dtype) -> np.ndarray:
    # Small integers: every float32 partial sum is exact, so the output
    # equals np.cumsum whatever the association order.
    rng = np.random.default_rng(3)
    return rng.integers(-50, 100, SHAPE).astype(dtype)


def _session(mode: str = "vectorized") -> ScanSession:
    engine = ExecutionEngine(mode=mode, rng=np.random.default_rng(7))
    return ScanSession(tsubame_kfc(1, engine=engine))


class TestHostCost:
    @pytest.mark.parametrize("mode", ["vectorized", "blockwise"])
    @pytest.mark.parametrize("proposal,placement,dtype", GUARDED_CALLS,
                             ids=GUARDED_IDS)
    def test_warm_call_builds_no_launch_stats(self, monkeypatch, mode,
                                              proposal, placement, dtype):
        session = _session(mode)
        data = _data(dtype)
        first = session.scan(data, proposal=proposal, **placement)
        built = []
        init = LaunchStats.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(LaunchStats, "__init__", counted)
        warm = session.scan(data, proposal=proposal, **placement)
        assert built == []
        assert warm.trace.records == first.trace.records
        np.testing.assert_array_equal(warm.output,
                                      np.cumsum(data, axis=1, dtype=dtype))


class TestVirtualLaunches:
    @pytest.mark.parametrize("proposal,placement,dtype", GUARDED_CALLS,
                             ids=GUARDED_IDS)
    def test_estimate_runs_no_body(self, monkeypatch, proposal, placement,
                                   dtype):
        session = _session()
        functional = session.scan(_data(dtype), proposal=proposal, **placement)
        bodies = []
        run = ExecutionEngine.run

        def counted(self, ctx, body, ordered=False):
            bodies.append(1)
            return run(self, ctx, body, ordered)

        monkeypatch.setattr(ExecutionEngine, "run", counted)
        problem = ProblemConfig.from_sizes(N=SHAPE[1], G=SHAPE[0], dtype=dtype)
        estimated = session.estimate(problem, proposal=proposal, **placement)
        assert bodies == []
        assert estimated.trace.records == functional.trace.records


class TestDirectLaunch:
    """``LaunchStep.launch``, the kernels' one direct entry point."""

    @staticmethod
    def _plan(gpu):
        problem = ProblemConfig.from_sizes(N=SHAPE[1], G=SHAPE[0])
        return build_execution_plan(gpu.arch, problem, K=1)

    def test_checks_residency_and_shapes(self, machine):
        gpu, other = machine.gpu(0), machine.gpu(1)
        plan = self._plan(gpu)
        g, bx = SHAPE[0], plan.stage1.bx
        data = gpu.alloc(SHAPE, np.int32)
        aux = gpu.alloc((g, plan.chunks_total), np.int32)
        reduce_step = chunk_reduce_step(plan, gpu.arch, g)
        with pytest.raises(DeviceMismatchError):
            reduce_step.launch(Trace(), gpu, data, other.alloc(aux.shape, np.int32))
        with pytest.raises(ConfigurationError, match="elements per problem"):
            reduce_step.launch(Trace(), gpu,
                               data.view(slice(None), slice(0, SHAPE[1] // 2)), aux)
        with pytest.raises(ConfigurationError, match="chunk columns"):
            intermediate_scan_step(plan, gpu.arch).launch(
                Trace(), gpu, gpu.alloc((g, plan.chunks_total + 1), np.int32))
        with pytest.raises(ConfigurationError, match="descriptor planes"):
            single_pass_step(plan, gpu.arch).launch(
                Trace(), gpu, data, gpu.alloc((g, bx + 1), np.int32),
                gpu.alloc((g, bx, 2), np.int32))

    def test_a_virtual_buffer_runs_no_body(self, machine, monkeypatch):
        gpu = machine.gpu(0)
        plan = self._plan(gpu)
        data = gpu.upload(_data(np.int32))
        aux_shape = (SHAPE[0], plan.chunks_total)
        step = chunk_reduce_step(plan, gpu.arch, SHAPE[0])
        real = step.launch(Trace(), gpu, data, gpu.alloc(aux_shape, np.int32))
        bodies = []
        run = ExecutionEngine.run

        def counted(self, ctx, body, ordered=False):
            bodies.append(1)
            return run(self, ctx, body, ordered)

        monkeypatch.setattr(ExecutionEngine, "run", counted)
        virtual = step.launch(Trace(), gpu, data,
                              gpu.alloc_virtual(aux_shape, np.int32))
        assert bodies == []
        assert virtual == real


class TestVirtualCopies:
    def test_copy_into_a_virtual_buffer(self, machine):
        src = machine.gpu(0).upload(np.arange(8, dtype=np.int32))
        engine = TransferEngine(machine)
        virtual, real = Trace(), Trace()
        dst = machine.gpu(1).alloc_virtual((8,), np.int32)
        engine.copy(virtual, "xfer", src, dst)
        assert not dst.to_host().any()
        engine.copy(real, "xfer", src, machine.gpu(1).alloc((8,), np.int32))
        assert virtual.records == real.records

    def test_dropped_copy_is_priced_into_a_virtual_stand_in(self, machine):
        src = machine.gpu(0).upload(np.arange(8, dtype=np.int32))
        dst = machine.gpu(1).alloc((8,), np.int32, fill=-1)
        engine = FaultyTransferEngine(machine, FaultPlan(drop_nth_copy=1))
        dropped, delivered = Trace(), Trace()
        engine.copy(dropped, "xfer", src, dst)
        assert engine.plan.faults_fired == 1
        assert (dst.to_host() == -1).all()
        engine.copy(delivered, "xfer", src, dst)
        np.testing.assert_array_equal(dst.to_host(), np.arange(8))
        assert dropped.records == delivered.records


def _collective_args(comm: Communicator, name: str, buf) -> tuple:
    """The arguments of collective ``name``, buffers from ``buf(rank, shape)``."""
    block, size = (2, 4), comm.size

    def each(shape):
        return [buf(rank, shape) for rank in range(size)]

    args = {
        "gather": lambda: (each(block), buf(0, (size * 8,))),
        "scatter": lambda: (buf(0, (size, 8)), each(block)),
        "bcast": lambda: (buf(0, block), each(block)),
        "allgather": lambda: (each(block), each((size * 8,))),
        "reduce": lambda: (each(block), buf(0, block)),
        "allreduce": lambda: (each(block), each(block)),
        "send_recv": lambda: (buf(1, block), buf(5, block), 1, 5),
        "alltoall": lambda: (each((size, 3)), each((size, 3))),
    }
    return args[name]()


COLLECTIVES = ["gather", "scatter", "bcast", "allgather", "reduce",
               "allreduce", "send_recv", "alltoall"]


class TestVirtualCollectives:
    @pytest.fixture
    def comm(self, cluster):
        """8 ranks: 4 GPUs (one network) on each of 2 nodes."""
        groups = cluster.select_gpus(4, 4, 2)
        return Communicator(cluster, [g for group in groups for g in group])

    @pytest.mark.parametrize("name", COLLECTIVES)
    def test_virtual_buffers_record_the_same_trace(self, comm, name):
        def real(rank, shape):
            return comm.gpus[rank].upload(np.full(shape, rank + 1, np.int32))

        virtual_bufs = []

        def virtual(rank, shape):
            buffer = comm.gpus[rank].alloc_virtual(shape, np.int32)
            virtual_bufs.append(buffer)
            return buffer

        expected, got = Trace(), Trace()
        getattr(comm, name)(expected, "mpi", *_collective_args(comm, name, real))
        getattr(comm, name)(got, "mpi", *_collective_args(comm, name, virtual))
        assert got.records == expected.records
        assert got.records
        for buffer in virtual_bufs:
            assert buffer.virtual and not buffer.to_host().any()
