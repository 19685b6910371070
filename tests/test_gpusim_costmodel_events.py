"""Tests for the roofline cost model and the trace composition rules."""

import pytest

from repro.gpusim.arch import KEPLER_K80
from repro.gpusim.costmodel import CostModel, CostModelParams, KernelCostInput
from repro.gpusim.events import KernelRecord, MPIRecord, Trace, TransferRecord
from repro.gpusim.occupancy import occupancy


def make_cost(blocks=208, bytes_rw=(1 << 20, 1 << 20), occ=None, **kwargs):
    occ = occ or occupancy(KEPLER_K80, 4, 64, 7168)
    return KernelCostInput(
        total_blocks=blocks,
        global_bytes_read=bytes_rw[0],
        global_bytes_written=bytes_rw[1],
        shuffle_instructions=kwargs.get("shuffles", 0),
        operator_applications=kwargs.get("ops", 0),
        addressing_instructions=kwargs.get("addr", 0),
        coalesced=kwargs.get("coalesced", True),
        occupancy=occ,
        bandwidth_scale=kwargs.get("bandwidth_scale", 1.0),
    )


class TestCostModel:
    def test_memory_time_linear_in_bytes(self):
        model = CostModel(KEPLER_K80)
        t1 = model.memory_time(make_cost(bytes_rw=(1 << 20, 0)))
        t2 = model.memory_time(make_cost(bytes_rw=(1 << 21, 0)))
        assert t2 == pytest.approx(2 * t1)

    def test_full_occupancy_hits_achievable_bandwidth(self):
        model = CostModel(KEPLER_K80)
        nbytes = 1 << 30
        t = model.memory_time(make_cost(blocks=208 * 64, bytes_rw=(nbytes, 0)))
        assert t == pytest.approx(nbytes / KEPLER_K80.achievable_bandwidth_bytes, rel=0.01)

    def test_low_occupancy_is_slower(self):
        model = CostModel(KEPLER_K80)
        low = occupancy(KEPLER_K80, 1, 64, 7168)  # 25% occupancy
        t_low = model.memory_time(make_cost(occ=low))
        t_high = model.memory_time(make_cost())
        assert t_low > t_high

    def test_small_grid_pays_wave_penalty(self):
        model = CostModel(KEPLER_K80)
        t_small = model.memory_time(make_cost(blocks=4))
        t_full = model.memory_time(make_cost(blocks=208))
        assert t_small > t_full

    def test_wave_utilisation_bounds(self):
        model = CostModel(KEPLER_K80)
        occ = occupancy(KEPLER_K80, 4, 64, 7168)
        for blocks in (1, 100, 208, 209, 5000):
            u = model.wave_utilisation(blocks, occ)
            assert 0 < u <= 1.0
        assert model.wave_utilisation(208, occ) == pytest.approx(1.0)

    def test_uncoalesced_penalty(self):
        model = CostModel(KEPLER_K80)
        t_bad = model.memory_time(make_cost(coalesced=False))
        t_good = model.memory_time(make_cost(coalesced=True))
        assert t_bad == pytest.approx(2 * t_good)

    def test_bandwidth_scale(self):
        model = CostModel(KEPLER_K80)
        t_solo = model.memory_time(make_cost())
        t_shared = model.memory_time(make_cost(bandwidth_scale=0.9))
        assert t_shared == pytest.approx(t_solo / 0.9)

    def test_compute_term_can_dominate(self):
        model = CostModel(KEPLER_K80)
        cost = make_cost(bytes_rw=(64, 0), ops=10**9)
        assert model.kernel_time(cost) == pytest.approx(
            model.compute_time(cost) + KEPLER_K80.kernel_launch_overhead_s
        )

    def test_launch_overhead_floor(self):
        model = CostModel(KEPLER_K80)
        cost = make_cost(bytes_rw=(0, 0))
        assert model.kernel_time(cost) == KEPLER_K80.kernel_launch_overhead_s

    def test_latency_hiding_floor(self):
        params = CostModelParams(min_latency_hiding=0.25)
        model = CostModel(KEPLER_K80, params)
        tiny_occ = occupancy(KEPLER_K80, 1, 255, 49152)
        assert model.latency_hiding_factor(tiny_occ) >= 0.25


def kernel_record(phase, lane, time_s):
    return KernelRecord(
        name="k", phase=phase, lane=lane, time_s=time_s, gpu_id=0,
        grid=(1, 1), block=(1, 1), global_bytes_read=0, global_bytes_written=0,
        shuffle_instructions=0, operator_applications=0,
        blocks_per_sm=1, warp_occupancy=1.0,
    )


class TestTraceComposition:
    def test_same_lane_serialises(self):
        trace = Trace()
        trace.add(kernel_record("s1", "gpu:0", 1.0))
        trace.add(kernel_record("s1", "gpu:0", 2.0))
        assert trace.phase_time("s1") == pytest.approx(3.0)

    def test_different_lanes_overlap(self):
        trace = Trace()
        trace.add(kernel_record("s1", "gpu:0", 1.0))
        trace.add(kernel_record("s1", "gpu:1", 2.5))
        assert trace.phase_time("s1") == pytest.approx(2.5)

    def test_phases_sum(self):
        trace = Trace()
        trace.add(kernel_record("s1", "gpu:0", 1.0))
        trace.add(kernel_record("s2", "gpu:0", 2.0))
        assert trace.total_time() == pytest.approx(3.0)
        assert trace.breakdown() == {"s1": 1.0, "s2": 2.0}

    def test_phase_order_is_first_appearance(self):
        trace = Trace()
        trace.add(kernel_record("b", "gpu:0", 1.0))
        trace.add(kernel_record("a", "gpu:0", 1.0))
        trace.add(kernel_record("b", "gpu:1", 1.0))
        assert trace.phases() == ["b", "a"]

    def test_record_type_filters(self):
        trace = Trace()
        trace.add(kernel_record("s", "gpu:0", 1.0))
        trace.add(TransferRecord(phase="t", lane="pcie0.0", time_s=0.1,
                                 src_gpu=0, dst_gpu=1, nbytes=100, kind="p2p"))
        trace.add(MPIRecord(phase="m", lane="ib", time_s=0.2, op="gather",
                            comm_size=4, nbytes=50))
        assert len(trace.kernel_records()) == 1
        assert len(trace.transfer_records()) == 1
        assert len(trace.mpi_records()) == 1
        assert trace.total_bytes_moved() == 150

    def test_empty_phase_time_zero(self):
        assert Trace().phase_time("nothing") == 0.0

    def test_merge(self):
        a, b = Trace(), Trace()
        a.add(kernel_record("s", "gpu:0", 1.0))
        b.add(kernel_record("s", "gpu:1", 2.0))
        a.merge(b)
        assert a.phase_time("s") == 2.0


def _scan_trace(proposal, nodes=1, fault_at=None, **placement):
    """The trace of one real scan; ``fault_at`` loses GPU 0 at that call."""
    import numpy as np

    from repro.core.session import ScanSession
    from repro.gpusim.faults import DeviceDown, FaultSchedule
    from repro.interconnect.topology import tsubame_kfc

    machine = tsubame_kfc(nodes)
    if fault_at is not None:
        machine.install_faults(
            FaultSchedule([DeviceDown(at_call=fault_at, gpu_id=0)]))
    data = np.arange(4 << 12, dtype=np.float32).reshape(4, 1 << 12) % 7
    return ScanSession(machine).scan(data, proposal=proposal,
                                     **placement).trace


def _mpi_trace():
    import numpy as np

    from repro.interconnect.topology import tsubame_kfc
    from repro.mpisim.communicator import Communicator

    cluster = tsubame_kfc(2)
    gpus = [g for group in cluster.select_gpus(4, 4, 2) for g in group]
    comm = Communicator(cluster, gpus)
    trace = Trace()
    comm.barrier(trace, "sync")
    sends = [gpu.alloc((2, 8), np.int32, fill=rank)
             for rank, gpu in enumerate(gpus)]
    recv = gpus[0].alloc((16, 8), np.int32)
    comm.gather(trace, "gather", sends, recv, root=0)
    comm.barrier(trace, "sync")
    return trace


class TestOnePassComposition:
    """``breakdown`` and ``total_time`` scan the records once, and give the
    bits of the per-phase definition: ``phase_time`` of each phase in
    first-appearance order, summed from 0."""

    @pytest.mark.parametrize("make", [
        lambda: _scan_trace("sp"),
        lambda: _scan_trace("sp-dlb"),
        lambda: _scan_trace("mps", W=4, V=4),
        lambda: _scan_trace("mppc", W=8, V=4),
        lambda: _scan_trace("mn-mps", nodes=2, W=4, V=4, M=2),
        lambda: _scan_trace("sp", fault_at=2),
        _mpi_trace,
    ], ids=["sp", "sp-dlb", "mps", "mppc", "mn-mps", "failover", "mpi"])
    def test_equals_the_per_phase_definition(self, make):
        trace = make()
        per_phase = {phase: trace.phase_time(phase)
                     for phase in trace.phases()}
        breakdown = trace.breakdown()
        assert list(breakdown) == list(per_phase)
        assert ([t.hex() for t in breakdown.values()]
                == [t.hex() for t in per_phase.values()])
        assert trace.total_time().hex() == sum(per_phase.values()).hex()

    def test_the_failover_and_mpi_traces_hold_their_records(self):
        assert _scan_trace("sp", fault_at=2).phases()[0] == "failover"
        assert _mpi_trace().mpi_records()
        assert _scan_trace("mn-mps", nodes=2, W=4, V=4, M=2).mpi_records()
