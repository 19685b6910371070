"""Priced-record memo: warm launches, copies and dispatches reuse their records.

A record is a pure function of its pricing inputs, so a warm call may
reuse every record an earlier call priced, but only while each of those
inputs is the same. These tests pin both halves: a warm call prices
nothing, and every pricing input, when it changes, gives the records a
fresh machine gives.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core.executor import build_executor
from repro.core.params import NodeConfig
from repro.core.session import ScanSession
from repro.gpusim.costmodel import CostModel, CostModelParams
from repro.gpusim.events import KernelRecord, TransferRecord
from repro.gpusim.faults import DeviceDown, FaultSchedule, LaneSlow
from repro.gpusim.kernel import ExecutionEngine, LaunchConfig
from repro.interconnect.topology import tsubame_kfc

#: (proposal, placement, nodes): every proposal a session serves warm.
WARM_POINTS = [
    ("sp", {}, 1),
    ("sp-dlb", {}, 1),
    ("mps", {"W": 4, "V": 4}, 1),
    ("mppc", {"W": 8, "V": 4}, 1),
    ("mn-mps", {"W": 4, "V": 4, "M": 2}, 2),
    ("pp", {"W": 4}, 1),
]
WARM_IDS = [point[0] for point in WARM_POINTS]


def _batch(dtype=np.int32, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(-100, 100, (4, 1 << 13)).astype(dtype)


def _node(spec: dict) -> NodeConfig:
    w = spec.get("W", 1)
    return NodeConfig.from_counts(W=w, V=spec.get("V", w), M=spec.get("M", 1))


def _spy(monkeypatch, calls: list, owner, name: str) -> None:
    """Record every call of ``owner.name`` into ``calls``."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(f"{owner.__name__}.{name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


class TestWarmCallsPriceNothing:
    @pytest.mark.parametrize("proposal,spec,nodes", WARM_POINTS, ids=WARM_IDS)
    def test_second_call_reuses_every_record(self, monkeypatch, proposal, spec,
                                             nodes):
        session = ScanSession(tsubame_kfc(nodes))
        data = _batch()
        first = session.scan(data, proposal=proposal, **spec)
        calls: list[str] = []
        for owner, name in ((CostModel, "kernel_time"),
                            (LaunchConfig, "occupancy_on"),
                            (KernelRecord, "__init__"),
                            (TransferRecord, "__init__")):
            _spy(monkeypatch, calls, owner, name)
        second = session.scan(data, proposal=proposal, **spec)
        assert calls == []
        assert second.trace.records == first.trace.records
        assert second.output.tobytes() == first.output.tobytes()

    def test_hits_still_count_telemetry(self):
        session = ScanSession(tsubame_kfc(1))
        data = _batch()
        session.scan(data, proposal="mps", W=4, V=4)  # prices every record
        obs.reset()
        obs.enable()
        try:
            result = session.scan(data, proposal="mps", W=4, V=4)
            snap = obs.registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        kernels = result.trace.kernel_records()
        transfers = result.trace.transfer_records()
        assert sum(snap["kernel.launches"].values()) == len(kernels)
        assert sum(snap["kernel.sim_time_s"].values()) == pytest.approx(
            sum(r.time_s for r in kernels)
        )
        assert sum(snap["transfer.count"].values()) == len(transfers)


class TestPricingInputsInvalidate:
    @pytest.mark.parametrize("proposal,spec,nodes",
                             [WARM_POINTS[0], WARM_POINTS[1], WARM_POINTS[2]],
                             ids=WARM_IDS[:3])
    def test_replaced_cost_params_reprice(self, proposal, spec, nodes):
        """Replacing the frozen params object (the documented way to
        reprice) gives exactly the records of a machine built with them;
        the lookback stall and arming latency follow too."""
        repriced = dataclasses.replace(
            CostModelParams(), int_ops_per_sm_per_cycle=8.0,
            min_latency_hiding=1.0, occupancy_saturation=1e-9,
            dual_die_contention=0.5, dram_round_trip_s=3e-6,
            lookback_setup_s=40e-6,
        )
        data = _batch()
        topology = tsubame_kfc(nodes)
        executor = build_executor(proposal, topology, _node(spec))
        warm = executor.run(data)
        for gpu in topology.gpus:
            gpu.cost_model.params = repriced
        got = executor.run(data)
        fresh = build_executor(
            proposal, tsubame_kfc(nodes, cost_params=repriced), _node(spec)
        ).run(data)
        assert got.trace.records == fresh.trace.records
        assert got.trace.kernel_records() != warm.trace.kernel_records()
        assert got.output.tobytes() == warm.output.tobytes()

    def test_lane_slow_mid_flow_reprices_later_copies(self):
        topology = tsubame_kfc(1)
        executor = build_executor("mps", topology, _node({"W": 4, "V": 4}))
        data = _batch()
        healthy = executor.run(data)  # every copy priced and kept
        # Ticks 1-4 are the Stage-1 launches, 5-7 the gather copies: the
        # slowdown fires before the second copy of the flow.
        topology.install_faults(
            FaultSchedule([LaneSlow(at_call=6, lane="pcie0.0", factor=4.0)])
        )
        slowed = executor.run(data)
        before = [r for r in healthy.trace.transfer_records() if r.kind == "p2p"]
        after = [r for r in slowed.trace.transfer_records() if r.kind == "p2p"]
        assert len(before) == len(after) == 6
        assert after[0] == before[0]
        for old, new in zip(before[1:], after[1:]):
            assert new == dataclasses.replace(old, time_s=4.0 * old.time_s)

    @pytest.mark.parametrize("dtype", [np.int32, np.float32],
                             ids=lambda d: np.dtype(d).name)
    @pytest.mark.parametrize("proposal,spec,nodes", WARM_POINTS, ids=WARM_IDS)
    def test_blockwise_after_vectorized_same_records(self, proposal, spec,
                                                     nodes, dtype):
        engine = ExecutionEngine(rng=np.random.default_rng(5))
        session = ScanSession(tsubame_kfc(nodes, engine=engine))
        data = _batch(dtype)
        vectorized = session.scan(data, proposal=proposal, **spec)
        engine.mode = "blockwise"
        blockwise = session.scan(data, proposal=proposal, **spec)
        assert blockwise.output.tobytes() == vectorized.output.tobytes()
        assert blockwise.trace.records == vectorized.trace.records

    @pytest.mark.parametrize("proposal,spec,nodes", WARM_POINTS, ids=WARM_IDS)
    def test_armed_unfired_schedule_keeps_records(self, proposal, spec, nodes):
        topology = tsubame_kfc(nodes)
        session = ScanSession(topology)
        data = _batch()
        healthy = session.scan(data, proposal=proposal, **spec)
        topology.install_faults(
            FaultSchedule([DeviceDown(at_call=10**9, gpu_id=0)])
        )
        armed = session.scan(data, proposal=proposal, **spec)
        assert armed.trace.records == healthy.trace.records
        assert armed.output.tobytes() == healthy.output.tobytes()
