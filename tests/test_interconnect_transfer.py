"""Tests for the transfer engine: routing, pricing, functional copies."""

import numpy as np
import pytest

from repro.errors import TransferError
from repro.gpusim.events import Trace
from repro.interconnect.transfer import TransferCostParams, TransferEngine


@pytest.fixture
def engine(machine):
    return TransferEngine(machine)


class TestRouting:
    def test_local(self, machine, engine):
        g = machine.gpu(0)
        assert engine.route_kind(g, g) == "local"

    def test_p2p_same_network(self, machine, engine):
        assert engine.route_kind(machine.gpu(0), machine.gpu(3)) == "p2p"

    def test_host_staged_cross_network(self, machine, engine):
        assert engine.route_kind(machine.gpu(0), machine.gpu(4)) == "host_staged"

    def test_cross_node_rejected(self, cluster):
        engine = TransferEngine(cluster)
        with pytest.raises(TransferError, match="MPI"):
            engine.route_kind(cluster.gpu(0), cluster.gpu(8))


class TestCopy:
    def test_functional_copy_moves_data(self, machine, engine, rng):
        src_gpu, dst_gpu = machine.gpu(0), machine.gpu(1)
        host = rng.integers(0, 100, (4, 16)).astype(np.int32)
        src = src_gpu.upload(host)
        dst = dst_gpu.alloc((4, 16), np.int32, fill=0)
        trace = Trace()
        record = engine.copy(trace, "xfer", src, dst)
        np.testing.assert_array_equal(dst.to_host(), host)
        assert record.kind == "p2p"
        assert record.nbytes == host.nbytes
        assert trace.records == [record]

    def test_non_functional_skips_data(self, machine, engine):
        src = machine.gpu(0).alloc((8,), np.int32, fill=5)
        dst = machine.gpu(1).alloc_virtual((8,), np.int32)
        engine.copy(Trace(), "xfer", src, dst)
        assert dst.to_host().sum() == 0  # untouched

    def test_shape_mismatch(self, machine, engine):
        src = machine.gpu(0).alloc((8,), np.int32)
        dst = machine.gpu(1).alloc((4,), np.int32)
        with pytest.raises(TransferError, match="shape"):
            engine.copy(Trace(), "x", src, dst)

    def test_dtype_mismatch(self, machine, engine):
        src = machine.gpu(0).alloc((8,), np.int32)
        dst = machine.gpu(1).alloc((8,), np.int64)
        with pytest.raises(TransferError, match="dtype"):
            engine.copy(Trace(), "x", src, dst)

    def test_bad_message_count(self, machine, engine):
        src = machine.gpu(0).alloc((8,), np.int32, fill=0)
        dst = machine.gpu(1).alloc((8,), np.int32, fill=0)
        with pytest.raises(TransferError, match="messages"):
            engine.copy(Trace(), "x", src, dst, messages=0)


class TestPricing:
    def test_p2p_faster_than_host_staged(self, machine, engine):
        host = np.zeros((64, 1024), dtype=np.int32)
        src = machine.gpu(0).upload(host)
        p2p_dst = machine.gpu(1).alloc(host.shape, np.int32, fill=0)
        staged_dst = machine.gpu(4).alloc(host.shape, np.int32, fill=0)
        trace = Trace()
        t_p2p = engine.copy(trace, "a", src, p2p_dst).time_s
        t_staged = engine.copy(trace, "b", src, staged_dst).time_s
        assert t_staged > t_p2p

    def test_messages_scale_latency(self, machine, engine):
        src = machine.gpu(0).alloc((1024,), np.int32, fill=0)
        dst = machine.gpu(4).alloc((1024,), np.int32, fill=0)
        trace = Trace()
        t1 = engine.copy(trace, "a", src, dst, messages=1).time_s
        t64 = engine.copy(trace, "b", src, dst, messages=64).time_s
        expected_extra = 63 * engine.params.host_staged_latency_s
        assert t64 - t1 == pytest.approx(expected_extra)

    def test_lanes(self, machine, engine):
        src = machine.gpu(0).alloc((8,), np.int32, fill=0)
        trace = Trace()
        r_p2p = engine.copy(trace, "a", src, machine.gpu(1).alloc((8,), np.int32, fill=0))
        r_staged = engine.copy(trace, "b", src, machine.gpu(4).alloc((8,), np.int32, fill=0))
        assert r_p2p.lane == "pcie0.0"
        assert r_staged.lane == "host0"

    def test_custom_params(self, machine):
        fast = TransferEngine(machine, TransferCostParams(p2p_bandwidth_gbs=100.0))
        slow = TransferEngine(machine, TransferCostParams(p2p_bandwidth_gbs=1.0))
        src = machine.gpu(0).alloc((1 << 20,), np.int32, fill=0)
        dst = machine.gpu(1).alloc((1 << 20,), np.int32, fill=0)
        t_fast = fast.copy(Trace(), "a", src, dst).time_s
        t_slow = slow.copy(Trace(), "a", src, dst).time_s
        assert t_slow > t_fast * 10


class TestDispatch:
    def test_ordinal_scales_time(self, machine, engine):
        trace = Trace()
        r1 = engine.record_dispatch(trace, "s", machine.gpu(0), ordinal=1)
        r3 = engine.record_dispatch(trace, "s", machine.gpu(1), ordinal=3)
        assert r3.time_s == pytest.approx(3 * r1.time_s)
        assert r1.lane == "gpu:0" and r3.lane == "gpu:1"
        assert r1.kind == "dispatch" and r1.nbytes == 0
