"""Tests for the simulated CUDA-aware MPI communicator."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.gpusim.events import Trace
from repro.interconnect.topology import tsubame_kfc
from repro.mpisim.communicator import Communicator


@pytest.fixture
def comm(cluster):
    """8 ranks: 4 GPUs (one network) on each of 2 nodes."""
    gpus = cluster.select_gpus(4, 4, 2)
    return Communicator(cluster, [g for group in gpus for g in group])


class TestConstruction:
    def test_size(self, comm):
        assert comm.size == 8

    def test_rank_of(self, comm):
        assert comm.rank_of(comm.gpus[0]) == 0
        assert comm.rank_of(comm.gpus[5]) == 5

    def test_rank_of_foreign_gpu(self, comm, cluster):
        foreign = cluster.gpus_in_network(0, 1)[0]
        with pytest.raises(MPIError):
            comm.rank_of(foreign)

    def test_duplicate_gpus_rejected(self, cluster):
        g = cluster.gpu(0)
        with pytest.raises(MPIError):
            Communicator(cluster, [g, g])

    def test_empty_rejected(self, cluster):
        with pytest.raises(MPIError):
            Communicator(cluster, [])


class TestGather:
    def test_functional(self, comm, rng):
        sends = []
        for rank, gpu in enumerate(comm.gpus):
            sends.append(gpu.upload(np.full((2, 4), rank, dtype=np.int32)))
        recv = comm.gpus[0].alloc((8, 8), np.int32, fill=-1)
        comm.gather(Trace(), "g", sends, recv)
        out = recv.to_host().reshape(8, 8)
        for rank in range(8):
            assert (out[rank] == rank).all()

    def test_bad_root(self, comm):
        with pytest.raises(MPIError):
            comm.gather(Trace(), "g", [], None, root=99)

    def test_wrong_buffer_count(self, comm):
        sends = [comm.gpus[0].alloc((4,), np.int32, fill=0)]
        recv = comm.gpus[0].alloc((32,), np.int32)
        with pytest.raises(MPIError, match="one send buffer per rank"):
            comm.gather(Trace(), "g", sends, recv)

    def test_unequal_sizes(self, comm):
        sends = [g.alloc((4,), np.int32, fill=0) for g in comm.gpus]
        bad = comm.gpus[3].alloc((8,), np.int32, fill=0)
        sends[3] = bad
        recv = comm.gpus[0].alloc((32,), np.int32)
        with pytest.raises(MPIError, match="equal-sized"):
            comm.gather(Trace(), "g", sends, recv)

    def test_recv_must_be_on_root(self, comm):
        sends = [g.alloc((4,), np.int32, fill=0) for g in comm.gpus]
        recv = comm.gpus[1].alloc((32,), np.int32)
        with pytest.raises(Exception):
            comm.gather(Trace(), "g", sends, recv, root=0)

    def test_inter_node_legs_aggregate_per_node(self, comm):
        """The hierarchical model sends ONE InfiniBand message per remote node."""
        sends = [g.alloc((1024,), np.int32, fill=0) for g in comm.gpus]
        recv = comm.gpus[0].alloc((8 * 1024,), np.int32)
        trace = Trace()
        comm.gather(trace, "g", sends, recv)
        ib_legs = [r for r in trace.mpi_records() if r.lane == "ib"]
        assert len(ib_legs) == 1  # node 1 aggregated
        assert ib_legs[0].nbytes == 4 * 1024 * 4  # 4 ranks' payloads


class TestScatter:
    def test_functional_roundtrip(self, comm, rng):
        payload = rng.integers(0, 100, (8, 16)).astype(np.int32)
        send = comm.gpus[0].upload(payload)
        recvs = [g.alloc((16,), np.int32, fill=0) for g in comm.gpus]
        comm.scatter(Trace(), "s", send, recvs)
        for rank, buf in enumerate(recvs):
            np.testing.assert_array_equal(buf.to_host(), payload[rank])

    def test_size_validation(self, comm):
        send = comm.gpus[0].alloc((17,), np.int32, fill=0)
        recvs = [g.alloc((2,), np.int32, fill=0) for g in comm.gpus]
        with pytest.raises(MPIError, match="expected"):
            comm.scatter(Trace(), "s", send, recvs)


class TestStridedBuffers:
    """Receive buffers that are strided views of a larger allocation."""

    @pytest.fixture
    def pair(self):
        machine = tsubame_kfc(2)
        return Communicator(machine, [machine.gpus[0], machine.gpus[8]])

    def test_gather_into_a_strided_view(self, pair):
        sends = [gpu.upload(np.full((2, 2), rank + 1, dtype=np.int32))
                 for rank, gpu in enumerate(pair.gpus)]
        whole = pair.gpus[0].alloc((4, 4), np.int32, fill=-1)
        pair.gather(Trace(), "g", sends, whole.view(slice(None), slice(0, 2)))
        np.testing.assert_array_equal(
            whole.to_host(),
            [[1, 1, -1, -1], [1, 1, -1, -1], [2, 2, -1, -1], [2, 2, -1, -1]],
        )

    def test_scatter_into_strided_views(self, pair):
        send = pair.gpus[0].upload(np.arange(8, dtype=np.int32))
        wholes = [gpu.alloc((2, 4), np.int32, fill=-1) for gpu in pair.gpus]
        views = [whole.view(slice(None), slice(0, 2)) for whole in wholes]
        pair.scatter(Trace(), "s", send, views)
        for rank, whole in enumerate(wholes):
            base = 4 * rank
            np.testing.assert_array_equal(
                whole.to_host(),
                [[base, base + 1, -1, -1], [base + 2, base + 3, -1, -1]],
            )


class TestBcast:
    def test_functional(self, comm, rng):
        payload = rng.integers(0, 100, 32).astype(np.int32)
        send = comm.gpus[0].upload(payload)
        recvs = [send] + [g.alloc((32,), np.int32, fill=0) for g in comm.gpus[1:]]
        comm.bcast(Trace(), "b", send, recvs)
        for buf in recvs:
            np.testing.assert_array_equal(buf.to_host(), payload)

    def test_mismatched_buffer(self, comm):
        send = comm.gpus[0].alloc((8,), np.int32, fill=0)
        recvs = [send] + [g.alloc((4,), np.int32, fill=0) for g in comm.gpus[1:]]
        with pytest.raises(MPIError, match="mismatch"):
            comm.bcast(Trace(), "b", send, recvs)


class TestAllgather:
    def test_functional(self, comm):
        sends = [g.upload(np.full(4, rank, dtype=np.int32))
                 for rank, g in enumerate(comm.gpus)]
        recvs = [g.alloc((32,), np.int32, fill=-1) for g in comm.gpus]
        comm.allgather(Trace(), "ag", sends, recvs)
        expected = np.repeat(np.arange(8, dtype=np.int32), 4)
        for buf in recvs:
            np.testing.assert_array_equal(buf.to_host(), expected)


class TestCosts:
    def test_barrier_scales_with_nodes(self, cluster, big_cluster):
        comm2 = Communicator(cluster, [g for gg in cluster.select_gpus(1, 1, 2) for g in gg])
        comm8 = Communicator(
            big_cluster, [g for gg in big_cluster.select_gpus(1, 1, 8) for g in gg]
        )
        t2, t8 = Trace(), Trace()
        comm2.barrier(t2, "b")
        comm8.barrier(t8, "b")
        assert t8.total_time() > t2.total_time()

    def test_mpi_latency_dominates_small_payloads(self, comm):
        """The paper: 'the MPI overhead is almost constant in spite of the
        amount of data' — small payloads cost roughly the same."""
        times = []
        for size in (1, 16, 256):
            sends = [g.alloc((size,), np.int32, fill=0) for g in comm.gpus]
            recv = comm.gpus[0].alloc((8 * size,), np.int32)
            trace = Trace()
            comm.gather(trace, "g", sends, recv)
            times.append(trace.total_time())
        assert times[2] < times[0] * 1.5

    def test_intranode_cheaper_than_internode(self, comm):
        t_intra, lane_intra = comm._pair_time_and_lane(comm.gpus[0], comm.gpus[1], 4096)
        t_inter, lane_inter = comm._pair_time_and_lane(comm.gpus[0], comm.gpus[4], 4096)
        assert lane_inter == "ib"
        assert t_inter > t_intra

    def test_self_leg_is_free(self, comm):
        t, _ = comm._pair_time_and_lane(comm.gpus[0], comm.gpus[0], 4096)
        assert t == 0.0
