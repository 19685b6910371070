"""The simulated MPI communicator.

A :class:`Communicator` binds one rank to one GPU (the paper runs one MPI
process per GPU). Collectives are executed functionally in-process — the
orchestrator owns every rank's buffers — and each wire transfer is priced
and recorded into the trace. A virtual receive buffer (the analytic
estimate) records the same transfers and receives no data.

- inter-node pairs ride InfiniBand (lane ``"ib"``): RDMA GPU-Direct style,
  near-constant latency plus a bandwidth term. The serialisation of
  gathers at the root's HCA is captured by putting all inter-node legs of
  a collective on the same lane.
- intra-node pairs reuse the PCIe route model (P2P within a network,
  host-staged across networks), matching CUDA-aware MPI behaviour.

The model deliberately keeps MPI latency independent of payload size —
the paper's empirical observation ("the MPI overhead is almost constant in
spite of the amount of data") and the mechanism behind the Fig. 13
M*W trade-off study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.errors import MPIError
from repro.gpusim.device import GPU
from repro.gpusim.events import MPIRecord, Trace
from repro.gpusim.memory import DeviceArray
from repro.interconnect.topology import SystemTopology
from repro.interconnect.transfer import DEFAULT_TRANSFER_PARAMS, TransferCostParams

#: Bound on the priced collectives one communicator remembers; a full memo
#: is dropped and refilled by later calls.
_RECORD_MEMO_CAP = 256


@dataclass(frozen=True)
class MPICostParams:
    """Latency/bandwidth constants of the simulated MPI fabric.

    The bandwidth number is deliberately far below the InfiniBand FDR line
    rate: OpenMPI 1.8's CUDA-aware path moves *device* buffers through a
    D2H -> IB -> H2D staging pipeline (GPU-Direct RDMA only covers small
    messages), which sustains on the order of 1 GB/s for the medium
    messages the auxiliary arrays produce. This is also why the paper
    finds "MPI introduces a considerable overhead" relative to host-staged
    PCIe copies for small payloads.
    """

    #: One-way latency of an inter-node message (device buffer, pipelined).
    internode_latency_s: float = 30e-6
    #: Effective inter-node bandwidth for device buffers (CUDA pipeline).
    internode_bandwidth_gbs: float = 0.8
    #: Latency of an intra-node MPI message on top of the PCIe path.
    intranode_latency_s: float = 12e-6
    #: Fixed software overhead of entering any collective.
    collective_overhead_s: float = 18e-6
    #: Barrier cost factor applied to each inter-node round,
    #: modelling the blocking-collective wait the paper observes in Fig. 14.
    barrier_jitter: float = 1.6


class Communicator:
    """An MPI communicator whose ranks are simulated GPUs.

    ``transfer_params`` given at construction price the intra-node legs
    for the communicator's life; without them the legs are priced with
    the machine's current ``transfer_params``. The records of a barrier,
    gather, scatter or reduce are priced once per (op, phase, payload
    bytes, root) while the machine is healthy and the MPI params and the
    machine's transfer params are the same objects; while the machine has
    a health state every collective is priced afresh, as routes can
    change between two calls.
    """

    def __init__(
        self,
        topology: SystemTopology,
        gpus: Sequence[GPU],
        params: MPICostParams | None = None,
        transfer_params: TransferCostParams | None = None,
    ):
        if not gpus:
            raise MPIError("a communicator needs at least one rank")
        ids = [g.id for g in gpus]
        if len(set(ids)) != len(ids):
            raise MPIError("each rank must be bound to a distinct GPU")
        self.topology = topology
        self.gpus = list(gpus)
        self.params = params or MPICostParams()
        self._transfer_override = transfer_params
        #: Priced collective records by call key, valid while the MPI
        #: params and the machine's transfer params are the
        #: ``_records_under`` objects.
        self._records: dict[tuple, tuple[MPIRecord, ...]] = {}
        self._records_under = (self.params, topology.transfer_params)

    @property
    def transfer_params(self) -> TransferCostParams:
        """The constants the intra-node legs are priced with now."""
        return (self._transfer_override or self.topology.transfer_params
                or DEFAULT_TRANSFER_PARAMS)

    def _check_ranks_healthy(self) -> None:
        """A collective blocks on every rank: one lost device fails the op.

        No-op on a healthy machine (``topology.health is None``); with
        faults installed, raises the lost rank's
        :class:`~repro.errors.DeviceLostError` so the serving layer can
        replan the communicator on surviving GPUs.
        """
        if self.topology.health is None:
            return
        for gpu in self.gpus:
            gpu._check_online()

    @property
    def size(self) -> int:
        return len(self.gpus)

    def rank_of(self, gpu: GPU) -> int:
        for rank, g in enumerate(self.gpus):
            if g.id == gpu.id:
                return rank
        raise MPIError(f"{gpu.name} is not part of this communicator")

    def _check_root(self, root: int) -> GPU:
        if not (0 <= root < self.size):
            raise MPIError(f"root rank {root} out of range for size {self.size}")
        return self.gpus[root]

    # -------------------------------------------------------------- pricing

    def _pair_time_and_lane(self, src: GPU, dst: GPU, nbytes: int) -> tuple[float, str]:
        """Price one point-to-point leg and pick its contention lane."""
        p = self.params
        t = self.transfer_params
        if src.id == dst.id:
            return 0.0, src.lane
        if not self.topology.same_node(src, dst):
            time = p.internode_latency_s + nbytes / (p.internode_bandwidth_gbs * 1e9)
            return time, "ib"
        src_slot = self.topology.slot(src)
        if self.topology.p2p_usable(src, dst):
            time = p.intranode_latency_s + nbytes / (t.p2p_bandwidth_gbs * 1e9)
            return time, f"pcie{src_slot.node}.{src_slot.network}"
        time = (
            p.intranode_latency_s
            + t.host_staged_latency_s
            + nbytes / (t.host_staged_bandwidth_gbs * 1e9)
        )
        return time, f"host{src_slot.node}"

    def _make(self, phase: str, op: str, lane: str, time: float,
              nbytes: int) -> MPIRecord:
        return MPIRecord(phase=phase, lane=lane, time_s=time, op=op,
                         comm_size=self.size, nbytes=nbytes)

    def _add(self, trace: Trace, record: MPIRecord) -> None:
        trace.add(record)
        if obs.is_enabled():
            op = record.op
            obs.counter("mpi.ops", op=op).inc()
            obs.counter("mpi.bytes", op=op).inc(record.nbytes)
            obs.counter("mpi.sim_time_s", op=op).inc(record.time_s)

    def _record(self, trace: Trace, phase: str, op: str, lane: str, time: float, nbytes: int) -> None:
        self._add(trace, self._make(phase, op, lane, time, nbytes))

    def _priced(
        self, key: tuple, price: Callable[[], tuple[MPIRecord, ...]]
    ) -> tuple[MPIRecord, ...]:
        """The records of the collective ``key`` names, priced once by
        ``price()`` while the machine is healthy (see the class doc)."""
        topology = self.topology
        if topology.health is not None:
            return price()
        records = self._records
        under = self._records_under
        if (under[0] is not self.params
                or under[1] is not topology.transfer_params
                or len(records) >= _RECORD_MEMO_CAP):
            records.clear()
            self._records_under = (self.params, topology.transfer_params)
        hit = records.get(key)
        if hit is None:
            hit = records[key] = price()
        return hit

    def _tree(
        self, phase: str, op: str, root_gpu: GPU, payload_bytes: int
    ) -> tuple[MPIRecord, ...]:
        """A node-aggregating collective's records: entering it, then each
        leg of :meth:`_hierarchical_legs`."""
        head = self._make(phase, op, "mpi", self.params.collective_overhead_s, 0)
        return (head,) + tuple(
            self._make(phase, op, lane, time, nbytes)
            for time, lane, nbytes in self._hierarchical_legs(root_gpu, payload_bytes)
        )

    # ------------------------------------------------------------- topology

    def _nodes(self) -> dict[int, list[GPU]]:
        """Ranks grouped by computing node, in rank order."""
        groups: dict[int, list[GPU]] = {}
        for gpu in self.gpus:
            node = self.topology.slot(gpu).node
            groups.setdefault(node, []).append(gpu)
        return groups

    def _hierarchical_legs(
        self, root_gpu: GPU, payload_bytes: int
    ) -> list[tuple[float, str, int]]:
        """Cost legs of a node-aggregating gather/scatter tree.

        Within each node, ranks exchange with their node leader over the
        PCIe paths; each remote node then moves ONE aggregated message
        (its ranks' payloads combined) over InfiniBand. Returns a list of
        ``(time, lane, nbytes)`` legs. Symmetric for gather and scatter.
        """
        legs: list[tuple[float, str, int]] = []
        root_node = self.topology.slot(root_gpu).node
        for node, members in self._nodes().items():
            leader = members[0] if node != root_node else root_gpu
            for gpu in members:
                if gpu.id != leader.id:
                    time, lane = self._pair_time_and_lane(gpu, leader, payload_bytes)
                    legs.append((time, lane, payload_bytes))
            if node != root_node:
                aggregated = payload_bytes * len(members)
                time = self.params.internode_latency_s + aggregated / (
                    self.params.internode_bandwidth_gbs * 1e9
                )
                legs.append((time, "ib", aggregated))
        return legs

    # ----------------------------------------------------------- collectives

    def barrier(self, trace: Trace, phase: str) -> None:
        """MPI_Barrier: hierarchical dissemination, no payload.

        Intra-node rounds ride shared memory (cheap); only the
        ``ceil(log2(nodes))`` inter-node rounds pay InfiniBand latency.
        """
        self._check_ranks_healthy()
        for record in self._priced(("barrier", phase),
                                   lambda: (self._barrier_record(phase),)):
            self._add(trace, record)

    def _barrier_record(self, phase: str) -> MPIRecord:
        p = self.params
        num_nodes = len(self._nodes())
        inter_rounds = max(0, math.ceil(math.log2(num_nodes))) if num_nodes > 1 else 0
        intra_rounds = max(0, math.ceil(math.log2(self.size))) if self.size > 1 else 0
        time = (
            p.collective_overhead_s
            + inter_rounds * p.internode_latency_s * p.barrier_jitter
            + intra_rounds * 2e-6
        )
        return self._make(phase, "barrier", "mpi", time, 0)

    def gather(
        self,
        trace: Trace,
        phase: str,
        sendbufs: Sequence[DeviceArray],
        recvbuf: DeviceArray,
        root: int = 0,
    ) -> None:
        """MPI_Gather of equal-sized device buffers into ``recvbuf`` on root.

        ``recvbuf`` must be shaped ``(size, *send.shape)`` (or flat with
        ``size * send.size`` elements) and resident on the root's GPU.
        """
        self._check_ranks_healthy()
        root_gpu = self._check_root(root)
        if len(sendbufs) != self.size:
            raise MPIError(
                f"gather needs one send buffer per rank ({self.size}), got {len(sendbufs)}"
            )
        recvbuf.require_on(root_gpu)
        send_size = sendbufs[0].size
        for rank, (buf, gpu) in enumerate(zip(sendbufs, self.gpus)):
            buf.require_on(gpu)
            if buf.size != send_size:
                raise MPIError(
                    f"gather send buffers must be equal-sized; rank {rank} has "
                    f"{buf.size} elements, rank 0 has {send_size}"
                )
        if recvbuf.size != send_size * self.size:
            raise MPIError(
                f"gather recv buffer has {recvbuf.size} elements, expected "
                f"{send_size * self.size}"
            )

        if not recvbuf.virtual:
            flat = recvbuf.data.reshape(self.size, send_size)
            for rank, buf in enumerate(sendbufs):
                flat[rank, :] = buf.data.reshape(-1)
            if not np.may_share_memory(flat, recvbuf.data):
                # A strided view reshapes into a copy: write it back.
                recvbuf.data[...] = flat.reshape(recvbuf.shape)
        nbytes = sendbufs[0].nbytes
        for record in self._priced(
            ("gather", phase, nbytes, root),
            lambda: self._tree(phase, "gather", root_gpu, nbytes),
        ):
            self._add(trace, record)

    def scatter(
        self,
        trace: Trace,
        phase: str,
        sendbuf: DeviceArray,
        recvbufs: Sequence[DeviceArray],
        root: int = 0,
    ) -> None:
        """MPI_Scatter of ``sendbuf`` (on root) into per-rank device buffers."""
        self._check_ranks_healthy()
        root_gpu = self._check_root(root)
        sendbuf.require_on(root_gpu)
        if len(recvbufs) != self.size:
            raise MPIError(
                f"scatter needs one recv buffer per rank ({self.size}), got {len(recvbufs)}"
            )
        recv_size = recvbufs[0].size
        for rank, (buf, gpu) in enumerate(zip(recvbufs, self.gpus)):
            buf.require_on(gpu)
            if buf.size != recv_size:
                raise MPIError(
                    f"scatter recv buffers must be equal-sized; rank {rank} has "
                    f"{buf.size} elements, rank 0 has {recv_size}"
                )
        if sendbuf.size != recv_size * self.size:
            raise MPIError(
                f"scatter send buffer has {sendbuf.size} elements, expected "
                f"{recv_size * self.size}"
            )

        flat = sendbuf.data.reshape(self.size, recv_size)
        for rank, buf in enumerate(recvbufs):
            if not buf.virtual:
                # Assigned in the buffer's own shape: reshaping a strided
                # view would copy, and the slice would land in the copy.
                buf.data[...] = flat[rank].reshape(buf.shape)
        nbytes = recvbufs[0].nbytes
        for record in self._priced(
            ("scatter", phase, nbytes, root),
            lambda: self._tree(phase, "scatter", root_gpu, nbytes),
        ):
            self._add(trace, record)

    def bcast(
        self,
        trace: Trace,
        phase: str,
        sendbuf: DeviceArray,
        recvbufs: Sequence[DeviceArray],
        root: int = 0,
    ) -> None:
        """MPI_Bcast of root's buffer into every other rank's buffer."""
        self._check_ranks_healthy()
        root_gpu = self._check_root(root)
        sendbuf.require_on(root_gpu)
        if len(recvbufs) != self.size:
            raise MPIError(
                f"bcast needs one recv buffer per rank ({self.size}), got {len(recvbufs)}"
            )
        self._record(trace, phase, "bcast", "mpi", self.params.collective_overhead_s, 0)
        for rank, (buf, gpu) in enumerate(zip(recvbufs, self.gpus)):
            buf.require_on(gpu)
            if buf.shape != sendbuf.shape or buf.dtype != sendbuf.dtype:
                raise MPIError(f"bcast buffer mismatch at rank {rank}")
            if gpu.id != root_gpu.id:
                if not buf.virtual:
                    buf.data[...] = sendbuf.data
                time, lane = self._pair_time_and_lane(root_gpu, gpu, sendbuf.nbytes)
                self._record(trace, phase, "bcast", lane, time, sendbuf.nbytes)

    def allgather(
        self,
        trace: Trace,
        phase: str,
        sendbufs: Sequence[DeviceArray],
        recvbufs: Sequence[DeviceArray],
    ) -> None:
        """MPI_Allgather: every rank ends with the concatenation of all sends.

        Modelled (and priced) as a gather to rank 0 followed by a bcast —
        the simple implementation CUDA-aware MPI stacks of the era used for
        device buffers.
        """
        if len(sendbufs) != self.size or len(recvbufs) != self.size:
            raise MPIError("allgather needs one send and one recv buffer per rank")
        self.gather(trace, phase, sendbufs, recvbufs[0], root=0)
        self.bcast(trace, phase, recvbufs[0], recvbufs, root=0)

    # ------------------------------------------------------ point-to-point

    def send_recv(
        self,
        trace: Trace,
        phase: str,
        sendbuf: DeviceArray,
        recvbuf: DeviceArray,
        src: int,
        dst: int,
    ) -> None:
        """A matched MPI_Send/MPI_Recv pair between two ranks."""
        self._check_ranks_healthy()
        if not (0 <= src < self.size and 0 <= dst < self.size):
            raise MPIError(f"ranks ({src}, {dst}) out of range for size {self.size}")
        src_gpu, dst_gpu = self.gpus[src], self.gpus[dst]
        sendbuf.require_on(src_gpu)
        recvbuf.require_on(dst_gpu)
        if sendbuf.shape != recvbuf.shape or sendbuf.dtype != recvbuf.dtype:
            raise MPIError("send/recv buffer shape or dtype mismatch")
        if not recvbuf.virtual:
            recvbuf.data[...] = sendbuf.data
        time, lane = self._pair_time_and_lane(src_gpu, dst_gpu, sendbuf.nbytes)
        if time > 0.0:
            self._record(trace, phase, "sendrecv", lane, time, sendbuf.nbytes)

    # ------------------------------------------------------------ reductions

    def reduce(
        self,
        trace: Trace,
        phase: str,
        sendbufs: Sequence[DeviceArray],
        recvbuf: DeviceArray,
        op="add",
        root: int = 0,
    ) -> None:
        """MPI_Reduce of equal-shaped device buffers onto the root.

        Priced like a gather (the payloads must reach the root; the
        combine is device-side and cheap next to the wire time).
        """
        from repro.primitives.operators import resolve_operator

        operator = resolve_operator(op)
        self._check_ranks_healthy()
        root_gpu = self._check_root(root)
        if len(sendbufs) != self.size:
            raise MPIError(
                f"reduce needs one send buffer per rank ({self.size}), got {len(sendbufs)}"
            )
        recvbuf.require_on(root_gpu)
        shape = sendbufs[0].shape
        for rank, (buf, gpu) in enumerate(zip(sendbufs, self.gpus)):
            buf.require_on(gpu)
            if buf.shape != shape or buf.dtype != sendbufs[0].dtype:
                raise MPIError(f"reduce buffer mismatch at rank {rank}")
        if recvbuf.shape != shape:
            raise MPIError(
                f"reduce recv buffer shape {recvbuf.shape} != send shape {shape}"
            )
        if not recvbuf.virtual:
            acc = sendbufs[0].data.copy()
            for buf in sendbufs[1:]:
                acc = operator.combine(acc, buf.data)
            recvbuf.data[...] = acc
        nbytes = sendbufs[0].nbytes
        for record in self._priced(
            ("reduce", phase, nbytes, root),
            lambda: self._tree(phase, "reduce", root_gpu, nbytes),
        ):
            self._add(trace, record)

    def allreduce(
        self,
        trace: Trace,
        phase: str,
        sendbufs: Sequence[DeviceArray],
        recvbufs: Sequence[DeviceArray],
        op="add",
    ) -> None:
        """MPI_Allreduce: reduce to rank 0, then broadcast (the simple
        CUDA-aware implementation of the era)."""
        if len(sendbufs) != self.size or len(recvbufs) != self.size:
            raise MPIError("allreduce needs one send and one recv buffer per rank")
        self.reduce(trace, phase, sendbufs, recvbufs[0], op=op, root=0)
        self.bcast(trace, phase, recvbufs[0], recvbufs, root=0)

    # -------------------------------------------------------------- alltoall

    def alltoall(
        self,
        trace: Trace,
        phase: str,
        sendbufs: Sequence[DeviceArray],
        recvbufs: Sequence[DeviceArray],
    ) -> None:
        """MPI_Alltoall: rank i's j-th slice lands as rank j's i-th slice.

        Buffers are (size, block) per rank. Priced pairwise: every leg
        rides its own route, so intra-node slices stay cheap while
        inter-node slices pay InfiniBand — the communication pattern of
        multi-GPU transposes and index-digit algorithms.
        """
        self._check_ranks_healthy()
        if len(sendbufs) != self.size or len(recvbufs) != self.size:
            raise MPIError("alltoall needs one send and one recv buffer per rank")
        for rank, (sbuf, rbuf, gpu) in enumerate(zip(sendbufs, recvbufs, self.gpus)):
            sbuf.require_on(gpu)
            rbuf.require_on(gpu)
            if sbuf.shape[0] != self.size or rbuf.shape[0] != self.size:
                raise MPIError(
                    f"alltoall buffers must lead with the comm size "
                    f"({self.size}); rank {rank} has {sbuf.shape}"
                )
        self._record(trace, phase, "alltoall", "mpi",
                     self.params.collective_overhead_s, 0)
        block_bytes = sendbufs[0].nbytes // self.size
        for i, src_gpu in enumerate(self.gpus):
            for j, dst_gpu in enumerate(self.gpus):
                if not recvbufs[j].virtual:
                    recvbufs[j].data[i] = sendbufs[i].data[j]
                if i != j:
                    time, lane = self._pair_time_and_lane(src_gpu, dst_gpu, block_bytes)
                    self._record(trace, phase, "alltoall", lane, time, block_bytes)

