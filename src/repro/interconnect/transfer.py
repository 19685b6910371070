"""Inter-GPU transfer engine: functional copies priced by route kind.

Three route kinds exist inside a node (Section 2 of the paper):

- ``local``: both buffers on the same device (device-to-device copy).
- ``p2p``: same PCIe network — the CUDA peer-to-peer path. Data moves
  "asynchronously along the shortest PCI-e path"; latency is low and, with
  UVA, kernels can even write remote memory directly, so batched traffic
  pays the latency once.
- ``host_staged``: same node, different PCIe networks — the copy bounces
  through host memory (D2H + H2D), paying both lower bandwidth and a
  per-message latency. This is what makes W=8 collapse in Figure 9.

Cross-node traffic is not allowed here; it must go through the simulated
MPI layer (:mod:`repro.mpisim`), exactly as in the paper.

Contention model: every transfer occupies a *lane*. P2P transfers occupy
their PCIe network's switch lane (copies inside one network serialise);
host-staged transfers occupy the node's host-memory lane (all cross-network
copies of a node serialise through the host). Lanes map onto the trace
composition rule in :mod:`repro.gpusim.events`.

Each engine keeps the records it priced. On a healthy machine a record is
a pure function of the call's arguments and the cost params, so a repeated
copy, dispatch or host copy reuses its record; the data still moves and
the fault schedule and telemetry still see every call. An engine built
without params prices with its machine's current ``transfer_params``, and
replacing them drops its records. While the machine has a health state,
routes and lane speeds can change between two copies of one flow, so
every record is priced afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.obs import flight
from repro.errors import LinkDownError, TransferError
from repro.gpusim.events import Trace, TransferRecord
from repro.gpusim.memory import DeviceArray
from repro.interconnect.topology import SystemTopology


@dataclass(frozen=True)
class TransferCostParams:
    """Bandwidth/latency constants for intra-node routes (K80-era PCIe gen3)."""

    #: Effective peer-to-peer bandwidth along a PCIe gen3 x16 path.
    p2p_bandwidth_gbs: float = 10.0
    #: Per-transfer latency of a P2P copy (driver + DMA setup).
    p2p_latency_s: float = 8e-6
    #: Effective bandwidth of a host-staged copy (D2H then H2D share the
    #: host memory system, roughly halving throughput).
    host_staged_bandwidth_gbs: float = 4.5
    #: Per-message latency of a host-staged copy (two DMA setups + host sync).
    host_staged_latency_s: float = 30e-6
    #: Device-to-device copy bandwidth on one GPU (bounded by DRAM, r+w).
    local_bandwidth_gbs: float = 90.0
    #: Launch/driver overhead of a local copy.
    local_latency_s: float = 3e-6
    #: Host-to-device copy bandwidth (pinned memory, PCIe gen3 x16).
    h2d_bandwidth_gbs: float = 11.0
    #: Device-to-host copy bandwidth.
    d2h_bandwidth_gbs: float = 12.0
    #: Per-copy latency of a host<->device DMA.
    hostcopy_latency_s: float = 10e-6
    #: Host CPU cost of dispatching one kernel to one device in a
    #: single-process multi-GPU program (cudaSetDevice + launch + event
    #: bookkeeping on the node's driver thread). Dispatches are serial per
    #: node, so the i-th GPU's kernel starts ~i dispatch slots late — the
    #: effect that caps strong scaling as W grows.
    host_dispatch_s: float = 55e-6


def _observe(record: TransferRecord) -> None:
    """Report one transfer into the metrics registry (when enabled).

    Dispatch records are host bookkeeping, not data movement, so they
    get their own count but contribute no bytes series.
    """
    if not obs.is_enabled():
        return
    obs.counter("transfer.count", kind=record.kind).inc()
    if record.kind != "dispatch":
        obs.counter("transfer.bytes", kind=record.kind).inc(record.nbytes)
    obs.counter("transfer.sim_time_s", kind=record.kind).inc(record.time_s)
    if flight.is_armed() and record.kind != "dispatch":
        flight.note("transfer", kind=record.kind, lane=record.lane,
                    phase=record.phase, nbytes=record.nbytes,
                    time_s=record.time_s)


#: Bound on the priced records one engine remembers; a full memo is
#: dropped and refilled by later calls.
_RECORD_MEMO_CAP = 512


#: The constants a copy is priced with when neither its engine nor its
#: machine sets any: one shared object, so record memos keyed on the
#: params object hold.
DEFAULT_TRANSFER_PARAMS = TransferCostParams()


class TransferEngine:
    """Executes and prices intra-node copies between device buffers.

    ``params`` given at construction are kept for the engine's life.
    Without them the engine prices with its machine's current
    ``transfer_params`` (the defaults when the machine sets none), so
    repricing the interconnect takes effect on the next copy.
    """

    def __init__(self, topology: SystemTopology, params: TransferCostParams | None = None):
        self.topology = topology
        self._override = params
        #: Priced records by call key, valid while the machine's
        #: ``transfer_params`` is the ``_records_under`` object.
        self._records: dict[tuple, TransferRecord] = {}
        self._records_under = topology.transfer_params

    @property
    def params(self) -> TransferCostParams:
        """The constants a copy is priced with now."""
        return (self._override or self.topology.transfer_params
                or DEFAULT_TRANSFER_PARAMS)

    def _priced(
        self, key: tuple, price: Callable[[], TransferRecord]
    ) -> TransferRecord:
        """The record of the call ``key`` names, priced by ``price()`` once.

        The record is kept while the machine is healthy and its transfer
        params are the same object (replacing them drops every record,
        although an engine with its own params would price the same).
        While the machine has a health state every call is priced afresh:
        its routes and lane speeds can change between two copies of one
        flow.
        """
        topology = self.topology
        if topology.health is not None:
            return price()
        records = self._records
        if self._records_under is not topology.transfer_params or (
            len(records) >= _RECORD_MEMO_CAP
        ):
            records.clear()
            self._records_under = topology.transfer_params
        record = records.get(key)
        if record is None:
            record = records[key] = price()
        return record

    # -------------------------------------------------------- availability

    def _schedule_tick(self) -> None:
        """Count this transfer toward any installed fault schedule, before
        routing — so a call-triggered fault breaks this very transfer."""
        schedule = self.topology.fault_schedule
        if schedule is not None:
            schedule.tick()

    def _schedule_advance(self, dt: float) -> None:
        schedule = self.topology.fault_schedule
        if schedule is not None:
            schedule.advance_time(dt)

    def _check_reachable(self, gpu) -> None:
        """Raise if ``gpu`` is offline or stranded behind a dead switch."""
        gpu._check_online()
        slot = self.topology.slot(gpu)
        health = self.topology.health
        if health is not None and (slot.node, slot.network) in health.dead_networks:
            raise LinkDownError(
                f"pcie{slot.node}.{slot.network} is down; {gpu.name} unreachable",
                node=slot.node,
                network=slot.network,
            )

    def _lane_scale(self, lane: str) -> float:
        health = self.topology.health
        if health is None:
            return 1.0
        return health.lane_slowdown.get(lane, 1.0)

    # ------------------------------------------------------------- routing

    def route_kind(self, src_gpu, dst_gpu) -> str:
        """Classify the route between two devices: local / p2p / host_staged.

        Availability-aware: offline endpoints and hard-dead networks raise;
        a soft-degraded network silently downgrades P2P to host-staged
        (``p2p_usable`` vs the structural ``p2p_capable``).
        """
        if self.topology.health is not None:
            self._check_reachable(src_gpu)
            if dst_gpu.id != src_gpu.id:
                self._check_reachable(dst_gpu)
        if src_gpu.id == dst_gpu.id:
            return "local"
        if not self.topology.same_node(src_gpu, dst_gpu):
            raise TransferError(
                f"{src_gpu.name} and {dst_gpu.name} are on different nodes; "
                "inter-node traffic must use the MPI layer"
            )
        if self.topology.p2p_usable(src_gpu, dst_gpu):
            return "p2p"
        return "host_staged"

    def _lane(self, kind: str, src_gpu, dst_gpu) -> str:
        slot = self.topology.slot(src_gpu)
        if kind == "local":
            return src_gpu.lane
        if kind == "p2p":
            return f"pcie{slot.node}.{slot.network}"
        return f"host{slot.node}"

    def _time(self, kind: str, nbytes: int, messages: int) -> float:
        p = self.params
        if kind == "local":
            return p.local_latency_s * messages + nbytes / (p.local_bandwidth_gbs * 1e9)
        if kind == "p2p":
            return p.p2p_latency_s * messages + nbytes / (p.p2p_bandwidth_gbs * 1e9)
        return p.host_staged_latency_s * messages + nbytes / (
            p.host_staged_bandwidth_gbs * 1e9
        )

    # ------------------------------------------------------ host <-> device

    def host_to_device(
        self, trace: Trace, phase: str, gpu, nbytes: int, messages: int = 1
    ) -> TransferRecord:
        """Price an H2D copy (data distribution). The node's host-memory
        lane is the shared resource, so simultaneous uploads to several
        GPUs of one node serialise — matching one pinned staging buffer."""
        return self._host_copy("h2d", trace, phase, gpu, nbytes, messages)

    def device_to_host(
        self, trace: Trace, phase: str, gpu, nbytes: int, messages: int = 1
    ) -> TransferRecord:
        """Price a D2H copy (result collection)."""
        return self._host_copy("d2h", trace, phase, gpu, nbytes, messages)

    def _host_copy(
        self, kind: str, trace: Trace, phase: str, gpu, nbytes: int, messages: int
    ) -> TransferRecord:
        self._schedule_tick()
        record = self._priced(
            (kind, phase, gpu.id, nbytes, messages),
            lambda: self._price_host_copy(kind, phase, gpu, nbytes, messages),
        )
        trace.add(record)
        self._schedule_advance(record.time_s)
        _observe(record)
        return record

    def _price_host_copy(
        self, kind: str, phase: str, gpu, nbytes: int, messages: int
    ) -> TransferRecord:
        if self.topology.health is not None:
            self._check_reachable(gpu)
        p = self.params
        lane = f"host{self.topology.slot(gpu).node}"
        bandwidth = p.h2d_bandwidth_gbs if kind == "h2d" else p.d2h_bandwidth_gbs
        return TransferRecord(
            phase=phase,
            lane=lane,
            time_s=self._lane_scale(lane)
            * (p.hostcopy_latency_s * messages + nbytes / (bandwidth * 1e9)),
            src_gpu=-1 if kind == "h2d" else gpu.id,
            dst_gpu=gpu.id if kind == "h2d" else -1,
            nbytes=nbytes,
            kind=kind,
            messages=messages,
        )

    # ------------------------------------------------------------- dispatch

    def record_dispatch(
        self, trace: Trace, phase: str, gpu, ordinal: int = 1
    ) -> TransferRecord:
        """Account the host-side dispatch delay before ``gpu``'s kernel.

        Multi-GPU proposals issue every stage's kernels from one host
        thread per node; dispatches are serial, so the GPU that is
        ``ordinal``-th in the dispatch order waits ``ordinal`` dispatch
        slots before its kernel starts. The record lands on the GPU's own
        lane so the stage's wall-clock becomes
        ``max_i(kernel_i + ordinal_i * dispatch)`` — serial host work
        composed with parallel device work. Single-GPU runs skip this
        (their one dispatch pipelines behind the kernel itself).
        """
        record = self._priced(
            ("dispatch", phase, gpu.id, ordinal),
            lambda: TransferRecord(
                phase=phase,
                lane=gpu.lane,
                time_s=ordinal * self.params.host_dispatch_s,
                src_gpu=gpu.id,
                dst_gpu=gpu.id,
                nbytes=0,
                kind="dispatch",
            ),
        )
        trace.add(record)
        _observe(record)
        return record

    # -------------------------------------------------------------- copying

    def copy(
        self,
        trace: Trace,
        phase: str,
        src: DeviceArray,
        dst: DeviceArray,
        messages: int = 1,
    ) -> TransferRecord:
        """Copy ``src``'s contents into ``dst`` and record the cost.

        ``messages`` is the number of distinct copy invocations this traffic
        was issued as. P2P traffic generated by a kernel writing remote
        memory directly (UVA) is one "message" regardless of layout, while
        host-staged traffic needs one explicit ``cudaMemcpy`` per contiguous
        region — the proposals pass the counts accordingly, which is what
        reproduces the Figure 9 W=8 behaviour ("each auxiliary array is
        written by 8 GPUs through host memory"). A virtual ``dst`` (the
        analytic estimate) records the same copy and receives no data.
        """
        if src.shape != dst.shape:
            raise TransferError(
                f"transfer shape mismatch: src {src.shape} vs dst {dst.shape}"
            )
        if src.dtype != dst.dtype:
            raise TransferError(
                f"transfer dtype mismatch: src {src.dtype} vs dst {dst.dtype}"
            )
        if messages < 1:
            raise TransferError(f"messages must be >= 1, got {messages}")
        self._schedule_tick()
        src_gpu, dst_gpu, nbytes = src.device, dst.device, src.nbytes
        record = self._priced(
            ("copy", phase, src_gpu.id, dst_gpu.id, nbytes, messages),
            lambda: self._price_copy(phase, src_gpu, dst_gpu, nbytes, messages),
        )
        if not dst.virtual:
            dst.data[...] = src.data
        trace.add(record)
        self._schedule_advance(record.time_s)
        _observe(record)
        return record

    def _price_copy(
        self, phase: str, src_gpu, dst_gpu, nbytes: int, messages: int
    ) -> TransferRecord:
        kind = self.route_kind(src_gpu, dst_gpu)
        lane = self._lane(kind, src_gpu, dst_gpu)
        return TransferRecord(
            phase=phase,
            lane=lane,
            time_s=self._lane_scale(lane) * self._time(kind, nbytes, messages),
            src_gpu=src_gpu.id,
            dst_gpu=dst_gpu.id,
            nbytes=nbytes,
            kind=kind,
            messages=messages,
        )
