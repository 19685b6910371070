"""Execution trace records and time composition rules.

Every simulated action (kernel launch, PCIe transfer, MPI collective) emits
a record into a :class:`Trace`. Records carry two labels used to compose
wall-clock time:

- ``phase``: the algorithmic stage the action belongs to ("stage1",
  "gather", ...). Phases execute sequentially (the proposals synchronise
  between stages), so total time is the sum of per-phase times.
- ``lane``: the hardware resource the action occupies ("gpu:3",
  "link:host:0", "mpi"). Within a phase, actions on the same lane
  serialise; actions on different lanes overlap. Phase time is therefore
  ``max over lanes of (sum of record times on that lane)``.

This two-level rule is exactly how the paper's executions behave: Stage-1
kernels on W GPUs run concurrently (different lanes) while the G per-GPU
kernels of a batch on one GPU queue up on its stream (same lane), and it
is what Figure 14's per-stage breakdown measures.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class KernelRecord:
    """One kernel launch on one GPU."""

    name: str
    phase: str
    lane: str
    time_s: float
    gpu_id: int
    grid: tuple[int, int]
    block: tuple[int, int]
    global_bytes_read: int
    global_bytes_written: int
    shuffle_instructions: int
    operator_applications: int
    blocks_per_sm: int
    warp_occupancy: float
    #: Exposed schedule-independent latency folded into ``time_s`` (the
    #: decoupled-lookback polling stall, descriptor-arming round trips).
    #: Kept separately so attribution profilers can split "kernel compute"
    #: from "lookback stall" without re-deriving the cost model.
    stall_s: float = 0.0


@dataclass(frozen=True)
class TransferRecord:
    """One inter-device copy (or a batch of copies on the same route)."""

    phase: str
    lane: str
    time_s: float
    src_gpu: int
    dst_gpu: int
    nbytes: int
    kind: str  # "p2p" | "host_staged" | "local"
    messages: int = 1


@dataclass(frozen=True)
class MPIRecord:
    """One simulated MPI operation (collective or point-to-point)."""

    phase: str
    lane: str
    time_s: float
    op: str
    comm_size: int
    nbytes: int


TraceRecord = KernelRecord | TransferRecord | MPIRecord


@dataclass
class Trace:
    """Ordered log of simulated actions with phase/lane time composition."""

    records: list[TraceRecord] = field(default_factory=list)

    def add(self, record: TraceRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        self.records.extend(records)

    def prepend(self, records: Iterable[TraceRecord]) -> None:
        """Splice records in front of the log in one move.

        Used to stitch an untimed preparation stage (e.g. the host-to-GPU
        distribution upload) before an already-recorded timed region; a
        single bulk splice instead of element-wise ``insert(0, ...)``.
        """
        merged = list(records)
        merged.extend(self.records)
        self.records = merged

    def merge(self, other: "Trace") -> None:
        self.records.extend(other.records)

    def phases(self) -> list[str]:
        """Distinct phases in first-appearance order."""
        seen: dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.phase, None)
        return list(seen)

    def phase_time(self, phase: str) -> float:
        """Wall-clock time of one phase: max over lanes of serialized lane time."""
        lane_totals: dict[str, float] = defaultdict(float)
        for rec in self.records:
            if rec.phase == phase:
                lane_totals[rec.lane] += rec.time_s
        return max(lane_totals.values(), default=0.0)

    def _lane_totals(self) -> dict[str, dict[str, float]]:
        """``phase -> lane -> serialized lane time``, both in first-appearance
        order, in one scan (each lane summed in record order, as
        :meth:`phase_time` sums it)."""
        phases: dict[str, dict[str, float]] = {}
        for rec in self.records:
            lanes = phases.get(rec.phase)
            if lanes is None:
                lanes = phases[rec.phase] = {}
            lanes[rec.lane] = lanes.get(rec.lane, 0.0) + rec.time_s
        return phases

    def breakdown(self) -> dict[str, float]:
        """Per-phase wall-clock times in phase order (Figure 14's quantity):
        :meth:`phase_time` of each phase, from one scan of the records."""
        return {phase: max(lanes.values())
                for phase, lanes in self._lane_totals().items()}

    def total_time(self) -> float:
        """End-to-end wall-clock: phases run back to back."""
        return sum(max(lanes.values()) for lanes in self._lane_totals().values())

    def kernel_records(self) -> list[KernelRecord]:
        return [r for r in self.records if isinstance(r, KernelRecord)]

    def transfer_records(self) -> list[TransferRecord]:
        return [r for r in self.records if isinstance(r, TransferRecord)]

    def mpi_records(self) -> list[MPIRecord]:
        return [r for r in self.records if isinstance(r, MPIRecord)]

    def total_bytes_moved(self) -> int:
        """Bytes crossing device boundaries (transfers + MPI payloads)."""
        return sum(r.nbytes for r in self.records if isinstance(r, (TransferRecord, MPIRecord)))

    def to_dicts(self) -> list[dict]:
        """Records as plain dicts (tagged with their record type)."""
        return [
            {"type": type(r).__name__, **asdict(r)} for r in self.records
        ]

    #: Version of the JSON payload produced by :meth:`to_json`. Bump when
    #: the payload shape changes so downstream tooling can dispatch.
    #: v2: :class:`KernelRecord` gained ``stall_s`` (exposed latency split
    #: out of ``time_s`` for attribution profiling).
    SCHEMA_VERSION = 2

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the trace for external tooling (timelines, flamegraphs)."""
        payload = {
            "schema": Trace.SCHEMA_VERSION,
            "phases": self.phases(),
            "breakdown_s": self.breakdown(),
            "total_time_s": self.total_time(),
            "records": self.to_dicts(),
        }
        return json.dumps(payload, indent=indent)
