"""System topology: nodes -> PCIe networks -> GPUs.

Reproduces the paper's hardware model (Section 2, Figure 2): a *Multi-GPU*
environment is one computing node with several GPUs grouped into PCIe
networks; a *Multi-Node* environment connects several such nodes through a
low-latency bus (InfiniBand FDR on the test platform). Peer-to-peer access
is possible exactly between GPUs "connected to the same PCIe network";
GPUs in different networks of one node communicate through host memory.

The topology also owns the GPU device objects, so one
:class:`SystemTopology` instance is the complete simulated machine.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import networkx as nx

from repro.errors import TopologyError
from repro.gpusim.arch import GPUArchitecture, KEPLER_K80
from repro.gpusim.costmodel import CostModel, CostModelParams
from repro.gpusim.device import GPU
from repro.gpusim.kernel import ExecutionEngine


@dataclass(frozen=True)
class GPUSlot:
    """Where one GPU sits in the machine."""

    gpu_id: int
    node: int
    network: int  # PCIe network index within the node
    index: int  # position within the PCIe network


@dataclass
class HealthState:
    """What is currently broken on the machine.

    ``None`` on a topology means "perfect health, zero bookkeeping" — the
    state only exists once an availability fault schedule is installed (or
    the serving layer quarantines a device), so the healthy path stays
    bit-identical to a machine that never heard of faults.

    - ``offline``: GPU ids that are gone; kernels/transfers touching them
      raise :class:`~repro.errors.DeviceLostError`.
    - ``degraded_networks``: (node, network) pairs whose P2P path failed
      soft — traffic silently falls back to host-staged routes.
    - ``dead_networks``: (node, network) pairs whose switch failed hard —
      any transfer touching their GPUs raises
      :class:`~repro.errors.LinkDownError`, and placement avoids them.
    - ``lane_slowdown``: multiplicative slow factors per transfer lane
      (e.g. ``{"pcie0.1": 2.0}`` halves that switch's effective rate).
    """

    offline: set[int] = field(default_factory=set)
    degraded_networks: set[tuple[int, int]] = field(default_factory=set)
    dead_networks: set[tuple[int, int]] = field(default_factory=set)
    lane_slowdown: dict[str, float] = field(default_factory=dict)

    def snapshot(self) -> tuple:
        """A hashable view (feeds the autotune cost fingerprint)."""
        return (
            tuple(sorted(self.offline)),
            tuple(sorted(self.degraded_networks)),
            tuple(sorted(self.dead_networks)),
            tuple(sorted(self.lane_slowdown.items())),
        )


class SystemTopology:
    """A multi-node, multi-PCIe-network GPU machine.

    Parameters
    ----------
    num_nodes:
        ``M``-capacity: how many computing nodes exist.
    networks_per_node:
        ``Y``-capacity: PCIe networks (CPU sockets) per node.
    gpus_per_network:
        ``V``-capacity: GPUs attached to each PCIe network.
    arch:
        Architecture of every GPU (homogeneous, as on the test platform).
    engine / cost_params:
        Shared execution engine and cost-model constants for all devices.
    memory_capacity:
        Optional override of per-GPU memory (bytes), e.g. to force the
        paper's Case 2 where one problem does not fit on one GPU.
    """

    def __init__(
        self,
        num_nodes: int,
        networks_per_node: int,
        gpus_per_network: int,
        arch: GPUArchitecture = KEPLER_K80,
        engine: ExecutionEngine | None = None,
        cost_params: CostModelParams | None = None,
        memory_capacity: int | None = None,
        transfer_params=None,
    ):
        if num_nodes < 1 or networks_per_node < 1 or gpus_per_network < 1:
            raise TopologyError(
                "num_nodes, networks_per_node and gpus_per_network must all be >= 1"
            )
        self.num_nodes = num_nodes
        self.networks_per_node = networks_per_node
        self.gpus_per_network = gpus_per_network
        self.arch = arch
        self.engine = engine or ExecutionEngine()
        #: Machine-wide PCIe/host transfer constants
        #: (:class:`~repro.interconnect.transfer.TransferCostParams`).
        #: ``None`` means the engine defaults; engines built without
        #: explicit params inherit this, so the autotuner's cost
        #: fingerprint can see machine-level overrides.
        self.transfer_params = transfer_params
        #: Availability state; ``None`` = perfectly healthy, no checks.
        self.health: HealthState | None = None
        #: Installed :class:`~repro.gpusim.faults.FaultSchedule` (or None).
        self.fault_schedule = None
        #: The last :func:`~repro.core.autotune_cache.cost_fingerprint`
        #: with the pricing state it digested (or None).
        self.fingerprint_memo: tuple | None = None
        cost_model = CostModel(arch, cost_params)

        self.gpus: list[GPU] = []
        self.slots: dict[int, GPUSlot] = {}
        self.graph = nx.Graph()
        self.graph.add_node("ib", kind="switch")

        gpu_id = 0
        for node in range(num_nodes):
            host = f"host{node}"
            self.graph.add_node(host, kind="host")
            self.graph.add_edge(host, "ib", kind="infiniband")
            for net in range(networks_per_node):
                pcie = f"pcie{node}.{net}"
                self.graph.add_node(pcie, kind="pcie_switch")
                self.graph.add_edge(pcie, host, kind="pcie_root")
                for index in range(gpus_per_network):
                    gpu = GPU(
                        gpu_id,
                        arch,
                        engine=self.engine,
                        cost_model=cost_model,
                        memory_capacity=memory_capacity,
                    )
                    self.gpus.append(gpu)
                    self.slots[gpu_id] = GPUSlot(gpu_id, node, net, index)
                    self.graph.add_node(gpu.name, kind="gpu", gpu_id=gpu_id)
                    self.graph.add_edge(gpu.name, pcie, kind="pcie_link")
                    gpu_id += 1

    # ------------------------------------------------------------- structure

    def enable_buffer_pooling(self, poison: bool = False) -> None:
        """Attach a :class:`~repro.gpusim.memory.BufferPool` to every GPU.

        Freed stage buffers are then recycled by later same-class
        allocations (the warm serving path). Idempotent; calling with a
        different ``poison`` flag updates the existing pools in place.
        """
        from repro.gpusim.memory import BufferPool

        for gpu in self.gpus:
            if gpu.buffer_pool is None:
                gpu.buffer_pool = BufferPool(poison=poison)
            else:
                gpu.buffer_pool.poison = poison

    def disable_buffer_pooling(self) -> None:
        """Detach and drop every GPU's buffer pool (parked blocks are freed)."""
        for gpu in self.gpus:
            if gpu.buffer_pool is not None:
                gpu.buffer_pool.trim()
                gpu.buffer_pool = None

    # ---------------------------------------------------------------- health

    def ensure_health(self) -> HealthState:
        """The mutable health state, created on first need."""
        if self.health is None:
            self.health = HealthState()
        return self.health

    def install_faults(self, schedule) -> None:
        """Arm a :class:`~repro.gpusim.faults.FaultSchedule` on this machine.

        Resets the schedule's counters (a schedule can be reused across
        machines), creates the health state, and points every GPU at the
        schedule so kernel launches tick it.
        """
        self.ensure_health()
        self.fault_schedule = schedule
        schedule.attach(self)
        for gpu in self.gpus:
            gpu.fault_schedule = schedule

    def clear_faults(self) -> None:
        """Return the machine to perfect health (and detach any schedule)."""
        self.health = None
        self.fault_schedule = None
        for gpu in self.gpus:
            gpu.fault_schedule = None
            gpu.offline = False

    def mark_offline(self, gpu_id: int) -> None:
        """Quarantine one GPU: placement skips it, use of it raises."""
        gpu = self.gpu(gpu_id)
        self.ensure_health().offline.add(gpu_id)
        gpu.offline = True

    def is_placeable(self, gpu: GPU | int) -> bool:
        """Whether placement may use a GPU (online and on a live switch)."""
        if self.health is None:
            return True
        slot = self.slot(gpu)
        return (
            slot.gpu_id not in self.health.offline
            and (slot.node, slot.network) not in self.health.dead_networks
        )

    def healthy_gpus(self) -> list[GPU]:
        """Every GPU placement may still use, in id order."""
        return [g for g in self.gpus if self.is_placeable(g)]

    def first_healthy_gpu(self) -> GPU:
        """The lowest-id usable GPU (single-GPU executors' fallback peer)."""
        for gpu in self.gpus:
            if self.is_placeable(gpu):
                return gpu
        raise TopologyError("no healthy GPU left on the machine")

    def healthy_gpus_in_network(self, node: int, network: int) -> list[GPU]:
        """The placeable GPUs of one PCIe network (all of them when healthy)."""
        gpus = self.gpus_in_network(node, network)
        if self.health is None:
            return gpus
        if (node, network) in self.health.dead_networks:
            return []
        return [g for g in gpus if g.id not in self.health.offline]

    def usable_networks(self, node: int, v: int) -> list[int]:
        """Network indices of one node with >= ``v`` placeable GPUs."""
        return [
            net for net in range(self.networks_per_node)
            if len(self.healthy_gpus_in_network(node, net)) >= v
        ]

    @property
    def total_gpus(self) -> int:
        return len(self.gpus)

    @property
    def gpus_per_node(self) -> int:
        return self.networks_per_node * self.gpus_per_network

    def gpu(self, gpu_id: int) -> GPU:
        try:
            return self.gpus[gpu_id]
        except IndexError:
            raise TopologyError(
                f"gpu {gpu_id} does not exist (machine has {self.total_gpus})"
            ) from None

    def slot(self, gpu: GPU | int) -> GPUSlot:
        gpu_id = gpu.id if isinstance(gpu, GPU) else gpu
        if gpu_id not in self.slots:
            raise TopologyError(f"gpu {gpu_id} does not exist")
        return self.slots[gpu_id]

    def gpus_in_network(self, node: int, network: int) -> list[GPU]:
        """All GPUs attached to one PCIe network of one node, in index order."""
        if not (0 <= node < self.num_nodes):
            raise TopologyError(f"node {node} does not exist")
        if not (0 <= network < self.networks_per_node):
            raise TopologyError(f"network {network} does not exist on node {node}")
        return [
            self.gpus[s.gpu_id]
            for s in sorted(self.slots.values(), key=lambda s: s.gpu_id)
            if s.node == node and s.network == network
        ]

    def gpus_in_node(self, node: int) -> list[GPU]:
        if not (0 <= node < self.num_nodes):
            raise TopologyError(f"node {node} does not exist")
        return [
            self.gpus[s.gpu_id]
            for s in sorted(self.slots.values(), key=lambda s: s.gpu_id)
            if s.node == node
        ]

    def describe(self) -> str:
        """ASCII tree of the machine: nodes -> PCIe networks -> boards -> dies."""
        lines = [
            f"{self.num_nodes} node(s), {self.arch.name}, "
            f"{self.total_gpus} GPUs total"
        ]
        for node in range(self.num_nodes):
            lines.append(f"node {node} (host{node})")
            for net in range(self.networks_per_node):
                gpus = self.gpus_in_network(node, net)
                lines.append(f"  pcie{node}.{net}")
                seen_boards: list[tuple] = []
                for g in gpus:
                    board = self.board_of(g)
                    if board not in seen_boards:
                        seen_boards.append(board)
                        mates = [x for x in gpus if self.board_of(x) == board]
                        label = ", ".join(m.name for m in mates)
                        suffix = " (dual-die board)" if len(mates) > 1 else ""
                        lines.append(f"    board {len(seen_boards) - 1}: {label}{suffix}")
        if self.num_nodes > 1:
            lines.append(f"ib switch connects host0..host{self.num_nodes - 1}")
        return "\n".join(lines)

    # ----------------------------------------------------------------- boards

    def board_of(self, gpu: GPU | int) -> tuple[int, int, int]:
        """Physical board a logical GPU (die) sits on.

        A K80 board carries two dies; both hang off the same PCIe network,
        so a board is identified by (node, network, index // dies_per_board).
        """
        slot = self.slot(gpu)
        return (slot.node, slot.network, slot.index // self.arch.dies_per_board)

    def contended(self, gpus) -> list[GPU]:
        """The GPUs of ``gpus`` whose board-mate is in ``gpus`` too."""
        if self.arch.dies_per_board <= 1:
            return []
        boards: dict[tuple[int, int, int], int] = {}
        for g in gpus:
            boards[self.board_of(g)] = boards.get(self.board_of(g), 0) + 1
        return [g for g in gpus if boards[self.board_of(g)] > 1]

    @contextmanager
    def activate(self, gpus, contended=None):
        """Mark a set of GPUs as simultaneously busy for a timed region.

        Dies whose board-mate is also in the active set run with the
        dual-die contention factor applied to their achievable bandwidth
        (K80 GPU Boost throttling under a shared power envelope); solo dies
        run at full rate. Restores all factors on exit. ``contended`` is
        :meth:`contended` of ``gpus`` when the caller holds it already.
        """
        contention = self.gpus[0].cost_model.params.dual_die_contention
        previous = [g.bandwidth_scale for g in gpus]
        for g in self.contended(gpus) if contended is None else contended:
            g.bandwidth_scale = contention
        try:
            yield
        finally:
            for g, scale in zip(gpus, previous):
                g.bandwidth_scale = scale

    # ------------------------------------------------------------ reachability

    def same_node(self, a: GPU | int, b: GPU | int) -> bool:
        return self.slot(a).node == self.slot(b).node

    def same_pcie_network(self, a: GPU | int, b: GPU | int) -> bool:
        sa, sb = self.slot(a), self.slot(b)
        return sa.node == sb.node and sa.network == sb.network

    def p2p_capable(self, a: GPU | int, b: GPU | int) -> bool:
        """P2P works exactly between GPUs on the same PCIe network (Section 2)."""
        return self.same_pcie_network(a, b)

    def p2p_usable(self, a: GPU | int, b: GPU | int) -> bool:
        """P2P capability *minus* availability faults.

        Structurally P2P-capable pairs lose the peer path when their
        network's link is degraded or dead; callers deciding message
        granularity (one bulk UVA write vs per-row staged copies) must ask
        this, not :meth:`p2p_capable`. Identical to :meth:`p2p_capable` on
        a healthy machine.
        """
        if not self.same_pcie_network(a, b):
            return False
        if self.health is None:
            return True
        slot = self.slot(a)
        key = (slot.node, slot.network)
        return (
            key not in self.health.degraded_networks
            and key not in self.health.dead_networks
        )

    def route(self, a: GPU | int, b: GPU | int) -> list[str]:
        """Shortest graph path between two GPUs (for diagnostics/tests)."""
        ga = self.gpu(a.id if isinstance(a, GPU) else a)
        gb = self.gpu(b.id if isinstance(b, GPU) else b)
        return nx.shortest_path(self.graph, ga.name, gb.name)

    # ------------------------------------------------------------- selection

    def select_gpus(self, w: int, v: int, m: int = 1) -> list[list[GPU]]:
        """Pick GPUs for a (W, V, M) tuning configuration.

        Returns a list of ``m`` node-groups, each containing ``w`` GPUs
        chosen so that they span ``y = w // v`` PCIe networks with ``v``
        GPUs per network — the paper's ``W = Y * V`` decomposition.
        Validates the request against the hardware (Table 2: "limited by
        the hardware distribution").
        """
        if v < 1 or w < 1 or m < 1:
            raise TopologyError("W, V and M must all be >= 1")
        if w % v != 0:
            raise TopologyError(f"W={w} must be a multiple of V={v} (W = Y*V)")
        y = w // v
        if m > self.num_nodes:
            raise TopologyError(f"M={m} exceeds the {self.num_nodes} available nodes")
        if y > self.networks_per_node:
            raise TopologyError(
                f"Y={y} exceeds the {self.networks_per_node} PCIe networks per node"
            )
        if v > self.gpus_per_network:
            raise TopologyError(
                f"V={v} exceeds the {self.gpus_per_network} GPUs per PCIe network"
            )
        groups: list[list[GPU]] = []
        for node in range(m):
            group: list[GPU] = []
            for net in self.placement_networks(node, y, v):
                group.extend(self.spread_gpus_in_network(node, net, v))
            groups.append(group)
        return groups

    def placement_networks(self, node: int, y: int, v: int) -> list[int]:
        """The first ``y`` networks of a node that can host ``v`` GPUs each.

        On a healthy machine this is simply ``range(y)`` (the pre-fault
        selection, bit for bit); with availability faults installed,
        networks that lost too many GPUs (or whose switch died) are
        skipped so degraded replanning lands on survivors.
        """
        if self.health is None:
            return list(range(y))
        usable = self.usable_networks(node, v)
        if len(usable) < y:
            raise TopologyError(
                f"node {node} has only {len(usable)} healthy networks with "
                f">= {v} GPUs, {y} needed"
            )
        return usable[:y]

    def spread_gpus_in_network(self, node: int, network: int, count: int) -> list[GPU]:
        """Pick ``count`` GPUs of one network, spreading across boards first.

        On dual-die boards (K80), choosing one die per board avoids the
        shared-envelope throttling; only when every board already
        contributes a die do we take board-mates. This is the selection a
        tuned deployment makes (and the reason the paper's W=2 scales
        cleanly while W=4 on one network cannot avoid sharing boards).
        Offline GPUs (availability faults) are skipped.
        """
        gpus = self.healthy_gpus_in_network(node, network)
        if count > len(gpus):
            raise TopologyError(
                f"requested {count} GPUs from network {network} of node {node}, "
                f"which has {len(gpus)} healthy"
            )
        dies = self.arch.dies_per_board
        ordered = sorted(range(len(gpus)), key=lambda i: (i % dies, i // dies))
        return [gpus[i] for i in sorted(ordered[:count])]


def tsubame_kfc(num_nodes: int = 1, **kwargs) -> SystemTopology:
    """The paper's test platform (Table 1): per node, 2 PCIe networks x 4 K80 GPUs."""
    return SystemTopology(
        num_nodes=num_nodes,
        networks_per_node=2,
        gpus_per_network=4,
        arch=kwargs.pop("arch", KEPLER_K80),
        **kwargs,
    )
