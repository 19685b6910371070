"""The unified request→plan→placement→execute pipeline behind every proposal.

Historically each proposal (Scan-SP, Scan-MPS, Scan-MP-PC, the multi-node
variant, the problem-parallel Case 1 and the chained-scan extension) was a
self-contained executor class hand-rolling its own plan cache, ``run()``,
``estimate()`` and result assembly. Production scan dispatch layers (CUB's
``DeviceScan``, ModernGPU's transforms) centralise exactly this: one tuned
dispatch path that every entry point funnels through. This module is that
path:

- :class:`ScanRequest` — one value object describing a scan invocation:
  the problem, the (optional) host batch and the placement knobs.
- :class:`PlanResolver` — the single keyed plan cache. A plan is a pure
  function of ``(arch, problem geometry, parts, g_local, K, template,
  K-space)``; resolving one does the premise template derivation, the
  template shrink and the K-space search in one place, once per geometry
  for every executor at once (warm serving re-plans nothing, whichever
  executor asks, and an operator or output-kind twin only relabels).
- :class:`Placement` — which GPUs execute a request and how they are
  grouped (single device, one node group, one group per PCIe network, or
  a whole cluster), extracted from the executors' constructors.
- :class:`ScanExecutor` — the template-method base class. ``execute()``
  owns plan → upload → device flow → collect → result assembly;
  a subclass supplies only its plan spec, its program's buffer slots and
  ops, and its config summary. ``run()`` and ``estimate()`` are thin
  wrappers that build the request — the analytic estimate is the *same*
  program over virtual arrays, so the two paths cannot drift.
- :class:`LaunchProgram` — an executor's device flow held per problem:
  its buffer slots on their GPUs and its ordered ops (kernel launches,
  host dispatches, copies, MPI collectives, relayouts) under their obs
  spans, bound to slot indices, so a warm call derives nothing. A call's
  uploaded buffers are portions of its result array.
- the **proposal registry** — the single source of truth mapping proposal
  names to executors, replacing the session's constructor if-chain; the
  session, the CLI and the docs all read it.

Behaviour is bit-identical to the pre-refactor executors: traces,
simulated times and Figure-14 phase breakdowns do not change.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro import obs
from repro.obs.tracing import NULL_SPAN
from repro.errors import ConfigurationError
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.events import Trace
from repro.gpusim.memory import AllocationScope
from repro.gpusim.metrics import communication_share
from repro.core.params import (
    ExecutionPlan,
    KernelParams,
    NodeConfig,
    ProblemConfig,
)
from repro.core.plan import build_execution_plan
from repro.core.premises import derive_stage_kernel_params, k_search_space
from repro.core.results import ScanResult
from repro.primitives.operators import resolve_operator
from repro.util.ints import is_power_of_two, next_power_of_two

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import GPU
    from repro.interconnect.topology import SystemTopology

#: Bound on the programs one executor holds
#: (:meth:`ScanExecutor._held_program`); a full map is dropped and refilled
#: by later calls.
_HELD_PROGRAMS_CAP = 64


def native_rows(arr: np.ndarray) -> np.ndarray:
    """``arr`` in native byte order, 1-D input as one row; checks nothing."""
    if not arr.dtype.isnative:
        arr = arr.astype(arr.dtype.newbyteorder("="))
    return arr[None, :] if arr.ndim == 1 else arr


def coerce_batch(data: np.ndarray) -> np.ndarray:
    """Normalise input to shape (G, N); 1-D input becomes a G=1 batch.

    Non-native byte order (e.g. ``>i4`` on a little-endian host) is
    converted to native once here, so results come back native.
    """
    arr = np.asarray(data)
    if arr.size == 0:
        raise ConfigurationError(
            f"scan input must be non-empty, got shape {arr.shape}"
        )
    arr = native_rows(arr)
    if arr.ndim != 2:
        raise ConfigurationError(
            f"scan input must be 1-D or 2-D (G, N), got shape {arr.shape}"
        )
    g, n = arr.shape
    if not is_power_of_two(n) or not is_power_of_two(g):
        raise ConfigurationError(
            f"G and N must be powers of two (paper convention), got G={g}, N={n}"
        )
    return arr


def pad_rows_to_batch(
    rows: list[np.ndarray], n: int, operator, dtype=None
) -> np.ndarray:
    """Stack 1-D problem rows into a legal ``(G, N)`` batch by identity padding.

    The serving front-end coalesces independent requests into the batch
    shapes the executors are tuned for: each row is padded to ``n``
    elements with the operator identity (identity padding cannot change
    any real element's prefix), and the row count is padded to the next
    power of two with all-identity rows. The same deterministic-degrade
    philosophy as :func:`shrink_template_to_fit`: shape the work to what
    the machine accepts rather than reject it.
    """
    if not rows:
        raise ConfigurationError("pad_rows_to_batch needs at least one row")
    if not is_power_of_two(n):
        raise ConfigurationError(f"padded row length must be a power of two, got {n}")
    op = resolve_operator(operator)
    dtype = np.dtype(dtype if dtype is not None else rows[0].dtype)
    g = next_power_of_two(len(rows))
    batch = np.empty((g, n), dtype=dtype)
    batch.fill(op.identity(dtype))
    for i, row in enumerate(rows):
        row = np.asarray(row)
        if row.ndim != 1:
            raise ConfigurationError(f"row {i} must be 1-D, got shape {row.shape}")
        if row.size > n:
            raise ConfigurationError(
                f"row {i} has {row.size} elements, exceeds padded length {n}"
            )
        batch[i, : row.size] = row
    return batch


def shrink_template_to_fit(
    template: KernelParams, n_local: int
) -> KernelParams:
    """Reduce (p, then lx) until one block iteration fits the local portion.

    Small problems (or small test sizes) may be narrower than the premise
    block's ``Lx * P`` element coverage; the paper targets large N, so we
    degrade deterministically rather than reject.
    """
    p, lx = template.p, template.lx
    while (1 << (p + lx)) > n_local and p > 0:
        p -= 1
    while (1 << (p + lx)) > n_local and lx > 0:
        lx -= 1
    if (1 << (p + lx)) > n_local:
        raise ConfigurationError(f"cannot fit a block iteration into {n_local} elements")
    warps = max(1, (1 << lx) // 32)
    s = min(template.s, max(0, warps.bit_length() - 1))
    return KernelParams(s=s, p=p, l=lx, lx=lx, ly=0, K=template.K)


# --------------------------------------------------------------------- request


@dataclass(frozen=True)
class ScanRequest:
    """One scan invocation, fully described.

    ``batch is None`` means the analytic path: no host data and virtual
    device buffers, so no kernel body runs and no data moves. ``node``,
    ``proposal`` and ``K`` are the placement knobs the session keys its
    executor cache on; executors built directly carry those choices in
    their constructors and ignore the fields.
    """

    problem: ProblemConfig
    batch: np.ndarray | None = field(default=None, compare=False, repr=False)
    node: NodeConfig | None = None
    proposal: str = "auto"
    K: int | str | None = None
    collect: bool = True

    @property
    def functional(self) -> bool:
        """Whether the request carries data (``False``: an estimate)."""
        return self.batch is not None

    @classmethod
    def from_host(
        cls,
        data: np.ndarray,
        operator="add",
        inclusive: bool = True,
        collect: bool = True,
        node: NodeConfig | None = None,
        proposal: str = "auto",
        K: int | str | None = None,
    ) -> "ScanRequest":
        """Coerce a host array into a functional request."""
        batch = coerce_batch(data)
        problem = ProblemConfig.for_batch(batch, operator, inclusive)
        return cls(
            problem=problem, batch=batch, node=node, proposal=proposal,
            K=K, collect=collect,
        )

    @classmethod
    def analytic(
        cls,
        problem: ProblemConfig,
        node: NodeConfig | None = None,
        proposal: str = "auto",
        K: int | str | None = None,
    ) -> "ScanRequest":
        """An estimate request: same pipeline, virtual arrays, no data."""
        return cls(
            problem=problem, batch=None, node=node, proposal=proposal,
            K=K, collect=False,
        )

    @property
    def cache_key(self) -> tuple:
        """Everything that decides an executor + plan (the session's key)."""
        return (self.problem, self.node, self.proposal, self.K)


# ------------------------------------------------------------------- resolver


@dataclass(frozen=True)
class PlanSpec:
    """Everything that decides an :class:`ExecutionPlan`, normalised.

    ``parts`` is how many GPUs cooperatively hold each problem (Table 2's
    ``gpus_sharing_problem``); ``g_local`` the problems per GPU group
    (Scan-MP-PC passes ``G/Y``); ``k_space`` selects which premise
    equation bounds the K search space; ``k_pick`` whether the default K
    is the largest admissible (three-kernel proposals, Premise 4) or the
    smallest (the chained scan, which wants many blocks in flight);
    ``clamp_chunks`` caps K so each problem keeps at least one chunk
    (single-GPU executors, where tiny test problems would otherwise
    over-cascade).
    """

    problem: ProblemConfig
    parts: int = 1
    g_local: int | None = None
    K: int | None = None
    template: KernelParams | None = None
    k_space: str = "sp"
    node: NodeConfig | None = None
    k_pick: str = "max"
    clamp_chunks: bool = False


class PlanResolver:
    """The single keyed plan cache shared by every executor.

    A plan is a pure function of ``(arch, spec)`` that reads only the
    geometry of ``spec.problem``: the premises (s, p, l) and the K bounds
    of Eq. 1-3 depend on the architecture, the dtype, (N, G) and the
    placement, never on the operator or the output kind. So the template
    shrink, the K-space resolution and the grid build run once per
    geometry, meaning ``spec`` with its problem reduced to ``(n, g,
    dtype)``. Every other problem of that geometry gets the derived plan
    relabelled with its own :class:`ProblemConfig`, so programs and kernel
    bodies still see their operator and output kind. A relabel derives
    nothing and counts as a hit, so ``misses`` counts the plans derived.

    Entries stay per problem for :meth:`export` and :meth:`prime`
    (snapshots persist one plan per problem). Every executor of every
    session shares this memo, so warm serving re-plans nothing regardless
    of which executor class asks.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[GPUArchitecture, PlanSpec], ExecutionPlan] = {}
        #: ``(arch, geometry) -> plan``: the one derived plan per geometry.
        self._shapes: dict[tuple[GPUArchitecture, tuple], ExecutionPlan] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
        self._shapes.clear()
        self.hits = 0
        self.misses = 0

    def export(self) -> tuple[tuple[GPUArchitecture, PlanSpec, ExecutionPlan], ...]:
        """Every cached entry as ``(arch, spec, plan)`` triples.

        The persistence layer (:mod:`repro.core.store`) serialises these;
        the resolver itself stays JSON-agnostic.
        """
        return tuple(
            (arch, spec, plan) for (arch, spec), plan in self._cache.items()
        )

    def prime(self, arch: GPUArchitecture, spec: PlanSpec,
              plan: ExecutionPlan) -> bool:
        """Insert a restored plan without touching the hit/miss counters.

        Returns ``False`` (and keeps the incumbent) when the key is
        already resolved — a live plan always wins over a persisted one.
        The plan also serves its geometry's other problems, unless that
        geometry already has one.
        """
        key = (arch, spec)
        if key in self._cache:
            return False
        self._cache[key] = plan
        self._shapes.setdefault((arch, _geometry(spec)), plan)
        return True

    def resolve(self, arch: GPUArchitecture, spec: PlanSpec) -> ExecutionPlan:
        """The memoised plan of ``spec``: derived once per geometry."""
        key = (arch, spec)
        plan = self._cache.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        shape = (arch, _geometry(spec))
        derived = self._shapes.get(shape)
        if derived is None:
            self.misses += 1
            plan = self._shapes[shape] = _derive_plan(arch, spec)
        else:
            self.hits += 1
            plan = replace(derived, problem=spec.problem)
        self._cache[key] = plan
        return plan


#: The :class:`PlanSpec` fields a plan depends on besides its problem.
_SPEC_FIELDS = tuple(f.name for f in fields(PlanSpec) if f.name != "problem")


def _geometry(spec: PlanSpec) -> tuple:
    """``spec``'s fields, its problem reduced to ``(n, g, dtype)``."""
    problem = spec.problem
    return (problem.n, problem.g, problem.dtype,
            *[getattr(spec, name) for name in _SPEC_FIELDS])


def _derive_plan(arch: GPUArchitecture, spec: PlanSpec) -> ExecutionPlan:
    """Template shrink + K-space resolution + grid build for ``spec``."""
    problem = spec.problem
    n_local = problem.N // spec.parts
    template = spec.template or derive_stage_kernel_params(arch, problem.dtype)
    template = shrink_template_to_fit(template, n_local)
    if spec.K is not None:
        # Checked before the chunk clamp below, which would otherwise
        # turn an invalid K into a valid one on small problems.
        k = spec.K
        if isinstance(k, bool) or not is_power_of_two(k):
            raise ConfigurationError(f"K must be a power of two, got {k!r}")
    else:
        space = k_search_space(
            problem, template, template, arch,
            node=spec.node, proposal=spec.k_space,
        )
        k = space[-1] if spec.k_pick == "max" else space[0]
    if spec.clamp_chunks:
        # Keep at least one chunk per problem.
        k = min(k, problem.N // template.elements_per_iteration)
    return build_execution_plan(
        arch,
        problem,
        K=k,
        gpus_sharing_problem=spec.parts,
        g_local=spec.g_local,
        stage1_template=template,
    )


#: The process-wide resolver every executor shares by default.
PLAN_RESOLVER = PlanResolver()


# ------------------------------------------------------------------ placement


@dataclass(frozen=True)
class Placement:
    """Which GPUs execute a request, and how they are grouped.

    ``groups`` holds one tuple of GPUs per independent communication group
    (one group for SP/MPS/multi-node, one per PCIe network in use for
    MP-PC). ``gpus`` flattens them in dispatch order.
    """

    groups: tuple[tuple["GPU", ...], ...]

    @property
    def gpus(self) -> list["GPU"]:
        return [gpu for group in self.groups for gpu in group]

    @property
    def group_lists(self) -> list[list["GPU"]]:
        return [list(group) for group in self.groups]

    @classmethod
    def single(cls, gpu: "GPU") -> "Placement":
        """One device (Scan-SP, the chained scan)."""
        return cls(groups=((gpu,),))

    @classmethod
    def node_group(
        cls, topology: "SystemTopology", node: NodeConfig, node_index: int = 0
    ) -> "Placement":
        """One W-GPU group on one node (Scan-MPS, problem-parallel)."""
        gpus = topology.select_gpus(node.W, node.V, 1)[0]
        # Re-home the group on the requested node (select_gpus picks node 0).
        if node_index != 0:
            offset = node_index * topology.gpus_per_node
            gpus = [topology.gpu(g.id + offset) for g in gpus]
        return cls(groups=(tuple(gpus),))

    @classmethod
    def per_network(
        cls, topology: "SystemTopology", node: NodeConfig
    ) -> "Placement":
        """One V-GPU group per (node, PCIe network) pair (Scan-MP-PC).

        Network indices come from :meth:`SystemTopology.placement_networks`:
        the plain first-Y choice on a healthy machine, survivors-only when
        availability faults have taken networks (or their GPUs) down.
        """
        groups: list[tuple["GPU", ...]] = []
        for node_idx in range(node.M):
            if node.V > topology.gpus_per_network:
                raise ConfigurationError(
                    f"networks of node {node_idx} have only "
                    f"{topology.gpus_per_network} GPUs, V={node.V} requested"
                )
            for net_idx in topology.placement_networks(node_idx, node.Y, node.V):
                groups.append(
                    tuple(topology.spread_gpus_in_network(node_idx, net_idx, node.V))
                )
        return cls(groups=tuple(groups))

    @classmethod
    def cluster(
        cls, topology: "SystemTopology", node: NodeConfig
    ) -> "Placement":
        """All M*W GPUs across the cluster, one rank each (multi-node MPS)."""
        groups = topology.select_gpus(node.W, node.V, node.M)
        return cls(groups=tuple(tuple(group) for group in groups))


# ------------------------------------------------------------------- executor


class ScanExecutor(ABC):
    """Template-method base class: one pipeline for every proposal.

    ``execute(request)`` owns the shared skeleton — take the held program
    of the request's problem, place its buffers (real uploads or virtual
    reservations), run its ops, collect the output, assemble the
    :class:`ScanResult`. The functional and analytic paths differ *only*
    in their buffers: every launch and transfer is priced from the same
    closed forms, and virtual buffers run no body and move no data, so
    their traces are identical by construction.

    Subclasses provide:

    - :meth:`_plan_spec` — the proposal's :class:`PlanSpec` (how many
      GPUs share a problem, which premise equation bounds K, ...);
    - :meth:`_slots` and :meth:`_stages` — the program of a plan: its
      buffer slots and its ordered ops (see :class:`LaunchProgram`);
    - :meth:`_describe` — the proposal's result config dict.
    """

    #: Registry name ("sp", "mps", ...); set by subclasses.
    proposal: str = ""
    #: The :class:`ScanResult` proposal label ("scan-sp", ...).
    result_label: str = ""
    #: The shared plan cache. Class attribute, so every executor of every
    #: session reuses one memo; tests may swap in a fresh resolver.
    resolver: PlanResolver = PLAN_RESOLVER
    #: Which GPUs this executor drives; set by subclass constructors.
    placement: Placement
    #: The machine whose dual-die boards contend while the program runs;
    #: ``None`` for a one-GPU executor.
    topology: "SystemTopology | None" = None
    #: ``problem -> (resolver, arch, program)``: the programs
    #: :meth:`execute` ran, created on first use (see :meth:`_held_program`).
    _held: dict | None = None

    @property
    def gpus(self) -> list["GPU"]:
        """The placement's GPUs, flattened in dispatch order."""
        return self.placement.gpus

    @property
    def groups(self) -> list[list["GPU"]]:
        """The placement's GPUs, one list per communication group."""
        return self.placement.group_lists

    # -------------------------------------------------------------- pipeline

    def run(
        self,
        data: np.ndarray,
        operator="add",
        inclusive: bool = True,
        collect: bool = True,
    ) -> ScanResult:
        """Scan a host batch of shape (G, N) (or 1-D for G=1)."""
        return self.execute(
            ScanRequest.from_host(
                data, operator=operator, inclusive=inclusive, collect=collect
            )
        )

    def estimate(self, problem: ProblemConfig) -> ScanResult:
        """Analytic run at full problem scale: exact trace, no data arrays.

        Every launch/transfer counter is a closed form of the plan
        geometry, so the produced trace (and therefore the timing) is
        identical to a functional run — without allocating the
        2^28-element batches of the paper's evaluation.
        """
        return self.execute(ScanRequest.analytic(problem))

    def execute(self, request: ScanRequest) -> ScanResult:
        """The template method: program → place → run → collect.

        ``request`` is already validated (:meth:`ScanRequest.from_host`,
        :meth:`ScanRequest.analytic` or the session's own checks).
        """
        problem = request.problem
        program = self._held_program(problem)
        plan = program.plan
        batch = request.batch
        trace = Trace()
        with AllocationScope() as scope:
            if batch is not None:
                with obs.span("upload"):
                    buffers = program.place(scope, batch)
            else:
                buffers = program.place(scope, None)
            program.run(trace, scope, buffers, self)
            output = None
            if batch is not None and request.collect:
                with obs.span("collect"):
                    output = buffers.output
        config = self._describe(program)
        if batch is None:
            config["estimated"] = True
        if obs.is_enabled():
            # Stamp the attribution headline on the ambient span so span
            # dumps (and flight-recorder bundles built from them) say not
            # just how long the execution took but what bounded it.
            span = obs.current_span()
            if span is not None:
                span.set("sim_total_s", trace.total_time())
                span.set("communication_share", communication_share(trace))
        return ScanResult(
            problem=problem,
            proposal=self.result_label,
            trace=trace,
            plan=plan,
            output=output,
            config=config,
        )

    def plan_for(self, problem: ProblemConfig) -> ExecutionPlan:
        """The memoised plan for this executor's share of ``problem``."""
        return self.resolver.resolve(self._arch(), self._plan_spec(problem))

    def _held_program(self, problem: ProblemConfig) -> "LaunchProgram":
        """The program of ``problem``, built on its first call and kept
        while the resolver and the architecture are the objects that
        resolved its plan.

        A warm call then builds no :class:`PlanSpec`, asks no resolver
        and derives no op. Swapping ``resolver`` or the architecture
        re-resolves and rebuilds.
        """
        resolver, arch = self.resolver, self._arch()
        held = self._held
        if held is None:
            held = self._held = {}
        hit = held.get(problem)
        if hit is not None and hit[0] is resolver and hit[1] is arch:
            return hit[2]
        plan = self.plan_for(problem)
        program = LaunchProgram(
            problem, plan, self._slots(plan, problem),
            self._stages(plan, problem), self.topology,
        )
        if len(held) >= _HELD_PROGRAMS_CAP:
            held.clear()
        held[problem] = (resolver, arch, program)
        return program

    # ----------------------------------------------------------------- hooks

    @abstractmethod
    def _arch(self) -> GPUArchitecture:
        """The architecture plans are derived against."""

    @abstractmethod
    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        """The proposal's normalised plan parameters for ``problem``."""

    @abstractmethod
    def _slots(self, plan: ExecutionPlan, problem: ProblemConfig):
        """The program's :class:`Slot` s, in allocation order."""

    @abstractmethod
    def _stages(self, plan: ExecutionPlan, problem: ProblemConfig):
        """The program's ``(span, attrs, ((span, ops), ...))`` groups."""

    @abstractmethod
    def _describe(self, program: "LaunchProgram") -> dict:
        """The result config of ``program``'s problem (K, placement
        counts, gpu ids)."""


# ------------------------------------------------------------------ programs


class Slot(NamedTuple):
    """One buffer of a :class:`LaunchProgram`.

    ``source`` is the index of the host batch the slot uploads: a tuple of
    unit-step slices, and the slot's buffer is that portion of the call's
    result array (``None``: the slot is allocated, ``fill`` initialising
    it or, when ``None``, leaving recycled contents). ``group`` is the op
    group at whose start the slot is allocated; ``-1`` places it with the
    batch.
    """

    gpu: "GPU"
    shape: tuple
    dtype: np.dtype
    fill: object = None
    source: tuple | None = None
    group: int = -1


def _view(buffers, ref):
    """The buffer ``ref`` names: a slot index or ``(slot, columns)``."""
    if isinstance(ref, int):
        return buffers[ref]
    slot, columns = ref
    return buffers[slot].view(slice(None), columns)


class Launch:
    """A kernel launch: ``step`` (a :class:`~repro.core.kernels.LaunchStep`)
    on ``gpu``, its body run over the storage of ``slots``."""

    __slots__ = ("gpu", "step", "slots")

    def __init__(self, gpu: "GPU", step, slots: tuple[int, ...]):
        self.gpu, self.step, self.slots = gpu, step, slots

    def run(self, trace: Trace, buffers: "Placed", executor) -> None:
        body = None
        if buffers.output is not None:
            body = partial(self.step.body, *[buffers[s].data for s in self.slots])
        self.step.run(trace, self.gpu, body)


class Dispatch:
    """The host's ``ordinal``-th dispatch of a ``phase`` kernel to ``gpu``
    (:meth:`~repro.interconnect.transfer.TransferEngine.record_dispatch`)."""

    __slots__ = ("phase", "gpu", "ordinal")

    def __init__(self, phase: str, gpu: "GPU", ordinal: int):
        self.phase, self.gpu, self.ordinal = phase, gpu, ordinal

    def run(self, trace: Trace, buffers: "Placed", executor) -> None:
        executor.engine.record_dispatch(trace, self.phase, self.gpu,
                                        ordinal=self.ordinal)


class Copy:
    """An intra-node copy between two buffer refs (see :func:`_view`).

    ``messages`` is the copy's count on a healthy machine: one bulk write
    when ``pair`` can use P2P, else one per row of ``rows``. While the
    machine has a health state the count is asked at the copy, as a link
    can fail soft between two copies.
    """

    __slots__ = ("phase", "src", "dst", "pair", "rows", "messages")

    def __init__(self, phase: str, src, dst, pair: tuple, rows: int,
                 messages: int):
        self.phase, self.src, self.dst = phase, src, dst
        self.pair, self.rows, self.messages = pair, rows, messages

    def run(self, trace: Trace, buffers: "Placed", executor) -> None:
        engine = executor.engine
        topology = engine.topology
        messages = self.messages
        if topology.health is not None:
            messages = 1 if topology.p2p_usable(*self.pair) else self.rows
        engine.copy(trace, self.phase, _view(buffers, self.src),
                    _view(buffers, self.dst), messages=messages)


class Barrier:
    """``MPI_Barrier`` over the executor's communicator."""

    __slots__ = ("phase",)

    def __init__(self, phase: str):
        self.phase = phase

    def run(self, trace: Trace, buffers: "Placed", executor) -> None:
        executor.comm.barrier(trace, self.phase)


class Gather:
    """``MPI_Gather`` of the ``sends`` slots into the root's ``recv``."""

    __slots__ = ("phase", "sends", "recv")

    def __init__(self, phase: str, sends: tuple[int, ...], recv: int):
        self.phase, self.sends, self.recv = phase, sends, recv

    def run(self, trace: Trace, buffers: "Placed", executor) -> None:
        executor.comm.gather(trace, self.phase,
                             [buffers[s] for s in self.sends],
                             buffers[self.recv], root=0)


class Scatter:
    """``MPI_Scatter`` of the root's ``send`` slot into the ``recvs``."""

    __slots__ = ("phase", "send", "recvs")

    def __init__(self, phase: str, send: int, recvs: tuple[int, ...]):
        self.phase, self.send, self.recvs = phase, send, recvs

    def run(self, trace: Trace, buffers: "Placed", executor) -> None:
        executor.comm.scatter(trace, self.phase, buffers[self.send],
                              [buffers[s] for s in self.recvs], root=0)


class Relayout:
    """An untimed device-side shuffle between rank-major ``(parts, rows *
    cols)`` and problem-major ``(rows, parts * cols)`` layouts.

    ``to_problem_major`` moves ``src`` (rank-major) into ``dst``;
    otherwise ``src`` is problem-major. Virtual buffers move nothing.
    Both slots are whole allocations, so the reshapes are views.
    """

    __slots__ = ("src", "dst", "rank_major", "problem_major",
                 "to_problem_major")

    def __init__(self, src: int, dst: int, split: tuple[int, int, int],
                 to_problem_major: bool):
        parts, rows, cols = split
        self.src, self.dst = src, dst
        self.rank_major, self.problem_major = (parts, rows, cols), (rows, parts, cols)
        self.to_problem_major = to_problem_major

    def run(self, trace: Trace, buffers: "Placed", executor) -> None:
        if buffers.output is None:
            return
        src, dst = buffers[self.src].data, buffers[self.dst].data
        if self.to_problem_major:
            moved = src.reshape(self.rank_major).transpose(1, 0, 2)
            target = dst.reshape(self.problem_major)
        else:
            moved = src.reshape(self.problem_major).transpose(1, 0, 2)
            target = dst.reshape(self.rank_major)
        np.copyto(target, moved)


class Placed(list):
    """A call's buffers in slot order, with the program that placed them
    and the call's result array, which the uploaded slots' buffers map
    (``None``: every buffer is virtual)."""

    __slots__ = ("program", "output")


def _require_tiling(problem: ProblemConfig, slots) -> None:
    """Raise unless the sources of the upload ``slots`` tile ``problem``'s
    ``(G, N)`` batch exactly once, each in its slot's shape and dtype.

    The result array is allocated uninitialised and only the uploads
    write it before the kernels run, so a gap would hand the caller
    uninitialised memory and an overlap would scan an element twice.
    """
    bounds = (problem.G, problem.N)
    boxes = []
    for slot in slots:
        if slot.source is None:
            continue
        index = slot.source + (slice(None),) * (2 - len(slot.source))
        if len(index) != 2 or not all(isinstance(i, slice) for i in index):
            raise ConfigurationError(
                f"upload source {slot.source!r} is not a tuple of slices")
        box = []
        for part, size in zip(index, bounds):
            start, stop, step = part.indices(size)
            if step != 1:
                raise ConfigurationError(
                    f"upload source {slot.source!r} must have unit steps")
            box.append((start, max(start, stop)))
        shape = tuple(stop - start for start, stop in box)
        if shape != tuple(slot.shape) or np.dtype(slot.dtype) != problem.dtype:
            raise ConfigurationError(
                f"upload slot {tuple(slot.shape)} {np.dtype(slot.dtype)} does "
                f"not match its source's {shape} {problem.dtype}")
        for other in boxes:
            if all(a < d and c < b for (a, b), (c, d) in zip(box, other)):
                raise ConfigurationError(
                    f"upload sources overlap: {tuple(box)} and {tuple(other)}")
        boxes.append(box)
    covered = sum((b - a) * (d - c) for (a, b), (c, d) in boxes)
    if covered != problem.G * problem.N:
        raise ConfigurationError(
            f"upload sources cover {covered} of the batch's "
            f"{problem.G * problem.N} elements")


class LaunchProgram:
    """An executor's device flow for one problem, held between calls.

    A flow is a fixed list of ops over a fixed set of buffers, so
    everything but the data is derived once, here:

    - ``slots`` are the buffers a call places (:class:`Slot`), in
      allocation order: the batch portions and their companions first,
      then each op group's own buffers at the group's start. The
      portions' sources must tile the batch exactly once.
    - ``groups`` are ``(span, attrs, stages)`` triples, run in order: a
      group's stages run inside one obs span (none when ``span`` is
      ``None``), each stage a ``(span, ops)`` pair whose ops
      (:class:`Launch`, :class:`Dispatch`, :class:`Copy`,
      :class:`Barrier`, :class:`Gather`, :class:`Scatter`,
      :class:`Relayout`) run inside one obs span.
    - ``contended`` are the placement's GPUs whose board-mate runs too;
      they run at the dual-die contention factor while the ops run
      (:meth:`~repro.interconnect.topology.SystemTopology.activate`).
    - ``launches`` are the :class:`Launch` ops, in run order.

    The ops are bound to slot indices, not storage: each kernel body was
    bound to its geometry when its step was built, and every op is handed
    the call's buffers when it runs, deriving at most views of them. A
    call therefore binds nothing, whichever storage it gets.

    A call allocates its result array first (:meth:`place`), and each
    uploaded slot's buffer is that slot's portion of it: upload is one
    copy of the caller's batch into the result, the kernels scan in place
    on it and the call returns it (``Placed.output``). The other buffers
    still come from the device allocators and go back to them on every
    call (the group allocations run in the caller's
    :class:`AllocationScope`), and each portion's bytes are charged to
    its GPU as any upload's, so pool counters, poisoning and capacity
    checks are per call. A call on virtual buffers (an estimate) runs the
    same ops with no body and moves no data.

    The ops price through the executor's live transfer engine and
    communicator, which keep the priced records; a held program holds
    no price.
    """

    __slots__ = ("problem", "plan", "slots", "groups", "topology",
                 "active", "contended", "launches", "_placed", "_frames")

    def __init__(self, problem: ProblemConfig, plan: ExecutionPlan, slots,
                 groups, topology: "SystemTopology | None" = None):
        self.problem = problem
        self.plan = plan
        self.slots = tuple(slots)
        _require_tiling(problem, self.slots)
        self.groups = tuple(groups)
        self.topology = topology
        #: The GPUs the program runs on, in slot order.
        self.active = tuple(dict.fromkeys(slot.gpu for slot in self.slots))
        self.contended = (() if topology is None or len(self.active) < 2
                          else tuple(topology.contended(self.active)))
        self.launches = tuple(
            op for _, _, stages in self.groups for _, ops in stages
            for op in ops if isinstance(op, Launch)
        )
        self._placed = tuple(s for s in self.slots if s.group < 0)
        self._frames = tuple(
            tuple(s for s in self.slots if s.group == j)
            for j in range(len(self.groups))
        )

    def place(self, scope: AllocationScope, batch: np.ndarray | None) -> Placed:
        """The call's placed buffers: the result array allocated, each
        slot's portion of ``batch`` uploaded into its portion of it or
        the slot allocated, or every slot virtual when ``batch is None``."""
        buffers = Placed()
        buffers.program = self
        if batch is None:
            buffers.output = None
            for slot in self._placed:
                buffers.append(scope.alloc(slot.gpu, slot.shape, slot.dtype,
                                           virtual=True))
            return buffers
        problem = self.problem
        out = buffers.output = np.empty((problem.G, problem.N), problem.dtype)
        for slot in self._placed:
            source = slot.source
            if source is None:
                buffers.append(scope.alloc(slot.gpu, slot.shape, slot.dtype,
                                           fill=slot.fill))
            else:
                buffers.append(scope.upload(slot.gpu, batch[source],
                                            out=out[source]))
        return buffers

    def run(self, trace: Trace, scope: AllocationScope, buffers: Placed,
            executor: "ScanExecutor") -> None:
        """Allocate each group's buffers and run every op (all buffers
        real or all virtual), with the contended GPUs derated."""
        if self.contended:
            with self.topology.activate(self.active, self.contended):
                self._run(trace, scope, buffers, executor)
        else:
            self._run(trace, scope, buffers, executor)

    def _run(self, trace: Trace, scope: AllocationScope, buffers: Placed,
             executor: "ScanExecutor") -> None:
        virtual = buffers.output is None
        for (span, attrs, stages), frame in zip(self.groups, self._frames):
            with obs.span(span, **attrs) if span else NULL_SPAN:
                for slot in frame:
                    buffers.append(scope.alloc(
                        slot.gpu, slot.shape, slot.dtype,
                        virtual=virtual, fill=slot.fill,
                    ))
                for name, ops in stages:
                    with obs.span(name):
                        for op in ops:
                            op.run(trace, buffers, executor)


class SingleGPUExecutor(ScanExecutor):
    """A one-GPU executor: its program's slots all live on ``gpu``, and
    its one op group runs under no span of its own."""

    def __init__(
        self,
        gpu: "GPU",
        K: int | None = None,
        stage1_template: KernelParams | None = None,
    ):
        self.gpu = gpu
        self.placement = Placement.single(gpu)
        self.K = K
        self.stage1_template = stage1_template

    def _arch(self) -> GPUArchitecture:
        return self.gpu.arch


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class ProposalSpec:
    """One registered proposal: identity, construction, capabilities."""

    name: str
    result_label: str
    summary: str
    builder: Callable[["SystemTopology", NodeConfig, int | None], ScanExecutor]
    #: Whether the empirical K sweep applies (``pp`` solves independent
    #: sub-batches and the chained scan pins K low, so neither sweeps).
    tunable: bool = True
    paper_ref: str = ""
    order: int = 100
    #: Full passes over device memory the algorithm costs (the three-kernel
    #: pipeline reads+writes ~3N bytes = 3 passes; single-pass variants ~2).
    memory_passes: float = 3.0
    #: Whether the executor spreads one problem across multiple GPUs.
    multi_gpu: bool = True
    #: Whether ``estimate()`` reproduces ``run()`` analytically (all current
    #: proposals do; the flag makes the guarantee queryable and printable).
    supports_estimate: bool = True

    def build(
        self, topology: "SystemTopology", node: NodeConfig, K: int | None = None
    ) -> ScanExecutor:
        return self.builder(topology, node, K)


_REGISTRY: dict[str, ProposalSpec] = {}


def register_proposal(spec: ProposalSpec) -> ProposalSpec:
    """Add one proposal to the registry (idempotent per name)."""
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    # Executor modules register on import; importing them here (lazily, to
    # avoid a cycle at module load) guarantees the registry is populated
    # whichever entry point asks first.
    import repro.core.single_gpu  # noqa: F401
    import repro.core.multi_gpu  # noqa: F401
    import repro.core.prioritized  # noqa: F401
    import repro.core.multi_node  # noqa: F401
    import repro.core.chained  # noqa: F401
    import repro.core.single_pass  # noqa: F401


def proposal_specs() -> tuple[ProposalSpec, ...]:
    """Every registered proposal, in presentation order."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY.values(), key=lambda s: s.order))


def proposal_names() -> tuple[str, ...]:
    """The registered proposal names, in presentation order."""
    return tuple(spec.name for spec in proposal_specs())


def get_proposal(name: str) -> ProposalSpec:
    """Look one proposal up, with the canonical unknown-name error."""
    _ensure_registered()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown proposal {name!r}; use auto/{'/'.join(proposal_names())}"
        )
    return spec


def build_executor(
    name: str,
    topology: "SystemTopology",
    node: NodeConfig,
    K: int | None = None,
) -> ScanExecutor:
    """Construct the executor serving ``name`` on ``topology``."""
    return get_proposal(name).build(topology, node, K)
