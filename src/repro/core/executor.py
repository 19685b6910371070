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
  function of ``(arch, problem, parts, g_local, K, template, K-space)``;
  resolving one does the premise template derivation, the template shrink
  and the K-space search in one place, memoised for every executor at
  once (warm serving re-plans nothing, whichever executor asks).
- :class:`Placement` — which GPUs execute a request and how they are
  grouped (single device, one node group, one group per PCIe network, or
  a whole cluster), extracted from the executors' constructors.
- :class:`ScanExecutor` — the template-method base class. ``execute()``
  owns plan → upload → device flow → collect → result assembly;
  a subclass supplies only its buffer placement, its device flow and its
  config summary. ``run()`` and ``estimate()`` are thin wrappers that
  build the request — the analytic estimate is the *same* pipeline with
  virtual arrays, so the two paths cannot drift.
- :class:`LaunchProgram` — a single-GPU device flow held per plan: its
  buffer slots, its launch steps and the kernel bodies bound to the pool
  blocks it was handed, so a warm call derives nothing
  (:class:`SingleGPUExecutor`, and ``pp`` through its workers).
- the **proposal registry** — the single source of truth mapping proposal
  names to executors, replacing the session's constructor if-chain; the
  session, the CLI and the docs all read it.

Behaviour is bit-identical to the pre-refactor executors: traces,
simulated times and Figure-14 phase breakdowns do not change.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
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
from repro.util.hotpath import fast_enabled
from repro.util.ints import is_power_of_two, next_power_of_two

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import GPU
    from repro.interconnect.topology import SystemTopology

#: Bound on the plans one executor holds (:meth:`ScanExecutor._held_plan`);
#: a full map is dropped and refilled by later calls.
_HELD_PLANS_CAP = 64


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

    Plans are pure functions of ``(arch, spec)``: the premise-derived
    template (or the explicit override) is shrunk to the local portion,
    the K request is resolved against the premise search space, and the
    three-stage grid is built — once. Every executor of every session
    shares this memo, so warm serving re-plans nothing regardless of
    which executor class asks.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[GPUArchitecture, PlanSpec], ExecutionPlan] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        self._cache.clear()
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
        """
        key = (arch, spec)
        if key in self._cache:
            return False
        self._cache[key] = plan
        return True

    def resolve(self, arch: GPUArchitecture, spec: PlanSpec) -> ExecutionPlan:
        """The memoised template-shrink + K-space resolution + grid build."""
        key = (arch, spec)
        plan = self._cache.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        self.misses += 1
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
        plan = build_execution_plan(
            arch,
            problem,
            K=k,
            gpus_sharing_problem=spec.parts,
            g_local=spec.g_local,
            stage1_template=template,
        )
        self._cache[key] = plan
        return plan


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

    ``execute(request)`` owns the shared skeleton — resolve the plan,
    place buffers (real uploads or virtual reservations), run the device
    flow, collect the output, assemble the :class:`ScanResult`. The
    functional and analytic paths differ *only* in their buffers: every
    launch and transfer is priced from the same closed forms, and virtual
    buffers run no body and move no data, so their traces are identical
    by construction.

    Subclasses provide:

    - :meth:`_plan_spec` — the proposal's :class:`PlanSpec` (how many
      GPUs share a problem, which premise equation bounds K, ...);
    - :meth:`_place_buffers` — upload the batch portions (or reserve
      virtual buffers when ``request.batch is None``);
    - :meth:`_device_flow` — the timed region: kernels + communication;
    - :meth:`_collect_output` — reassemble the host batch;
    - :meth:`_describe` — the proposal's result config dict.

    A :class:`SingleGPUExecutor` holds its placement and launches as a
    :class:`LaunchProgram` per plan instead of deriving them per call.
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
    #: ``problem -> (resolver, arch, plan)``: the plans :meth:`execute`
    #: resolved, created on first use (see :meth:`_held_plan`).
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
        """The template method: plan → place → flow → collect.

        ``request`` is already validated (:meth:`ScanRequest.from_host`,
        :meth:`ScanRequest.analytic` or the session's own checks).
        """
        problem = request.problem
        plan = self._held_plan(problem)
        with AllocationScope() as scope:
            if request.functional:
                with obs.span("upload"):
                    buffers = self._place_buffers(scope, plan, request)
            else:
                buffers = self._place_buffers(scope, plan, request)
            trace = self._device_flow(buffers, plan)
            output = None
            if request.functional and request.collect:
                with obs.span("collect"):
                    output = self._collect_output(buffers)
        config = self._describe(problem, plan)
        if not request.functional:
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

    def _held_plan(self, problem: ProblemConfig) -> ExecutionPlan:
        """:meth:`plan_for`, kept per problem while the resolver and the
        architecture are the objects that resolved it.

        A warm call then builds no :class:`PlanSpec` and asks no resolver.
        Swapping ``resolver`` or the architecture re-resolves.
        """
        resolver, arch = self.resolver, self._arch()
        held = self._held
        if held is None:
            held = self._held = {}
        hit = held.get(problem)
        if hit is not None and hit[0] is resolver and hit[1] is arch:
            return hit[2]
        plan = self.plan_for(problem)
        if len(held) >= _HELD_PLANS_CAP:
            held.clear()
        held[problem] = (resolver, arch, plan)
        return plan

    # ----------------------------------------------------------------- hooks

    @abstractmethod
    def _arch(self) -> GPUArchitecture:
        """The architecture plans are derived against."""

    @abstractmethod
    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        """The proposal's normalised plan parameters for ``problem``."""

    @abstractmethod
    def _place_buffers(self, scope: AllocationScope, plan: ExecutionPlan,
                       request: ScanRequest):
        """Upload the batch (or reserve virtual buffers) onto the placement."""

    @abstractmethod
    def _device_flow(self, buffers, plan: ExecutionPlan) -> Trace:
        """The timed region over resident (or virtual) buffers."""

    @abstractmethod
    def _collect_output(self, buffers) -> np.ndarray:
        """Reassemble the scanned host batch from the device buffers."""

    @abstractmethod
    def _describe(self, problem: ProblemConfig, plan: ExecutionPlan) -> dict:
        """The proposal's result config (K, placement counts, gpu ids)."""


# ------------------------------------------------------------------ programs


class LaunchProgram:
    """One GPU's device flow for one plan, held between calls.

    A single-GPU flow is a fixed list of launches over a fixed set of
    buffers, so everything but the data is derived once, here:

    - ``slots`` are the buffers a call places, as ``(shape, dtype, fill)``.
      Slot 0 receives the host batch; the others are allocated (``fill``
      initialises one, ``None`` leaves recycled contents).
    - ``stages`` are ``(span, launches)`` pairs, each launch a
      ``(slots, step)`` pair: the :class:`~repro.core.kernels.LaunchStep`
      and the slots whose storage its body binds. A stage's launches run
      inside one obs span.

    Buffers still come from the device allocator and go back to it on
    every call (:meth:`place` runs inside the caller's
    :class:`AllocationScope`), so pool counters, poisoning and capacity
    checks are per call. The bodies are not: they are bound to the
    storage of the buffers the program was handed and kept while a call
    is handed the same pool blocks under the same ``fast_paths`` state.
    Any other call rebinds each step right before it launches, as a
    per-call flow would. Unpooled storage is fresh on every call, so
    its bodies are bound per call and never held. A call on virtual
    buffers (an estimate) runs the same launches with no body.
    """

    __slots__ = ("gpu", "arch", "plan", "slots", "stages",
                 "_fast", "_blocks", "_bodies")

    def __init__(self, gpu: "GPU", plan: ExecutionPlan, slots, stages):
        self.gpu = gpu
        #: The architecture the steps' specs were built for.
        self.arch = gpu.arch
        self.plan = plan
        self.slots = tuple(slots)
        self.stages = tuple(stages)
        self._fast: bool | None = None
        self._blocks: tuple | None = None
        self._bodies: tuple | None = None

    def place(self, scope: AllocationScope, batch: np.ndarray | None) -> list:
        """The call's buffers: ``batch`` uploaded into slot 0 and the other
        slots allocated, or every slot virtual when ``batch is None``."""
        gpu = self.gpu
        if batch is None:
            return [scope.alloc(gpu, shape, dtype, virtual=True)
                    for shape, dtype, _ in self.slots]
        buffers = [scope.upload(gpu, batch)]
        for shape, dtype, fill in self.slots[1:]:
            buffers.append(scope.alloc(gpu, shape, dtype, fill=fill))
        return buffers

    def launch(self, trace: Trace, buffers) -> None:
        """Run every step over ``buffers`` (all real or all virtual)."""
        gpu = self.gpu
        real = not buffers[0].virtual
        held = real and self._holds(buffers)
        bodies = self._bodies if held else []
        i = 0
        for span, launches in self.stages:
            with obs.span(span):
                for slots, step in launches:
                    if held:
                        body = bodies[i]
                    elif real:
                        body = step.bind(*[buffers[s].data for s in slots])
                        bodies.append(body)
                    else:
                        body = None
                    step.run(trace, gpu, body)
                    i += 1
        if real and not held:
            self._hold(buffers, tuple(bodies))

    def _holds(self, buffers) -> bool:
        """Whether the held bodies work on ``buffers``' storage."""
        blocks = self._blocks
        if blocks is None or self._fast is not fast_enabled():
            return False
        for buffer, block in zip(buffers, blocks):
            if buffer.pool_block is not block:
                return False
        return True

    def _hold(self, buffers, bodies: tuple) -> None:
        blocks = tuple(buffer.pool_block for buffer in buffers)
        if any(block is None for block in blocks):
            self._fast = self._blocks = self._bodies = None
            return
        self._fast, self._blocks, self._bodies = fast_enabled(), blocks, bodies


class SingleGPUExecutor(ScanExecutor):
    """A one-GPU executor whose device flow is a held :class:`LaunchProgram`.

    Subclasses supply :meth:`_slots` and :meth:`_stages`. :meth:`program`
    builds a plan's program on its first call and keeps it while the plan
    and the architecture are the objects it was built for; programs are
    keyed by the plan object, so a fan-out executor (``pp``) can hand its
    workers a plan it resolved itself.
    """

    #: ``id(plan) -> program``, created on first use (see :meth:`program`).
    _programs: dict | None = None

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

    def program(self, plan: ExecutionPlan) -> LaunchProgram:
        """The held program of ``plan`` on this executor's GPU."""
        programs = self._programs
        if programs is None:
            programs = self._programs = {}
        program = programs.get(id(plan))
        if (program is None or program.plan is not plan
                or program.arch is not self.gpu.arch):
            program = LaunchProgram(self.gpu, plan, self._slots(plan),
                                    self._stages(plan))
            if len(programs) >= _HELD_PLANS_CAP:
                programs.clear()
            programs[id(plan)] = program
        return program

    @abstractmethod
    def _slots(self, plan: ExecutionPlan):
        """The program's buffer slots (slot 0: the batch)."""

    @abstractmethod
    def _stages(self, plan: ExecutionPlan):
        """The program's ``(span, ((slots, step), ...))`` stages."""

    def _place_buffers(self, scope: AllocationScope, plan: ExecutionPlan,
                       request: ScanRequest):
        return self.program(plan).place(scope, request.batch)

    def _device_flow(self, buffers, plan: ExecutionPlan) -> Trace:
        trace = Trace()
        self.program(plan).launch(trace, buffers)
        return trace

    def _collect_output(self, buffers) -> np.ndarray:
        return buffers[0].to_host()


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
