"""The unified request→plan→placement→execute pipeline behind every proposal.

Historically each proposal (Scan-SP, Scan-MPS, Scan-MP-PC, the multi-node
variant, the problem-parallel Case 1 and the chained-scan extension) was a
self-contained executor class hand-rolling its own plan cache, ``run()``,
``estimate()`` and result assembly. Production scan dispatch layers (CUB's
``DeviceScan``, ModernGPU's transforms) centralise exactly this: one tuned
dispatch path that every entry point funnels through. This module is that
path:

- :class:`ScanRequest` — one value object describing a scan invocation:
  the problem, the (optional) host batch, the placement knobs and the
  analytic/functional switch.
- :class:`PlanResolver` — the single keyed plan cache. A plan is a pure
  function of ``(arch, problem, parts, g_local, K, template, K-space)``;
  resolving one does the premise template derivation, the template shrink
  and the K-space search in one place, memoised for every executor at
  once (warm serving re-plans nothing, whichever executor asks).
- :class:`Placement` — which GPUs execute a request and how they are
  grouped (single device, one node group, one group per PCIe network, or
  a whole cluster), extracted from the executors' constructors.
- :class:`ScanExecutor` — the template-method base class. ``execute()``
  owns coerce → plan → upload → device flow → collect → result assembly;
  a subclass supplies only its buffer placement, its device flow and its
  config summary. ``run()`` and ``estimate()`` are thin wrappers that
  build the request — the analytic estimate is the *same* pipeline with
  virtual arrays and ``functional=False``, so the two paths cannot drift.
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
from repro.util.ints import is_power_of_two

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import GPU
    from repro.interconnect.topology import SystemTopology


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
    if not arr.dtype.isnative:
        arr = arr.astype(arr.dtype.newbyteorder("="))
    if arr.ndim == 1:
        arr = arr[None, :]
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
    from repro.primitives.operators import resolve_operator
    from repro.util.ints import next_power_of_two

    if not rows:
        raise ConfigurationError("pad_rows_to_batch needs at least one row")
    if not is_power_of_two(n):
        raise ConfigurationError(f"padded row length must be a power of two, got {n}")
    op = resolve_operator(operator)
    dtype = np.dtype(dtype if dtype is not None else rows[0].dtype)
    g = next_power_of_two(len(rows))
    batch = np.full((g, n), op.identity(dtype), dtype=dtype)
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

    ``batch is None`` means the analytic path: no host data, virtual
    device buffers, closed-form kernel stats (``functional`` is then
    False). ``node``, ``proposal`` and ``K`` are the placement knobs the
    session keys its executor cache on; executors built directly carry
    those choices in their constructors and ignore the fields.
    """

    problem: ProblemConfig
    batch: np.ndarray | None = field(default=None, compare=False, repr=False)
    node: NodeConfig | None = None
    proposal: str = "auto"
    K: int | str | None = None
    collect: bool = True
    functional: bool = True

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
        g, n = batch.shape
        problem = ProblemConfig.from_sizes(
            N=n, G=g, dtype=batch.dtype, operator=operator, inclusive=inclusive
        )
        return cls(
            problem=problem, batch=batch, node=node, proposal=proposal,
            K=K, collect=collect, functional=True,
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
            K=K, collect=False, functional=False,
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
            k = spec.K
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
    functional and analytic paths differ *only* in the ``functional``
    flag threaded through, so their traces are identical by construction.

    Subclasses provide:

    - :meth:`_plan_spec` — the proposal's :class:`PlanSpec` (how many
      GPUs share a problem, which premise equation bounds K, ...);
    - :meth:`_place_buffers` — upload the batch portions (or reserve
      virtual buffers when ``request.batch is None``);
    - :meth:`_device_flow` — the timed region: kernels + communication;
    - :meth:`_collect_output` — reassemble the host batch;
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
        """The template method: coerce → plan → place → flow → collect."""
        problem = request.problem
        plan = self.plan_for(problem)
        with AllocationScope() as scope:
            if request.functional:
                with obs.span("upload"):
                    buffers = self._place_buffers(scope, plan, request)
            else:
                buffers = self._place_buffers(scope, plan, request)
            trace = self._device_flow(buffers, plan, functional=request.functional)
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
    def _device_flow(self, buffers, plan: ExecutionPlan,
                     functional: bool = True) -> Trace:
        """The timed region over resident buffers."""

    @abstractmethod
    def _collect_output(self, buffers) -> np.ndarray:
        """Reassemble the scanned host batch from the device buffers."""

    @abstractmethod
    def _describe(self, problem: ProblemConfig, plan: ExecutionPlan) -> dict:
        """The proposal's result config (K, placement counts, gpu ids)."""


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
