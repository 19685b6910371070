"""Scan-MPS: Multi-GPU Problem Scattering (Section 4.1, Figures 6-7).

Every problem is split across all ``W`` participating GPUs of one node;
each GPU computes Stage 1 over its ``N/W``-element portion, the chunk
reductions are collected into GPU 0's auxiliary array (P2P inside a PCIe
network, host-staged across networks), GPU 0 runs Stage 2 alone
("empirically, executing this second kernel on a single GPU has better
performance than splitting its execution"), the scanned offsets travel
back, and every GPU finishes with Stage 3 on its portion.

Also implements the paper's *Case 1* (problem parallelism): G problems
distributed across GPUs with no inter-GPU communication at all.

Both executors ride the shared request→plan→placement→execute pipeline of
:class:`repro.core.executor.ScanExecutor`; this module supplies the
scattering flow (also reused by Scan-MP-PC) and the per-GPU fan-out.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.device import GPU
from repro.gpusim.events import Trace
from repro.gpusim.memory import AllocationScope, DeviceArray
from repro.interconnect.topology import SystemTopology
from repro.interconnect.transfer import TransferCostParams, TransferEngine
from repro.core.executor import (
    Placement,
    PlanSpec,
    ProposalSpec,
    ScanExecutor,
    ScanRequest,
    register_proposal,
)
from repro.core.kernels import (
    launch_chunk_reduce,
    launch_intermediate_scan,
    launch_scan_add,
)
from repro.core.params import ExecutionPlan, KernelParams, NodeConfig, ProblemConfig
from repro.core.single_gpu import ScanSP


def upload_portions(
    gpus: list[GPU],
    batch: np.ndarray,
    parts: int,
    scope: AllocationScope | None = None,
) -> list[DeviceArray]:
    """Slice each problem into ``parts`` contiguous portions, one per GPU.

    Each GPU uploads its column slice of ``batch`` straight from the
    strided view. When a ``scope`` is given the uploads are tracked for
    exception-safe release.
    """
    g, n = batch.shape
    if n % parts != 0:
        raise ConfigurationError(f"N={n} not divisible into {parts} portions")
    n_local = n // parts
    portions = []
    for w, gpu in enumerate(gpus):
        chunk = batch[:, w * n_local : (w + 1) * n_local]
        buf = scope.upload(gpu, chunk) if scope is not None else gpu.upload(chunk)
        portions.append(buf)
    return portions


def collect_portions(
    portions: list[DeviceArray], out: np.ndarray | None = None
) -> np.ndarray:
    """Copy per-GPU portions side by side into a host (G, N) batch.

    Each portion is copied once, straight into its column slice of
    ``out`` (a fresh array when ``None``).
    """
    g, n_local = portions[0].shape
    if out is None:
        out = np.empty((g, n_local * len(portions)), dtype=portions[0].dtype)
    for w, portion in enumerate(portions):
        portion.to_host(out=out[:, w * n_local : (w + 1) * n_local])
    return out


def problem_scattering_flow(
    trace: Trace,
    engine: TransferEngine,
    topology: SystemTopology,
    gpus: list[GPU],
    portions: list[DeviceArray],
    plan: ExecutionPlan,
    dispatch_counter: dict | None = None,
    overlap: bool = False,
) -> None:
    """The three-stage scattering flow over one GPU group (Figure 7).

    ``gpus[0]`` acts as the group master holding the shared auxiliary
    array; every GPU holds one ``(g_local, n_local)`` portion of every
    problem the group works on. Records all kernels/transfers into
    ``trace`` under the phases ``stage1``/``aux_gather``/``stage2``/
    ``aux_scatter``/``stage3``. Used by both Scan-MPS (group = all W GPUs)
    and Scan-MP-PC (one group per PCIe network).

    ``overlap=True`` models the paper's communication/computation overlap
    ("data are copied between these devices asynchronously along the
    shortest PCI-e path, enabling communication-computation overlapping"):
    the auxiliary gather shares Stage 1's phase (UVA direct writes stream
    out while blocks compute) and the scatter shares Stage 3's (each GPU
    starts as its slice lands). Off by default to keep the Figure-14
    phase accounting comparable to the paper's.

    Virtual ``portions`` (an estimate) get virtual auxiliary arrays, so
    the flow records the same launches and copies and moves no data.
    """
    if len(gpus) != len(portions):
        raise ConfigurationError(
            f"{len(gpus)} GPUs but {len(portions)} portions"
        )
    if len(gpus) != plan.gpus_sharing_problem:
        raise ConfigurationError(
            f"plan shares each problem among {plan.gpus_sharing_problem} GPUs "
            f"but the group has {len(gpus)}"
        )
    g_local = portions[0].shape[0]
    bx = plan.chunks_per_gpu
    w = len(gpus)
    root = gpus[0]
    gather_phase = "stage1" if overlap else "aux_gather"
    scatter_phase = "stage3" if overlap else "aux_scatter"
    # Serial dispatch ordinals, shared across groups driven by one host
    # (the MP-PC executor passes one counter for all its groups).
    counter = {} if dispatch_counter is None else dispatch_counter

    def dispatch(phase, gpu):
        key = (topology.slot(gpu).node, phase)
        counter[key] = counter.get(key, 0) + 1
        engine.record_dispatch(trace, phase, gpu, ordinal=counter[key])
    scope = AllocationScope()
    virtual = portions[0].virtual
    aux_global = scope.alloc(
        root, (g_local, plan.chunks_total), plan.problem.dtype, virtual=virtual
    )
    aux_locals: dict[int, DeviceArray] = {
        i: scope.alloc(gpu, (g_local, bx), plan.problem.dtype, virtual=virtual)
        for i, gpu in enumerate(gpus)
        if i != 0
    }
    try:
        # Stage 1: all GPUs reduce their chunks concurrently. The master
        # writes straight into the shared auxiliary array (it owns it).
        with obs.span("stage1"):
            launch_chunk_reduce(
                trace, root, portions[0], aux_global, plan,
                chunk_column_offset=0, phase="stage1",
            )
            dispatch("stage1", root)
            for i in range(1, w):
                launch_chunk_reduce(
                    trace, gpus[i], portions[i], aux_locals[i], plan,
                    chunk_column_offset=0, phase="stage1",
                )
                dispatch("stage1", gpus[i])

        # Collect chunk reductions into the master's auxiliary array. P2P
        # routes are written directly by the kernel (UVA) — one bulk
        # message; host-staged routes need one explicit copy per problem's
        # auxiliary row (the Figure-9 W=8 cliff).
        with obs.span(gather_phase):
            for i in range(1, w):
                src = aux_locals[i]
                dst = aux_global.view(slice(None), slice(i * bx, (i + 1) * bx))
                messages = 1 if topology.p2p_usable(gpus[i], root) else g_local
                engine.copy(trace, gather_phase, src, dst, messages=messages)

        # Stage 2 on the master alone.
        with obs.span("stage2"):
            launch_intermediate_scan(trace, root, aux_global, plan, phase="stage2")
            dispatch("stage2", root)

        # Return each GPU's slice of the scanned offsets.
        with obs.span(scatter_phase):
            for i in range(1, w):
                src = aux_global.view(slice(None), slice(i * bx, (i + 1) * bx))
                dst = aux_locals[i]
                messages = 1 if topology.p2p_usable(root, gpus[i]) else g_local
                engine.copy(trace, scatter_phase, src, dst, messages=messages)

        # Stage 3 everywhere.
        with obs.span("stage3"):
            launch_scan_add(
                trace, root, portions[0], aux_global, plan,
                chunk_column_offset=0, phase="stage3",
            )
            dispatch("stage3", root)
            for i in range(1, w):
                launch_scan_add(
                    trace, gpus[i], portions[i], aux_locals[i], plan,
                    chunk_column_offset=0, phase="stage3",
                )
                dispatch("stage3", gpus[i])
    finally:
        scope.release()


class ScanMPS(ScanExecutor):
    """Multi-GPU Problem Scattering executor (single node)."""

    proposal = "mps"
    result_label = "scan-mps"

    def __init__(
        self,
        topology: SystemTopology,
        node: NodeConfig,
        K: int | None = None,
        stage1_template: KernelParams | None = None,
        transfer_params: TransferCostParams | None = None,
        node_index: int = 0,
        overlap: bool = False,
    ):
        if node.M != 1:
            raise ConfigurationError(
                "ScanMPS is the single-node executor; use ScanMultiNodeMPS for M > 1"
            )
        self.topology = topology
        self.node = node
        self.K = K
        self.stage1_template = stage1_template
        self.engine = TransferEngine(topology, transfer_params)
        self.overlap = overlap
        self.placement = Placement.node_group(topology, node, node_index)

    # ----------------------------------------------------------------- hooks

    def _arch(self) -> GPUArchitecture:
        return self.topology.arch

    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        return PlanSpec(
            problem=problem, parts=self.node.W, K=self.K,
            template=self.stage1_template, k_space="mps", node=self.node,
            k_pick="max", clamp_chunks=False,
        )

    def _place_buffers(
        self, scope: AllocationScope, plan: ExecutionPlan, request: ScanRequest
    ):
        problem = request.problem
        if request.batch is None:
            n_local = problem.N // self.node.W
            return [
                scope.alloc(gpu, (problem.G, n_local), problem.dtype, virtual=True)
                for gpu in self.gpus
            ]
        return upload_portions(self.gpus, request.batch, self.node.W, scope)

    def _device_flow(self, buffers, plan: ExecutionPlan) -> Trace:
        return self.run_on_device(buffers, plan)

    def _collect_output(self, buffers) -> np.ndarray:
        return collect_portions(buffers)

    def _describe(self, problem: ProblemConfig, plan: ExecutionPlan) -> dict:
        return {
            "K": plan.stage1.params.K,
            "W": self.node.W,
            "V": self.node.V,
            "Y": self.node.Y,
            "M": 1,
            "gpu_ids": [g.id for g in self.gpus],
        }

    # ------------------------------------------------------------ device flow

    def run_on_device(
        self, portions: list[DeviceArray], plan: ExecutionPlan
    ) -> Trace:
        """The timed region over resident per-GPU portions."""
        if len(portions) != self.node.W:
            raise ConfigurationError(
                f"expected {self.node.W} portions, got {len(portions)}"
            )
        trace = Trace()
        with self.topology.activate(self.gpus):
            problem_scattering_flow(
                trace, self.engine, self.topology, self.gpus, portions, plan,
                overlap=self.overlap,
            )
        return trace


class ScanProblemParallel(ScanExecutor):
    """The paper's Case 1: independent problems, one Scan-SP per GPU.

    "Solving the Case 1 is trivial, simply executing the strategy analyzed
    in Section 3 through several GPUs, since there is no communication
    among GPUs." G problems are dealt round-robin-free (contiguous slabs)
    onto W GPUs; per-GPU batches run concurrently. Each worker runs its
    held Scan-SP program, so a warm batch binds nothing.
    """

    proposal = "pp"
    result_label = "scan-pp"

    def __init__(
        self,
        topology: SystemTopology,
        node: NodeConfig,
        K: int | None = None,
        stage1_template: KernelParams | None = None,
    ):
        self.topology = topology
        self.node = node
        self.K = K
        self.stage1_template = stage1_template
        self.placement = Placement.node_group(topology, node)
        # One persistent Scan-SP worker per GPU; workers share the global
        # plan resolver, so repeated batches re-plan nothing.
        self._workers: dict[int, ScanSP] = {}

    def _worker(self, gpu: GPU) -> ScanSP:
        worker = self._workers.get(gpu.id)
        if worker is None:
            worker = ScanSP(gpu, K=self.K, stage1_template=self.stage1_template)
            self._workers[gpu.id] = worker
        return worker

    def _split(self, problem: ProblemConfig) -> tuple[int, int]:
        """(workers used, problems per GPU) — never more GPUs than problems."""
        w = min(self.node.W, problem.G)
        if problem.G % w != 0:
            raise ConfigurationError(f"G={problem.G} must divide among {w} GPUs")
        return w, problem.G // w

    # ----------------------------------------------------------------- hooks

    def _arch(self) -> GPUArchitecture:
        return self.topology.arch

    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        # Each worker solves an independent (g_per_gpu, N) sub-batch with
        # the Scan-SP plan; the result plan is that sub-problem plan.
        w, g_per_gpu = self._split(problem)
        sub = ProblemConfig.from_sizes(
            N=problem.N, G=g_per_gpu, dtype=problem.dtype,
            operator=problem.operator, inclusive=problem.inclusive,
        )
        return PlanSpec(
            problem=sub, parts=1, K=self.K, template=self.stage1_template,
            k_space="sp", k_pick="max", clamp_chunks=True,
        )

    def _place_buffers(
        self, scope: AllocationScope, plan: ExecutionPlan, request: ScanRequest
    ):
        # Each worker's (gpu, data, aux): its slab in its program's slots.
        w, g_per_gpu = self._split(request.problem)
        batch = request.batch
        buffers = []
        for i, gpu in enumerate(self.gpus[:w]):
            slab = (None if batch is None
                    else batch[i * g_per_gpu:(i + 1) * g_per_gpu])
            program = self._worker(gpu).program(plan)
            buffers.append((gpu, *program.place(scope, slab)))
        return buffers

    def _device_flow(self, buffers, plan: ExecutionPlan) -> Trace:
        trace = Trace()
        active = [gpu for gpu, _, _ in buffers]
        with self.topology.activate(active):
            for gpu, data, aux in buffers:
                with obs.span("pp.worker", gpu=gpu.id):
                    trace.merge(self._worker(gpu).run_on_device(data, aux, plan))
        return trace

    def _collect_output(self, buffers) -> np.ndarray:
        g_per_gpu, n = buffers[0][1].shape
        out = np.empty((g_per_gpu * len(buffers), n), dtype=buffers[0][1].dtype)
        for i, (_, data, _) in enumerate(buffers):
            data.to_host(out=out[i * g_per_gpu : (i + 1) * g_per_gpu])
        return out

    def _describe(self, problem: ProblemConfig, plan: ExecutionPlan) -> dict:
        w, g_per_gpu = self._split(problem)
        return {"W": w, "G_per_gpu": g_per_gpu,
                "gpu_ids": [g.id for g in self.gpus[:w]]}


register_proposal(ProposalSpec(
    name="pp",
    result_label="scan-pp",
    summary="problem parallelism: independent Scan-SP per GPU (Case 1)",
    builder=lambda topology, node, K: ScanProblemParallel(topology, node, K=K),
    tunable=False,
    paper_ref="Section 4, Case 1; Figure 12",
    order=20,
))

register_proposal(ProposalSpec(
    name="mps",
    result_label="scan-mps",
    summary="multi-GPU problem scattering across one node (Section 4.1)",
    builder=lambda topology, node, K: ScanMPS(topology, node, K=K),
    tunable=True,
    paper_ref="Section 4.1, Figures 6-9",
    order=30,
))
