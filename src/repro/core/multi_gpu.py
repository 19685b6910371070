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
scattering flow's program (also reused by Scan-MP-PC) and the per-GPU
fan-out.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.device import GPU
from repro.interconnect.topology import SystemTopology
from repro.interconnect.transfer import TransferCostParams, TransferEngine
from repro.core.executor import (
    Copy,
    Dispatch,
    Launch,
    LaunchProgram,
    Placement,
    PlanSpec,
    ProposalSpec,
    ScanExecutor,
    Slot,
    register_proposal,
)
from repro.core.params import ExecutionPlan, KernelParams, NodeConfig, ProblemConfig
from repro.core.single_gpu import (
    three_kernel_slots,
    three_kernel_stages,
    three_kernel_steps,
)


def portion_slots(gpus: list[GPU], plan: ExecutionPlan, rows: slice) -> tuple:
    """One portion slot per GPU: the host batch's ``rows``, split into
    contiguous column slices of ``plan.n_local`` elements."""
    n_local, dtype = plan.n_local, plan.problem.dtype
    shape = (rows.stop - rows.start, n_local)
    return tuple(
        Slot(gpu, shape, dtype,
             source=(rows, slice(w * n_local, (w + 1) * n_local)))
        for w, gpu in enumerate(gpus)
    )


def scattering_slots(
    gpus: list[GPU], plan: ExecutionPlan, rows: int, group: int = 0
) -> tuple:
    """The auxiliary arrays of one scattering group, allocated at the
    start of op group ``group``: the master's shared array, then one
    ``(rows, Bx)`` array per other GPU."""
    dtype = plan.problem.dtype
    bx = plan.chunks_per_gpu
    return (Slot(gpus[0], (rows, plan.chunks_total), dtype, group=group),) + tuple(
        Slot(gpu, (rows, bx), dtype, group=group) for gpu in gpus[1:]
    )


def dispatch_op(topology: SystemTopology, ordinals: dict, phase: str,
                gpu: GPU) -> Dispatch:
    """The next serial dispatch of ``phase`` on ``gpu``'s node.

    ``ordinals`` counts per ``(node, phase)``; an executor driving several
    groups from one host per node shares one count across them.
    """
    key = (topology.slot(gpu).node, phase)
    ordinals[key] = ordinal = ordinals.get(key, 0) + 1
    return Dispatch(phase, gpu, ordinal)


def problem_scattering_flow(
    topology: SystemTopology,
    gpus: list[GPU],
    steps: tuple,
    rows: int,
    portions: int,
    aux: int,
    ordinals: dict,
    overlap: bool = False,
) -> tuple:
    """The three-stage scattering flow over one GPU group (Figure 7), as
    program stages.

    ``steps`` are the plan's three kernel steps over ``rows`` problems
    (:func:`~repro.core.single_gpu.three_kernel_steps`), shared by every
    GPU of the group. ``gpus[0]`` acts as the group master holding the
    shared auxiliary array; GPU ``i`` holds the ``(rows, n_local)``
    portion in slot ``portions + i`` of every problem the group works
    on, and its auxiliary array in slot ``aux + i`` (the master's is the
    shared one, from :func:`scattering_slots`). The stages record all kernels,
    dispatches and copies under the phases ``stage1``/``aux_gather``/
    ``stage2``/``aux_scatter``/``stage3``. Used by both Scan-MPS (group =
    all W GPUs) and Scan-MP-PC (one group per PCIe network).

    ``overlap=True`` models the paper's communication/computation overlap
    ("data are copied between these devices asynchronously along the
    shortest PCI-e path, enabling communication-computation overlapping"):
    the auxiliary gather shares Stage 1's phase (UVA direct writes stream
    out while blocks compute) and the scatter shares Stage 3's (each GPU
    starts as its slice lands). Off by default to keep the Figure-14
    phase accounting comparable to the paper's.
    """
    reduce_step, scan_step, add_step = steps
    plan = reduce_step.plan
    w = len(gpus)
    if w != plan.gpus_sharing_problem:
        raise ConfigurationError(
            f"plan shares each problem among {plan.gpus_sharing_problem} GPUs "
            f"but the group has {w}"
        )
    bx = plan.chunks_per_gpu
    root = gpus[0]
    gather_phase = "stage1" if overlap else "aux_gather"
    scatter_phase = "stage3" if overlap else "aux_scatter"

    def messages(src: GPU, dst: GPU) -> int:
        # P2P routes are written directly by the kernel (UVA): one bulk
        # message. Host-staged routes need one explicit copy per problem's
        # auxiliary row (the Figure-9 W=8 cliff).
        return 1 if topology.p2p_capable(src, dst) else rows

    # Stage 1: all GPUs reduce their chunks concurrently. The master
    # writes straight into the shared auxiliary array (it owns it).
    stage1 = []
    for i, gpu in enumerate(gpus):
        stage1.append(Launch(gpu, reduce_step, (portions + i, aux + i)))
        stage1.append(dispatch_op(topology, ordinals, "stage1", gpu))
    # Collect chunk reductions into the master's auxiliary array, then
    # return each GPU's slice of the scanned offsets.
    gather, scatter = [], []
    for i in range(1, w):
        column = (aux, slice(i * bx, (i + 1) * bx))
        gather.append(Copy(gather_phase, aux + i, column, (gpus[i], root),
                           rows, messages(gpus[i], root)))
        scatter.append(Copy(scatter_phase, column, aux + i, (root, gpus[i]),
                            rows, messages(root, gpus[i])))
    # Stage 2 on the master alone; Stage 3 everywhere.
    stage2 = (Launch(root, scan_step, (aux,)),
              dispatch_op(topology, ordinals, "stage2", root))
    stage3 = []
    for i, gpu in enumerate(gpus):
        stage3.append(Launch(gpu, add_step, (portions + i, aux + i)))
        stage3.append(dispatch_op(topology, ordinals, "stage3", gpu))
    return (
        ("stage1", tuple(stage1)),
        (gather_phase, tuple(gather)),
        ("stage2", stage2),
        (scatter_phase, tuple(scatter)),
        ("stage3", tuple(stage3)),
    )


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

    def _slots(self, plan: ExecutionPlan, problem: ProblemConfig):
        # Slots 0..W-1: the portions; W..2W-1: the auxiliary arrays.
        return (portion_slots(self.gpus, plan, slice(0, problem.G))
                + scattering_slots(self.gpus, plan, problem.G))

    def _stages(self, plan: ExecutionPlan, problem: ProblemConfig):
        steps = three_kernel_steps(plan, self._arch(), problem.G)
        return ((None, {}, problem_scattering_flow(
            self.topology, self.gpus, steps, problem.G, 0, self.node.W, {},
            overlap=self.overlap,
        )),)

    def _describe(self, program: LaunchProgram) -> dict:
        return {
            "K": program.plan.stage1.params.K,
            "W": self.node.W,
            "V": self.node.V,
            "Y": self.node.Y,
            "M": 1,
            "gpu_ids": [g.id for g in self.gpus],
        }


class ScanProblemParallel(ScanExecutor):
    """The paper's Case 1: independent problems, one Scan-SP per GPU.

    "Solving the Case 1 is trivial, simply executing the strategy analyzed
    in Section 3 through several GPUs, since there is no communication
    among GPUs." G problems are dealt round-robin-free (contiguous slabs)
    onto W GPUs; per-GPU batches run concurrently. One program holds every
    worker's Scan-SP launches over its slab, so a warm batch binds nothing.
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

    def _slots(self, plan: ExecutionPlan, problem: ProblemConfig):
        # Worker i: its slab in slot 2i, its auxiliary array in 2i+1.
        w, g_per_gpu = self._split(problem)
        return sum((
            three_kernel_slots(gpu, plan,
                               (slice(i * g_per_gpu, (i + 1) * g_per_gpu),))
            for i, gpu in enumerate(self.gpus[:w])
        ), ())

    def _stages(self, plan: ExecutionPlan, problem: ProblemConfig):
        w, g_per_gpu = self._split(problem)
        steps = three_kernel_steps(plan, self._arch(), g_per_gpu)
        return tuple(
            ("pp.worker", {"gpu": gpu.id},
             three_kernel_stages(gpu, steps, 2 * i, 2 * i + 1))
            for i, gpu in enumerate(self.gpus[:w])
        )

    def _describe(self, program: LaunchProgram) -> dict:
        w, g_per_gpu = self._split(program.problem)
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
