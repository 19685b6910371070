"""Multi-Node Scan-MPS: problem scattering across nodes via MPI (§4.1, §5.2).

All ``M * W`` GPUs cooperate on every problem: each holds ``N/(M*W)``
elements of each of the ``G`` problems. The flow mirrors the paper's
description exactly:

1. every GPU runs Stage 1 (chunk reduce) on its portion;
2. all MPI processes synchronise (MPI_Barrier);
3. the chunk reductions are collected on the master (GPU 0 of node 0,
   which "allocat[es] an additional array for processing the second stage
   on its device memory") with MPI_Gather;
4. the master runs Stage 2;
5. the scanned offsets return with MPI_Scatter;
6. every GPU runs Stage 3.

Intra-node legs of the collectives automatically ride P2P or host-staged
PCIe paths (CUDA-aware MPI); inter-node legs ride InfiniBand RDMA. The
phase names give exactly the Figure-14 breakdown.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gpusim.arch import GPUArchitecture
from repro.interconnect.topology import SystemTopology
from repro.interconnect.transfer import TransferCostParams, TransferEngine
from repro.mpisim.communicator import Communicator, MPICostParams
from repro.core.executor import (
    Barrier,
    Gather,
    Launch,
    LaunchProgram,
    Placement,
    PlanSpec,
    ProposalSpec,
    Relayout,
    Scatter,
    ScanExecutor,
    Slot,
    register_proposal,
)
from repro.core.multi_gpu import dispatch_op, portion_slots
from repro.core.params import ExecutionPlan, KernelParams, NodeConfig, ProblemConfig
from repro.core.single_gpu import three_kernel_steps


class ScanMultiNodeMPS(ScanExecutor):
    """Multi-node problem-scattering executor (one MPI rank per GPU)."""

    proposal = "mn-mps"
    result_label = "scan-mn-mps"

    def __init__(
        self,
        topology: SystemTopology,
        node: NodeConfig,
        K: int | None = None,
        stage1_template: KernelParams | None = None,
        mpi_params: MPICostParams | None = None,
        transfer_params: TransferCostParams | None = None,
    ):
        if node.M > topology.num_nodes:
            raise ConfigurationError(
                f"M={node.M} exceeds the machine's {topology.num_nodes} nodes"
            )
        self.topology = topology
        self.node = node
        self.K = K
        self.stage1_template = stage1_template
        self.placement = Placement.cluster(topology, node)
        self.comm = Communicator(
            topology, self.gpus, params=mpi_params, transfer_params=transfer_params
        )
        self.engine = TransferEngine(topology, transfer_params)

    @property
    def total_gpus(self) -> int:
        return self.node.M * self.node.W

    # ----------------------------------------------------------------- hooks

    def _arch(self) -> GPUArchitecture:
        return self.topology.arch

    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        # M*W GPUs cooperate on each problem; the K space sweeps the MPS
        # equation (the tuner note: "mn-mps sweeps the mps search space").
        return PlanSpec(
            problem=problem, parts=self.total_gpus, K=self.K,
            template=self.stage1_template, k_space="mps", node=self.node,
            k_pick="max", clamp_chunks=False,
        )

    def _slots(self, plan: ExecutionPlan, problem: ProblemConfig):
        # Slots 0..P-1: the portions; P..2P-1: each rank's auxiliary
        # array; 2P: the master's rank-major staging; 2P+1: the
        # problem-major array Stage 2 scans ("allocating an additional
        # array for processing the second stage on its device memory").
        parts, rows = self.total_gpus, problem.G
        bx, dtype, master = plan.chunks_per_gpu, problem.dtype, self.gpus[0]
        return (
            portion_slots(self.gpus, plan, slice(0, rows))
            + tuple(Slot(gpu, (rows, bx), dtype, group=0) for gpu in self.gpus)
            + (Slot(master, (parts, rows * bx), dtype, group=0),
               Slot(master, (rows, parts * bx), dtype, group=0))
        )

    def _stages(self, plan: ExecutionPlan, problem: ProblemConfig):
        """The timed region as program stages (Figure 14's phases, in order)."""
        parts, rows, gpus = self.total_gpus, problem.G, self.gpus
        master = gpus[0]
        aux, staging, aux_master = parts, 2 * parts, 2 * parts + 1
        ordinals: dict = {}
        reduce_step, scan_step, add_step = three_kernel_steps(
            plan, self._arch(), rows)
        split = (parts, rows, plan.chunks_per_gpu)
        ranks = tuple(range(aux, aux + parts))
        stage1, stage3 = [], []
        # Stage 1 and Stage 3 on every GPU (each node's host dispatches
        # its own W).
        for r, gpu in enumerate(gpus):
            stage1 += (Launch(gpu, reduce_step, (r, aux + r)),
                       dispatch_op(self.topology, ordinals, "stage1", gpu))
        stage2 = (Launch(master, scan_step, (aux_master,)),
                  dispatch_op(self.topology, ordinals, "stage2", master))
        for r, gpu in enumerate(gpus):
            stage3 += (Launch(gpu, add_step, (r, aux + r)),
                       dispatch_op(self.topology, ordinals, "stage3", gpu))
        return ((None, {}, (
            ("stage1", tuple(stage1)),
            # "After synchronizing all MPI processes, ..."
            ("mpi_barrier", (Barrier("mpi_barrier"),)),
            # MPI_Gather of every rank's chunk reductions to the master,
            # then the rank-major -> problem-major relayout (a cheap
            # device-side shuffle; not separately timed).
            ("mpi_gather", (Gather("mpi_gather", ranks, staging),
                            Relayout(staging, aux_master, split, True))),
            ("stage2", stage2),
            # MPI_Scatter of each rank's slice of the scanned offsets.
            ("mpi_scatter", (Relayout(aux_master, staging, split, False),
                             Scatter("mpi_scatter", staging, ranks))),
            ("stage3", tuple(stage3)),
        )),)

    def _describe(self, program: LaunchProgram) -> dict:
        return {
            "K": program.plan.stage1.params.K,
            "W": self.node.W,
            "V": self.node.V,
            "Y": self.node.Y,
            "M": self.node.M,
            "gpu_ids": [g.id for g in self.gpus],
        }


register_proposal(ProposalSpec(
    name="mn-mps",
    result_label="scan-mn-mps",
    summary="multi-node problem scattering over MPI collectives (Section 5.2)",
    builder=lambda topology, node, K: ScanMultiNodeMPS(topology, node, K=K),
    tunable=True,
    paper_ref="Section 5.2, Figures 13-14",
    order=50,
))
