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

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.events import Trace
from repro.gpusim.memory import AllocationScope, DeviceArray
from repro.interconnect.topology import SystemTopology
from repro.interconnect.transfer import TransferCostParams, TransferEngine
from repro.mpisim.communicator import Communicator, MPICostParams
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
from repro.core.multi_gpu import collect_portions, upload_portions
from repro.core.params import ExecutionPlan, KernelParams, NodeConfig, ProblemConfig


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

    def _place_buffers(
        self, scope: AllocationScope, plan: ExecutionPlan, request: ScanRequest
    ):
        problem = request.problem
        n_local = problem.N // self.total_gpus
        if request.batch is None:
            return [
                scope.alloc(gpu, (problem.G, n_local), problem.dtype, virtual=True)
                for gpu in self.gpus
            ]
        return upload_portions(self.gpus, request.batch, self.total_gpus, scope)

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
            "M": self.node.M,
            "gpu_ids": [g.id for g in self.gpus],
        }

    # ------------------------------------------------------------ device flow

    def run_on_device(self, portions: list[DeviceArray], plan: ExecutionPlan) -> Trace:
        """The timed region (Figure 14's phases, in order).

        Virtual ``portions`` (an estimate) get virtual auxiliary buffers,
        so the flow records the same launches and messages and moves no
        data.
        """
        parts = self.total_gpus
        if len(portions) != parts:
            raise ConfigurationError(f"expected {parts} portions, got {len(portions)}")
        g_local = portions[0].shape[0]
        bx = plan.chunks_per_gpu
        master = self.gpus[0]
        dtype = plan.problem.dtype
        trace = Trace()
        scope = AllocationScope()
        virtual = portions[0].virtual
        aux_locals = [
            scope.alloc(gpu, (g_local, bx), dtype, virtual=virtual)
            for gpu in self.gpus
        ]
        # Master-side buffers: rank-major staging + the problem-major array
        # Stage 2 scans.
        staging = scope.alloc(master, (parts, g_local * bx), dtype, virtual=virtual)
        aux_master = scope.alloc(master, (g_local, parts * bx), dtype, virtual=virtual)
        counter: dict = {}

        def dispatch(phase, gpu):
            key = (self.topology.slot(gpu).node, phase)
            counter[key] = counter.get(key, 0) + 1
            self.engine.record_dispatch(trace, phase, gpu, ordinal=counter[key])

        try:
            with self.topology.activate(self.gpus):
                # Stage 1 on every GPU (each node's host dispatches its own W).
                with obs.span("stage1"):
                    for gpu, portion, aux in zip(self.gpus, portions, aux_locals):
                        launch_chunk_reduce(
                            trace, gpu, portion, aux, plan,
                            chunk_column_offset=0, phase="stage1",
                        )
                        dispatch("stage1", gpu)

                # "After synchronizing all MPI processes, ..."
                with obs.span("mpi_barrier"):
                    self.comm.barrier(trace, "mpi_barrier")

                # MPI_Gather of every rank's chunk reductions to the master.
                with obs.span("mpi_gather"):
                    self.comm.gather(
                        trace, "mpi_gather", aux_locals, staging, root=0,
                    )
                    # Rank-major -> problem-major relayout on the master (cheap
                    # device-side shuffle; not separately timed).
                    if not virtual:
                        aux_master.data[...] = (
                            staging.data.reshape(parts, g_local, bx)
                            .transpose(1, 0, 2)
                            .reshape(g_local, parts * bx)
                        )

                # Stage 2 on the master only.
                with obs.span("stage2"):
                    launch_intermediate_scan(
                        trace, master, aux_master, plan, phase="stage2",
                    )
                    dispatch("stage2", master)

                # MPI_Scatter of each rank's slice of the scanned offsets.
                with obs.span("mpi_scatter"):
                    if not virtual:
                        staging.data[...] = (
                            aux_master.data.reshape(g_local, parts, bx)
                            .transpose(1, 0, 2)
                            .reshape(parts, g_local * bx)
                        )
                    self.comm.scatter(
                        trace, "mpi_scatter", staging, aux_locals, root=0,
                    )

                # Stage 3 on every GPU.
                with obs.span("stage3"):
                    for gpu, portion, aux in zip(self.gpus, portions, aux_locals):
                        launch_scan_add(
                            trace, gpu, portion, aux, plan,
                            chunk_column_offset=0, phase="stage3",
                        )
                        dispatch("stage3", gpu)
        finally:
            scope.release()
        return trace


register_proposal(ProposalSpec(
    name="mn-mps",
    result_label="scan-mn-mps",
    summary="multi-node problem scattering over MPI collectives (Section 5.2)",
    builder=lambda topology, node, K: ScanMultiNodeMPS(topology, node, K=K),
    tunable=True,
    paper_ref="Section 5.2, Figures 13-14",
    order=50,
))
