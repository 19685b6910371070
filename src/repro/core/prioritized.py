"""Scan-MP-PC: Multi-GPU Problem with Prioritized Communications (§4.1.1).

A sub-case of problem scattering that never leaves a PCIe network: the
``V`` GPUs of each network solve ``G/Y`` of the problems, each problem split
into ``V`` portions of ``N/V`` elements (Figure 8: "Communication is only
performed among the V GPUs of the same PCI-e network"). Networks — and, in
the multi-node variant, nodes — work on disjoint problem subsets fully in
parallel, with no host-memory staging and no MPI at all.

When the batch has fewer problems than available networks (``G < Y``), the
number of networks in use is reduced (the paper's remark under Figure 10;
also why Figure 10 omits n=28, solved by a single network).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.events import Trace
from repro.interconnect.topology import SystemTopology
from repro.interconnect.transfer import TransferCostParams, TransferEngine
from repro.gpusim.memory import AllocationScope
from repro.core.executor import (
    Placement,
    PlanSpec,
    ProposalSpec,
    ScanExecutor,
    ScanRequest,
    register_proposal,
)
from repro.core.multi_gpu import (
    collect_portions,
    problem_scattering_flow,
    upload_portions,
)
from repro.core.params import ExecutionPlan, KernelParams, NodeConfig, ProblemConfig


class ScanMPPC(ScanExecutor):
    """Prioritized-communications executor (single- or multi-node, no MPI)."""

    proposal = "mppc"
    result_label = "scan-mp-pc"

    def __init__(
        self,
        topology: SystemTopology,
        node: NodeConfig,
        K: int | None = None,
        stage1_template: KernelParams | None = None,
        transfer_params: TransferCostParams | None = None,
        overlap: bool = False,
    ):
        self.topology = topology
        self.node = node
        self.K = K
        self.stage1_template = stage1_template
        self.engine = TransferEngine(topology, transfer_params)
        self.overlap = overlap
        # One GPU group per (node, PCIe network) pair in use.
        self.placement = Placement.per_network(topology, node)

    def groups_used(self, g: int) -> int:
        """Networks actually used: min(M*Y, G), kept a power of two."""
        return min(len(self.groups), g)

    def plan_for(
        self, problem: ProblemConfig, groups_used: int | None = None
    ) -> ExecutionPlan:
        """The group plan; ``groups_used`` defaults to :meth:`groups_used`."""
        if groups_used is None:
            groups_used = self.groups_used(problem.G)
        return self.resolver.resolve(
            self._arch(), self._spec_for(problem, groups_used)
        )

    # ----------------------------------------------------------------- hooks

    def _arch(self) -> GPUArchitecture:
        return self.topology.arch

    def _spec_for(self, problem: ProblemConfig, groups_used: int) -> PlanSpec:
        return PlanSpec(
            problem=problem, parts=self.node.V,
            g_local=problem.G // groups_used, K=self.K,
            template=self.stage1_template, k_space="mppc", node=self.node,
            k_pick="max", clamp_chunks=False,
        )

    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        return self._spec_for(problem, self.groups_used(problem.G))

    def _place_buffers(
        self, scope: AllocationScope, plan: ExecutionPlan, request: ScanRequest
    ):
        problem = request.problem
        groups_used = self.groups_used(problem.G)
        g_per_group = problem.G // groups_used
        group_portions = []
        for j in range(groups_used):
            if request.batch is None:
                n_local = problem.N // self.node.V
                group_portions.append([
                    scope.alloc(gpu, (g_per_group, n_local), problem.dtype,
                                virtual=True)
                    for gpu in self.groups[j]
                ])
            else:
                sub = request.batch[j * g_per_group : (j + 1) * g_per_group]
                group_portions.append(
                    upload_portions(self.groups[j], sub, self.node.V, scope)
                )
        return group_portions

    def _device_flow(self, buffers, plan: ExecutionPlan) -> Trace:
        groups_used = len(buffers)
        trace = Trace()
        active = [g for j in range(groups_used) for g in self.groups[j]]
        dispatch_counter: dict = {}
        with self.topology.activate(active):
            for j in range(groups_used):
                with obs.span("network", group=j):
                    problem_scattering_flow(
                        trace, self.engine, self.topology,
                        self.groups[j], buffers[j], plan,
                        dispatch_counter=dispatch_counter,
                        overlap=self.overlap,
                    )
        return trace

    def _collect_output(self, buffers) -> np.ndarray:
        g_per_group, n_local = buffers[0][0].shape
        out = np.empty(
            (g_per_group * len(buffers), n_local * len(buffers[0])),
            dtype=buffers[0][0].dtype,
        )
        for j, portions in enumerate(buffers):
            collect_portions(portions, out[j * g_per_group : (j + 1) * g_per_group])
        return out

    def _describe(self, problem: ProblemConfig, plan: ExecutionPlan) -> dict:
        groups_used = self.groups_used(problem.G)
        return {
            "K": plan.stage1.params.K,
            "W": self.node.W,
            "V": self.node.V,
            "Y": self.node.Y,
            "M": self.node.M,
            "networks_used": groups_used,
            "gpu_ids": [
                g.id for j in range(groups_used) for g in self.groups[j]
            ],
        }


register_proposal(ProposalSpec(
    name="mppc",
    result_label="scan-mp-pc",
    summary="problem scattering with prioritized per-network communication "
            "(Section 4.1.1)",
    builder=lambda topology, node, K: ScanMPPC(topology, node, K=K),
    tunable=True,
    paper_ref="Section 4.1.1, Figures 8, 10",
    order=40,
))
