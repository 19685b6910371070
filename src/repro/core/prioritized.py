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

from repro.gpusim.arch import GPUArchitecture
from repro.interconnect.topology import SystemTopology
from repro.interconnect.transfer import TransferCostParams, TransferEngine
from repro.core.executor import (
    LaunchProgram,
    Placement,
    PlanSpec,
    ProposalSpec,
    ScanExecutor,
    register_proposal,
)
from repro.core.multi_gpu import (
    portion_slots,
    problem_scattering_flow,
    scattering_slots,
)
from repro.core.params import ExecutionPlan, KernelParams, NodeConfig, ProblemConfig
from repro.core.single_gpu import three_kernel_steps


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

    def _slots(self, plan: ExecutionPlan, problem: ProblemConfig):
        # Group j's portions come first (row block j, split into column
        # slices), then each group's auxiliary arrays at its start.
        groups_used = self.groups_used(problem.G)
        g_per_group = problem.G // groups_used
        portions = sum((
            portion_slots(self.groups[j], plan,
                          slice(j * g_per_group, (j + 1) * g_per_group))
            for j in range(groups_used)
        ), ())
        return portions + sum((
            scattering_slots(self.groups[j], plan, g_per_group, group=j)
            for j in range(groups_used)
        ), ())

    def _stages(self, plan: ExecutionPlan, problem: ProblemConfig):
        groups_used = self.groups_used(problem.G)
        g_per_group = problem.G // groups_used
        v = self.node.V
        aux = groups_used * v
        # One dispatch count per node, shared by the node's networks, and
        # one set of kernel steps for every network.
        ordinals: dict = {}
        steps = three_kernel_steps(plan, self._arch(), g_per_group)
        return tuple(
            ("network", {"group": j}, problem_scattering_flow(
                self.topology, self.groups[j], steps, g_per_group,
                j * v, aux + j * v, ordinals, overlap=self.overlap,
            ))
            for j in range(groups_used)
        )

    def _describe(self, program: LaunchProgram) -> dict:
        groups_used = self.groups_used(program.problem.G)
        return {
            "K": program.plan.stage1.params.K,
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
