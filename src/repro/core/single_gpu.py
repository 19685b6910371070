"""Scan-SP: the single-GPU batch scan proposal (Section 3 of the paper).

Executes the three-kernel decomposition on one device: Chunk Reduce over
``B_x^1 = N / (K * Lx * P)`` chunks per problem, Intermediate Scan of the
auxiliary array, Scan+Addition writing the final result. All ``G`` problems
of the batch are solved in the same three launches (``B_y = G``) — the
paper's core advantage over per-problem library invocations.

The pipeline (coerce → plan → upload → flow → collect) lives in
:class:`repro.core.executor.ScanExecutor`; this module supplies only the
three-launch program (:class:`~repro.core.executor.LaunchProgram`), which
the problem-parallel executor runs once per GPU, and registers the ``sp``
proposal.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.device import GPU
from repro.core.executor import (
    Launch,
    LaunchProgram,
    PlanSpec,
    ProposalSpec,
    SingleGPUExecutor,
    Slot,
    coerce_batch,
    register_proposal,
    shrink_template_to_fit,
)
from repro.core.kernels import (
    LaunchStep,
    chunk_reduce_step,
    intermediate_scan_step,
    scan_add_step,
)
from repro.core.params import ExecutionPlan, KernelParams, ProblemConfig
from repro.core.premises import k_search_space
from repro.core.results import ScanResult

__all__ = [
    "ScanSP",
    "coerce_batch",
    "default_k",
    "scan_single_gpu",
    "shrink_template_to_fit",
]


def default_k(
    arch: GPUArchitecture,
    problem: ProblemConfig,
    stage1: KernelParams,
) -> int:
    """Premise-3 default: the largest K in the Eq.-1 search space.

    Premise 4's discussion motivates maximising K ("a large K^1 will
    generate a low number of chunks"); the tuner refines this empirically.
    """
    space = k_search_space(problem, stage1, stage1, arch, proposal="sp")
    return space[-1]


class ScanSP(SingleGPUExecutor):
    """Single-GPU batch scan executor."""

    proposal = "sp"
    result_label = "scan-sp"

    def __init__(
        self,
        gpu: GPU,
        K: int | None = None,
        stage1_template: KernelParams | None = None,
        vector_loads: bool = True,
    ):
        super().__init__(gpu, K=K, stage1_template=stage1_template)
        #: int4 vector loads (Section 3.1: "each thread reads P elements
        #: from global memory using the int4 customized data type,
        #: facilitating coalescence"). False simulates scalar loads, for
        #: the vectorised-load ablation.
        self.vector_loads = vector_loads

    # ----------------------------------------------------------------- hooks

    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        # K must keep at least one chunk per problem (clamp_chunks).
        return PlanSpec(
            problem=problem, parts=1, K=self.K, template=self.stage1_template,
            k_space="sp", k_pick="max", clamp_chunks=True,
        )

    def _slots(self, plan: ExecutionPlan, problem: ProblemConfig):
        return three_kernel_slots(self.gpu, plan, (slice(None),))

    def _stages(self, plan: ExecutionPlan, problem: ProblemConfig):
        # Slot 0 holds the batch, slot 1 the auxiliary array.
        steps = three_kernel_steps(plan, self.gpu.arch, problem.G,
                                   vector_loads=self.vector_loads)
        return ((None, {}, three_kernel_stages(self.gpu, steps, 0, 1)),)

    def _describe(self, program: LaunchProgram) -> dict:
        return {"K": program.plan.stage1.params.K, "W": 1, "V": 1, "M": 1,
                "gpu_ids": [self.gpu.id]}


def three_kernel_slots(gpu: GPU, plan: ExecutionPlan, source: tuple) -> tuple:
    """Scan-SP's two buffers on ``gpu``: ``plan``'s batch, uploaded from
    the host batch's ``source``, and its auxiliary array."""
    problem = plan.problem
    return (Slot(gpu, (problem.G, problem.N), problem.dtype, source=source),
            Slot(gpu, (problem.G, plan.chunks_total), problem.dtype))


def three_kernel_steps(
    plan: ExecutionPlan, arch: GPUArchitecture, rows: int,
    vector_loads: bool = True,
) -> tuple[LaunchStep, LaunchStep, LaunchStep]:
    """``plan``'s Stage 1, 2 and 3 steps over ``rows`` problems; a
    program shares them between the GPUs that launch them."""
    return (chunk_reduce_step(plan, arch, rows, vector_loads=vector_loads),
            intermediate_scan_step(plan, arch),
            scan_add_step(plan, arch, rows, vector_loads=vector_loads))


def three_kernel_stages(gpu: GPU, steps: tuple, data: int, aux: int) -> tuple:
    """Scan-SP's three launches of ``steps`` on ``gpu``, as program
    stages over the batch in slot ``data`` and its auxiliary array in
    slot ``aux``."""
    reduce_step, scan_step, add_step = steps
    return (
        ("stage1", (Launch(gpu, reduce_step, (data, aux)),)),
        ("stage2", (Launch(gpu, scan_step, (aux,)),)),
        ("stage3", (Launch(gpu, add_step, (data, aux)),)),
    )


def scan_single_gpu(
    gpu: GPU,
    data: np.ndarray,
    operator="add",
    inclusive: bool = True,
    K: int | None = None,
) -> ScanResult:
    """Convenience wrapper: one-shot Scan-SP over a host batch."""
    return ScanSP(gpu, K=K).run(data, operator=operator, inclusive=inclusive)


register_proposal(ProposalSpec(
    name="sp",
    result_label="scan-sp",
    summary="single-GPU three-kernel batch scan (Section 3)",
    builder=lambda topology, node, K: ScanSP(topology.first_healthy_gpu(), K=K),
    tunable=True,
    paper_ref="Section 3, Figure 11",
    order=10,
    memory_passes=3.0,
    multi_gpu=False,
))
