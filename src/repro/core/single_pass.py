"""``sp-dlb``: single-pass decoupled-lookback scan as a registry proposal.

This executor runs the repo's one single-pass kernel
(:func:`repro.core.kernels.single_pass_step`, held in its launch
program) and prices its descriptor protocol honestly, the way CUB's
``DeviceScan`` and LightScan (arXiv:1604.04815) actually pay for it:

- a descriptor-reset memset launch plus fixed protocol-arming latency
  before the pass can start;
- per-block descriptor traffic at warp granularity (aggregate reads over
  the resident lookback window, two publishes);
- an exposed polling stall, round-trip-bound rather than bandwidth-bound
  (:func:`repro.gpusim.lookback.lookback_stall_s`).

The payoff is ~2N bytes of streaming traffic against the three-kernel
pipeline's ~3N and one kernel launch against three — so ``sp-dlb`` loses
at small N (fixed protocol cost dominates) and wins at large N (saved
memory pass dominates). That crossover is exactly what
``PremiseTuner.tune_single_gpu_variant`` measures and the autotune cache
memoises; sessions resolve ``proposal="auto"`` through it so callers get
the winner transparently (see ``benchmarks/bench_single_pass.py``).

:class:`~repro.core.chained.ScanChained` is this executor with the
protocol priced at zero: same plan (small K keeps many blocks in flight
to pipeline the lookback, so the two share a resolver cache entry), same
buffers and kernel body, but an idealised launch step and no reset
launch.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.lookback import STATE_INVALID
from repro.core.executor import (
    Launch,
    LaunchProgram,
    PlanSpec,
    ProposalSpec,
    SingleGPUExecutor,
    Slot,
    register_proposal,
)
from repro.core.kernels import descriptor_reset_step, single_pass_step
from repro.core.params import ExecutionPlan, ProblemConfig


class ScanSinglePassDLB(SingleGPUExecutor):
    """Single-GPU batched decoupled-lookback scan executor."""

    proposal = "sp-dlb"
    result_label = "scan-sp-dlb"
    #: Builds the pass's :class:`~repro.core.kernels.LaunchStep`, which
    #: names the launch record and prices it.
    pass_step = staticmethod(single_pass_step)
    #: Whether a priced ``descriptor_reset`` launch clears the status plane
    #: before the pass. Without one the plane is allocated already reset.
    reset_launch = True

    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        # Lookback pipelining wants many blocks in flight, so K stays at
        # the bottom of the search space unless explicitly overridden.
        return PlanSpec(
            problem=problem, parts=1, K=self.K, template=self.stage1_template,
            k_space="sp", k_pick="min", clamp_chunks=True,
        )

    def _slots(self, plan: ExecutionPlan, problem: ProblemConfig):
        gpu = self.gpu
        # Descriptors: an integer status word per block (an int32 plane, so
        # every payload dtype — bool included — keeps X/A/P distinct) and
        # its (aggregate, inclusive prefix) pair in the payload dtype.
        plane = (problem.G, plan.stage1.bx)
        return (
            Slot(gpu, (problem.G, problem.N), problem.dtype,
                 source=(slice(None),)),
            Slot(gpu, plane, np.dtype(np.int32),
                 fill=None if self.reset_launch else STATE_INVALID),
            Slot(gpu, plane + (2,), problem.dtype),
        )

    def _stages(self, plan: ExecutionPlan, problem: ProblemConfig):
        # Slots: the batch, the status plane, the descriptor pairs.
        gpu, phase = self.gpu, self.proposal
        arch = gpu.arch
        launches = (Launch(gpu, self.pass_step(plan, arch, phase), (0, 1, 2)),)
        if self.reset_launch:
            plane = (problem.G, plan.stage1.bx)
            launches = (Launch(gpu, descriptor_reset_step(
                plan, arch, plane, phase), (1,)),) + launches
        return ((None, {}, ((phase, launches),)),)

    def _describe(self, program: LaunchProgram) -> dict:
        # The pass is the program's last launch.
        step = program.launches[-1].step
        return {
            "K": program.plan.stage1.params.K,
            "single_pass": True,
            "lookback_window": step.lookback.window,
            "lookback_capacity": step.capacity,
            "gpu_ids": [self.gpu.id],
        }


register_proposal(ProposalSpec(
    name="sp-dlb",
    result_label="scan-sp-dlb",
    summary="single-pass decoupled-lookback scan with costed descriptor protocol",
    builder=lambda topology, node, K: ScanSinglePassDLB(
        topology.first_healthy_gpu(), K=K
    ),
    tunable=False,
    paper_ref="StreamScan [25]; LightScan arXiv:1604.04815; CUB DeviceScan",
    order=65,
    memory_passes=2.0,
    multi_gpu=False,
))
