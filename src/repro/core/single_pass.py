"""``sp-dlb``: single-pass decoupled-lookback scan as a registry proposal.

This executor runs the repo's one single-pass kernel
(:func:`repro.core.kernels.launch_single_pass_scan`) and prices its
descriptor protocol honestly, the way CUB's ``DeviceScan`` and LightScan
(arXiv:1604.04815) actually pay for it:

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
buffers and kernel body, but an idealised launch spec and no reset
launch.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.device import GPU
from repro.gpusim.events import Trace
from repro.gpusim.lookback import STATE_INVALID
from repro.gpusim.memory import AllocationScope
from repro.core.executor import (
    Placement,
    PlanSpec,
    ProposalSpec,
    ScanExecutor,
    ScanRequest,
    register_proposal,
)
from repro.core.kernels import (
    _single_pass_spec,
    launch_descriptor_reset,
    launch_single_pass_scan,
    launch_spec,
)
from repro.core.params import ExecutionPlan, KernelParams, ProblemConfig


class ScanSinglePassDLB(ScanExecutor):
    """Single-GPU batched decoupled-lookback scan executor."""

    proposal = "sp-dlb"
    result_label = "scan-sp-dlb"
    #: Builds the pass's :class:`~repro.core.kernels.LaunchSpec`, which
    #: names the launch record and prices it.
    build_spec = staticmethod(_single_pass_spec)
    #: Whether a priced ``descriptor_reset`` launch clears the status plane
    #: before the pass. Without one the plane is allocated already reset.
    reset_launch = True

    def __init__(
        self,
        gpu: GPU,
        K: int | None = None,
        stage1_template: KernelParams | None = None,
    ):
        self.gpu = gpu
        self.placement = Placement.single(gpu)
        self.K = K
        self.stage1_template = stage1_template

    def _arch(self) -> GPUArchitecture:
        return self.gpu.arch

    def _plan_spec(self, problem: ProblemConfig) -> PlanSpec:
        # Lookback pipelining wants many blocks in flight, so K stays at
        # the bottom of the search space unless explicitly overridden.
        return PlanSpec(
            problem=problem, parts=1, K=self.K, template=self.stage1_template,
            k_space="sp", k_pick="min", clamp_chunks=True,
        )

    def _place_buffers(self, scope: AllocationScope, plan: ExecutionPlan,
                       request: ScanRequest):
        problem = request.problem
        # Descriptors: an integer status word per block (an int32 plane, so
        # every payload dtype — bool included — keeps X/A/P distinct) and
        # its (aggregate, inclusive prefix) pair in the payload dtype.
        status_shape = (problem.G, plan.stage1.bx)
        virtual = request.batch is None
        if virtual:
            device_data = scope.alloc(
                self.gpu, (problem.G, problem.N), problem.dtype, virtual=True
            )
        else:
            device_data = scope.upload(self.gpu, request.batch)
        status = scope.alloc(
            self.gpu, status_shape, np.int32, virtual=virtual,
            fill=None if self.reset_launch else STATE_INVALID,
        )
        descriptors = scope.alloc(
            self.gpu, status_shape + (2,), problem.dtype, virtual=virtual
        )
        return (device_data, status, descriptors)

    def _device_flow(self, buffers, plan: ExecutionPlan) -> Trace:
        device_data, status, descriptors = buffers
        trace = Trace()
        with obs.span(self.proposal):
            if self.reset_launch:
                launch_descriptor_reset(trace, self.gpu, status, plan)
            launch_single_pass_scan(
                trace, self.gpu, device_data, status, descriptors, plan,
                phase=self.proposal, build=self.build_spec,
            )
        return trace

    def _collect_output(self, buffers):
        return buffers[0].to_host()

    def _describe(self, problem: ProblemConfig, plan: ExecutionPlan) -> dict:
        spec = launch_spec(plan, self.gpu.arch, _single_pass_spec)
        return {
            "K": plan.stage1.params.K,
            "single_pass": True,
            "lookback_window": spec.lookback.window,
            "lookback_capacity": spec.capacity,
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
