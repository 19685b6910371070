"""Single-pass chained scan: the StreamScan / decoupled-lookback family.

The paper's related work cites StreamScan (Yan et al. [25]) — "fast scan
algorithms for GPUs without global barrier synchronization" — and CUB's
production scan uses the same idea (decoupled lookback): ONE kernel whose
blocks publish their aggregates through global-memory descriptors, each
block resolving its exclusive prefix by looking back at its predecessors.
Traffic drops from the three-kernel approach's ~3N bytes to ~2N.

This module implements a *batched* chained scan inside the simulator as a
design-space extension: the paper's proposals never explore combining the
single-pass structure with their batch interface. The chain introduces a
forward inter-block dependency, so the kernel is launched ``ordered=True``
(see :meth:`repro.gpusim.kernel.ExecutionEngine.run` for the semantics —
on hardware the dependency resolves dynamically; the simulator executes
blocks in dependency order).

Within the roofline model the chained scan beats the three-kernel plan by
roughly the 3N/2N byte ratio on one GPU; real implementations give part of
that bound back to lookback polling stalls (compare CUB's calibrated rate
in ``repro.baselines.cub``). The comparison bench
(``benchmarks/bench_chained_vs_threekernel.py``) reports both.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.device import GPU
from repro.gpusim.events import KernelRecord, Trace
from repro.gpusim.kernel import KernelContext, LaunchStats
from repro.gpusim.memory import AllocationScope, DeviceArray
from repro.core.executor import (
    Placement,
    PlanSpec,
    ProposalSpec,
    ScanExecutor,
    ScanRequest,
    register_proposal,
)
from repro.core.kernels import (
    _apply_offsets,
    _BlockScanCore,
    _launch_config,
    block_flow_stats,
)
from repro.core.params import ExecutionPlan, KernelParams, ProblemConfig

#: Descriptor reads a block performs while resolving its prefix (the
#: published aggregate of its predecessor plus lookback polling traffic).
LOOKBACK_READS_PER_BLOCK = 6
#: Descriptor writes a block performs (aggregate, then inclusive prefix).
DESCRIPTOR_WRITES_PER_BLOCK = 2


def chained_scan_stats(
    plan: ExecutionPlan, warp_size: int, blocks: int | None = None, costs=None
) -> LaunchStats:
    """Closed-form counters of the single-pass kernel (exact, like Stage 1/3)."""
    kp = plan.stage1.params
    itemsize = plan.problem.itemsize
    nb = plan.stage1.blocks if blocks is None else blocks
    stats = block_flow_stats(
        kp, warp_size, itemsize, nb, kp.K, addressing=6, costs=costs
    )
    stats.read_global(
        nb * kp.chunk_size * itemsize + nb * LOOKBACK_READS_PER_BLOCK * itemsize
    )
    stats.write_global(
        nb * kp.chunk_size * itemsize + nb * DESCRIPTOR_WRITES_PER_BLOCK * itemsize
    )
    stats.apply_operator(nb)  # chain combine
    return stats


def launch_chained_scan(
    trace: Trace,
    gpu: GPU,
    data: DeviceArray,
    descriptors: DeviceArray,
    plan: ExecutionPlan,
    phase: str = "chained",
    functional: bool = True,
) -> KernelRecord:
    """The single launch: local scan + lookback prefix + write, in one pass.

    ``descriptors`` is the (g_local, Bx) global-memory chain state (each
    block's published inclusive prefix).
    """
    data.require_on(gpu)
    descriptors.require_on(gpu)
    kp = plan.stage1.params
    op = plan.problem.operator
    g_local, n_local = data.shape
    bx_total = plan.stage1.bx
    itemsize = plan.problem.itemsize
    inclusive_out = plan.problem.inclusive
    if descriptors.shape != (g_local, bx_total):
        raise ConfigurationError(
            f"descriptor array must be {(g_local, bx_total)}, got {descriptors.shape}"
        )
    config = _launch_config(kp, bx_total, g_local, itemsize)
    if not functional:
        return gpu.launch(
            trace, "chained_scan", phase, config, None, ordered=True,
            precomputed_stats=chained_scan_stats(plan, gpu.arch.warp_size),
        )

    arr = data.data.reshape(g_local, bx_total, kp.K, kp.Lx, kp.P)
    desc = descriptors.data
    identity = op.identity(plan.problem.dtype)
    core = _BlockScanCore(kp, op, gpu.arch.warp_size, plan.problem.dtype)

    def body(ctx: KernelContext, block_ids: np.ndarray) -> None:
        bx, g = ctx.block_xy(block_ids)
        nb = len(block_ids)
        chunks = arr[g, bx]
        partials = core.run(chunks)
        carries = core.cascade_carries(partials["iteration_totals"])
        totals = core.chunk_totals(partials["iteration_totals"])  # (nb,)

        # Lookback: resolve each block's exclusive prefix from its
        # predecessor's published inclusive prefix, publishing our own.
        # Blocks arrive in dependency order (ordered launch), so within
        # this call a simple sequential resolution is exact.
        prefixes = np.empty(nb, dtype=arr.dtype)
        for i in range(nb):
            prev = identity if bx[i] == 0 else desc[g[i], bx[i] - 1]
            prefixes[i] = prev
            desc[g[i], bx[i]] = op.combine(prev, totals[i])

        result = _apply_offsets(
            op, partials, carries, prefixes, inclusive_out, identity
        )
        arr[g, bx] = result.reshape(nb, kp.K, kp.Lx, kp.P)

        ctx.stats.merge(
            chained_scan_stats(plan, ctx.warp_size, nb, partials["costs"])
        )

    return gpu.launch(trace, "chained_scan", phase, config, body, ordered=True)


class ScanChained(ScanExecutor):
    """Single-GPU batched chained (single-pass) scan executor."""

    proposal = "chained"
    result_label = "scan-chained"

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
        # A chained scan wants many blocks in flight to pipeline the
        # lookback: keep K at the bottom of the search space unless an
        # explicit K overrides it.
        return PlanSpec(
            problem=problem, parts=1, K=self.K, template=self.stage1_template,
            k_space="sp", k_pick="min", clamp_chunks=True,
        )

    def _place_buffers(self, scope: AllocationScope, plan: ExecutionPlan,
                       request: ScanRequest):
        problem = request.problem
        if request.batch is None:
            device_data = scope.alloc(
                self.gpu, (problem.G, problem.N), problem.dtype, virtual=True
            )
            descriptors = scope.alloc(
                self.gpu, (problem.G, plan.stage1.bx), problem.dtype, virtual=True
            )
        else:
            device_data = scope.upload(self.gpu, request.batch)
            descriptors = scope.alloc(
                self.gpu, (problem.G, plan.stage1.bx), problem.dtype
            )
        return (device_data, descriptors)

    def _device_flow(self, buffers, plan: ExecutionPlan,
                     functional: bool = True) -> Trace:
        device_data, descriptors = buffers
        trace = Trace()
        with obs.span("chained"):
            launch_chained_scan(
                trace, self.gpu, device_data, descriptors, plan,
                functional=functional,
            )
        return trace

    def _collect_output(self, buffers):
        return buffers[0].to_host()

    def _describe(self, problem: ProblemConfig, plan: ExecutionPlan) -> dict:
        return {"K": plan.stage1.params.K, "single_pass": True,
                "gpu_ids": [self.gpu.id]}


register_proposal(ProposalSpec(
    name="chained",
    result_label="scan-chained",
    summary="single-pass chained scan with decoupled lookback (extension)",
    builder=lambda topology, node, K: ScanChained(topology.first_healthy_gpu(), K=K),
    tunable=False,
    paper_ref="related work [25]; CUB decoupled lookback",
    order=60,
    memory_passes=2.0,
    multi_gpu=False,
))
