"""``chained``: sp-dlb's single pass with free descriptors.

StreamScan (Yan et al., the paper's related work [25]) and CUB's
decoupled lookback scan in ONE kernel: each block publishes its
aggregate through global-memory descriptors and resolves its exclusive
prefix by looking back at its predecessors, so traffic drops from the
three-kernel plan's ~3N bytes to ~2N. ``sp-dlb``
(:mod:`repro.core.single_pass`) runs that pass and prices its protocol.
This proposal is the same executor and kernel body with the protocol
free: a handful of descriptor words per block (:func:`chained_scan_stats`),
no polling stall, and a status plane allocated already reset instead of a
``descriptor_reset`` launch. It is the single-pass roofline bound that
``benchmarks/bench_chained_vs_threekernel.py`` compares against the
paper's plan. Both are extensions: the paper never combines a single
pass with its batch interface.
"""

from __future__ import annotations

from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.kernel import LaunchStats
from repro.core import kernels
from repro.core.executor import LaunchProgram, ProposalSpec, register_proposal
from repro.core.params import ExecutionPlan
from repro.core.single_pass import ScanSinglePassDLB

#: Descriptor reads a block performs while resolving its prefix (the
#: published aggregate of its predecessor plus lookback polling traffic).
LOOKBACK_READS_PER_BLOCK = 6
#: Descriptor writes a block performs (aggregate, then inclusive prefix).
DESCRIPTOR_WRITES_PER_BLOCK = 2


def chained_scan_stats(plan: ExecutionPlan, warp_size: int) -> LaunchStats:
    """Closed-form counters of the single-pass kernel (exact, like Stage 1/3)."""
    kp = plan.stage1.params
    itemsize = plan.problem.itemsize
    nb = plan.stage1.blocks
    stats = kernels.block_flow_stats(kp, warp_size, itemsize, nb, kp.K, addressing=6)
    stats.read_global(
        nb * kp.chunk_size * itemsize + nb * LOOKBACK_READS_PER_BLOCK * itemsize
    )
    stats.write_global(
        nb * kp.chunk_size * itemsize + nb * DESCRIPTOR_WRITES_PER_BLOCK * itemsize
    )
    stats.apply_operator(nb)  # chain combine
    return stats


def chained_step(
    plan: ExecutionPlan, arch: GPUArchitecture, phase: str = "chained",
) -> kernels.LaunchStep:
    """The single pass (:func:`~repro.core.kernels.single_pass_step`'s
    body and buffers) under idealised pricing: record ``chained_scan``,
    :func:`chained_scan_stats` counters, no stall."""
    kp = plan.stage1.params
    return kernels.LaunchStep(
        "chained_scan", phase, plan, arch,
        kernels._launch_config(kp, plan.stage1.bx, plan.stage1.by, plan.problem.itemsize),
        chained_scan_stats(plan, arch.warp_size),
        kernels.bind_single_pass_scan, flow=kp, ordered=True,
        check=kernels._check_planes,
    )


class ScanChained(ScanSinglePassDLB):
    """Single-GPU batched chained (single-pass) scan executor."""

    proposal = "chained"
    result_label = "scan-chained"
    pass_step = staticmethod(chained_step)
    reset_launch = False

    def _describe(self, program: LaunchProgram) -> dict:
        return {"K": program.plan.stage1.params.K, "single_pass": True,
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
