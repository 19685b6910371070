"""Device-level batched segmented scan, composed from two batched scans.

Section 5 discusses segmented scans only as a *baseline* trick (Thrust's
flag arrays, CUB's operator extension). This module shows the batch
machinery can provide one natively, for the additive monoid, out of
primitives it already has:

1. a batched **inclusive add-scan** ``S`` of the data (the paper's kernels);
2. a batched **max-scan** ``H`` of ``flag ? index : -1`` — after which
   ``H[i]`` is the index of the most recent segment head at or before
   ``i`` (head propagation via an associative operator);
3. one elementwise **fixup kernel**: ``out[i] = S[i] - S[H[i] - 1]``
   (with ``S[-1] = 0``), i.e. subtract the prefix accumulated before the
   segment started. Addition is invertible, which is what makes the
   two-scan decomposition valid; the generic-monoid route is the
   (flag, value) operator extension the baselines model.

Everything runs through the standard launch machinery, so segmented scans
get the same tracing/cost treatment as plain ones.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpusim.device import GPU
from repro.gpusim.events import KernelRecord, Trace
from repro.gpusim.kernel import KernelContext, LaunchConfig, LaunchStats
from repro.gpusim.memory import AllocationScope, DeviceArray
from repro.core.params import ProblemConfig
from repro.core.results import ScanResult
from repro.core.single_gpu import ScanSP, coerce_batch


def launch_segment_fixup(
    trace: Trace,
    gpu: GPU,
    scanned: DeviceArray,
    heads: DeviceArray,
    out: DeviceArray,
    phase: str = "seg_fixup",
) -> KernelRecord:
    """out[g, i] = scanned[g, i] - scanned[g, heads[g, i] - 1].

    ``heads`` holds each position's segment-head index (>= 0 everywhere
    once position 0 is an implicit head). One streaming pass: read the
    scan, gather the head prefix, write the difference. A virtual ``out``
    runs no body.
    """
    g_count, n = scanned.shape
    if heads.shape != scanned.shape or out.shape != scanned.shape:
        raise ConfigurationError("fixup buffers must share one shape")
    threads = 128
    elems_per_block = threads * 8
    blocks_x = max(1, (n + elems_per_block - 1) // elems_per_block)
    config = LaunchConfig(
        grid_x=blocks_x, grid_y=g_count, block_x=threads, block_y=1,
        regs_per_thread=32, smem_per_block=0,
    )
    # Per block: scan read + head read + gathered prefix read + result write.
    elems = config.blocks * min(elems_per_block, n)
    stats = LaunchStats()
    stats.read_global(elems * scanned.dtype.itemsize * 3)
    stats.write_global(elems * scanned.dtype.itemsize)
    stats.apply_operator(elems)
    stats.address_math(elems * 2)
    body = None
    if not out.virtual:
        data = scanned.data
        head_idx = heads.data
        out_arr = out.data

        def body(ctx: KernelContext, block_ids: np.ndarray) -> None:
            bx, g = ctx.block_xy(block_ids)
            for b, gg in zip(bx.tolist(), g.tolist()):
                lo = b * elems_per_block
                hi = min(n, lo + elems_per_block)
                idx = head_idx[gg, lo:hi]
                prior = np.where(idx > 0, data[gg, np.maximum(idx - 1, 0)], 0)
                out_arr[gg, lo:hi] = data[gg, lo:hi] - prior

    return gpu.launch(trace, "segment_fixup", phase, config, body, stats,
                      coalesced=False)


def scan_segmented_device(
    data: np.ndarray,
    flags: np.ndarray,
    gpu: GPU,
    K: int | None = None,
) -> tuple[np.ndarray, ScanResult]:
    """Batched segmented inclusive add-scan on the simulated device.

    ``data`` is (G, N) (or 1-D); ``flags`` the matching head-flag array
    (position 0 of each row is an implicit head). Integer dtypes only
    (the subtraction fixup must be exact). Returns the segmented scan and
    a ScanResult whose trace covers all three passes.
    """
    batch = coerce_batch(data)
    flag_batch = coerce_batch(np.asarray(flags).astype(np.int64))
    if flag_batch.shape != batch.shape:
        raise ConfigurationError(
            f"flags shape {flag_batch.shape} must match data {batch.shape}"
        )
    if not np.issubdtype(batch.dtype, np.integer):
        raise ConfigurationError(
            f"device segmented scan needs integer data, got {batch.dtype}"
        )
    g_count, n = batch.shape
    work_dtype = np.int64

    executor = ScanSP(gpu, K=K)
    trace = Trace()

    # Pass 1: plain batched inclusive scan.
    scan_result = executor.run(batch.astype(work_dtype), operator="add")
    trace.merge(scan_result.trace)

    # Pass 2: head propagation — max-scan of (flag ? index : -1).
    indices = np.arange(n, dtype=work_dtype)[None, :]
    head_seed = np.where(flag_batch > 0, indices, work_dtype(-1))
    head_seed[:, 0] = 0  # implicit head at position 0
    head_result = executor.run(head_seed, operator="max")
    trace.merge(head_result.trace)

    # Pass 3: the fixup kernel.
    with AllocationScope() as scope:
        scanned_dev = scope.upload(gpu, scan_result.output)
        heads_dev = scope.upload(gpu, head_result.output)
        out_dev = scope.alloc(gpu, batch.shape, work_dtype)
        launch_segment_fixup(trace, gpu, scanned_dev, heads_dev, out_dev)
        out = out_dev.to_host()

    problem = ProblemConfig.from_sizes(N=n, G=g_count, dtype=batch.dtype)
    result = ScanResult(
        problem=problem,
        proposal="scan-segmented",
        trace=trace,
        plan=scan_result.plan,
        output=out.astype(batch.dtype),
        config={"passes": 3, "gpu_ids": [gpu.id]},
    )
    return result.output, result
