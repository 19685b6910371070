"""The three CUDA kernels of the proposal, simulated bit-exactly.

Section 3.1 / Figures 3-5 of the paper. Each kernel body follows the exact
computational flow of the CUDA implementation:

1. every thread loads ``P`` elements with int4 vector loads and scans them
   in registers (one step, the red values of Figure 4);
2. the per-thread totals are scanned inside each warp with shuffle
   instructions using the Ladner-Fischer access pattern; the *exclusive*
   variant is used so each thread can add the incoming offset directly
   ("Using the exclusive scan saves an extra communication step");
3. the last lane of each warp deposits the warp total in shared memory
   (at most 32 entries, hence ``s <= 5``) and a single warp scans those;
4. the block iterates this ``K`` times (the cascade, Figure 5), passing
   the running total of each iteration into the next;
5. Stage 1 writes only the chunk reduction to the auxiliary array; Stage 3
   writes all ``K*Lx*P`` scanned elements, combined with the chunk's
   offset from the scanned auxiliary array.

Each launch runs one of two bodies, chosen by the payload's dtype kind
alone (:func:`_exact`). Float and complex payloads replay that flow,
because its association order is what sets their bits, in a small,
fixed number of whole-array passes (:class:`_BlockScanCore`): the
register scans in place; a lane-major LF scan of the thread totals
(:func:`~repro.gpusim.warp.warp_exclusive_scan`); each thread's offset
composed on the small per-thread arrays and applied in one combine,
after one flat shift for exclusive output (:func:`_apply_offsets`).
Stage 1 only folds each thread's elements: it needs chunk totals, not
scans. Every element still combines in the flow's order. Integer and
bool payloads are *exact*: every association of their arithmetic gives
the same bits, so their bodies compute the same result with one
operator pass per chunk (a reduce in Stage 1, an accumulate with the
offset folded in elsewhere, after the same flat shift for exclusive
output). A call that covers the grid works on reshaped views of the
device buffers, whichever body runs.

The bodies are vectorised over the blocks they are asked to process, which
is legitimate because blocks are independent; the ``blockwise`` execution
mode of :class:`~repro.gpusim.kernel.ExecutionEngine` re-runs them one
block at a time in random order to prove that independence in tests.

Bodies only move data. Everything a launch derives from its plan alone —
the launch configuration, its closed-form counters (those of the flow
above, :func:`block_flow_stats`), the block-flow and lookback geometry —
is held by its :class:`LaunchStep`, with the body binder (``bind_*``: the
body over given storage) and the launch arguments. Each kernel's
``*_step`` factory is the one place that builds it. Every launch is
priced from the step's counters, whichever body ran, so traces and
simulated time do not depend on the body. A launch whose destination is
a virtual buffer (the analytic estimate) runs no body at all.

Every executor holds its steps and bound bodies in a
:class:`~repro.core.executor.LaunchProgram`, and
:meth:`repro.gpusim.device.GPU.launch` reuses the priced record, so a
warm launch costs its body and a trace append. Outside a program,
:meth:`LaunchStep.launch` checks its device buffers, binds the body and
runs it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, LaunchError
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.costmodel import CostModelParams
from repro.gpusim.device import GPU
from repro.gpusim.events import KernelRecord, Trace
from repro.gpusim.kernel import KernelContext, LaunchConfig
from repro.gpusim.lookback import (
    STATE_INVALID,
    STATE_PREFIX,
    LookbackParams,
    lookback_stall_s,
    resident_capacity,
    total_lookback_reads,
)
from repro.gpusim.memory import DeviceArray
from repro.gpusim.kernel import LaunchStats
from repro.gpusim.warp import warp_exclusive_scan, warp_scan_cost
from repro.core.params import ExecutionPlan, KernelParams
from repro.primitives.operators import Operator
from repro.util.ints import ceil_div


def _launch_config(params: KernelParams, bx: int, by: int, itemsize: int) -> LaunchConfig:
    return LaunchConfig(
        grid_x=bx,
        grid_y=by,
        block_x=params.Lx,
        block_y=params.Ly,
        regs_per_thread=params.estimated_regs_per_thread(),
        smem_per_block=params.smem_bytes(itemsize),
    )


def _identity_like(op: Operator, shape: tuple[int, ...], dtype) -> np.ndarray:
    return np.full(shape, op.identity(np.dtype(dtype)), dtype=dtype)


class _BlockScanCore:
    """Shared register/warp/smem flow of the Stage-1/2/3 and single-pass
    blocks.

    Operates on chunk data laid out ``(nb, K, nw, width, P)`` where ``nb``
    is however many blocks execute together, ``nw`` the warps per block and
    ``width`` the warp width. The data is touched in whole-array passes:
    the register scans (:meth:`run`; Stage 1's :meth:`totals` only folds
    each thread), then, after the small warp-level arrays, one combine
    with each thread's offset (:func:`_apply_offsets`).
    """

    def __init__(self, params: KernelParams, op: Operator, warp_size: int, dtype):
        self.params = params
        self.op = op
        self.dtype = np.dtype(dtype)
        self.width, self.num_warps = _warp_geometry(params, warp_size)
        if params.Lx % self.width != 0:
            raise ConfigurationError(
                f"Lx={params.Lx} must be a multiple of the warp width {self.width}"
            )
        if self.num_warps > params.S and self.num_warps > 1:
            raise ConfigurationError(
                f"{self.num_warps} warps need {self.num_warps} shared-memory "
                f"slots but S={params.S}"
            )

    def run(self, chunks: np.ndarray) -> dict[str, np.ndarray]:
        """Execute the block flow over ``chunks`` of shape (nb, K, Lx, P).

        Each thread's register scan runs in place over ``chunks``, the
        way registers are overwritten on the device: they must be storage
        the body may write (a view of its device buffer, a gather copy or
        a staging buffer).

        Returns the partial results keyed by name:

        - ``thread_offsets``: exclusive intra-warp prefix of thread totals,
          shape (nb, K, nw, width),
        - ``warp_offsets``: exclusive prefix of warp totals (via smem),
          shape (nb, K, nw),
        - ``iteration_totals``: the block-wide total of each cascade
          iteration, shape (nb, K).
        """
        nb, K, _, P = chunks.shape
        threads = _view(chunks, -1, P)
        # (1) each thread's P register elements, scanned in place (the raw
        # values are never needed once their prefix is computed).
        self.op.accumulate(threads, axis=-1, out=threads)
        return self._warp_flow(
            threads[:, -1].reshape(nb, K, self.num_warps, self.width))

    def totals(self, chunks: np.ndarray) -> np.ndarray:
        """Stage 1's flow: the total of each chunk of ``chunks`` ``(nb, K,
        Lx, P)``, shape ``(nb,)``, without writing ``chunks``.

        A thread's total is the left fold of its ``P`` elements, which is
        the last element of its register scan.
        """
        nb, K, _, P = chunks.shape
        thread_totals = _left_fold(self.op, chunks.reshape(-1, P))
        partials = self._warp_flow(
            thread_totals.reshape(nb, K, self.num_warps, self.width))
        return self.chunk_totals(partials["iteration_totals"])

    def _warp_flow(self, thread_totals: np.ndarray) -> dict[str, np.ndarray]:
        """Steps (2) and (3) over the ``(nb, K, nw, width)`` thread totals:
        :meth:`run`'s partials."""
        op = self.op
        width, nw = self.width, self.num_warps

        # (2) intra-warp exclusive shuffle scan of the thread totals.
        thread_offsets, _ = warp_exclusive_scan(
            thread_totals, op, width=width, pattern="lf"
        )
        warp_totals = op.combine(thread_offsets[..., -1], thread_totals[..., -1])

        # (3) cross-warp exchange through shared memory: one warp scans the
        # nw partial sums (nw <= 32 = S's bound).
        if nw > 1:
            warp_offsets, _ = warp_exclusive_scan(
                warp_totals, op, width=nw, pattern="lf"
            )
            iteration_totals = op.combine(warp_offsets[..., -1], warp_totals[..., -1])
        else:
            warp_offsets = _identity_like(op, warp_totals.shape, self.dtype)
            iteration_totals = warp_totals[..., -1]

        return {
            "thread_offsets": thread_offsets,
            "warp_offsets": warp_offsets,
            "iteration_totals": iteration_totals,
        }

    def cascade_carries(self, iteration_totals: np.ndarray) -> np.ndarray:
        """Exclusive prefix of the K iteration totals (the cascade hand-off)."""
        op = self.op
        nb, K = iteration_totals.shape
        inclusive = op.accumulate(iteration_totals, axis=-1)
        carries = np.empty_like(inclusive)
        carries[:, 0] = op.identity(self.dtype)
        carries[:, 1:] = inclusive[:, :-1]
        return carries

    def chunk_totals(self, iteration_totals: np.ndarray) -> np.ndarray:
        """Reduction of the whole chunk: combine of the K iteration totals.

        The reduce runs over a C-contiguous ``(nb, K)`` array: numpy's
        float add reduce is pairwise along a contiguous axis (from K = 8),
        so the layout is part of the result's bits.
        """
        return self.op.reduce(np.ascontiguousarray(iteration_totals), axis=-1)


def _left_fold(op: Operator, threads: np.ndarray) -> np.ndarray:
    """Each row's left fold ``((x_0 . x_1) . x_2) . ...`` of ``threads``
    ``(M, P)``: the last element of its inclusive scan, without writing
    ``threads``."""
    if threads.shape[-1] == 1:
        return threads[:, 0].copy()
    out = op.combine(threads[:, 0], threads[:, 1])
    for i in range(2, threads.shape[-1]):
        op.combine(out, threads[:, i], out=out)
    return out


def _view(array: np.ndarray, *shape: int) -> np.ndarray:
    """``array.reshape(shape)`` as a view, so that writes through it land
    in ``array``; raises where numpy would return a copy."""
    view = array.reshape(shape)
    if view.size and not np.may_share_memory(view, array):
        raise ValueError(
            f"an array of shape {array.shape} and strides {array.strides} "
            f"has no view of shape {shape}"
        )
    return view


def _apply_offsets(
    op: Operator,
    chunks: np.ndarray,
    partials: dict[str, np.ndarray],
    carries: np.ndarray,
    base: np.ndarray | None,
    inclusive: bool,
    identity,
) -> None:
    """Apply each thread's offset to its register scan, in place over
    ``chunks`` (the ``(nb, K, Lx, P)`` array :meth:`_BlockScanCore.run`
    scanned).

    ``offset = base . (carry(k) . warp_offset) . thread_offset`` is
    composed left-to-right on the small per-thread arrays, so
    non-commutative operators would still be correct, and then combined
    into the data once. ``base`` holds one exclusive prefix per block
    (``None`` when there is none to add).

    ``inclusive=False`` shifts each thread's register scan right by one
    element, identity first, before the combine: the exclusive value at
    ``p`` is ``offset . local[p-1]``. The shift is one flat move of the
    contiguous chunks (it carries the last element of each thread into
    the next thread's first slot, which the identity then overwrites),
    taken through a view that raises rather than silently becoming a
    copy (:func:`_view`).
    """
    offset = op.combine(
        carries[:, :, None], partials["warp_offsets"],
        out=partials["warp_offsets"],
    )
    if base is not None:
        offset = op.combine(base[:, None, None], offset, out=offset)
    offset = op.combine(
        offset[..., None], partials["thread_offsets"],
        out=partials["thread_offsets"],
    )
    threads = _view(chunks, -1, chunks.shape[-1])
    if not inclusive:
        _shift_right(_view(chunks, -1))
        threads[:, 0] = identity
    op.combine(offset.reshape(-1, 1), threads, out=threads)


def _shift_right(flat: np.ndarray) -> None:
    """Move every element of the contiguous 1-D ``flat`` one place right,
    in place, as one memmove (numpy copies an overlapping slice element
    by element, backwards)."""
    raw = memoryview(flat.view(np.uint8))
    raw[flat.itemsize:] = raw[: -flat.itemsize]


def _scan_flow(
    core: _BlockScanCore,
    chunks: np.ndarray,
    base: np.ndarray | None,
    inclusive: bool,
    identity,
) -> None:
    """The block flow's scan of ``chunks`` ``(nb, K, Lx, P)``, in place,
    each block's offset chain applied (``base``: one exclusive prefix per
    block, ``None`` for none)."""
    partials = core.run(chunks)
    carries = core.cascade_carries(partials["iteration_totals"])
    _apply_offsets(core.op, chunks, partials, carries, base, inclusive, identity)


def _scan_exact(
    op: Operator,
    chunks: np.ndarray,
    base: np.ndarray | None,
    inclusive: bool,
    identity,
) -> None:
    """The exact-dtype body: scan each chunk (last axis) in place, one pass.

    Element ``i`` of a chunk becomes ``base . x_0 . ... . x_i``: the offset
    is folded into the first element before a single accumulate
    (``base`` holds one offset per chunk, ``None`` when there is none).
    Exclusive output first shifts each chunk right by one, identity
    first, with the warp flow's flat move of the contiguous ``chunks``
    (:func:`_shift_right`). Integer and bool arithmetic is associative
    exactly, so this is bit-identical to the warp flow's
    ``_apply_offsets`` result.
    """
    if not inclusive:
        _shift_right(_view(chunks, -1))
        chunks[..., 0] = identity
    if base is not None:
        op.combine(base, chunks[..., 0], out=chunks[..., 0])
    op.accumulate(chunks, axis=-1, out=chunks)


def _exact(dtype: np.dtype) -> bool:
    """Whether a launch takes the one-pass body: integer and bool
    payloads do, float and complex ones run the block flow.

    Either body works on reshaped views of the device buffers when the
    call covers the grid (:meth:`KernelContext.covers_grid`); any other
    call gathers its blocks with ``(by, bx)`` fancy indices, runs the same
    code on the copy and scatters it back.
    """
    return dtype.kind in "biu"


def _warp_geometry(kp: KernelParams, warp_size: int) -> tuple[int, int]:
    """(warp width, warps per block) for a Stage-1/3 block."""
    width = min(kp.Lx, warp_size)
    return width, kp.Lx // width


def block_flow_stats(
    kp: KernelParams,
    warp_size: int,
    itemsize: int,
    blocks: int,
    iterations: int,
    addressing: int,
    offsets: bool = True,
) -> LaunchStats:
    """Counters of ``blocks`` blocks running the register/warp/smem flow.

    Each block runs ``iterations`` rounds (the cascade's ``K``, or Stage
    2's serial rounds): thread-local scans of ``P`` register elements, an
    exclusive LF shuffle scan per warp, the warp-total composition and,
    with more than one warp, a shared-memory exchange scanned by one warp.
    The cascade chains the rounds; ``offsets`` adds the application of
    each element's offset. ``addressing`` is the address instructions per
    thread and round. Global traffic is left to the caller.

    The warp scans are priced by their closed form
    (:func:`~repro.gpusim.warp.warp_scan_cost`). Every count is
    data-independent, so these are the counters of every launch of the
    flow: the warp flow, the exact bodies and the analytic estimate.
    """
    width, nw = _warp_geometry(kp, warp_size)
    warp = warp_scan_cost(width, "lf", exclusive=True)
    cross = warp_scan_cost(nw, "lf", exclusive=True) if nw > 1 else None
    cross_shuffles, cross_ops = (
        (cross.shuffles, cross.operator_applications) if cross else (0, 0)
    )
    lx, p = kp.Lx, kp.P
    rounds = blocks * iterations
    return LaunchStats(
        smem_bytes_read=rounds * nw * itemsize,
        smem_bytes_written=rounds * nw * itemsize,
        shuffle_instructions=rounds * (nw * warp.shuffles + cross_shuffles),
        operator_applications=(
            rounds * lx * max(0, p - 1)  # thread-local scans
            + rounds * (nw * warp.operator_applications + cross_ops)
            + rounds * nw  # warp-total composition
            + blocks * max(0, iterations - 1)  # cascade carry chain
            + (rounds * lx * p if offsets else 0)  # offset application
        ),
        addressing_instructions=rounds * lx * addressing,
    )


def chunk_reduce_stats(
    plan: ExecutionPlan, warp_size: int, blocks: int | None = None
) -> LaunchStats:
    """Closed-form Stage-1 launch counters.

    Every counter is data-independent (a function of the plan geometry
    only), so the functional run and the analytic estimate price the same
    launch — the tests assert byte-for-byte equal traces. ``blocks`` is
    the launch's block count (default: the plan's grid).
    """
    kp = plan.stage1.params
    itemsize = plan.problem.itemsize
    nb = plan.stage1.blocks if blocks is None else blocks
    stats = block_flow_stats(
        kp, warp_size, itemsize, nb, kp.K, addressing=4, offsets=False
    )
    stats.read_global(nb * kp.chunk_size * itemsize)
    stats.write_global(nb * itemsize)
    return stats


def _stage2_row_params(kp2: KernelParams) -> KernelParams:
    """A Stage-2 problem-row viewed as a Stage-1-style block of Lx^2 threads.

    The shared-memory exponent is capped by the row's own capacity: a row
    of few threads has correspondingly few warps, so it needs (and may
    hold, per Table 2's S <= P*L) fewer partial slots than the full block.
    """
    s = min(kp2.s, kp2.lx + kp2.p)
    return KernelParams(s=s, p=kp2.p, l=kp2.lx, lx=kp2.lx, ly=0, K=1)


def intermediate_scan_stats(plan: ExecutionPlan, warp_size: int) -> LaunchStats:
    """Closed-form Stage-2 launch counters.

    Each of the block's ``Ly^2`` problem rows runs the same
    register/warp/smem flow as Stage 1 over ``rounds`` serial iterations
    (the Lx^2 threads cover ``P*Lx`` elements per round), so the counters
    are the Stage-1 formulas with (rounds, Lx^2, P^2) geometry plus the
    exclusive-output assembly. Reads/writes count only the real ``cx``
    elements; instruction counts use the padded round geometry (idle lanes
    still execute).
    """
    kp2 = plan.stage2.params
    itemsize = plan.problem.itemsize
    cx = plan.chunks_total
    npb = plan.stage2.by * kp2.Ly
    rounds = ceil_div(cx, kp2.P * kp2.Lx)
    # A row runs the flow with Stage 2's Lx and P (see _stage2_row_params).
    stats = block_flow_stats(kp2, warp_size, itemsize, npb, rounds, addressing=4)
    stats.read_global(npb * cx * itemsize)
    stats.write_global(npb * cx * itemsize)
    return stats


def scan_add_stats(
    plan: ExecutionPlan, warp_size: int, blocks: int | None = None
) -> LaunchStats:
    """Closed-form Stage-3 launch counters (arguments as Stage 1's)."""
    kp = plan.stage3.params
    itemsize = plan.problem.itemsize
    nb = plan.stage3.blocks if blocks is None else blocks
    stats = block_flow_stats(kp, warp_size, itemsize, nb, kp.K, addressing=6)
    stats.read_global(nb * kp.chunk_size * itemsize + nb * itemsize)
    stats.write_global(nb * kp.chunk_size * itemsize)
    return stats


class LaunchStep:
    """One kernel launch: everything but the storage its body works on.

    A kernel's ``*_step`` factory builds it from the plan, the data's
    geometry and the architecture: the record name and phase, the launch
    configuration, the closed-form counters every launch is priced from,
    the block flow, for the single pass the lookback geometry, the body
    binder and the launch arguments. ``bind(*arrays)`` returns the body
    over the given storage. Every launch is the step's :meth:`run`: a
    held :class:`~repro.core.executor.LaunchProgram` keeps the step and
    the bound body, and :meth:`launch` checks device buffers and binds
    them first. The exposed latency the roofline cannot see is
    ``latency(step, cost_params)`` (``None``: none); the lookback stall
    is kept with the cost-params object it was priced under
    (:meth:`stall_s`).
    """

    __slots__ = ("name", "phase", "plan", "arch", "config", "stats",
                 "binder", "flow", "coalesced", "ordered", "capacity",
                 "lookback", "latency", "check", "_core", "_stall")

    def __init__(
        self,
        name: str,
        phase: str,
        plan: ExecutionPlan,
        arch: GPUArchitecture,
        config: LaunchConfig,
        stats: LaunchStats,
        binder: Callable[..., Callable[[KernelContext, np.ndarray], None]],
        flow: KernelParams | None = None,
        coalesced: bool = True,
        ordered: bool = False,
        capacity: int = 0,
        lookback: LookbackParams | None = None,
        latency: Callable[["LaunchStep", CostModelParams], float] | None = None,
        check: Callable[..., None] | None = None,
    ):
        self.name = name
        self.phase = phase
        self.plan = plan
        self.arch = arch
        self.config = config
        #: The launch's counters; never mutated.
        self.stats = stats
        #: ``binder(step, *arrays)`` makes the body (see :meth:`bind`).
        self.binder = binder
        #: The block flow's kernel params, or ``None``.
        self.flow = flow
        self.coalesced = coalesced
        self.ordered = ordered
        #: Single pass only: the resident-block capacity, which is the
        #: lookback horizon, and the protocol params (``None``: the
        #: protocol is free, no stall).
        self.capacity = capacity
        self.lookback = lookback
        self.latency = latency
        #: ``check(plan, *buffers)`` raises on device buffers of the wrong
        #: shape (:meth:`launch`).
        self.check = check
        self._core: _BlockScanCore | None = None
        self._stall: tuple[CostModelParams | None, float] = (None, 0.0)

    def block_core(self) -> _BlockScanCore:
        """The block flow, built and validated on the first body.

        A geometry the flow cannot run raises here, on every launch that
        runs a body; a launch into virtual buffers never asks.
        """
        if self._core is None:
            problem = self.plan.problem
            self._core = _BlockScanCore(self.flow, problem.operator,
                                        self.arch.warp_size, problem.dtype)
        return self._core

    def stall_s(self, params: CostModelParams) -> float:
        """The lookback polling stall, priced once per cost-params object."""
        if self.lookback is not None and self._stall[0] is not params:
            config = self.config
            stall = lookback_stall_s(
                config.blocks, config.grid_x, self.capacity,
                params.dram_round_trip_s, params.lookback_contention,
                self.lookback,
            )
            self._stall = (params, stall)
        return self._stall[1]

    def bind(self, *arrays: np.ndarray) -> Callable[[KernelContext, np.ndarray], None]:
        """The body over the storage of ``arrays``."""
        return self.binder(self, *arrays)

    def run(self, trace: Trace, gpu: GPU, body) -> KernelRecord:
        """Launch on ``gpu`` with ``body`` (``None``: virtual buffers)."""
        latency = self.latency
        return gpu.launch(
            trace, self.name, self.phase, self.config, body, self.stats,
            coalesced=self.coalesced, ordered=self.ordered,
            extra_latency_s=(0.0 if latency is None
                             else latency(self, gpu.cost_model.params)),
        )

    def launch(self, trace: Trace, gpu: GPU, *buffers: DeviceArray) -> KernelRecord:
        """Launch on ``gpu`` over device ``buffers``, in the order the body
        binds them.

        Every buffer must be resident on ``gpu`` and of the shape the
        kernel expects. A virtual buffer runs no body; the launch is
        priced all the same.
        """
        for buffer in buffers:
            buffer.require_on(gpu)
        if self.check is not None:
            self.check(self.plan, *buffers)
        if any(buffer.virtual for buffer in buffers):
            return self.run(trace, gpu, None)
        return self.run(trace, gpu, self.bind(*[b.data for b in buffers]))


def _check_portion(plan: ExecutionPlan, data: DeviceArray, aux: DeviceArray) -> None:
    n_local = data.shape[1]
    if n_local != plan.n_local:
        raise ConfigurationError(
            f"data has {n_local} elements per problem, plan expects {plan.n_local}"
        )


def _check_aux(plan: ExecutionPlan, aux: DeviceArray) -> None:
    cx = aux.shape[1]
    if cx != plan.chunks_total:
        raise ConfigurationError(
            f"aux has {cx} chunk columns, plan expects {plan.chunks_total}"
        )


def bind_chunk_reduce(
    step: LaunchStep, data: np.ndarray, aux: np.ndarray
) -> Callable[[KernelContext, np.ndarray], None]:
    """Stage 1's body over the storage of ``data`` and ``aux``.

    Whether it takes the one-pass body is decided here, from the dtype
    (:func:`_exact`). The block flow only folds
    (:meth:`_BlockScanCore.totals`): Stage 1 writes chunk totals, never
    data.
    """
    core = step.block_core()
    plan = step.plan
    kp = plan.stage1.params
    op = plan.problem.operator
    bx_total = plan.stage1.bx
    arr = data.reshape(data.shape[0], bx_total, kp.chunk_size)
    aux_cols = aux[:, :bx_total]
    exact = _exact(plan.problem.dtype)

    def totals(chunks: np.ndarray) -> np.ndarray:
        if exact:
            return op.reduce(chunks, axis=-1)
        return core.totals(chunks.reshape(-1, kp.K, kp.Lx, kp.P)).reshape(
            chunks.shape[:-1])

    def body(ctx: KernelContext, block_ids: np.ndarray) -> None:
        if ctx.covers_grid(block_ids):
            aux_cols[...] = totals(arr)
            return
        bx, g = ctx.block_xy(block_ids)
        aux_cols[g, bx] = totals(arr[g, bx])  # gather-copy

    return body


def chunk_reduce_step(
    plan: ExecutionPlan, arch: GPUArchitecture, rows: int,
    phase: str = "stage1", vector_loads: bool = True,
) -> LaunchStep:
    """Stage 1 (Chunk Reduce) over ``rows`` problems: one reduction value
    per chunk.

    Its body binds ``(data, aux)``: ``data`` is a GPU's ``(rows,
    n_local)`` portion, and ``aux`` an auxiliary array on the same GPU
    whose first ``Bx`` columns it writes (a column view of a shared
    array writes that array's columns).
    """
    kp = plan.stage1.params
    config = _launch_config(kp, plan.stage1.bx, rows, plan.problem.itemsize)
    return LaunchStep(
        "chunk_reduce", phase, plan, arch, config,
        chunk_reduce_stats(plan, arch.warp_size, config.blocks),
        bind_chunk_reduce, flow=kp, coalesced=vector_loads,
        check=_check_portion,
    )


def bind_intermediate_scan(
    step: LaunchStep, aux: np.ndarray
) -> Callable[[KernelContext, np.ndarray], None]:
    """Stage 2's body over the storage of ``aux`` (see :func:`bind_chunk_reduce`)."""
    core = step.block_core()
    plan = step.plan
    kp2 = plan.stage2.params
    op = plan.problem.operator
    cx = plan.chunks_total
    identity = op.identity(plan.problem.dtype)
    exact = _exact(plan.problem.dtype)

    def body(ctx: KernelContext, block_ids: np.ndarray) -> None:
        if exact and ctx.covers_grid(block_ids):
            _scan_exact(op, aux, None, False, identity)
            return
        _, by = ctx.block_xy(block_ids)
        problems = (by[:, None] * kp2.Ly + np.arange(kp2.Ly)).reshape(-1)
        npb = len(problems)
        rows = aux[problems]  # (npb, cx) gather-copy
        if exact:
            _scan_exact(op, rows, None, False, identity)
            aux[problems] = rows
        else:
            # Identity-pad up to whole rounds; idle lanes execute but
            # cannot perturb any real element's prefix.
            rounds = ceil_div(cx, kp2.P * kp2.Lx)
            padded = rounds * kp2.P * kp2.Lx
            staged = np.full((npb, padded), identity, dtype=rows.dtype)
            staged[:, :cx] = rows
            view = staged.reshape(npb, rounds, kp2.Lx, kp2.P)

            _scan_flow(core, view, None, False, identity)
            aux[problems] = staged[:, :cx]

    return body


def intermediate_scan_step(
    plan: ExecutionPlan, arch: GPUArchitecture, phase: str = "stage2",
) -> LaunchStep:
    """Stage 2 (Intermediate Scan): the exclusive scan of each problem's
    chunk sums, in place over the ``(g_local, chunks_total)`` ``aux``
    its body binds.

    A block packs ``Ly^2`` problems; when ``chunks_total`` exceeds one
    block round (``P^2 * Lx^2`` elements) the block iterates serially
    with a running carry, which the counters reflect.
    """
    kp2 = plan.stage2.params
    config = _launch_config(kp2, plan.stage2.bx, plan.stage2.by, plan.problem.itemsize)
    return LaunchStep(
        "intermediate_scan", phase, plan, arch, config,
        intermediate_scan_stats(plan, arch.warp_size), bind_intermediate_scan,
        flow=_stage2_row_params(kp2), check=_check_aux,
    )


def bind_scan_add(
    step: LaunchStep, data: np.ndarray, aux_scanned: np.ndarray
) -> Callable[[KernelContext, np.ndarray], None]:
    """Stage 3's body over the storage of ``data`` and ``aux_scanned``
    (see :func:`bind_chunk_reduce`)."""
    core = step.block_core()
    plan = step.plan
    kp = plan.stage3.params
    op = plan.problem.operator
    bx_total = plan.stage3.bx
    inclusive_out = plan.problem.inclusive
    arr = _view(data, data.shape[0], bx_total, kp.chunk_size)
    aux_cols = aux_scanned[:, :bx_total]
    identity = op.identity(plan.problem.dtype)
    exact = _exact(plan.problem.dtype)

    def scan(chunks: np.ndarray, base: np.ndarray) -> None:
        if exact:
            _scan_exact(op, chunks, base, inclusive_out, identity)
        else:
            _scan_flow(core, _view(chunks, -1, kp.K, kp.Lx, kp.P),
                       base.reshape(-1), inclusive_out, identity)

    def body(ctx: KernelContext, block_ids: np.ndarray) -> None:
        if ctx.covers_grid(block_ids):
            scan(arr, aux_cols)
            return
        bx, g = ctx.block_xy(block_ids)
        chunks = arr[g, bx]  # (nb, chunk) gather-copy
        scan(chunks, aux_cols[g, bx])
        arr[g, bx] = chunks

    return body


def scan_add_step(
    plan: ExecutionPlan, arch: GPUArchitecture, rows: int,
    phase: str = "stage3", vector_loads: bool = True,
) -> LaunchStep:
    """Stage 3 (Scan+Addition) over ``rows`` problems: the local scan of
    every chunk plus its offset.

    Its body binds ``(data, aux_scanned)``: it reads the *exclusive*
    chunk offsets Stage 2 left in the first ``Bx`` columns of
    ``aux_scanned`` (as Stage 1 writes them) and writes the final scan in
    place over ``data``. Inclusive vs exclusive output follows the
    problem config.
    """
    kp = plan.stage3.params
    config = _launch_config(kp, plan.stage3.bx, rows, plan.problem.itemsize)
    return LaunchStep(
        "scan_add", phase, plan, arch, config,
        scan_add_stats(plan, arch.warp_size, config.blocks), bind_scan_add,
        flow=kp, coalesced=vector_loads,
    )


# --------------------------------------------------------------------------
# Single pass: sp-dlb (repro.core.single_pass) and, under idealised
# pricing, chained (repro.core.chained)
# --------------------------------------------------------------------------

#: Threads of the descriptor-reset memset kernel (a trivial 1D grid).
_RESET_BLOCK_THREADS = 256


def _lookback_geometry(
    plan: ExecutionPlan, arch: GPUArchitecture
) -> tuple[LaunchConfig, int, LookbackParams]:
    """(launch config, resident-block capacity, protocol params) of the pass.

    The capacity — how many scan blocks are concurrently resident — is the
    lookback horizon of the cost model: a block can only ever observe
    ``A`` descriptors from co-resident predecessors; everything older has
    already published its inclusive ``P`` prefix.
    """
    kp = plan.stage1.params
    config = _launch_config(kp, plan.stage1.bx, plan.stage1.by, plan.problem.itemsize)
    occ = config.occupancy_on(arch)
    capacity = resident_capacity(occ.blocks_per_sm, arch.sm_count)
    return config, capacity, LookbackParams(window=arch.warp_size)


def descriptor_reset_stats(g_local: int, bx_total: int) -> LaunchStats:
    """Closed-form counters of the descriptor memset (one status word each)."""
    n_desc = g_local * bx_total
    lb = LookbackParams()
    stats = LaunchStats()
    stats.write_global(n_desc * lb.status_bytes)
    stats.address_math(n_desc)
    return stats


def bind_descriptor_reset(
    step: LaunchStep, status: np.ndarray
) -> Callable[[KernelContext, np.ndarray], None]:
    """The descriptor memset's body over the storage of ``status``."""
    g_local, bx_total = status.shape
    n_desc = g_local * bx_total
    lanes = np.arange(_RESET_BLOCK_THREADS)

    def body(ctx: KernelContext, block_ids: np.ndarray) -> None:
        if ctx.covers_grid(block_ids):
            status[...] = STATE_INVALID
            return
        bx, _ = ctx.block_xy(block_ids)
        flat = (bx[:, None] * _RESET_BLOCK_THREADS + lanes).reshape(-1)
        flat = flat[flat < n_desc]
        status[flat // bx_total, flat % bx_total] = STATE_INVALID

    return body


def setup_latency_s(step: LaunchStep, params: CostModelParams) -> float:
    """The descriptor reset's protocol-arming latency under ``params``."""
    return params.lookback_setup_s


def descriptor_reset_step(
    plan: ExecutionPlan, arch: GPUArchitecture, plane: tuple[int, int],
    phase: str = "sp-dlb",
) -> LaunchStep:
    """Reset every lookback status word of a ``plane``-shaped ``(g_local,
    Bx)`` status plane to ``X`` (invalid) before the pass; its body binds
    ``(status,)``.

    The scan kernel cannot start until no stale status word is
    observable, so this launch also carries the protocol-arming latency
    (:attr:`~repro.gpusim.costmodel.CostModelParams.lookback_setup_s`):
    the memset/fence round trip plus priming the polling path. This fixed
    cost — not bandwidth — is what the three-kernel pipeline undercuts at
    small N, giving the tuner a genuine crossover to find.
    """
    g_local, bx_total = plane
    config = LaunchConfig(
        grid_x=ceil_div(g_local * bx_total, _RESET_BLOCK_THREADS),
        grid_y=1,
        block_x=_RESET_BLOCK_THREADS,
        block_y=1,
        regs_per_thread=8,
        smem_per_block=0,
    )
    return LaunchStep(
        "descriptor_reset", phase, plan, arch, config,
        descriptor_reset_stats(g_local, bx_total), bind_descriptor_reset,
        latency=setup_latency_s,
    )


def single_pass_scan_stats(
    plan: ExecutionPlan,
    arch: GPUArchitecture,
    blocks: int,
    reads: int,
) -> LaunchStats:
    """Closed-form counters of the decoupled-lookback pass (exact).

    The streaming traffic is one pass's ~2N bytes; on top of it the
    protocol moves descriptors at warp granularity:
    :func:`~repro.gpusim.lookback.total_lookback_reads` aggregate/prefix
    reads (a pure function of grid column and resident capacity, not of
    how the body resolves the prefixes) and two publishes per block
    (``A`` then ``P``), each
    :attr:`~repro.gpusim.lookback.LookbackParams.descriptor_words` words.
    ``blocks`` are the launch's blocks and ``reads`` their descriptor
    reads.
    """
    kp = plan.stage1.params
    itemsize = plan.problem.itemsize
    stats = block_flow_stats(kp, arch.warp_size, itemsize, blocks, kp.K, addressing=6)
    words = LookbackParams().descriptor_words * itemsize
    stats.read_global(blocks * kp.chunk_size * itemsize + reads * words)
    stats.write_global(blocks * kp.chunk_size * itemsize + blocks * 2 * words)
    stats.apply_operator(reads + blocks)  # lookback accumulation + P publish
    stats.address_math(reads)
    return stats


def _check_planes(
    plan: ExecutionPlan, data: DeviceArray, status: DeviceArray,
    descriptors: DeviceArray,
) -> None:
    """Raise unless the descriptor planes match ``data``'s blocks."""
    g_local = data.shape[0]
    bx_total = plan.stage1.bx
    planes = (status.shape, descriptors.shape)
    if planes != ((g_local, bx_total), (g_local, bx_total, 2)):
        raise ConfigurationError(
            f"descriptor planes must be {(g_local, bx_total)} and "
            f"{(g_local, bx_total, 2)}, got {planes[0]} and {planes[1]}"
        )


def _resolve_lookback(
    op: Operator,
    status: np.ndarray,
    desc: np.ndarray,
    block_ids: np.ndarray,
    bx: np.ndarray,
    g: np.ndarray,
    totals: np.ndarray,
) -> np.ndarray:
    """Resolve and publish the lookback of one call's blocks.

    Returns each block's exclusive prefix and leaves its descriptor in
    state ``P``: inclusive prefix published, aggregate too for ``bx > 0``.

    The blocks form runs of consecutive columns of one row (an ordered
    launch delivers them in ascending order), and one accumulate folds
    every run left to right. A run that starts mid-row is seeded with its
    predecessor's ``P``, which an earlier call must have published — a
    block delivered before its predecessor raises
    :class:`~repro.errors.LaunchError`. A run that starts its row begins
    at its own first total, as block 0 publishes its total directly
    (folding the add identity in would turn a ``-0.0`` into ``+0.0``).
    """
    nb = len(block_ids)
    starts_run = np.ones(nb, dtype=bool)
    starts_run[1:] = (np.diff(block_ids) != 1) | (bx[1:] == 0)
    starts = np.flatnonzero(starts_run)
    run = np.cumsum(starts_run) - 1
    seeded = bx[starts] > 0
    pred_g, pred_bx = g[starts[seeded]], bx[starts[seeded]] - 1
    invalid = np.flatnonzero(status[pred_g, pred_bx] != STATE_PREFIX)
    if invalid.size:
        j = invalid[0]
        raise LaunchError(
            f"lookback hit an invalid descriptor at block {pred_bx[j]} "
            f"(problem {pred_g[j]}): reset/ordering protocol violated"
        )

    # One row of ``folds`` per run: [seed,] totals..., identity-padded on
    # the right (padding folds after every real column, so it is inert).
    identity = op.identity(totals.dtype)
    col = np.arange(nb) - starts[run] + seeded[run]
    folds = np.full((len(starts), int(col.max()) + 1), identity, dtype=totals.dtype)
    folds[run, col] = totals
    folds[seeded, 0] = desc[pred_g, pred_bx, 1]
    op.accumulate(folds, axis=1, out=folds)
    prefixes = np.full(nb, identity, dtype=totals.dtype)
    after_seed = col > 0
    prefixes[after_seed] = folds[run[after_seed], col[after_seed] - 1]

    has_pred = bx > 0
    desc[g[has_pred], bx[has_pred], 0] = totals[has_pred]
    desc[g, bx, 1] = folds[run, col]
    status[g, bx] = STATE_PREFIX
    return prefixes


def bind_single_pass_scan(
    step: LaunchStep,
    data: np.ndarray,
    status: np.ndarray,
    descriptors: np.ndarray,
) -> Callable[[KernelContext, np.ndarray], None]:
    """The single pass's body over the storage of ``data`` and its two
    descriptor planes (see :func:`bind_chunk_reduce`)."""
    core = step.block_core()
    plan = step.plan
    kp = plan.stage1.params
    op = plan.problem.operator
    inclusive_out = plan.problem.inclusive
    arr = _view(data, data.shape[0], plan.stage1.bx, kp.chunk_size)
    identity = op.identity(plan.problem.dtype)
    exact = _exact(plan.problem.dtype)

    def body(ctx: KernelContext, block_ids: np.ndarray) -> None:
        bx, g = ctx.block_xy(block_ids)
        covering = ctx.covers_grid(block_ids)
        chunks = arr if covering else arr[g, bx]  # else a gather-copy
        if exact:
            totals = op.reduce(chunks, axis=-1)
            prefixes = _resolve_lookback(
                op, status, descriptors, block_ids, bx, g, totals.reshape(-1)
            )
            _scan_exact(
                op, chunks, prefixes.reshape(totals.shape), inclusive_out,
                identity,
            )
        else:
            lanes = _view(chunks, -1, kp.K, kp.Lx, kp.P)
            partials = core.run(lanes)
            carries = core.cascade_carries(partials["iteration_totals"])
            totals = core.chunk_totals(partials["iteration_totals"])  # (nb,)
            prefixes = _resolve_lookback(
                op, status, descriptors, block_ids, bx, g, totals
            )
            _apply_offsets(op, lanes, partials, carries, prefixes,
                           inclusive_out, identity)
        if not covering:
            arr[g, bx] = chunks

    return body


def single_pass_step(
    plan: ExecutionPlan, arch: GPUArchitecture, phase: str = "sp-dlb",
) -> LaunchStep:
    """The decoupled-lookback pass: local scan + descriptor protocol, once.

    Its body binds ``(data, status, descriptors)``. The global-memory
    protocol state is two planes per block: ``status``, the ``(g_local,
    Bx)`` integer status word, reset to ``X`` before the pass (by
    :func:`descriptor_reset_step`'s launch, or allocated so), and
    ``descriptors``, the ``(g_local, Bx, 2)`` ``[aggregate,
    inclusive_prefix]`` pair in the payload dtype. Each block:

    1. runs the Stage-1/3 register/warp/smem flow over its chunk;
    2. resolves its exclusive prefix — on hardware by looking back over
       its predecessors' ``A`` aggregates until a ``P`` prefix, folding
       left to right;
    3. applies the prefix to its elements and publishes its inclusive
       prefix (state ``P``; block 0 publishes it directly).

    The body does not replay that walk block by block. Every published
    ``P`` is the left fold of its row's chunk totals, so the walk's
    result is the sequential fold, and one accumulate over each row's
    chunk totals resolves every block of the call with the same bits
    (:func:`_resolve_lookback`). Float results are therefore
    bit-identical across the vectorized and blockwise execution modes.

    This step prices the protocol as ``sp-dlb`` pays for it
    (:mod:`repro.core.chained` builds the same pass with free
    descriptors): the residency window shapes the descriptor reads
    (:func:`~repro.gpusim.lookback.total_lookback_reads`) and the polling
    stall. The stall is round-trip-bound, invisible to the byte-counting
    roofline, so it rides on the launch as ``extra_latency_s`` — computed
    closed-form from the grid geometry (schedule-independent), identical
    for the functional run and the analytic estimate.
    """
    config, capacity, lookback = _lookback_geometry(plan, arch)
    reads = total_lookback_reads(plan.stage1.bx, plan.stage1.by, capacity)
    return LaunchStep(
        "single_pass_scan", phase, plan, arch, config,
        single_pass_scan_stats(plan, arch, config.blocks, reads),
        bind_single_pass_scan, flow=plan.stage1.params, ordered=True,
        capacity=capacity, lookback=lookback, latency=LaunchStep.stall_s,
        check=_check_planes,
    )
