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
composed on the small per-thread arrays and applied in one tiled
combine, after a one-place shift of each row for exclusive output
(:func:`_apply_offsets`). Stage 1 only folds each thread's elements: it
needs chunk totals, not scans. Every element still combines in the
flow's order. Integer and bool payloads are *exact*: every association
of their arithmetic gives the same bits, so their bodies compute the
same result with one operator pass per chunk (a reduce in Stage 1, an
accumulate with the offset folded in elsewhere, after the same shift
for exclusive output). A call that covers the grid works on views of
the device buffers, whichever body runs. A multi-GPU portion is a
column block of the call's result array, pitched like a
``cudaMallocPitch`` allocation (rows ``N`` elements apart), so every
view a body writes through keeps the row axis.

The bodies are vectorised over the blocks they are asked to process, which
is legitimate because blocks are independent; the ``blockwise`` execution
mode of :class:`~repro.gpusim.kernel.ExecutionEngine` re-runs them one
block at a time in random order to prove that independence in tests.

Bodies only move data. Everything a launch derives from its plan alone —
the launch configuration, its closed-form counters (those of the flow
above, :func:`block_flow_stats`), the block-flow and lookback geometry —
is held by its :class:`LaunchStep`, with its body (bound once by a
``bind_*`` function to that geometry; the storage is an argument) and
the launch arguments. Each kernel's ``*_step`` factory is the one place
that builds it. Every launch is priced from the step's counters,
whichever body ran, so traces and simulated time do not depend on the
body. A launch whose destination is a virtual buffer (the analytic
estimate) runs no body at all.

Every executor holds its steps in a
:class:`~repro.core.executor.LaunchProgram`, which hands each body its
call's buffers, and :meth:`repro.gpusim.device.GPU.launch` reuses the
priced record, so a warm launch costs its body and a trace append.
Outside a program, :meth:`LaunchStep.launch` checks its device buffers
and runs the body over them.
"""

from __future__ import annotations

from functools import partial
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
        """Execute the block flow over ``chunks`` of shape (..., K, Lx,
        P): ``nb`` blocks laid out over the leading axes, in order (a
        portion's rows keep their own axis, so a pitched portion is a
        view too).

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
        K = chunks.shape[-3]
        threads = _threads(chunks)
        # (1) each thread's P register elements, scanned in place (the raw
        # values are never needed once their prefix is computed).
        self.op.accumulate(threads, axis=-1, out=threads)
        return self._warp_flow(
            threads[..., -1].reshape(-1, K, self.num_warps, self.width))

    def totals(self, chunks: np.ndarray) -> np.ndarray:
        """Stage 1's flow: the total of each chunk of ``chunks`` ``(...,
        K, Lx, P)``, shape ``(...)``, without writing ``chunks``.

        A thread's total is the left fold of its ``P`` elements, which is
        the last element of its register scan.
        """
        K = chunks.shape[-3]
        thread_totals = _left_fold(self.op, _threads(chunks))
        partials = self._warp_flow(
            thread_totals.reshape(-1, K, self.num_warps, self.width))
        return self.chunk_totals(partials["iteration_totals"]).reshape(
            chunks.shape[:-3])

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


def _threads(chunks: np.ndarray) -> np.ndarray:
    """``chunks`` ``(..., P)`` as one row of ``P`` registers per thread,
    with as few axes as its layout allows: ``(threads, P)`` when it is
    contiguous, ``(rows, threads, P)`` for a pitched portion. numpy runs
    a combine over a 1-D strided view without setting up an iterator."""
    P = chunks.shape[-1]
    if chunks.flags.c_contiguous:
        return _view(chunks, -1, P)
    return _view(chunks, chunks.shape[0], -1, P)


def _left_fold(op: Operator, threads: np.ndarray) -> np.ndarray:
    """The left fold ``((x_0 . x_1) . x_2) . ...`` along the last axis of
    ``threads`` ``(..., P)``: the last element of each inclusive scan, as
    a new C-contiguous array, without writing ``threads``."""
    if threads.shape[-1] == 1:
        return threads[..., 0].copy()
    out = np.empty(threads.shape[:-1], threads.dtype)
    op.combine(threads[..., 0], threads[..., 1], out=out)
    for i in range(2, threads.shape[-1]):
        op.combine(out, threads[..., i], out=out)
    return out


def _view(array: np.ndarray, *shape: int) -> np.ndarray:
    """``array.reshape(shape)`` as a view, so that writes through it land
    in ``array``; raises where numpy would return a copy.

    numpy sets a view's ``base`` to the array that owns the storage, and
    a copy's to a new array (or none), so the check is two attribute
    reads. Splitting the unit-stride last axis, as the bodies do, is a
    view of a contiguous and of a pitched portion alike.
    """
    view = array.reshape(shape)
    owner = array if array.base is None else array.base
    if view.base is not owner and view.size:
        raise ValueError(
            f"an array of shape {array.shape} and strides {array.strides} "
            f"has no view of shape {shape}"
        )
    return view


#: Bytes of data one offset combine covers (:func:`_add_offsets`), and so
#: the size of its expanded-offsets temporary.
_OFFSET_TILE_BYTES = 1 << 18


def _apply_offsets(
    op: Operator,
    runs: np.ndarray,
    P: int,
    partials: dict[str, np.ndarray],
    carries: np.ndarray,
    base: np.ndarray | None,
    inclusive: bool,
    identity,
) -> None:
    """Apply each thread's offset to its register scan, in place over
    ``runs``: the 2-D array with unit-stride rows whose blocks
    :meth:`_BlockScanCore.run` scanned, thread ``t`` of a row owning its
    elements ``[t*P, (t+1)*P)``.

    ``offset = base . (carry(k) . warp_offset) . thread_offset`` is
    composed left-to-right on the small per-thread arrays, so
    non-commutative operators would still be correct, and then combined
    into the data once (:func:`_add_offsets`). ``base`` holds one
    exclusive prefix per block (``None`` when there is none to add).

    ``inclusive=False`` shifts each thread's register scan right by one
    element, identity first, before the combine: the exclusive value at
    ``p`` is ``offset . local[p-1]``. The shift moves each row's elements
    one place right (:func:`_shift_right`), carrying the last element of
    each thread into the next thread's first slot, which the identity
    then overwrites.
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
    rows, n = runs.shape
    if not inclusive:
        _shift_right(runs)
        _view(runs, rows, n // P, P)[..., 0] = identity
    _add_offsets(op, offset.reshape(rows, n // P), runs, P)


def _add_offsets(op: Operator, offsets: np.ndarray, runs: np.ndarray,
                 P: int) -> None:
    """``runs[r, t*P + p] = offsets[r, t] . runs[r, t*P + p]``, in place.

    Combining a broadcast ``(M, 1)`` offset into ``(M, P)`` data runs one
    ``P``-element inner loop per thread. Instead each tile of about
    :data:`_OFFSET_TILE_BYTES` of data has its offsets expanded with
    ``np.repeat`` into a contiguous temporary and combined into the data
    along whole rows: a contiguous array is one long row, a pitched
    portion's rows are taken as many at a time as fill a tile. The tile
    bounds the temporary. Every element is combined once with the same
    operands, so the bits are those of the broadcast combine.
    """
    if runs.flags.c_contiguous:
        runs, offsets = runs.reshape(1, -1), offsets.reshape(1, -1)
    rows, n = runs.shape
    tile = max(P, _OFFSET_TILE_BYTES // runs.itemsize)
    width = min(n, tile // P * P)
    band = max(1, tile // width)
    for r in range(0, rows, band):
        for c in range(0, n, width):
            block = runs[r:r + band, c:c + width]
            expanded = np.repeat(offsets[r:r + band, c // P:(c + width) // P],
                                 P, axis=1)
            op.combine(expanded, block, out=block)
            del expanded  # one temporary at a time


def _shift_right(runs: np.ndarray) -> None:
    """Move every element of each row of ``runs`` (2-D, unit-stride rows)
    one place right, in place; a row's first element is left for the
    caller to overwrite.

    A contiguous array is one memmove (numpy copies an overlapping 1-D
    slice element by element, backwards); a pitched portion is one 2-D
    assignment, which numpy copies through a temporary.
    """
    if not runs.flags.c_contiguous:
        runs[:, 1:] = runs[:, :-1]
        return
    raw = memoryview(runs).cast("B")
    raw[runs.itemsize:] = raw[:-runs.itemsize]


def _scan_flow(
    core: _BlockScanCore,
    runs: np.ndarray,
    K: int,
    base: np.ndarray | None,
    inclusive: bool,
    identity,
) -> None:
    """The block flow's scan of ``runs`` (2-D, unit-stride rows of whole
    ``K``-iteration blocks), in place, each block's offset chain applied
    (``base``: one exclusive prefix per block, in order, ``None`` for
    none)."""
    kp = core.params
    partials = core.run(_view(runs, runs.shape[0], -1, K, kp.Lx, kp.P))
    carries = core.cascade_carries(partials["iteration_totals"])
    _apply_offsets(core.op, runs, kp.P, partials, carries, base, inclusive,
                   identity)


def _scan_exact(
    op: Operator,
    runs: np.ndarray,
    chunk: int,
    base: np.ndarray | None,
    inclusive: bool,
    identity,
) -> None:
    """The exact-dtype body: scan each ``chunk``-element chunk of the rows
    of ``runs`` (2-D, unit-stride rows) in place, one pass.

    Element ``i`` of a chunk becomes ``base . x_0 . ... . x_i``: the offset
    is folded into the first element before a single accumulate
    (``base`` holds one offset per chunk, shaped ``(rows, chunks per
    row)``; ``None`` when there is none). Exclusive output first shifts
    each row right by one with the warp flow's move (:func:`_shift_right`)
    and writes the identity first in each chunk. Integer and bool
    arithmetic is associative exactly, so this is bit-identical to the
    warp flow's ``_apply_offsets`` result.
    """
    chunks = _view(runs, runs.shape[0], -1, chunk)
    if not inclusive:
        _shift_right(runs)
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
    and the launch arguments. The body is bound once, when the step is
    built, to the launch's geometry (``binder(step)``, one of the
    ``bind_*`` functions): ``body(*arrays, ctx, block_ids)`` takes the
    storage it runs over with each launch, and derives only views of it.
    Every launch is the step's :meth:`run`: a held
    :class:`~repro.core.executor.LaunchProgram` hands the body its
    call's buffers, and :meth:`launch` checks device buffers first. The
    exposed latency the roofline cannot see is ``latency(step,
    cost_params)`` (``None``: none); the lookback stall is kept with the
    cost-params object it was priced under (:meth:`stall_s`).
    """

    __slots__ = ("name", "phase", "plan", "arch", "config", "stats",
                 "body", "flow", "coalesced", "ordered", "capacity",
                 "lookback", "latency", "check", "_core", "_stall")

    def __init__(
        self,
        name: str,
        phase: str,
        plan: ExecutionPlan,
        arch: GPUArchitecture,
        config: LaunchConfig,
        stats: LaunchStats,
        binder: Callable[["LaunchStep"], Callable[..., None]],
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
        #: ``body(*arrays, ctx, block_ids)``: the kernel over the storage
        #: of ``arrays``, in the order :meth:`launch` takes its buffers.
        self.body: Callable[..., None] = binder(self)

    def block_core(self) -> _BlockScanCore:
        """The block flow, built and validated when a body first runs it.

        A geometry the flow cannot run raises here, on every launch whose
        body runs the flow; the exact bodies and launches into virtual
        buffers never ask.
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
        takes them.

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
        return self.run(trace, gpu, partial(self.body, *[b.data for b in buffers]))


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


def bind_chunk_reduce(step: LaunchStep) -> Callable[..., None]:
    """Stage 1's body ``body(data, aux, ctx, block_ids)``.

    Whether it takes the one-pass body is decided here, from the dtype
    (:func:`_exact`). The block flow only folds
    (:meth:`_BlockScanCore.totals`): Stage 1 writes chunk totals, never
    data.
    """
    plan = step.plan
    kp = plan.stage1.params
    op = plan.problem.operator
    bx_total = plan.stage1.bx
    chunk = kp.chunk_size
    lanes = (kp.K, kp.Lx, kp.P)
    exact = _exact(plan.problem.dtype)

    def totals(chunks: np.ndarray) -> np.ndarray:
        if exact:
            return op.reduce(chunks, axis=-1)
        return step.block_core().totals(chunks.reshape(chunks.shape[:-1] + lanes))

    def body(data: np.ndarray, aux: np.ndarray, ctx: KernelContext,
             block_ids: np.ndarray) -> None:
        arr = data.reshape(data.shape[0], bx_total, chunk)
        aux_cols = aux[:, :bx_total]
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


def bind_intermediate_scan(step: LaunchStep) -> Callable[..., None]:
    """Stage 2's body ``body(aux, ctx, block_ids)`` (see
    :func:`bind_chunk_reduce`)."""
    plan = step.plan
    kp2 = plan.stage2.params
    op = plan.problem.operator
    cx = plan.chunks_total
    identity = op.identity(plan.problem.dtype)
    exact = _exact(plan.problem.dtype)
    # The flow identity-pads each row up to whole rounds; idle lanes
    # execute but cannot perturb any real element's prefix.
    rounds = ceil_div(cx, kp2.P * kp2.Lx)
    padded = rounds * kp2.P * kp2.Lx

    def body(aux: np.ndarray, ctx: KernelContext,
             block_ids: np.ndarray) -> None:
        if exact and ctx.covers_grid(block_ids):
            _scan_exact(op, aux, cx, None, False, identity)
            return
        _, by = ctx.block_xy(block_ids)
        problems = (by[:, None] * kp2.Ly + np.arange(kp2.Ly)).reshape(-1)
        rows = aux[problems]  # (npb, cx) gather-copy
        if exact:
            _scan_exact(op, rows, cx, None, False, identity)
            aux[problems] = rows
        else:
            staged = np.full((len(problems), padded), identity, dtype=rows.dtype)
            staged[:, :cx] = rows
            _scan_flow(step.block_core(), staged, rounds, None, False, identity)
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


def bind_scan_add(step: LaunchStep) -> Callable[..., None]:
    """Stage 3's body ``body(data, aux_scanned, ctx, block_ids)`` (see
    :func:`bind_chunk_reduce`).

    ``data`` may be a pitched portion (a column block of the result): a
    covering call scans its rows in place, every view keeping the row
    axis.
    """
    plan = step.plan
    kp = plan.stage3.params
    op = plan.problem.operator
    bx_total = plan.stage3.bx
    chunk = kp.chunk_size
    inclusive_out = plan.problem.inclusive
    identity = op.identity(plan.problem.dtype)
    exact = _exact(plan.problem.dtype)

    def scan(runs: np.ndarray, base: np.ndarray) -> None:
        if exact:
            _scan_exact(op, runs, chunk, base, inclusive_out, identity)
        else:
            _scan_flow(step.block_core(), runs, kp.K, base.reshape(-1),
                       inclusive_out, identity)

    def body(data: np.ndarray, aux_scanned: np.ndarray, ctx: KernelContext,
             block_ids: np.ndarray) -> None:
        aux_cols = aux_scanned[:, :bx_total]
        if ctx.covers_grid(block_ids):
            scan(data, aux_cols)
            return
        arr = _view(data, data.shape[0], bx_total, chunk)
        bx, g = ctx.block_xy(block_ids)
        chunks = arr[g, bx]  # (nb, chunk) gather-copy
        scan(chunks, aux_cols[g, bx][:, None])
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


def bind_descriptor_reset(step: LaunchStep) -> Callable[..., None]:
    """The descriptor memset's body ``body(status, ctx, block_ids)``."""
    lanes = np.arange(_RESET_BLOCK_THREADS)

    def body(status: np.ndarray, ctx: KernelContext,
             block_ids: np.ndarray) -> None:
        if ctx.covers_grid(block_ids):
            status[...] = STATE_INVALID
            return
        g_local, bx_total = status.shape
        bx, _ = ctx.block_xy(block_ids)
        flat = (bx[:, None] * _RESET_BLOCK_THREADS + lanes).reshape(-1)
        flat = flat[flat < g_local * bx_total]
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


def bind_single_pass_scan(step: LaunchStep) -> Callable[..., None]:
    """The single pass's body ``body(data, status, descriptors, ctx,
    block_ids)``: the data and its two descriptor planes (see
    :func:`bind_chunk_reduce`)."""
    plan = step.plan
    kp = plan.stage1.params
    op = plan.problem.operator
    bx_total = plan.stage1.bx
    chunk = kp.chunk_size
    inclusive_out = plan.problem.inclusive
    identity = op.identity(plan.problem.dtype)
    exact = _exact(plan.problem.dtype)

    def body(data: np.ndarray, status: np.ndarray, descriptors: np.ndarray,
             ctx: KernelContext, block_ids: np.ndarray) -> None:
        bx, g = ctx.block_xy(block_ids)
        covering = ctx.covers_grid(block_ids)
        if covering:
            runs = data
        else:
            arr = _view(data, data.shape[0], bx_total, chunk)
            runs = arr[g, bx]  # (nb, chunk) gather-copy
        rows = runs.shape[0]
        if exact:
            totals = op.reduce(_view(runs, rows, -1, chunk), axis=-1)
            prefixes = _resolve_lookback(
                op, status, descriptors, block_ids, bx, g, totals.reshape(-1)
            )
            _scan_exact(op, runs, chunk, prefixes.reshape(totals.shape),
                        inclusive_out, identity)
        else:
            core = step.block_core()
            partials = core.run(_view(runs, rows, -1, kp.K, kp.Lx, kp.P))
            carries = core.cascade_carries(partials["iteration_totals"])
            totals = core.chunk_totals(partials["iteration_totals"])  # (nb,)
            prefixes = _resolve_lookback(
                op, status, descriptors, block_ids, bx, g, totals
            )
            _apply_offsets(op, runs, kp.P, partials, carries, prefixes,
                           inclusive_out, identity)
        if not covering:
            arr[g, bx] = runs

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
