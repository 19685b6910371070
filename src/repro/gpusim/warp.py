"""Warp-level primitives: shuffle instructions and intra-warp scans.

CUDA shuffle instructions exchange register values between the lanes of a
warp without touching shared memory; Section 3.1 of the paper builds its
warp scan out of them ("each warp computes warpSize elements using shuffle
instructions and the Ladner-Fischer access pattern") which is what lets the
kernels keep ``s <= 5``.

The simulation is *vectorised over warps*: values are arrays whose last
axis is the lane index (length ``warp_size``) and whose leading axes range
over however many warps execute the instruction simultaneously. Each
function is lane-exact: it computes precisely what the corresponding PTX
instruction produces per lane, including the "keep own value when the
source lane is out of range" semantics of ``__shfl_up``/``__shfl_down``.

The LF warp scan runs lane-major internally: it copies the lanes into a
``(width, warps)`` array, so each LF stage is one broadcast combine over
contiguous rows of every warp, and returns a lane-last view of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.primitives.ladner_fischer import ladner_fischer_schedule
from repro.primitives.networks import kogge_stone_schedule, schedule_depth, schedule_work
from repro.primitives.operators import ADD, Operator, resolve_operator
from repro.util.ints import ilog2


def _check_lanes(values: np.ndarray, width: int) -> None:
    if values.ndim < 1 or values.shape[-1] != width:
        raise ConfigurationError(
            f"lane axis must have length {width}, got shape {values.shape}"
        )


def shfl_up(values: np.ndarray, delta: int, width: int = 32) -> np.ndarray:
    """``__shfl_up_sync``: lane i receives lane i-delta; low lanes keep their value."""
    _check_lanes(values, width)
    out = values.copy()
    if delta <= 0:
        return out
    out[..., delta:] = values[..., : width - delta]
    return out


def shfl_down(values: np.ndarray, delta: int, width: int = 32) -> np.ndarray:
    """``__shfl_down_sync``: lane i receives lane i+delta; high lanes keep their value."""
    _check_lanes(values, width)
    out = values.copy()
    if delta <= 0:
        return out
    out[..., : width - delta] = values[..., delta:]
    return out


def shfl_idx(values: np.ndarray, src_lane: int | np.ndarray, width: int = 32) -> np.ndarray:
    """``__shfl_sync``: every lane receives the value of ``src_lane`` (broadcast/gather)."""
    _check_lanes(values, width)
    lanes = np.asarray(src_lane)
    if np.any(lanes < 0) or np.any(lanes >= width):
        raise ConfigurationError(f"shuffle source lane out of range for width {width}")
    if lanes.ndim == 0:
        return np.broadcast_to(values[..., int(lanes)][..., None], values.shape).copy()
    return values[..., lanes]


def shfl_xor(values: np.ndarray, mask: int, width: int = 32) -> np.ndarray:
    """``__shfl_xor_sync``: butterfly exchange (lane i <- lane i ^ mask)."""
    _check_lanes(values, width)
    lanes = np.arange(width) ^ mask
    if np.any(lanes >= width):
        raise ConfigurationError(f"xor mask {mask} escapes warp width {width}")
    return values[..., lanes]


@dataclass(frozen=True)
class WarpScanCost:
    """Instruction counts of one warp-scan invocation (per warp)."""

    shuffles: int
    operator_applications: int
    steps: int


@lru_cache(maxsize=None)
def _scan_schedule(width: int, pattern: str) -> tuple[tuple, ...]:
    """The (dst, src) exchange schedule of one warp scan, memoized.

    Schedules depend only on (width, pattern); rebuilding them per launch
    dominated the vectorized hot path, so they are computed once.
    """
    if pattern == "ks":
        return kogge_stone_schedule(width)
    if pattern == "lf":
        return ladner_fischer_schedule(width, 0)
    raise ConfigurationError(f"unknown warp scan pattern {pattern!r}; use 'lf' or 'ks'")


@lru_cache(maxsize=None)
def _scan_steps(width: int, pattern: str) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-step (dsts, srcs) lane-index arrays, precomputed once per shape."""
    steps = []
    for step in _scan_schedule(width, pattern):
        dsts = np.fromiter((d for d, _ in step), dtype=np.intp, count=len(step))
        srcs = np.fromiter((s for _, s in step), dtype=np.intp, count=len(step))
        dsts.setflags(write=False)
        srcs.setflags(write=False)
        steps.append((dsts, srcs))
    return tuple(steps)


@lru_cache(maxsize=None)
def _inclusive_cost(width: int, pattern: str) -> WarpScanCost:
    """Per-warp cost of one inclusive scan; every active lane issues one
    shuffle and one operator instruction per exchange (inactive lanes still
    occupy their warp slot but only active work is counted)."""
    work = sum(len(dsts) for dsts, _ in _scan_steps(width, pattern))
    return WarpScanCost(
        shuffles=work,
        operator_applications=work,
        steps=len(_scan_schedule(width, pattern)),
    )


@lru_cache(maxsize=None)
def warp_scan_cost(
    width: int, pattern: str = "lf", exclusive: bool = False
) -> WarpScanCost:
    """Closed-form instruction cost of one warp scan (no data needed).

    Exactly matches what :func:`warp_inclusive_scan` /
    :func:`warp_exclusive_scan` report (asserted in the tests); kernel
    launches are priced from it, whether or not their body runs.
    """
    schedule = _scan_schedule(width, pattern)
    shuffles = schedule_work(schedule)
    applications = schedule_work(schedule)
    steps = schedule_depth(schedule)
    if exclusive:
        return WarpScanCost(
            shuffles=shuffles + 1, operator_applications=applications, steps=steps + 1
        )
    return WarpScanCost(shuffles=shuffles, operator_applications=applications, steps=steps)


def warp_inclusive_scan(
    values: np.ndarray,
    op: Operator | str = ADD,
    width: int = 32,
    pattern: str = "lf",
) -> tuple[np.ndarray, WarpScanCost]:
    """Inclusive scan of each warp's lanes using shuffles.

    ``pattern`` selects the access pattern: ``"lf"`` (Ladner-Fischer, the
    paper's choice) or ``"ks"`` (Kogge-Stone, the classic shfl_up ladder).
    Returns the scanned lanes plus the per-warp instruction cost, which the
    kernel stats counters aggregate for the cost model.

    The LF pattern runs lane-major: the lanes are copied into a
    ``(width, warps)`` array, and each LF(0) stage is one broadcast combine
    on contiguous rows, every lane of an upper half reading the last lane
    of its lower half (``x[dst] = op(x[src], x[dst])``, source first). The
    KS pattern gathers and scatters its (dst, src) lanes. Both are
    lane-exact: each lane combines the same registers in the same order.
    """
    operator = resolve_operator(op)
    _check_lanes(values, width)
    ilog2(width)
    cost = _inclusive_cost(width, pattern)
    if pattern == "lf":
        return _lf_lane_major(values, operator, width).T.reshape(values.shape), cost
    out = values.copy()
    for dsts, srcs in _scan_steps(width, pattern):
        gathered = out[..., srcs]
        # In-place combine into the gathered copy, then scatter back: the
        # gather is unavoidable (fancy indexing), the combine is not.
        out[..., dsts] = operator.combine(gathered, out[..., dsts], out=gathered)
    return out, cost


def _lf_lane_major(values: np.ndarray, operator: Operator, width: int) -> np.ndarray:
    """LF(0) inclusive scan of ``values``' lanes, as a new ``(width, warps)``
    array.

    Stage ``s`` splits the lanes into blocks of ``2^(s+1)`` and combines
    each block's lower-half pivot into its upper half. The lanes are
    always copied: the stages write in place, and a caller's array must
    not see them (a contiguous one-warp input is its own lane-major
    view). A strided input is compacted first, reading it in memory
    order, which is cheaper than transposing out of it.
    """
    lanes = np.ascontiguousarray(values.reshape(-1, width)).T.copy()
    warps = lanes.shape[1]
    half = 1
    while half < width:
        blocks = lanes.reshape(width // (2 * half), 2, half, warps)
        upper = blocks[:, 1]
        operator.combine(blocks[:, 0, -1:], upper, out=upper)
        half *= 2
    return lanes


def warp_exclusive_scan(
    values: np.ndarray,
    op: Operator | str = ADD,
    width: int = 32,
    pattern: str = "lf",
) -> tuple[np.ndarray, WarpScanCost]:
    """Exclusive warp scan: inclusive scan then subtract-free lane shift.

    Section 3.1: "Using the exclusive scan saves an extra communication
    step"; the standard realisation is one extra ``shfl_up`` by one lane
    with the identity injected at lane 0.
    """
    operator = resolve_operator(op)
    inclusive, cost = warp_inclusive_scan(values, operator, width=width, pattern=pattern)
    # The shfl_up-by-one without the copy shfl_up would make: the inclusive
    # array is owned by this call, so build the shifted result directly.
    shifted = np.empty_like(inclusive)
    shifted[..., 1:] = inclusive[..., : width - 1]
    shifted[..., 0] = operator.identity(values.dtype)
    total_cost = WarpScanCost(
        shuffles=cost.shuffles + 1,
        operator_applications=cost.operator_applications,
        steps=cost.steps + 1,
    )
    return shifted, total_cost


def warp_reduce(
    values: np.ndarray,
    op: Operator | str = ADD,
    width: int = 32,
) -> tuple[np.ndarray, WarpScanCost]:
    """Butterfly warp reduction; every lane ends with the warp total."""
    operator = resolve_operator(op)
    _check_lanes(values, width)
    steps = ilog2(width)
    out = values.copy()
    for stage in range(steps):
        out = operator.combine(shfl_xor(out, 1 << stage, width=width), out)
    cost = WarpScanCost(shuffles=steps, operator_applications=steps, steps=steps)
    return out, cost
