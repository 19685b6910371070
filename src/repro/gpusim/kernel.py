"""Kernel launch abstraction: launch configuration, stats counters, execution.

A simulated kernel is a Python callable ``body(ctx, block_ids)`` where
``block_ids`` is an array of linear block indices the call must process.
Bodies are written vectorised (numpy over all requested blocks at once),
which is faithful to the SIMT model: every block executes the same
instruction sequence on different data, so executing them "simultaneously"
as array axes is semantically identical to any serial order — *provided
blocks are independent*. The engine's ``blockwise`` mode re-runs the same
body one block at a time in a random order, which is how the test suite
proves that independence (illegal inter-block communication would make the
result order-dependent).

Kernel bodies only move data. A launch is priced from its closed-form
:class:`LaunchStats`, which the caller derives from the launch geometry;
the cost model converts those counters plus the occupancy result into a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import LaunchError
from repro.gpusim.arch import GPUArchitecture
from repro.gpusim.occupancy import OccupancyResult, occupancy
from repro.util.ints import ceil_div


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry and per-block resources for one launch.

    Mirrors the paper's two-dimensional decomposition: ``grid = (Bx, By)``
    with ``Bx`` blocks per problem and ``By`` problems per kernel, and
    ``block = (Lx, Ly)`` with ``Lx`` threads per problem and ``Ly``
    problems per block (Table 2).
    """

    grid_x: int
    grid_y: int
    block_x: int
    block_y: int
    regs_per_thread: int
    smem_per_block: int

    def __post_init__(self) -> None:
        for name in ("grid_x", "grid_y", "block_x", "block_y"):
            if getattr(self, name) < 1:
                raise LaunchError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.regs_per_thread < 1:
            raise LaunchError("regs_per_thread must be >= 1")
        if self.smem_per_block < 0:
            raise LaunchError("smem_per_block must be >= 0")
        # Every launch looks its config up in two memos, whose keys may
        # be equal configs built by other plans or executors: the fields
        # are packed and hashed once, here.
        key = (self.grid_x, self.grid_y, self.block_x, self.block_y,
               self.regs_per_thread, self.smem_per_block)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def blocks(self) -> int:
        return self.grid_x * self.grid_y

    @property
    def threads_per_block(self) -> int:
        return self.block_x * self.block_y

    def warps_per_block(self, warp_size: int) -> int:
        return ceil_div(self.threads_per_block, warp_size)

    def occupancy_on(self, arch: GPUArchitecture) -> OccupancyResult:
        return occupancy(
            arch,
            warps_per_block=self.warps_per_block(arch.warp_size),
            regs_per_thread=self.regs_per_thread,
            smem_per_block=self.smem_per_block,
        )


@dataclass
class LaunchStats:
    """Traffic/instruction counters of one launch, derived in closed form."""

    global_bytes_read: int = 0
    global_bytes_written: int = 0
    smem_bytes_read: int = 0
    smem_bytes_written: int = 0
    shuffle_instructions: int = 0
    operator_applications: int = 0
    addressing_instructions: int = 0

    def read_global(self, nbytes: int) -> None:
        self.global_bytes_read += int(nbytes)

    def write_global(self, nbytes: int) -> None:
        self.global_bytes_written += int(nbytes)

    def apply_operator(self, count: int) -> None:
        self.operator_applications += int(count)

    def address_math(self, count: int) -> None:
        self.addressing_instructions += int(count)


#: Read-only ``arange(total)`` block-id arrays, one per grid size; the cap
#: bounds memory for long-running servers.
_GRID_IDS: dict[int, np.ndarray] = {}
_GRID_IDS_CAP = 64


def grid_ids(total: int) -> np.ndarray:
    """The ids ``0 .. total-1`` of a whole grid, in launch order.

    One cached read-only array per grid size: the vectorized engine hands
    this very array to a body, so :meth:`KernelContext.covers_grid`
    recognises such a call with an identity test instead of a compare.
    """
    ids = _GRID_IDS.get(total)
    if ids is None:
        if len(_GRID_IDS) >= _GRID_IDS_CAP:
            _GRID_IDS.clear()
        ids = np.arange(total, dtype=np.int64)
        ids.flags.writeable = False
        _GRID_IDS[total] = ids
    return ids


@dataclass
class KernelContext:
    """What a kernel body sees: its launch geometry."""

    config: LaunchConfig

    def covers_grid(self, block_ids: np.ndarray) -> bool:
        """Whether one call received every block of the grid, in launch order.

        True exactly for the vectorized engine's single call, which passes
        :func:`grid_ids`; any other delivery (blockwise, reordered test
        engines) is answered ``False`` in O(1), without a compare.
        """
        return block_ids is _GRID_IDS.get(self.config.blocks)

    def block_xy(self, block_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decompose linear block ids into (bx, by) grid coordinates.

        Linearisation is x-major: ``id = by * grid_x + bx``, matching CUDA's
        iteration order for a (grid_x, grid_y) launch.
        """
        return block_ids % self.config.grid_x, block_ids // self.config.grid_x


@dataclass
class ExecutionEngine:
    """Block scheduler for simulated launches.

    ``mode="vectorized"`` hands the body all blocks at once (fast path);
    ``mode="blockwise"`` executes one block at a time in a random order to
    expose any illegal inter-block dependence. Both modes must produce the
    same result for a correct kernel — a property the tests assert.
    """

    mode: str = "vectorized"
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def run(self, ctx: KernelContext, body, ordered: bool = False) -> None:
        """Schedule a launch's blocks.

        ``ordered=True`` marks a kernel with *forward* inter-block
        dependencies (the chained/decoupled-lookback scan family): on real
        hardware those resolve dynamically through global-memory
        descriptors; the simulation executes blocks in ascending order,
        which is the dependency order. Ordinary kernels must tolerate any
        order, and ``blockwise`` mode deliberately randomises it.
        """
        total = ctx.config.blocks
        if self.mode == "vectorized":
            body(ctx, grid_ids(total))
        elif self.mode == "blockwise":
            order = (
                np.arange(total, dtype=np.int64)
                if ordered
                else self.rng.permutation(total)
            )
            for block_id in order:
                body(ctx, np.asarray([block_id], dtype=np.int64))
        else:
            raise LaunchError(f"unknown execution mode {self.mode!r}")
