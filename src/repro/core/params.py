"""Tuning-strategy parameters (Table 2 of the paper) and their constraints.

Three groups, exactly as the paper defines them:

- *Problem parameters*, given by the application: ``N = 2^n`` elements per
  problem and ``G = 2^g`` problems solved simultaneously (batch).
- *GPU performance parameters*, chosen by the premises: ``S = 2^s`` shared
  memory elements per block, ``P = 2^p`` register elements per thread,
  ``L = 2^l`` threads per block (``L = Lx * Ly``), ``B = Bx * By`` thread
  blocks, and ``K`` cascade iterations per block (chunk size
  ``K * P * Lx``).
- *Node performance parameters*: ``Y`` PCIe networks per node, ``V`` GPUs
  per network, ``W = Y * V`` GPUs per node, ``M`` nodes.

Everything is a power of two (the paper's convention); constructors take
either the value or are built from exponents via ``from_exponents``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.primitives.operators import ADD, Operator, resolve_operator
from repro.util.ints import ilog2, is_power_of_two
from repro.util.validation import require, require_power_of_two

#: Upper bound on s imposed by the shuffle implementation: shared memory
#: only holds one partial per warp and warps/block <= 32 on every supported
#: architecture, so S <= 32 ("thanks to use shuffle instructions, S <= 32").
MAX_S_WITH_SHUFFLE = 5

#: dtype kinds the kernels scan: bool, signed and unsigned integer, float
#: and complex.
SCANNABLE_KINDS = "biufc"


def require_scannable(dtype, operator: Operator | str) -> None:
    """Reject, with :class:`ConfigurationError`, what the kernels cannot scan.

    The dtype kind must be one of :data:`SCANNABLE_KINDS` (no strings,
    bytes, objects, datetimes, timedeltas or structured records), and the
    operator must have an identity for the dtype (``or`` and ``xor`` need
    an integer dtype). Every entry point that takes user data checks this
    before planning, so no raw numpy error escapes the kernels.
    """
    dtype = np.dtype(dtype)
    if dtype.kind not in SCANNABLE_KINDS:
        raise ConfigurationError(
            f"cannot scan dtype {dtype}: scan input must be bool, integer, "
            "float or complex"
        )
    op = resolve_operator(operator)
    try:
        op.identity(dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(
            f"operator {op.name!r} has no identity for dtype {dtype}"
        ) from exc


@dataclass(frozen=True)
class ProblemConfig:
    """The batch the library is asked to scan: G problems of N elements.

    ``inclusive`` must be a ``bool`` or ``np.bool_`` (stored as ``bool``);
    anything else raises :class:`ConfigurationError`.
    """

    n: int
    g: int = 0
    dtype: np.dtype = field(default=np.dtype(np.int32))
    operator: Operator = ADD
    inclusive: bool = True

    def __post_init__(self) -> None:
        require(self.n >= 0, f"n must be >= 0, got {self.n}")
        require(self.g >= 0, f"g must be >= 0, got {self.g}")
        require(
            isinstance(self.inclusive, (bool, np.bool_)),
            f"inclusive must be a bool, got {self.inclusive!r}",
        )
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        object.__setattr__(self, "operator", resolve_operator(self.operator))
        object.__setattr__(self, "inclusive", bool(self.inclusive))

    def __hash__(self) -> int:
        # Every warm call looks its config up in the session's and the
        # executor's maps: the fields' hash is computed once per instance.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.n, self.g, self.dtype, self.operator,
                          self.inclusive))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # str and operator hashes are per process: a pickle carries fields.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @classmethod
    def from_sizes(
        cls,
        N: int,
        G: int = 1,
        dtype=np.int32,
        operator: Operator | str = ADD,
        inclusive: bool = True,
    ) -> "ProblemConfig":
        require_power_of_two(N, "N")
        require_power_of_two(G, "G")
        return cls(
            n=ilog2(N),
            g=ilog2(G),
            dtype=np.dtype(dtype),
            operator=resolve_operator(operator),
            inclusive=inclusive,
        )

    @classmethod
    def for_batch(
        cls, batch: np.ndarray, operator: Operator | str, inclusive: bool
    ) -> "ProblemConfig":
        """The config of a coerced ``(G, N)`` host batch, checked with
        :func:`require_scannable`."""
        require_scannable(batch.dtype, operator)
        g, n = batch.shape
        return cls.from_sizes(
            N=n, G=g, dtype=batch.dtype, operator=operator, inclusive=inclusive
        )

    @property
    def N(self) -> int:
        return 1 << self.n

    @property
    def G(self) -> int:
        return 1 << self.g

    @property
    def total_elements(self) -> int:
        return self.N * self.G

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def total_bytes(self) -> int:
        return self.total_elements * self.itemsize


@dataclass(frozen=True)
class KernelParams:
    """(s, p, l, K) plus the L = Lx * Ly split for one kernel stage."""

    s: int
    p: int
    l: int
    lx: int
    ly: int
    K: int = 1
    use_shuffle: bool = True

    def __post_init__(self) -> None:
        require(self.s >= 0, f"s must be >= 0, got {self.s}")
        require(self.p >= 0, f"p must be >= 0, got {self.p}")
        require(self.l >= 0, f"l must be >= 0, got {self.l}")
        require(self.lx >= 0 and self.ly >= 0, "lx and ly must be >= 0")
        require(
            self.lx + self.ly == self.l,
            f"l must equal lx + ly (Table 2): l={self.l}, lx={self.lx}, ly={self.ly}",
        )
        require(is_power_of_two(self.K), f"K must be a power of two, got {self.K}")
        # Table 2: S <= P * L. With shuffles, shared memory only carries the
        # inter-warp partials, further bounding s <= 5 (Section 3.1).
        require(
            self.S <= self.P * self.L,
            f"S <= P*L violated: S={self.S}, P={self.P}, L={self.L}",
        )
        if self.use_shuffle:
            require(
                self.s <= MAX_S_WITH_SHUFFLE,
                f"shuffle implementation requires s <= {MAX_S_WITH_SHUFFLE}, got s={self.s}",
            )

    @property
    def S(self) -> int:
        return 1 << self.s

    @property
    def P(self) -> int:
        return 1 << self.p

    @property
    def L(self) -> int:
        return 1 << self.l

    @property
    def Lx(self) -> int:
        return 1 << self.lx

    @property
    def Ly(self) -> int:
        return 1 << self.ly

    @property
    def elements_per_iteration(self) -> int:
        """Elements one block covers in one cascade iteration: P * Lx."""
        return self.P * self.Lx

    @property
    def chunk_size(self) -> int:
        """Chunk size (elements per block): K * P * Lx (Table 2)."""
        return self.K * self.P * self.Lx

    def smem_bytes(self, itemsize: int) -> int:
        """Shared memory footprint of one block."""
        return self.S * itemsize

    def estimated_regs_per_thread(self, overhead: int = 24) -> int:
        """Register estimate: P data registers + indexing/auxiliary overhead.

        Premise 2 notes "auxiliary variables and index calculation consume
        many registers"; the constant models that fixed cost.
        """
        return self.P + overhead

    def with_k(self, K: int) -> "KernelParams":
        return replace(self, K=K)


@dataclass(frozen=True)
class NodeConfig:
    """(W, V, Y, M): how many GPUs participate and how they are grouped.

    ``W = Y * V`` GPUs per node across ``Y`` PCIe networks with ``V`` GPUs
    each; ``M`` nodes in total.
    """

    w: int
    v: int
    m: int = 0

    def __post_init__(self) -> None:
        require(self.w >= 0, f"w must be >= 0, got {self.w}")
        require(self.v >= 0, f"v must be >= 0, got {self.v}")
        require(self.m >= 0, f"m must be >= 0, got {self.m}")
        require(
            self.v <= self.w,
            f"V cannot exceed W: v={self.v}, w={self.w} (W = Y*V with Y >= 1)",
        )

    @classmethod
    def from_counts(cls, W: int, V: int, M: int = 1) -> "NodeConfig":
        require_power_of_two(W, "W")
        require_power_of_two(V, "V")
        require_power_of_two(M, "M")
        require(V <= W, f"V cannot exceed W: V={V}, W={W} (W = Y*V with Y >= 1)")
        return cls(w=ilog2(W), v=ilog2(V), m=ilog2(M))

    @property
    def W(self) -> int:
        return 1 << self.w

    @property
    def V(self) -> int:
        return 1 << self.v

    @property
    def Y(self) -> int:
        return 1 << self.y

    @property
    def y(self) -> int:
        return self.w - self.v

    @property
    def M(self) -> int:
        return 1 << self.m

    @property
    def total_gpus(self) -> int:
        return self.M * self.W


@dataclass(frozen=True)
class StagePlan:
    """One kernel stage fully resolved: params + grid decomposition."""

    params: KernelParams
    bx: int  # blocks per problem (B_x)
    by: int  # problems per kernel (B_y)

    def __post_init__(self) -> None:
        require(self.bx >= 1 and self.by >= 1, "grid dimensions must be >= 1")

    @property
    def blocks(self) -> int:
        return self.bx * self.by


@dataclass(frozen=True)
class ExecutionPlan:
    """A complete three-stage plan for one GPU's share of the batch.

    ``n_local`` is the per-GPU portion of each problem (N, N/W or N/(M*W)
    depending on the proposal); ``chunks_total`` is the per-problem chunk
    count across all participating GPUs (the Stage-2 input width B_x^1,
    W*B_x^1 or M*W*B_x^1).
    """

    problem: ProblemConfig
    stage1: StagePlan
    stage2: StagePlan
    stage3: StagePlan
    n_local: int
    chunks_total: int
    gpus_sharing_problem: int = 1

    def __post_init__(self) -> None:
        # Section 3.1 equalities the implementation relies on.
        require(
            self.stage1.bx == self.stage3.bx,
            f"B_x^1 must equal B_x^3, got {self.stage1.bx} vs {self.stage3.bx}",
        )
        require(
            self.stage1.params.K == self.stage3.params.K,
            "K^1 must equal K^3 (stages 1 and 3 share chunking)",
        )
        require(
            self.stage2.params.K == 1,
            f"K^2 must be 1 (Premise 3), got {self.stage2.params.K}",
        )
        require(
            self.stage1.params.ly == 0 and self.stage3.params.ly == 0,
            "L_y^{1,3} must be 1: all threads of a block work on one chunk",
        )
        require(
            self.stage2.bx == 1,
            f"B_x^2 must be 1 (Section 3.1), got {self.stage2.bx}",
        )
        chunk = self.stage1.params.chunk_size
        require(
            self.stage1.bx * chunk == self.n_local,
            f"chunking must tile the local portion exactly: "
            f"Bx*chunk = {self.stage1.bx}*{chunk} != n_local = {self.n_local}",
        )
        require(
            self.chunks_total == self.stage1.bx * self.gpus_sharing_problem,
            "chunks_total must equal Bx^1 * (GPUs sharing each problem)",
        )

    @property
    def chunk_size(self) -> int:
        return self.stage1.params.chunk_size

    @property
    def chunks_per_gpu(self) -> int:
        return self.stage1.bx
