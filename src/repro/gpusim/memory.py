"""Simulated device memory: numpy-backed buffers with allocation accounting.

A :class:`DeviceArray` is a numpy array tagged with the device it lives on.
The tag is load-bearing: kernels refuse to touch buffers resident on a
different device (the simulated analogue of dereferencing a foreign pointer
without P2P), and all inter-device movement must go through the
:class:`~repro.interconnect.transfer.TransferEngine` or the simulated MPI
layer, which is where the communication cost model lives.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import AllocationError, DeviceMismatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.device import GPU


class DeviceArray:
    """A buffer resident in one simulated GPU's global memory.

    The underlying storage is a numpy array; views created with
    :meth:`view` share storage (zero-copy, same device), mirroring how CUDA
    kernels address sub-ranges of a single allocation.
    """

    __slots__ = ("_device", "_data", "virtual", "pool_block", "mapped")

    def __init__(
        self,
        device: "GPU",
        data: np.ndarray,
        virtual: bool = False,
        pool_block: np.ndarray | None = None,
        mapped: bool = False,
    ):
        self._device = device
        self._data = data
        #: Virtual buffers have a shape/dtype but no real storage (used by
        #: the analytic estimate path, which never touches element data).
        self.virtual = virtual
        #: Backing block when the storage came from a :class:`BufferPool`
        #: free-list; ``free`` returns the block there instead of dropping
        #: it. ``None`` for ordinary (unpooled) allocations and for views.
        self.pool_block = pool_block
        #: Whether the storage is host memory the buffer was uploaded into
        #: (``GPU.upload(host, out=...)``): a view of an array the caller
        #: keeps, whose bytes ``free`` releases from the device's
        #: accounting without dropping the storage.
        self.mapped = mapped

    @property
    def device(self) -> "GPU":
        return self._device

    @property
    def data(self) -> np.ndarray:
        """The raw numpy storage. Kernels use this; host code should not."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    def view(self, *index) -> "DeviceArray":
        """A zero-copy sub-view on the same device (basic slicing only)."""
        sub = self._data[index if len(index) != 1 else index[0]]
        if sub.base is None and sub is not self._data:
            raise AllocationError("view() must not copy; use basic slicing")
        return DeviceArray(self._device, sub, virtual=self.virtual)

    def reshape(self, *shape) -> "DeviceArray":
        """A zero-copy reshape on the same device."""
        return DeviceArray(self._device, self._data.reshape(*shape), virtual=self.virtual)

    def to_host(self) -> np.ndarray:
        """Copy the contents out to host memory (always a copy)."""
        return self._data.copy()

    def fill_from_host(self, host: np.ndarray) -> None:
        """Overwrite the buffer contents from a host array of equal shape."""
        host = np.asarray(host)
        if host.shape != self._data.shape:
            raise AllocationError(
                f"host array shape {host.shape} does not match device buffer {self._data.shape}"
            )
        self._data[...] = host

    def require_on(self, device: "GPU") -> None:
        """Raise unless this buffer is resident on ``device``."""
        if self._device is not device:
            raise DeviceMismatchError(
                f"buffer resident on {self._device.name} used from {device.name}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceArray(device={self._device.name!r}, shape={self.shape}, "
            f"dtype={self.dtype})"
        )


class AllocationScope:
    """Exception-safe bulk allocation: frees everything on exit.

    Proposals allocate a handful of buffers across several GPUs before a
    timed region; if any allocation fails midway (the deliberate
    out-of-memory of the paper's Case 2), every earlier allocation must be
    released or the device pools leak. Allocation and release both route
    through the owning :class:`~repro.gpusim.device.GPU`, so when a device
    has a :class:`BufferPool` attached every stage buffer a scope frees is
    recycled for the next call instead of reallocated. Use as a context
    manager::

        with AllocationScope() as scope:
            a = scope.alloc(gpu0, (n,), np.int32)
            b = scope.alloc(gpu1, (n,), np.int32, virtual=True)
            ...  # buffers freed on exit, including on exceptions
    """

    def __init__(self):
        self._items: list[DeviceArray] = []

    def alloc(self, gpu, shape, dtype, virtual: bool = False, fill=None) -> DeviceArray:
        if virtual:
            buf = gpu.alloc_virtual(shape, dtype)
        else:
            buf = gpu.alloc(shape, dtype, fill=fill)
        self._items.append(buf)
        return buf

    def upload(self, gpu, host, out: np.ndarray | None = None) -> DeviceArray:
        """``host`` uploaded to ``gpu`` (into ``out`` when given, see
        :meth:`~repro.gpusim.device.GPU.upload`), freed on exit."""
        buf = gpu.upload(host, out=out)
        self._items.append(buf)
        return buf

    def adopt(self, buf: DeviceArray) -> DeviceArray:
        """Track an externally created allocation for scope-exit freeing."""
        self._items.append(buf)
        return buf

    def release(self) -> None:
        while self._items:
            buf = self._items.pop()
            buf.device.free(buf)

    def __enter__(self) -> "AllocationScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


#: Byte written over every recycled buffer in poison mode. 0xA5 repeated
#: makes a conspicuous value in any dtype (e.g. int32 -1515870811) that a
#: kernel silently relying on zero-initialized memory cannot miss.
POISON_BYTE = 0xA5

#: Smallest free-list size class; sub-granule requests round up to it.
_MIN_SIZE_CLASS = 256


def _size_class(nbytes: int) -> int:
    """Round a request up to its power-of-two free-list class."""
    if nbytes <= _MIN_SIZE_CLASS:
        return _MIN_SIZE_CLASS
    return 1 << (nbytes - 1).bit_length()


#: Bound on the request spellings one pool keeps normalised.
_SPELLINGS_CAP = 256


def _normalise(shape, dtype) -> tuple:
    """``(shape tuple, np.dtype, nbytes, free-list key)`` of a request.

    Each dimension must be an integer (``operator.index``): a spelling
    such as ``(4.0, 2)`` raises here, before :class:`BufferPool` keeps
    it, since it is an equal dictionary key to ``(4, 2)``.
    """
    dtype = np.dtype(dtype)
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    shape = tuple([operator.index(dim) for dim in shape])
    nbytes = dtype.itemsize
    for dim in shape:
        nbytes *= dim
    return shape, dtype, nbytes, (_size_class(nbytes), dtype.str)


class BufferPool:
    """Per-GPU free-list of retired allocations, keyed by (size-class, dtype).

    Warm serving paths allocate the same stage buffers over and over (data
    portion, auxiliary array, staging); a CUDA deployment would sit a
    caching allocator (cudaMemPool, CuPy/RAPIDS pool) under them for the
    same reason this one exists — ``cudaMalloc``-per-call costs more than
    the kernels. Blocks are raw byte arrays rounded up to power-of-two
    classes so one retired buffer can serve any same-class request of the
    same dtype.

    ``poison=True`` fills every *recycled* buffer with :data:`POISON_BYTE`
    before handing it out, proving no kernel relies on the zero-filled
    pages a fresh allocation may happen to carry.

    Counters: every pool-mediated allocation is a ``hit`` (served from the
    free-list) or a ``miss`` (fresh backing storage), so
    ``hits + misses == allocs`` always reconciles; ``bytes_reused`` sums
    the payload bytes of hits.
    """

    __slots__ = ("poison", "hits", "misses", "allocs", "releases",
                 "bytes_reused", "_free", "_slots")

    def __init__(self, poison: bool = False):
        self.poison = poison
        self.hits = 0
        self.misses = 0
        self.allocs = 0
        self.releases = 0
        self.bytes_reused = 0
        self._free: dict[tuple[int, str], list[np.ndarray]] = {}
        #: :func:`_normalise`'d ``(shape, dtype)`` as callers spell them:
        #: a buffer slot is normalised once, not on every allocation and
        #: release.
        self._slots: dict[tuple, tuple] = {}

    def _slot(self, shape, dtype) -> tuple:
        key = (shape, dtype)
        slots = self._slots
        try:
            slot = slots.get(key)
        except TypeError:  # an unhashable spelling (e.g. a list shape)
            return _normalise(shape, dtype)
        if slot is None:
            if len(slots) >= _SPELLINGS_CAP:
                slots.clear()
            slot = slots[key] = _normalise(shape, dtype)
        return slot

    def take(self, shape, dtype) -> tuple[np.ndarray, np.ndarray]:
        """An array of ``(shape, dtype)`` plus its backing block.

        The array is a view over the block's first ``nbytes`` bytes; return
        the block with :meth:`put` when the buffer is freed. Recycled
        storage keeps whatever it last held (or the poison sentinel) —
        exactly like device memory from a caching allocator.
        """
        shape, dtype, nbytes, free_key = self._slot(shape, dtype)
        self.allocs += 1
        stack = self._free.get(free_key)
        if stack:
            block = stack.pop()
            self.hits += 1
            self.bytes_reused += nbytes
            if self.poison:
                block[...] = POISON_BYTE
            if obs.is_enabled():
                obs.counter("pool.hits").inc()
                obs.counter("pool.bytes_reused").inc(nbytes)
        else:
            block = np.empty(free_key[0], dtype=np.uint8)
            self.misses += 1
            if obs.is_enabled():
                obs.counter("pool.misses").inc()
        array = block[:nbytes].view(dtype).reshape(shape)
        return array, block

    def put(self, block: np.ndarray, dtype) -> None:
        """Return a backing block to the free-list for its (class, dtype)."""
        self.releases += 1
        _, _, _, (_, dtype_str) = self._slot((), dtype)
        self._free.setdefault((block.nbytes, dtype_str), []).append(block)

    @property
    def pooled_buffers(self) -> int:
        """Blocks currently parked in the free-list."""
        return sum(len(stack) for stack in self._free.values())

    @property
    def pooled_bytes(self) -> int:
        """Backing bytes currently parked in the free-list."""
        return sum(
            block.nbytes for stack in self._free.values() for block in stack
        )

    def trim(self) -> int:
        """Drop every parked block; returns the bytes released."""
        released = self.pooled_bytes
        self._free.clear()
        return released

    def warm_hints(self) -> list[tuple[int, str, int]]:
        """The parked free-list shape: ``(class_bytes, dtype, count)`` rows.

        This is what a session snapshot records — not the block contents
        (recycled storage is garbage by contract) but which size classes
        a warm server keeps parked, so a restored replica can pre-populate
        its pools and serve its first request entirely from pool hits.
        """
        return sorted(
            (nbytes, dtype_str, len(stack))
            for (nbytes, dtype_str), stack in self._free.items()
            if stack
        )

    def preload(self, class_bytes: int, dtype, count: int) -> int:
        """Park ``count`` fresh blocks of one warm-hint size class.

        The restore-side counterpart of :meth:`warm_hints`. Backing
        storage is uninitialised — exactly what a recycled block would
        hold — and the hit/miss/release counters are untouched: preloaded
        blocks are warm state, not served traffic.
        """
        class_bytes = int(class_bytes)
        count = int(count)
        stack = self._free.setdefault((class_bytes, str(dtype)), [])
        for _ in range(count):
            stack.append(np.empty(class_bytes, dtype=np.uint8))
        return count

    def stats(self) -> dict:
        """Counter snapshot (also aggregated by ``gpusim.metrics``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "allocs": self.allocs,
            "releases": self.releases,
            "bytes_reused": self.bytes_reused,
            "pooled_buffers": self.pooled_buffers,
            "pooled_bytes": self.pooled_bytes,
            "poison": self.poison,
        }


class MemoryPool:
    """Per-device allocation accounting with a hard capacity.

    Tracks live bytes so tests can assert that multi-GPU proposals respect
    per-device memory limits (Case 2 of the paper: N too large for one GPU).
    """

    __slots__ = ("capacity", "_used", "_peak")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise AllocationError(f"memory capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._used = 0
        self._peak = 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def peak(self) -> int:
        return self._peak

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def allocate(self, nbytes: int, owner: str) -> None:
        if nbytes < 0:
            raise AllocationError(f"allocation size must be >= 0, got {nbytes}")
        if self._used + nbytes > self.capacity:
            raise AllocationError(
                f"{owner}: out of device memory "
                f"(requested {nbytes} B, {self.free} B free of {self.capacity} B)"
            )
        self._used += nbytes
        self._peak = max(self._peak, self._used)

    def release(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self._used:
            raise AllocationError(
                f"release of {nbytes} B does not match {self._used} B in use"
            )
        self._used -= nbytes
