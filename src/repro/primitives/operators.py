"""Associative operators (monoids) the scan primitive is parameterised over.

The scan primitive is defined for any associative binary operator with an
identity element. The paper uses integer addition throughout ("the addition
operation is used in the scan primitive by default"), but the kernels are
operator-generic, so we model the operator as a first-class object carrying:

- the elementwise numpy ufunc-style callable,
- the identity element (needed for exclusive scans and padding),
- the matching cumulative/reduction implementations used by reference code.

Complex ``add`` and ``mul`` are defined by formulas over separately
rounded real operations (:func:`complex_sum`, :func:`complex_product`),
not by numpy's complex loops: those round a product differently, and
pick a different NaN sign, depending on strides and output aliasing, so
the same scan would return different bytes from different memory layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError

#: Bound on the dtype spellings one operator keeps identities for.
_IDENTITIES_CAP = 64


@dataclass(frozen=True)
class Operator:
    """An associative binary operator with identity, usable on numpy arrays.

    Attributes
    ----------
    name:
        Short identifier (``"add"``, ``"max"``...), used in configs/reports.
    fn:
        Elementwise binary callable ``fn(a, b) -> a <op> b`` (broadcasting).
    identity_for:
        Callable mapping a numpy dtype to the identity element of the
        operator for that dtype (e.g. 0 for add, dtype-min for max).
    ufunc:
        The numpy ufunc implementing the operator, used for the fast
        ``accumulate``/``reduce`` reference paths.
    commutative:
        Whether the operator commutes. All scan algorithms here only need
        associativity, but some baselines exploit commutativity; recorded
        for documentation and property tests.

    An operator whose ufunc is ``np.add`` or ``np.multiply`` computes
    complex operands by :func:`complex_sum` or :func:`complex_product`
    (derived from ``ufunc``, so every such operator does).
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    identity_for: Callable[[np.dtype], object]
    ufunc: np.ufunc = field(repr=False)
    commutative: bool = True
    #: ``fn(a, b, out)`` on complex operands from separately rounded real
    #: operations, or ``None`` (the ufunc serves complex dtypes too);
    #: derived from ``ufunc``.
    _complex_fn: Callable | None = field(default=None, init=False, repr=False,
                                         compare=False)
    #: ``dtype -> identity`` as callers spell the dtype; derived state,
    #: not part of the operator's value.
    _identities: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_complex_fn", _COMPLEX_FORMULAS.get(self.ufunc))

    def identity(self, dtype: np.dtype) -> object:
        """Identity element of the operator for ``dtype``, derived once
        per dtype (a max/min identity asks ``np.iinfo``)."""
        identities = self._identities
        try:
            return identities[dtype]
        except KeyError:
            value = self.identity_for(np.dtype(dtype))
            if len(identities) >= _IDENTITIES_CAP:
                identities.clear()
            identities[dtype] = value
            return value
        except TypeError:  # an unhashable dtype spelling
            return self.identity_for(np.dtype(dtype))

    def accumulate(
        self, array: np.ndarray, axis: int = -1, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Inclusive scan along ``axis`` using the numpy ufunc (reference path).

        The accumulator dtype is pinned to the input dtype: numpy promotes
        small integers to the platform int by default, but device scans
        compute in the element type (int8 wraps like it would in CUDA).
        ``out`` may alias ``array`` for an in-place scan (the kernel hot
        path scans freshly gathered chunk copies in place).

        Short trailing axes (the per-thread P register elements) take an
        unrolled path: ``ufunc.accumulate`` runs a scalar inner loop, while
        ``n-1`` whole-slice combines vectorise across the leading axes.
        The combination order is the same left-to-right sequence, so the
        result is bit-identical for every dtype, floats included.

        A complex sum never mixes its parts, so it scans the real and the
        imaginary part as two real arrays: the same real sums, in the same
        order, as :func:`complex_sum`'s left fold. A complex product folds
        :func:`complex_product` left to right, one position at a time.
        """
        if self._complex_fn is not None and array.dtype.kind == "c":
            if self.ufunc is not np.add:
                return self._complex_fold(array, axis, out)
            if out is None:
                out = np.empty_like(array)
            parts = (array.real, array.imag)
            dsts = parts if out is array else (out.real, out.imag)
            for part, dst in zip(parts, dsts):
                self.accumulate(part, axis, dst)
            return out
        n = array.shape[axis]
        if 1 < n <= 8 and axis in (-1, array.ndim - 1):
            if out is None:
                out = array.copy()
            elif out is not array:
                out[...] = array
            for i in range(1, n):
                self.ufunc(out[..., i - 1], out[..., i], out=out[..., i])
            return out
        return self.ufunc.accumulate(array, axis=axis, dtype=array.dtype, out=out)

    def reduce(self, array: np.ndarray, axis: int | None = -1) -> np.ndarray:
        """Reduction along ``axis`` using the numpy ufunc (reference path).

        A complex reduce keeps numpy's association: its add reduce is
        pairwise along a contiguous axis, which the layout fixes and whose
        real and imaginary sums never mix; every other reduce folds left
        to right, which for complex products is :func:`complex_product`'s
        fold.
        """
        if (self._complex_fn is not None and self.ufunc is not np.add
                and array.dtype.kind == "c"):
            if axis is None:
                array, axis = array.reshape(-1), -1
            if array.shape[axis] == 0:
                return self.ufunc.reduce(array, axis=axis, dtype=array.dtype)
            return np.take(self._complex_fold(array, axis, None), -1, axis=axis)
        return self.ufunc.reduce(array, axis=axis, dtype=array.dtype)

    def combine(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply the operator elementwise; ``out`` enables in-place updates."""
        if out is not None:
            if self._complex_fn is not None and out.dtype.kind == "c":
                return self._complex_fn(a, b, out)
            return self.ufunc(a, b, out=out)
        if self._complex_fn is not None and np.result_type(a, b).kind == "c":
            return self._complex_fn(a, b, None)
        return self.fn(a, b)

    def _complex_fold(
        self, array: np.ndarray, axis: int, out: np.ndarray | None
    ) -> np.ndarray:
        """Every prefix of the complex formula's left fold along ``axis``,
        into ``out`` (which may alias ``array``)."""
        if out is None:
            out = array.copy()
        elif out is not array:
            out[...] = array
        dst = np.moveaxis(out, axis, -1)
        for i in range(1, dst.shape[-1]):
            self._complex_fn(dst[..., i - 1], dst[..., i], dst[..., i])
        return out


def _complex_out(a, b, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)),
                       dtype=np.result_type(a, b))
    return out


def complex_sum(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """``a + b`` as two real sums: ``re = ar + br``, ``im = ai + bi``."""
    out = _complex_out(a, b, out)
    re = np.add(np.real(a), np.real(b))
    im = np.add(np.imag(a), np.imag(b))
    out.real, out.imag = re, im
    return out


def complex_product(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """``a * b`` from separately rounded real operations:
    ``re = ar*br - ai*bi``, ``im = ar*bi + ai*br``."""
    out = _complex_out(a, b, out)
    ar, ai, br, bi = np.real(a), np.imag(a), np.real(b), np.imag(b)
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    out.real, out.imag = re, im
    return out


#: The complex formula of each ufunc that has one.
_COMPLEX_FORMULAS: dict[np.ufunc, Callable] = {
    np.add: complex_sum,
    np.multiply: complex_product,
}


def _int_like(dtype: np.dtype) -> bool:
    return np.issubdtype(dtype, np.integer)


def _max_identity(dtype: np.dtype) -> object:
    if dtype.kind == "b":
        return np.False_
    if _int_like(dtype):
        return np.iinfo(dtype).min
    return -np.inf


def _min_identity(dtype: np.dtype) -> object:
    if dtype.kind == "b":
        return np.True_
    if _int_like(dtype):
        return np.iinfo(dtype).max
    return np.inf


def _require_integer(dtype: np.dtype, op_name: str) -> None:
    if not _int_like(dtype):
        raise ConfigurationError(f"operator {op_name!r} requires an integer dtype, got {dtype}")


def _or_identity(dtype: np.dtype) -> object:
    _require_integer(dtype, "or")
    return dtype.type(0)


def _xor_identity(dtype: np.dtype) -> object:
    _require_integer(dtype, "xor")
    return dtype.type(0)


ADD = Operator(
    name="add",
    fn=np.add,
    identity_for=lambda dtype: dtype.type(0),
    ufunc=np.add,
    commutative=True,
)

MUL = Operator(
    name="mul",
    fn=np.multiply,
    identity_for=lambda dtype: dtype.type(1),
    ufunc=np.multiply,
    commutative=True,
)

MAX = Operator(
    name="max",
    fn=np.maximum,
    identity_for=_max_identity,
    ufunc=np.maximum,
    commutative=True,
)

MIN = Operator(
    name="min",
    fn=np.minimum,
    identity_for=_min_identity,
    ufunc=np.minimum,
    commutative=True,
)

BITWISE_OR = Operator(
    name="or",
    fn=np.bitwise_or,
    identity_for=_or_identity,
    ufunc=np.bitwise_or,
    commutative=True,
)

BITWISE_XOR = Operator(
    name="xor",
    fn=np.bitwise_xor,
    identity_for=_xor_identity,
    ufunc=np.bitwise_xor,
    commutative=True,
)

_REGISTRY: dict[str, Operator] = {
    op.name: op for op in (ADD, MUL, MAX, MIN, BITWISE_OR, BITWISE_XOR)
}


def resolve_operator(op: Operator | str) -> Operator:
    """Resolve an operator given either an :class:`Operator` or its name."""
    if isinstance(op, Operator):
        return op
    try:
        return _REGISTRY[op]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown operator {op!r}; known operators: {known}") from None
