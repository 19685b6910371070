"""Unit tests for the operator monoids."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.primitives.operators import (
    ADD,
    BITWISE_OR,
    BITWISE_XOR,
    MAX,
    MIN,
    MUL,
    resolve_operator,
)

ALL_OPS = [ADD, MUL, MAX, MIN, BITWISE_OR, BITWISE_XOR]


class TestResolve:
    def test_by_name(self):
        assert resolve_operator("add") is ADD
        assert resolve_operator("max") is MAX

    def test_passthrough(self):
        assert resolve_operator(MUL) is MUL

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown operator"):
            resolve_operator("median")


class TestIdentity:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.name)
    def test_identity_is_neutral(self, op, rng):
        dtype = np.dtype(np.int32)
        values = rng.integers(1, 50, 100).astype(dtype)
        ident = op.identity(dtype)
        combined = op.combine(np.full_like(values, ident), values)
        np.testing.assert_array_equal(combined, values)

    def test_add_identity_zero(self):
        assert ADD.identity(np.dtype(np.int32)) == 0
        assert ADD.identity(np.dtype(np.float64)) == 0.0

    def test_mul_identity_one(self):
        assert MUL.identity(np.dtype(np.int64)) == 1

    def test_max_identity_is_dtype_min(self):
        assert MAX.identity(np.dtype(np.int32)) == np.iinfo(np.int32).min
        assert MAX.identity(np.dtype(np.float64)) == -np.inf

    def test_min_identity_is_dtype_max(self):
        assert MIN.identity(np.dtype(np.int16)) == np.iinfo(np.int16).max

    @pytest.mark.parametrize("op", [ADD, MAX, MIN], ids=lambda o: o.name)
    def test_bool_identity_is_neutral(self, op):
        """On bool, max is logical or and min logical and: their identities
        are False and True (an infinite identity would cast to True)."""
        values = np.array([False, True])
        ident = op.identity(np.dtype(bool))
        combined = op.combine(np.full_like(values, ident), values)
        np.testing.assert_array_equal(combined, values)

    def test_bitwise_requires_integers(self):
        with pytest.raises(ConfigurationError):
            BITWISE_OR.identity(np.dtype(np.float32))
        with pytest.raises(ConfigurationError):
            BITWISE_XOR.identity(np.dtype(np.float64))


class TestAlgebra:
    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.name)
    @given(data=st.data())
    def test_associativity(self, op, data):
        ints = st.integers(min_value=0, max_value=1000)
        a, b, c = (
            np.int64(data.draw(ints)),
            np.int64(data.draw(ints)),
            np.int64(data.draw(ints)),
        )
        left = op.combine(op.combine(a, b), c)
        right = op.combine(a, op.combine(b, c))
        assert left == right

    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.name)
    def test_accumulate_matches_manual(self, op, rng):
        values = rng.integers(1, 20, 32).astype(np.int64)
        acc = op.accumulate(values)
        running = values[0]
        assert acc[0] == running
        for i in range(1, len(values)):
            running = op.combine(running, values[i])
            assert acc[i] == running

    @pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.name)
    def test_reduce_is_last_of_accumulate(self, op, rng):
        values = rng.integers(1, 20, 64).astype(np.int64)
        assert op.reduce(values) == op.accumulate(values)[-1]


def _complex_values(rng, shape, dtype):
    values = np.empty(shape, dtype)
    values.real = rng.standard_normal(shape)
    values.imag = rng.standard_normal(shape)
    specials = rng.random(shape) < 0.1
    values.real[specials] = rng.choice([np.nan, np.inf, -np.inf, -0.0],
                                       int(specials.sum()))
    return values


class TestComplexFormulas:
    """Complex add and mul come from separately rounded real operations,
    so their bytes do not depend on which numpy loop runs them."""

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                             ids=lambda d: np.dtype(d).name)
    def test_product_formula(self, rng, dtype):
        a, b = (_complex_values(rng, 512, dtype) for _ in range(2))
        with np.errstate(all="ignore"):
            got = MUL.combine(a, b)
            re = a.real * b.real
            re -= a.imag * b.imag
            im = a.real * b.imag
            im += a.imag * b.real
        assert got.real.tobytes() == re.tobytes()
        assert got.imag.tobytes() == im.tobytes()

    @pytest.mark.parametrize("op", [ADD, MUL], ids=lambda o: o.name)
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                             ids=lambda d: np.dtype(d).name)
    def test_layout_independent(self, rng, dtype, op):
        """Contiguous copies, strided columns, in-place output and
        broadcasting all give the same bytes; accumulate folds combine
        left to right and a product reduce is its last prefix."""
        x = _complex_values(rng, (512, 4), dtype)
        with np.errstate(all="ignore"):
            contiguous = op.combine(np.ascontiguousarray(x[:, 0]),
                                    np.ascontiguousarray(x[:, 1]))
            strided = op.combine(x[:, 0], x[:, 1])
            inplace = x.copy()
            op.combine(inplace[:, 0], inplace[:, 1], out=inplace[:, 1])
            broadcast = op.combine(x[:, :1], x[:, 1:2])[:, 0]
            for got in (strided, inplace[:, 1], broadcast):
                assert np.ascontiguousarray(got).tobytes() == contiguous.tobytes()

            scanned = op.accumulate(x, axis=-1)
            running = x[:, 0].copy()
            for i in range(1, 4):
                running = op.combine(running, x[:, i])
                assert np.ascontiguousarray(scanned[:, i]).tobytes() == running.tobytes()
            axis0 = op.accumulate(x.T.copy(), axis=0)
            assert axis0.T.tobytes() == scanned.tobytes()
        if op is MUL:
            with np.errstate(all="ignore"):
                assert op.reduce(x, axis=-1).tobytes() == np.ascontiguousarray(
                    scanned[:, -1]).tobytes()


def _short_axis_values(rng, shape, dtype):
    """Values for an accumulate along a short last axis: signed zeros,
    both infinities and NaNs of both signs among finite floats near one,
    full-range integers, random bools."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return rng.random(shape) < 0.5
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, shape, dtype=dtype,
                            endpoint=True)
    values = rng.choice([-1.5, -1.0, -0.75, 0.5, 1.0, 1.25], shape)
    values *= 1 + rng.standard_normal(shape) / 64
    specials = rng.random(shape) < 0.15
    values[specials] = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan],
                                  int(specials.sum()))
    return values.astype(dtype)


SHORT_AXIS_GRID = [
    pytest.param(dtype, op, id=f"{np.dtype(dtype).name}-{op.name}")
    for dtype in (np.float16, np.float32, np.float64, np.int8, np.int32,
                  np.uint64, np.bool_)
    for op in (ADD, MAX, MIN, MUL)
]


class TestShortAxisAccumulate:
    """A last axis of 2-8 elements (a thread's registers) is accumulated
    by whole-slice combines rather than ``ufunc.accumulate``; both fold
    left to right, so every byte must agree, NaN payloads included."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("dtype,op", SHORT_AXIS_GRID)
    def test_matches_ufunc_accumulate(self, rng, dtype, op, n):
        x = _short_axis_values(rng, (3, 37, n), dtype)
        with np.errstate(all="ignore"):
            want = op.ufunc.accumulate(x, axis=-1, dtype=x.dtype)
            fresh = op.accumulate(x, axis=-1)
            into = np.empty_like(x)
            returned = op.accumulate(x, axis=2, out=into)
            aliased = x.copy()
            op.accumulate(aliased, axis=-1, out=aliased)
        assert returned is into
        for got in (fresh, into, aliased):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
