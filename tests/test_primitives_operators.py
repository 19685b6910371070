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
