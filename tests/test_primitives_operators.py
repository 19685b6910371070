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
