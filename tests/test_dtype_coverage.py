"""Dtype coverage: the kernels must be correct for every supported dtype."""

import numpy as np
import pytest

from repro import scan
from repro.core.params import ProblemConfig
from repro.errors import ConfigurationError
from repro.core.premises import premise2_p
from repro.core.single_gpu import ScanSP
from repro.gpusim.kernel import ExecutionEngine
from repro.interconnect.topology import tsubame_kfc

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float32, np.float64]


class TestIntegerDtypes:
    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_add_scan(self, machine, rng, dtype):
        info = np.iinfo(dtype)
        data = rng.integers(0, min(5, info.max), (4, 1024)).astype(dtype)
        result = scan(data, topology=machine, proposal="sp")
        with np.errstate(over="ignore"):
            expected = np.add.accumulate(data, axis=-1, dtype=dtype)
        np.testing.assert_array_equal(result.output, expected)
        assert result.output.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64])
    def test_max_scan(self, machine, rng, dtype):
        info = np.iinfo(dtype)
        data = rng.integers(0, min(1000, info.max), (2, 512)).astype(dtype)
        result = scan(data, topology=machine, proposal="sp", operator="max")
        np.testing.assert_array_equal(result.output, np.maximum.accumulate(data, axis=-1))

    def test_unsigned_wraparound(self, machine):
        data = np.full((1, 256), 2**31, dtype=np.uint32)
        result = scan(data, topology=machine, proposal="sp")
        with np.errstate(over="ignore"):
            expected = np.add.accumulate(data, axis=-1, dtype=np.uint32)
        np.testing.assert_array_equal(result.output, expected)


class TestFloatDtypes:
    @pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_add_scan_matches_sequential_exactly(self, machine, rng, dtype):
        """The parallel scan re-associates additions, so results can differ
        from sequential cumsum in the last ulps — but for exactly
        representable inputs (small integers) it must match bit-for-bit."""
        data = rng.integers(0, 100, (4, 2048)).astype(dtype)
        result = scan(data, topology=machine, proposal="mps", W=4, V=4)
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=-1, dtype=dtype))

    @pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_add_scan_random_floats_close(self, machine, rng, dtype):
        data = rng.normal(0, 1, (2, 4096)).astype(dtype)
        result = scan(data, topology=machine, proposal="sp")
        # The parallel scan re-associates floating additions; tolerances
        # cover the accumulated rounding drift at 4096 terms.
        rtol, atol = (1e-4, 1e-3) if dtype == np.float32 else (1e-12, 1e-12)
        np.testing.assert_allclose(
            result.output, np.cumsum(data, axis=-1, dtype=dtype), rtol=rtol, atol=atol
        )

    def test_float_max_scan(self, machine, rng):
        data = rng.normal(0, 10, (2, 1024)).astype(np.float64)
        result = scan(data, topology=machine, proposal="sp", operator="max")
        np.testing.assert_array_equal(result.output, np.maximum.accumulate(data, axis=-1))


class TestByteOrder:
    """Non-native byte order is converted once on entry (``coerce_batch``),
    so results come back in the native dtype instead of a raw numpy
    TypeError escaping the kernels."""

    @pytest.mark.parametrize("proposal,spec", [
        ("sp", {}), ("sp-dlb", {}), ("mps", {"W": 4, "V": 4}),
    ], ids=["sp", "sp-dlb", "mps"])
    @pytest.mark.parametrize("dtype", [">i4", ">i8", ">f8"])
    def test_big_endian_input(self, machine, rng, dtype, proposal, spec):
        data = rng.integers(-50, 100, (4, 1 << 13)).astype(dtype)
        native = data.dtype.newbyteorder("=")
        expected = np.add.accumulate(data.astype(native), axis=-1, dtype=native)
        result = scan(data, topology=machine, proposal=proposal, **spec)
        assert result.output.dtype == native
        assert result.output.tobytes() == expected.tobytes()

    def test_session_serves_big_endian(self, machine, rng):
        from repro.core.session import ScanSession

        data = rng.integers(-50, 100, 1 << 12).astype(">i4")
        out = ScanSession(topology=machine).scan(data, operator="max").output
        assert out.dtype == np.dtype(np.int32)
        np.testing.assert_array_equal(out[0], np.maximum.accumulate(data))


class TestUnscannableInput:
    """Input the kernels cannot serve is rejected up front with a typed
    ``ConfigurationError``, never a raw numpy error from inside them."""

    @pytest.mark.parametrize("entry", ["scan", "session", "service"])
    @pytest.mark.parametrize("data,operator", [
        pytest.param(np.array(list("abcdefgh")), "add", id="str"),
        pytest.param(np.array([b"a"] * 8), "add", id="bytes"),
        pytest.param(np.arange(8).astype(object), "add", id="object"),
        pytest.param(np.arange(8).astype("datetime64[s]"), "add",
                     id="datetime64"),
        pytest.param(np.arange(8).astype("timedelta64[s]"), "add",
                     id="timedelta64"),
        pytest.param(np.zeros(8, dtype=[("a", "i4"), ("b", "f4")]), "add",
                     id="structured"),
        pytest.param(np.arange(8, dtype=np.float32), "or", id="float32-or"),
        pytest.param(np.arange(8, dtype=np.float32), "xor", id="float32-xor"),
        pytest.param(np.arange(8, dtype=np.float64), "or", id="float64-or"),
        pytest.param(np.arange(8, dtype=np.float64), "xor", id="float64-xor"),
    ])
    def test_rejected_with_typed_error(self, machine, data, operator, entry):
        from repro.core.session import ScanSession

        session = ScanSession(topology=machine)
        call = {
            "scan": lambda: scan(data, topology=machine, operator=operator),
            "session": lambda: session.scan(data, operator=operator),
            "service": lambda: session.service().submit(data, operator=operator),
        }[entry]
        with pytest.raises(ConfigurationError):
            call()

    def test_complex_input_is_served(self, machine):
        data = (np.arange(8) + 1j * np.arange(8)).astype(np.complex64)
        result = scan(data, topology=machine)
        np.testing.assert_array_equal(result.output[0], np.cumsum(data))


class TestPremise2DtypeAdaptation:
    def test_wider_elements_reduce_p(self):
        """int64 elements occupy two register words, halving P's budget."""
        p32 = premise2_p(64, np.int32)
        p64 = premise2_p(64, np.int64)
        assert p64 < p32

    def test_float32_matches_int32_register_cost(self):
        assert premise2_p(64, np.float32) == premise2_p(64, np.int32)

    def test_plans_adapt_to_dtype(self, machine):
        sp = ScanSP(machine.gpus[0])
        p32 = sp.plan_for(ProblemConfig.from_sizes(N=1 << 16, dtype=np.int32))
        p64 = sp.plan_for(ProblemConfig.from_sizes(N=1 << 16, dtype=np.int64))
        assert p64.stage1.params.P < p32.stage1.params.P


class TestComplexBits:
    """Complex add and mul scans give the same bytes under both engines:
    their bits follow one formula, not numpy's choice of loop."""

    @pytest.mark.parametrize("proposal,spec", [("sp", {}), ("sp-dlb", {}),
                                               ("mps", {"W": 4, "V": 4})],
                             ids=["sp", "sp-dlb", "mps"])
    @pytest.mark.parametrize("op", ["mul", "add"])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128],
                             ids=lambda d: np.dtype(d).name)
    def test_same_bytes_every_engine_and_fast_path(self, rng, dtype, op, proposal,
                                                   spec):
        shape = (2, 1 << 14)
        data = np.empty(shape, dtype)
        data.real = rng.choice([-1.25, -1.0, 0.75, 1.0, 1.5], shape)
        data.imag = rng.standard_normal(shape) / 4
        if op == "add":
            specials = rng.random(shape) < 0.01
            data.real[specials] = rng.choice([np.nan, np.inf, -np.inf, -0.0],
                                             int(specials.sum()))
        outputs = set()
        for mode in ("vectorized", "blockwise"):
            engine = ExecutionEngine(mode, np.random.default_rng(2))
            with np.errstate(all="ignore"):
                result = scan(data, topology=tsubame_kfc(1, engine=engine),
                              proposal=proposal, operator=op, **spec)
            outputs.add(result.output.tobytes())
        assert len(outputs) == 1
