"""Warp-level shuffle/scan simulation tests (lane-exact semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.gpusim.warp import (
    shfl_down,
    shfl_idx,
    shfl_up,
    shfl_xor,
    warp_exclusive_scan,
    warp_inclusive_scan,
    warp_reduce,
    warp_scan_cost,
)
from repro.primitives.ladner_fischer import ladner_fischer_schedule
from repro.primitives.networks import run_schedule
from repro.primitives.operators import ADD, MAX


class TestShuffles:
    def test_shfl_up_keeps_low_lanes(self):
        lanes = np.arange(8)
        out = shfl_up(lanes, 3, width=8)
        np.testing.assert_array_equal(out[:3], [0, 1, 2])  # own values kept
        np.testing.assert_array_equal(out[3:], [0, 1, 2, 3, 4])

    def test_shfl_down_keeps_high_lanes(self):
        lanes = np.arange(8)
        out = shfl_down(lanes, 2, width=8)
        np.testing.assert_array_equal(out[:6], [2, 3, 4, 5, 6, 7])
        np.testing.assert_array_equal(out[6:], [6, 7])  # own values kept

    def test_shfl_zero_delta_identity(self):
        lanes = np.arange(32)
        np.testing.assert_array_equal(shfl_up(lanes, 0), lanes)
        np.testing.assert_array_equal(shfl_down(lanes, 0), lanes)

    def test_shfl_idx_broadcast(self):
        lanes = np.arange(8) * 10
        out = shfl_idx(lanes, 5, width=8)
        np.testing.assert_array_equal(out, np.full(8, 50))

    def test_shfl_idx_gather(self):
        lanes = np.arange(8) * 10
        srcs = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        np.testing.assert_array_equal(shfl_idx(lanes, srcs, width=8), srcs * 10)

    def test_shfl_idx_out_of_range(self):
        with pytest.raises(ConfigurationError):
            shfl_idx(np.arange(8), 8, width=8)

    def test_shfl_xor_butterfly(self):
        lanes = np.arange(8)
        out = shfl_xor(lanes, 1, width=8)
        np.testing.assert_array_equal(out, [1, 0, 3, 2, 5, 4, 7, 6])

    def test_shfl_xor_escaping_mask(self):
        with pytest.raises(ConfigurationError):
            shfl_xor(np.arange(4), 4, width=4)

    def test_batched_warps(self, rng):
        lanes = rng.integers(0, 100, (5, 3, 32))
        out = shfl_up(lanes, 1)
        np.testing.assert_array_equal(out[..., 1:], lanes[..., :-1])
        np.testing.assert_array_equal(out[..., 0], lanes[..., 0])

    def test_wrong_lane_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            shfl_up(np.arange(16), 1, width=32)


class TestWarpScan:
    @pytest.mark.parametrize("pattern", ["lf", "ks"])
    @pytest.mark.parametrize("width", [4, 8, 32])
    def test_inclusive_matches_cumsum(self, pattern, width, rng):
        lanes = rng.integers(-50, 50, (10, width)).astype(np.int64)
        out, _ = warp_inclusive_scan(lanes, ADD, width=width, pattern=pattern)
        np.testing.assert_array_equal(out, np.cumsum(lanes, axis=-1))

    @pytest.mark.parametrize("pattern", ["lf", "ks"])
    def test_exclusive_shifts_with_identity(self, pattern, rng):
        lanes = rng.integers(0, 50, (4, 32)).astype(np.int64)
        out, _ = warp_exclusive_scan(lanes, ADD, pattern=pattern)
        np.testing.assert_array_equal(out[..., 0], 0)
        np.testing.assert_array_equal(out[..., 1:], np.cumsum(lanes, axis=-1)[..., :-1])

    def test_figure4_didactic_case(self):
        """The paper's Figure 4 uses warpSize=4 for clarity."""
        lanes = np.array([3, 1, 4, 1], dtype=np.int64)
        out, cost = warp_inclusive_scan(lanes, ADD, width=4, pattern="lf")
        np.testing.assert_array_equal(out, [3, 4, 8, 9])
        assert cost.steps == 2  # log2(4) stages

    def test_max_operator(self, rng):
        lanes = rng.integers(-100, 100, (6, 32)).astype(np.int32)
        out, _ = warp_inclusive_scan(lanes, MAX)
        np.testing.assert_array_equal(out, np.maximum.accumulate(lanes, axis=-1))

    def test_unknown_pattern(self):
        with pytest.raises(ConfigurationError):
            warp_inclusive_scan(np.arange(32), ADD, pattern="zigzag")

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_property_all_widths(self, log_w, seed):
        rng = np.random.default_rng(seed)
        width = 1 << log_w
        lanes = rng.integers(-1000, 1000, (3, width)).astype(np.int64)
        out, _ = warp_inclusive_scan(lanes, ADD, width=width, pattern="lf")
        np.testing.assert_array_equal(out, np.cumsum(lanes, axis=-1))


def special_lanes(rng, shape, dtype):
    """Finite values mixed with -0.0, +0.0, NaN and both infinities (in
    both parts of a complex value), so NaN signs and signed zeros meet."""
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf])

    def part():
        values = rng.standard_normal(shape) * 3
        mask = rng.random(shape) < 0.3
        values[mask] = rng.choice(specials, int(mask.sum()))
        return values

    dtype = np.dtype(dtype)
    if dtype.kind == "c":
        values = np.empty(shape, dtype)
        values.real, values.imag = part(), part()
        return values
    return part().astype(dtype)


class TestLaneMajorLF:
    """The LF pattern runs lane-major, one broadcast combine per stage; its
    bits must be those of the (dst, src) schedule run lane by lane."""

    @pytest.mark.parametrize("op", ["add", "mul", "max", "min"])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64,
                                       np.complex64, np.complex128],
                             ids=lambda d: np.dtype(d).name)
    def test_bytes_equal_the_schedule(self, rng, dtype, op):
        for width in (1, 2, 4, 8, 16, 32):
            for shape in ((width,), (1, width), (5, 3, width)):
                lanes = special_lanes(rng, shape, dtype)
                before = lanes.copy()
                with np.errstate(all="ignore"):
                    out, _ = warp_inclusive_scan(lanes, op, width=width)
                    want = run_schedule(lanes, ladner_fischer_schedule(width, 0), op)
                assert out.shape == lanes.shape and out.dtype == lanes.dtype
                assert out.tobytes() == want.tobytes(), (width, shape)
                assert lanes.tobytes() == before.tobytes()  # input untouched

    @pytest.mark.parametrize("warps", [1, 6])
    def test_exclusive_leaves_its_input_alone(self, rng, warps):
        """A one-warp contiguous input is its own lane-major view: the scan
        must still copy it before writing."""
        lanes = rng.standard_normal((warps, 32)).astype(np.float32)
        before = lanes.copy()
        out, _ = warp_exclusive_scan(lanes, ADD, width=32)
        assert lanes.tobytes() == before.tobytes()
        inclusive = run_schedule(lanes, ladner_fischer_schedule(32, 0), ADD)
        assert out[..., 1:].tobytes() == np.ascontiguousarray(
            inclusive[..., :-1]).tobytes()
        assert (out[..., 0] == 0).all()


class TestWarpReduce:
    @pytest.mark.parametrize("width", [2, 8, 32])
    def test_all_lanes_hold_total(self, width, rng):
        lanes = rng.integers(0, 100, (7, width)).astype(np.int64)
        out, cost = warp_reduce(lanes, ADD, width=width)
        expected = lanes.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(out, np.broadcast_to(expected, out.shape))
        assert cost.steps == width.bit_length() - 1


class TestCostAccounting:
    @pytest.mark.parametrize("pattern", ["lf", "ks"])
    @pytest.mark.parametrize("width", [2, 4, 8, 16, 32])
    def test_closed_form_matches_execution(self, pattern, width, rng):
        """warp_scan_cost must agree with what execution actually reports —
        the invariant the analytic estimate path rests on."""
        lanes = rng.integers(0, 10, (2, width)).astype(np.int64)
        _, inc_cost = warp_inclusive_scan(lanes, ADD, width=width, pattern=pattern)
        assert inc_cost == warp_scan_cost(width, pattern, exclusive=False)
        _, exc_cost = warp_exclusive_scan(lanes, ADD, width=width, pattern=pattern)
        assert exc_cost == warp_scan_cost(width, pattern, exclusive=True)

    def test_lf_work_leq_ks(self):
        for width in (8, 16, 32):
            lf = warp_scan_cost(width, "lf")
            ks = warp_scan_cost(width, "ks")
            assert lf.steps == ks.steps  # both minimum depth
            assert lf.shuffles <= ks.shuffles or width <= 4
