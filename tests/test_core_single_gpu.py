"""Tests for Scan-SP (single-GPU batch scan) including property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.gpusim.arch import KEPLER_K80
from repro.gpusim.device import GPU
from repro.core.params import KernelParams, ProblemConfig
from repro.core.single_gpu import (
    ScanSP,
    coerce_batch,
    scan_single_gpu,
    shrink_template_to_fit,
)
from repro.primitives.sequential import exclusive_scan, inclusive_scan


class TestCoerceBatch:
    def test_1d_becomes_g1(self):
        out = coerce_batch(np.arange(8))
        assert out.shape == (1, 8)

    def test_2d_passthrough(self, rng):
        data = rng.integers(0, 10, (4, 16))
        assert coerce_batch(data).shape == (4, 16)

    def test_3d_rejected(self):
        with pytest.raises(ConfigurationError):
            coerce_batch(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("shape", [(0, 1024), (4, 0), (0,)])
    def test_empty_rejected_as_empty(self, shape):
        with pytest.raises(ConfigurationError, match="must be non-empty"):
            coerce_batch(np.zeros(shape, dtype=np.int32))

    def test_empty_rejected_through_scan(self):
        import repro

        with pytest.raises(ConfigurationError, match="must be non-empty"):
            repro.scan(np.zeros((0, 1024), dtype=np.int32))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError, match="powers of two"):
            coerce_batch(np.zeros((1, 100)))
        with pytest.raises(ConfigurationError, match="powers of two"):
            coerce_batch(np.zeros((3, 128)))


class TestShrinkTemplate:
    def test_noop_when_fits(self):
        template = KernelParams(s=2, p=3, l=7, lx=7, ly=0)
        assert shrink_template_to_fit(template, 1 << 20) == template

    def test_reduces_p_first(self):
        template = KernelParams(s=2, p=3, l=7, lx=7, ly=0)
        shrunk = shrink_template_to_fit(template, 256)
        assert shrunk.p == 1 and shrunk.lx == 7

    def test_reduces_lx_when_needed(self):
        template = KernelParams(s=2, p=3, l=7, lx=7, ly=0)
        shrunk = shrink_template_to_fit(template, 16)
        assert shrunk.p == 0 and shrunk.lx == 4

    def test_impossible(self):
        template = KernelParams(s=0, p=0, l=0, lx=0, ly=0)
        shrink_template_to_fit(template, 1)  # 1 element fits
        with pytest.raises(ConfigurationError):
            shrink_template_to_fit(template, 0)


class TestScanSP:
    def test_correct_inclusive(self, machine, rng):
        data = rng.integers(0, 100, (8, 4096)).astype(np.int32)
        result = scan_single_gpu(machine.gpus[0], data)
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1, dtype=np.int32))
        assert result.proposal == "scan-sp"
        assert result.total_time_s > 0

    def test_correct_exclusive(self, machine, rng):
        data = rng.integers(0, 100, (4, 2048)).astype(np.int32)
        result = scan_single_gpu(machine.gpus[0], data, inclusive=False)
        np.testing.assert_array_equal(result.output, exclusive_scan(data, axis=-1))

    def test_g1_vector_input(self, machine, rng):
        data = rng.integers(0, 100, 8192).astype(np.int32)
        result = scan_single_gpu(machine.gpus[0], data)
        np.testing.assert_array_equal(result.output[0], np.cumsum(data, dtype=np.int32))

    def test_explicit_k(self, machine, rng):
        data = rng.integers(0, 100, (2, 1 << 14)).astype(np.int32)
        result = scan_single_gpu(machine.gpus[0], data, K=2)
        assert result.config["K"] == 2
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1, dtype=np.int32))

    def test_three_phases_in_trace(self, machine, rng):
        data = rng.integers(0, 100, (2, 4096)).astype(np.int32)
        result = scan_single_gpu(machine.gpus[0], data)
        assert result.trace.phases() == ["stage1", "stage2", "stage3"]
        assert len(result.trace.kernel_records()) == 3

    def test_memory_released(self, machine, rng):
        gpu = machine.gpus[0]
        before = gpu.pool.used
        data = rng.integers(0, 100, (4, 4096)).astype(np.int32)
        scan_single_gpu(gpu, data)
        assert gpu.pool.used == before

    def test_throughput_properties(self, machine, rng):
        data = rng.integers(0, 100, (4, 4096)).astype(np.int32)
        result = scan_single_gpu(machine.gpus[0], data)
        assert result.elements == 4 * 4096
        assert result.throughput_gelems > 0
        assert "scan-sp" in result.summary()

    @pytest.mark.parametrize("op,ref", [
        ("add", lambda d: np.cumsum(d, axis=-1, dtype=d.dtype)),
        ("max", lambda d: np.maximum.accumulate(d, axis=-1)),
        ("min", lambda d: np.minimum.accumulate(d, axis=-1)),
        ("or", lambda d: np.bitwise_or.accumulate(d, axis=-1)),
        ("xor", lambda d: np.bitwise_xor.accumulate(d, axis=-1)),
    ])
    def test_operators(self, machine, rng, op, ref):
        data = rng.integers(0, 1000, (2, 2048)).astype(np.int32)
        result = scan_single_gpu(machine.gpus[0], data, operator=op)
        np.testing.assert_array_equal(result.output, ref(data))

    @given(
        log_n=st.integers(min_value=4, max_value=13),
        log_g=st.integers(min_value=0, max_value=4),
        k=st.sampled_from([None, 1, 2, 4]),
        inclusive=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_reference(self, log_n, log_g, k, inclusive, seed):
        gpu = GPU(0, KEPLER_K80)
        rng = np.random.default_rng(seed)
        data = rng.integers(-1000, 1000, (1 << log_g, 1 << log_n)).astype(np.int64)
        result = scan_single_gpu(gpu, data, inclusive=inclusive, K=k)
        expected = (
            inclusive_scan(data, axis=-1) if inclusive else exclusive_scan(data, axis=-1)
        )
        np.testing.assert_array_equal(result.output, expected)

    def test_wraparound_consistency(self, machine, rng):
        """int32 overflow must wrap identically to the numpy reference."""
        data = rng.integers(2**30, 2**31 - 1, (2, 1024)).astype(np.int32)
        with np.errstate(over="ignore"):
            result = scan_single_gpu(machine.gpus[0], data)
            expected = np.cumsum(data, axis=1, dtype=np.int32)
        np.testing.assert_array_equal(result.output, expected)


class TestPlanSelection:
    def test_default_k_is_premise_maximum(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 20, G=1)
        executor = ScanSP(machine.gpus[0])
        plan = executor.plan_for(problem)
        # K maximal => the feasibility bound N/(Lx*P) or Eq.1, whichever binds.
        assert plan.stage1.params.K >= 1
        assert plan.stage1.bx * plan.chunk_size == problem.N

    def test_small_problem_shrinks_template(self, machine, rng):
        data = rng.integers(0, 10, (1, 64)).astype(np.int32)
        result = scan_single_gpu(machine.gpus[0], data)
        np.testing.assert_array_equal(result.output[0], np.cumsum(data[0], dtype=np.int32))
