"""Tests for the single-pass chained scan extension."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.arch import KEPLER_K80
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import GPU
from repro.gpusim.kernel import ExecutionEngine
from repro.core.chained import ScanChained
from repro.core.params import ProblemConfig
from repro.primitives.sequential import exclusive_scan

#: What chained's one launch is priced from, as literals: global bytes
#: read and written, shuffles, operator applications and addressing
#: instructions. They keep the idealised pricing (a few descriptor words
#: per block) from drifting into sp-dlb's costed protocol.
PINNED_COUNTERS = [
    pytest.param(
        lambda gpu: ScanChained(gpu).estimate(
            ProblemConfig.from_sizes(N=1 << 28, G=1)
        ),
        (1080033280, 1075838976, 86245376, 589561856, 201326592),
        id="estimate-n28-g1",
    ),
    pytest.param(
        lambda gpu: ScanChained(gpu).estimate(
            ProblemConfig.from_sizes(N=1 << 13, G=1 << 15)
        ),
        (1080033280, 1075838976, 86245376, 589561856, 201326592),
        id="estimate-n13-g15",
    ),
    pytest.param(
        lambda gpu: ScanChained(gpu).run(
            np.random.default_rng(1).integers(0, 100, (8, 1 << 14)).astype(np.int32)
        ),
        (527360, 525312, 42112, 287872, 98304),
        id="run-8x2^14-int32",
    ),
]


class TestChainedScan:
    def test_inclusive_correct(self, machine, rng):
        data = rng.integers(0, 100, (8, 1 << 14)).astype(np.int32)
        result = ScanChained(machine.gpus[0]).run(data)
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1, dtype=np.int32))
        assert result.proposal == "scan-chained"

    def test_exclusive_correct(self, machine, rng):
        data = rng.integers(0, 100, (4, 4096)).astype(np.int32)
        result = ScanChained(machine.gpus[0]).run(data, inclusive=False)
        np.testing.assert_array_equal(result.output, exclusive_scan(data, axis=-1))

    def test_single_kernel_launch(self, machine, rng):
        """The defining property: one pass, one launch."""
        data = rng.integers(0, 100, (4, 4096)).astype(np.int32)
        result = ScanChained(machine.gpus[0]).run(data)
        assert len(result.trace.kernel_records()) == 1
        assert result.trace.phases() == ["chained"]

    def test_moves_fewer_bytes_than_three_kernel(self, machine, rng):
        from repro.core.single_gpu import ScanSP

        data = rng.integers(0, 100, (4, 1 << 14)).astype(np.int32)
        chained = ScanChained(machine.gpus[0]).run(data, collect=False)
        three = ScanSP(machine.gpus[0]).run(data, collect=False)

        def payload_bytes(result):
            return sum(
                r.global_bytes_read + r.global_bytes_written
                for r in result.trace.kernel_records()
            )

        assert payload_bytes(chained) < payload_bytes(three)
        # ... and is therefore faster on one GPU under the roofline.
        assert chained.total_time_s < three.total_time_s

    def test_operator_generic(self, machine, rng):
        data = rng.integers(-100, 100, (2, 2048)).astype(np.int64)
        result = ScanChained(machine.gpus[0]).run(data, operator="max")
        np.testing.assert_array_equal(result.output, np.maximum.accumulate(data, axis=1))

    def test_ordered_blockwise_execution(self, rng):
        """In blockwise mode the chain must still resolve (ascending order
        is forced for ordered launches)."""
        gpu = GPU(
            0, KEPLER_K80,
            engine=ExecutionEngine(mode="blockwise", rng=np.random.default_rng(9)),
        )
        data = rng.integers(0, 100, (2, 1 << 13)).astype(np.int32)
        result = ScanChained(gpu).run(data)
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1, dtype=np.int32))

    def test_estimate_matches_functional(self, machine, rng):
        problem = ProblemConfig.from_sizes(N=1 << 14, G=8)
        executor = ScanChained(machine.gpus[0])
        functional = executor.run(
            rng.integers(0, 100, (8, 1 << 14)).astype(np.int32), collect=False
        )
        estimated = executor.estimate(problem)
        assert functional.total_time_s == pytest.approx(
            estimated.total_time_s, rel=1e-12
        )
        f = functional.trace.kernel_records()[0]
        e = estimated.trace.kernel_records()[0]
        assert f.global_bytes_read == e.global_bytes_read
        assert f.shuffle_instructions == e.shuffle_instructions
        assert f.operator_applications == e.operator_applications

    def test_memory_released(self, machine, rng):
        gpu = machine.gpus[0]
        before = gpu.pool.used
        ScanChained(gpu).run(rng.integers(0, 10, (2, 2048)).astype(np.int32))
        assert gpu.pool.used == before

    @given(
        log_n=st.integers(min_value=6, max_value=13),
        log_g=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_reference(self, log_n, log_g, seed):
        gpu = GPU(0, KEPLER_K80)
        rng = np.random.default_rng(seed)
        data = rng.integers(-1000, 1000, (1 << log_g, 1 << log_n)).astype(np.int64)
        result = ScanChained(gpu).run(data)
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=-1))


class TestIdealisedPricing:
    @pytest.mark.parametrize("call,counters", PINNED_COUNTERS)
    def test_priced_counters_are_pinned(self, machine, monkeypatch, call, counters):
        priced = []
        kernel_time = CostModel.kernel_time

        def capture(model, cost):
            priced.append((
                cost.global_bytes_read, cost.global_bytes_written,
                cost.shuffle_instructions, cost.operator_applications,
                cost.addressing_instructions,
            ))
            return kernel_time(model, cost)

        monkeypatch.setattr(CostModel, "kernel_time", capture)
        result = call(machine.gpus[0])
        assert priced == [counters]
        (record,) = result.trace.records
        assert (record.name, record.phase, record.stall_s) == (
            "chained_scan", "chained", 0.0
        )
