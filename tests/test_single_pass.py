"""The sp-dlb decoupled-lookback proposal: protocol, cost model, crossover.

Four layers:

- the :mod:`repro.gpusim.lookback` model itself (per-block read formula vs
  its closed form, stall-model properties);
- the kernel protocol (descriptor end states, execution-mode invariance,
  the association guarantee that makes float results bit-identical to the
  chained executor's, typed errors for out-of-order blocks, bool payloads,
  and a host-independent bound on the body's operator calls);
- the cost structure (sp-dlb never beats the idealised chained bound, but
  crosses the three-kernel pipeline as N grows — per dtype and G);
- the tuner/session integration (``auto`` resolves through the memoised
  variant choice; CLI and capability flags expose the proposal).

Bit-exactness against the sequential oracle lives in the differential
suite; estimate==run in ``test_executor_pipeline`` — both parametrize over
the registry, which now includes ``sp-dlb``.
"""

import numpy as np
import pytest

from repro.core.kernels import (
    _lookback_geometry,
    descriptor_reset_step,
    single_pass_step,
)
from repro.core.params import ProblemConfig
from repro.core.chained import ScanChained
from repro.core.single_gpu import ScanSP
from repro.core.single_pass import ScanSinglePassDLB
from repro.core.session import ScanSession
from repro.core.tuner import PremiseTuner
from repro.errors import LaunchError
from repro.gpusim.events import Trace
from repro.gpusim.kernel import ExecutionEngine
from repro.gpusim.lookback import (
    STATE_PREFIX,
    LookbackParams,
    lookback_reads_per_block,
    lookback_stall_s,
    total_lookback_reads,
)
from repro.interconnect.topology import tsubame_kfc
from repro.primitives.operators import Operator
from repro.primitives.sequential import exclusive_scan, inclusive_scan, reduce

#: dtype x operator x output kind: the fold must be exact for all of them.
FOLD_GRID = [
    pytest.param(
        dtype, op, inclusive,
        id=f"{np.dtype(dtype).name}-{op}-{'inc' if inclusive else 'exc'}",
    )
    for dtype in (np.int32, np.int64, np.float32, np.float64, np.bool_)
    for op in ("add", "max")
    for inclusive in (True, False)
]


def payload(rng, shape, dtype, edge=None):
    """Seeded scan input; ``edge`` plants float edge values."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return rng.random(shape) < 0.3
    if dtype.kind != "f":
        return rng.integers(-40, 90, shape).astype(dtype)
    data = rng.normal(0, 10, shape).astype(dtype)
    if edge == "-0.0":
        # Whole leading chunks of -0.0 make -0.0 chunk totals, so the
        # first published prefix is -0.0 too.
        data[:, : shape[1] // 4] = -0.0
        data[rng.random(shape) < 0.1] = -0.0
    elif edge == "nan":
        data[rng.random(shape) < 1e-3] = np.nan
    return data


def run_in_both_modes(data, **kwargs):
    """The same sp-dlb scan on a vectorized and a blockwise engine."""
    results = []
    for mode in ("vectorized", "blockwise"):
        m = tsubame_kfc(1)
        m.gpus[0].engine = ExecutionEngine(mode=mode)
        results.append(ScanSinglePassDLB(m.gpus[0]).run(data, **kwargs))
    return results


def assert_same_run(a, b):
    assert a.output.tobytes() == b.output.tobytes()
    assert a.total_time_s == b.total_time_s
    assert a.breakdown == b.breakdown


class ReversedEngine(ExecutionEngine):
    """Delivers blocks in descending order whatever ``ordered`` asks: every
    block in one call (``vectorized``) or one block per call (``blockwise``)."""

    def run(self, ctx, body, ordered=False):
        order = np.arange(ctx.config.blocks, dtype=np.int64)[::-1]
        calls = [order] if self.mode == "vectorized" else np.split(order, len(order))
        for block_ids in calls:
            body(ctx, block_ids)


class TestLookbackModel:
    @pytest.mark.parametrize("grid_x,grid_y,capacity", [
        (1, 1, 208), (7, 3, 4), (100, 2, 208), (500, 1, 208), (4096, 8, 104),
    ])
    def test_closed_form_matches_per_block_sum(self, grid_x, grid_y, capacity):
        bx = np.arange(grid_x)
        per_block = lookback_reads_per_block(bx, capacity)
        assert total_lookback_reads(grid_x, grid_y, capacity) == (
            grid_y * int(per_block.sum())
        )

    def test_reads_saturate_at_capacity(self):
        """Blocks beyond the resident window pay capacity-1 aggregate reads
        plus one terminating prefix read — never more."""
        capacity = 16
        reads = lookback_reads_per_block(np.arange(100), capacity)
        assert reads[0] == 0
        assert reads[1] == 1
        assert reads[15] == 15
        assert (reads[16:] == 16).all()

    def test_stall_is_zero_for_single_block_rows(self):
        assert lookback_stall_s(8, 1, 208, 1e-6, 0.25) == 0.0

    def test_stall_saturates_with_waves(self):
        """Exposure is capped: a 10-wave grid stalls like a 2-wave grid
        (the tail hides behind streaming), so the stall cannot grow
        linearly with N and destroy the large-N win."""
        lb = LookbackParams(window=32, exposure_horizon=2)
        two_waves = lookback_stall_s(416, 416, 208, 1e-6, 0.25, lb)
        ten_waves = lookback_stall_s(2080, 2080, 208, 1e-6, 0.25, lb)
        assert two_waves > 0
        assert ten_waves == pytest.approx(two_waves)

    def test_contention_inflates_the_round_trip(self):
        calm = lookback_stall_s(416, 416, 208, 1e-6, 0.0)
        loud = lookback_stall_s(416, 416, 208, 1e-6, 0.5)
        assert loud > calm


class TestLookbackProtocol:
    def test_descriptors_end_in_prefix_state(self, machine, rng):
        """After the pass every status word reads P, and the published
        prefixes are the sequential left fold of the chunk totals — bit for
        bit, -0.0 totals (under max) and NaN included."""
        gpu = machine.gpus[0]
        for dtype, op, edge in [(np.int64, "add", None),
                                (np.float64, "add", "-0.0"),
                                (np.float64, "max", "-0.0"),
                                (np.float64, "max", "nan"),
                                (np.bool_, "add", None)]:
            data = payload(rng, (2, 1 << 12), dtype, edge)
            problem = ProblemConfig.from_sizes(
                N=data.shape[1], G=data.shape[0], dtype=data.dtype, operator=op
            )
            plan = ScanSinglePassDLB(gpu).plan_for(problem)
            g, bx = data.shape[0], plan.stage1.bx
            assert bx > 1  # the protocol actually ran a lookback
            trace = Trace()
            device_data = gpu.upload(data)
            status = gpu.alloc((g, bx), np.int32)
            descriptors = gpu.alloc((g, bx, 2), data.dtype)
            descriptor_reset_step(plan, gpu.arch, status.shape).launch(
                trace, gpu, status)
            single_pass_step(plan, gpu.arch).launch(
                trace, gpu, device_data, status, descriptors
            )

            assert (status.data == STATE_PREFIX).all()
            # Block 0 publishes its total as its prefix; the others publish
            # their total as the aggregate.
            desc = descriptors.data
            totals = np.concatenate([desc[:, :1, 1], desc[:, 1:, 0]], axis=1)
            folded = inclusive_scan(totals, op)
            assert desc[:, :, 1].tobytes() == folded.tobytes(), (dtype, edge)
            if data.dtype.kind != "f":
                np.testing.assert_array_equal(
                    totals, reduce(data.reshape(g, bx, -1), op)
                )
                np.testing.assert_array_equal(
                    device_data.data, inclusive_scan(data, op)
                )

    @pytest.mark.parametrize("dtype,op,inclusive", FOLD_GRID)
    def test_execution_modes_agree_bitwise(self, rng, dtype, op, inclusive):
        """Vectorized and blockwise engines must produce identical bytes
        AND identical traces — the protocol model is schedule-independent."""
        data = payload(rng, (4, 1 << 13), dtype)
        a, b = run_in_both_modes(data, operator=op, inclusive=inclusive)
        assert_same_run(a, b)

    @pytest.mark.parametrize("dtype,op,inclusive", FOLD_GRID)
    def test_float_association_matches_chained(self, machine, rng, dtype, op,
                                               inclusive):
        """The lookback fold is the canonical chain association, so float
        results are bit-identical to the chained executor's (and the two
        share one differential-suite tolerance story). Exact dtypes also
        match numpy's sequential scan."""
        data = payload(rng, (4, 1 << 13), dtype)
        kwargs = dict(operator=op, inclusive=inclusive)
        dlb = ScanSinglePassDLB(machine.gpus[0]).run(data, **kwargs)
        chained = ScanChained(machine.gpus[0]).run(data, **kwargs)
        assert dlb.output.tobytes() == chained.output.tobytes()
        if data.dtype.kind != "f":
            reference = inclusive_scan if inclusive else exclusive_scan
            assert dlb.output.tobytes() == reference(data, op).tobytes()

    @pytest.mark.parametrize("shape,op,edge", [
        pytest.param((1, 1 << 20), "add", None, id="multi-wave"),
        pytest.param((4, 1 << 13), "add", "-0.0", id="negative-zero"),
        pytest.param((4, 1 << 13), "max", "-0.0", id="negative-zero-max"),
        pytest.param((4, 1 << 13), "max", "nan", id="nan-under-max"),
    ])
    def test_float_edges_agree_across_modes_and_with_chained(
        self, machine, rng, shape, op, edge
    ):
        """One row of 2048 blocks — far more than the 208 resident at once,
        so the hardware walk would span many waves — and float edge values
        resolve to the same bytes and trace in both engine modes, and to
        the chained executor's bytes."""
        data = payload(rng, shape, np.float64, edge)
        if edge is None:
            executor = ScanSinglePassDLB(machine.gpus[0])
            plan = executor.plan_for(
                ProblemConfig.from_sizes(N=shape[1], G=shape[0], dtype=np.float64)
            )
            _, capacity, _ = _lookback_geometry(plan, machine.arch)
            assert plan.stage1.bx == 2048 and capacity == 208
        for inclusive in (True, False):
            a, b = run_in_both_modes(data, operator=op, inclusive=inclusive)
            assert_same_run(a, b)
            chained = ScanChained(machine.gpus[0]).run(
                data, operator=op, inclusive=inclusive
            )
            assert a.output.tobytes() == chained.output.tobytes()

    @pytest.mark.parametrize("mode", ["blockwise", "vectorized"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.bool_])
    def test_out_of_order_blocks_raise_launch_error(self, rng, dtype, mode):
        """Blocks delivered against the dependency order, one per call or
        all in one call: a typed LaunchError, never a numpy error or a
        silently wrong output."""
        m = tsubame_kfc(1)
        m.gpus[0].engine = ReversedEngine(mode=mode)
        data = payload(rng, (2, 1 << 13), dtype)
        with pytest.raises(LaunchError, match="protocol violated"):
            ScanSinglePassDLB(m.gpus[0]).run(data)

    @pytest.mark.parametrize("pool", ["fresh", "recycled"])
    @pytest.mark.parametrize("mode", ["blockwise", "vectorized"])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64, np.bool_])
    def test_chained_out_of_order_blocks_raise_launch_error(
        self, rng, dtype, mode, pool
    ):
        """chained has no reset launch, so its status plane must come
        allocated already reset: a recycled plane that still reads ``P``
        from an earlier sp-dlb run on other data would hide the ordering
        violation behind a silently wrong output."""
        m = tsubame_kfc(1)
        data = payload(rng, (2, 1 << 13), dtype)
        if pool == "recycled":
            m.enable_buffer_pooling()
            ScanSinglePassDLB(m.gpus[0]).run(payload(rng, data.shape, dtype))
        m.gpus[0].engine = ReversedEngine(mode=mode)
        with pytest.raises(LaunchError, match="protocol violated"):
            ScanChained(m.gpus[0]).run(data)

    def test_trace_shape(self, machine, rng):
        """Exactly two launches — reset + pass — against the pipeline's 3."""
        data = rng.integers(0, 100, (1, 1 << 13)).astype(np.int32)
        result = ScanSinglePassDLB(machine.gpus[0]).run(data)
        names = [r.name for r in result.trace.records]
        assert names == ["descriptor_reset", "single_pass_scan"]
        assert result.config["single_pass"] is True
        assert result.config["lookback_window"] == machine.arch.warp_size


class TestBoolPayload:
    """Status words live in an int32 plane, so a bool payload — where the
    status codes A=1 and P=2 would both read True — runs the protocol."""

    @pytest.mark.parametrize("op", ["add", "max"])
    @pytest.mark.parametrize("inclusive", [True, False])
    def test_logical_or_scan_in_both_modes(self, machine, rng, op, inclusive):
        data = payload(rng, (2, 1 << 13), np.bool_)
        a, b = run_in_both_modes(data, operator=op, inclusive=inclusive)
        assert_same_run(a, b)
        expected = np.logical_or.accumulate(data, axis=1)
        if not inclusive:
            expected = np.concatenate(
                [np.zeros((2, 1), dtype=bool), expected[:, :-1]], axis=1
            )
        assert a.output.dtype == np.bool_
        assert a.output.tobytes() == expected.tobytes()
        # Priced like any one-byte payload: the analytic estimate agrees.
        estimate = ScanSinglePassDLB(machine.gpus[0]).estimate(
            ProblemConfig.from_sizes(N=1 << 13, G=2, dtype=np.bool_,
                                     operator=op, inclusive=inclusive)
        )
        assert a.total_time_s == estimate.total_time_s
        assert a.breakdown == estimate.breakdown

    def test_session_serves_bool_through_sp_dlb(self, machine, rng):
        data = payload(rng, (1, 1 << 22), np.bool_)
        result = ScanSession(machine).scan(data, proposal="sp-dlb")
        assert result.proposal == "scan-sp-dlb"
        assert result.output.tobytes() == np.logical_or.accumulate(data, axis=1).tobytes()


class TestHostCost:
    def test_operator_calls_do_not_grow_with_the_block_count(
        self, machine, rng, monkeypatch
    ):
        """Host-independent guard on the kernel body: a warm sp-dlb scan
        makes the same few Operator calls at Bx=64 and Bx=256. The lookback
        is one accumulate, not a per-block walk (which made ~30 000
        scalar combines per call)."""
        calls = []
        for name in ("combine", "accumulate"):
            def counted(*args, _method=getattr(Operator, name), **kwargs):
                calls.append(_method.__name__)
                return _method(*args, **kwargs)
            monkeypatch.setattr(Operator, name, counted)

        counts = {}
        for n_log2 in (15, 17):
            data = rng.integers(-40, 90, (16, 1 << n_log2)).astype(np.int64)
            executor = ScanSinglePassDLB(machine.gpus[0])
            executor.run(data)  # warm: plan resolved, buffers pooled
            plan = executor.plan_for(
                ProblemConfig.from_sizes(N=1 << n_log2, G=16, dtype=np.int64)
            )
            calls.clear()
            executor.run(data)
            counts[plan.stage1.bx] = len(calls)
        assert counts.keys() == {64, 256}
        assert counts[64] == counts[256] <= 64


class TestCostStructure:
    def test_never_beats_the_idealised_chained_bound(self, machine):
        """chained models the same algorithm with free descriptors and no
        stalls; honest pricing must always cost at least as much."""
        for n in (12, 16, 20, 24):
            problem = ProblemConfig.from_sizes(N=1 << n, G=1)
            dlb = ScanSinglePassDLB(machine.gpus[0]).estimate(problem)
            chained = ScanChained(machine.gpus[0]).estimate(problem)
            assert dlb.total_time_s > chained.total_time_s

    @pytest.mark.parametrize("dtype,g,small_n,large_n", [
        (np.int32, 1, 13, 23),
        (np.int32, 8, 13, 21),
        (np.int64, 8, 13, 19),
    ])
    def test_crossover_against_three_kernel(self, machine, dtype, g,
                                            small_n, large_n):
        """Small problems: fixed protocol cost loses to the pipeline.
        Large problems: the saved memory pass wins."""
        gpu = machine.gpus[0]
        small = ProblemConfig.from_sizes(N=1 << small_n, G=g, dtype=dtype)
        large = ProblemConfig.from_sizes(N=1 << large_n, G=g, dtype=dtype)
        assert (
            ScanSinglePassDLB(gpu).estimate(small).total_time_s
            > ScanSP(gpu).estimate(small).total_time_s
        )
        assert (
            ScanSinglePassDLB(gpu).estimate(large).total_time_s
            < ScanSP(gpu).estimate(large).total_time_s
        )

    def test_memory_traffic_is_two_pass_not_three(self, machine):
        """The headline claim: ~2N streamed bytes vs the pipeline's ~3N.

        The descriptor protocol honestly adds traffic on top of the 2N
        streaming floor (lookback reads scale with blocks x capacity), so
        the ratio lands between 2 and the pipeline's 3 — never at an
        idealised 2.0 exactly, and never enough to erase the saved pass.
        """
        problem = ProblemConfig.from_sizes(N=1 << 24, G=1, dtype=np.int32)
        nbytes = (1 << 24) * 4

        def moved(result):
            return sum(r.global_bytes_read + r.global_bytes_written
                       for r in result.trace.records)

        dlb = moved(ScanSinglePassDLB(machine.gpus[0]).estimate(problem))
        sp = moved(ScanSP(machine.gpus[0]).estimate(problem))
        assert sp / nbytes == pytest.approx(3.0, rel=0.05)
        assert 2.0 <= dlb / nbytes < 2.6
        assert dlb < sp


class TestVariantTuning:
    def test_tuner_picks_sp_small_and_dlb_large(self, machine):
        tuner = PremiseTuner(machine)
        small = tuner.tune_single_gpu_variant(
            ProblemConfig.from_sizes(N=1 << 13, G=1)
        )
        large = tuner.tune_single_gpu_variant(
            ProblemConfig.from_sizes(N=1 << 24, G=1)
        )
        assert small.best_proposal == "sp"
        assert large.best_proposal == "sp-dlb"
        assert {c.proposal for c in small.candidates} == {"sp", "sp-dlb"}

    def test_session_auto_serves_the_winner(self, machine, rng):
        """End to end: auto on one GPU returns sp at small N and sp-dlb at
        large N, with bit-exact output either way."""
        session = ScanSession(machine)
        small = rng.integers(-40, 90, (1, 1 << 12)).astype(np.int64)
        result = session.scan(small, proposal="auto")
        assert result.proposal == "scan-sp"
        np.testing.assert_array_equal(result.output, np.cumsum(small, axis=1))

        large = rng.integers(-40, 90, (1, 1 << 22)).astype(np.int32)
        result = session.scan(large, proposal="auto")
        assert result.proposal == "scan-sp-dlb"
        np.testing.assert_array_equal(result.output, np.cumsum(large, axis=1))

    def test_session_estimate_auto_matches_scan_auto(self, machine):
        session = ScanSession(machine)
        problem = ProblemConfig.from_sizes(N=1 << 24, G=1, dtype=np.int32)
        est = session.estimate(problem, proposal="auto")
        assert est.proposal == "scan-sp-dlb"

    def test_explicit_proposal_bypasses_the_variant_choice(self, machine, rng):
        """proposal="sp" means sp — the refinement only applies to auto."""
        session = ScanSession(machine)
        large = rng.integers(0, 9, (1, 1 << 22)).astype(np.int32)
        assert session.scan(large, proposal="sp").proposal == "scan-sp"


class TestCli:
    def test_proposals_lists_capability_flags(self, capsys):
        from repro.cli import main

        assert main(["proposals"]) == 0
        out = capsys.readouterr().out
        assert "sp-dlb" in out
        assert "2-pass" in out and "3-pass" in out
        assert "1-GPU" in out and "multi-GPU" in out
        assert "estimate" in out

    def test_scan_with_sp_dlb(self, capsys):
        from repro.cli import main

        assert main(["scan", "--n", "13", "--g", "2",
                     "--proposal", "sp-dlb"]) == 0
        out = capsys.readouterr().out
        assert "scan-sp-dlb" in out
        assert "verified against numpy reference" in out
