"""Tests for the three-stage kernels: correctness, block independence,
and exactness of the closed-form stats (the estimate-path invariant)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpusim.arch import KEPLER_K80
from repro.gpusim.device import GPU
from repro.gpusim.events import Trace
from repro.gpusim.kernel import ExecutionEngine
from repro.core import kernels
from repro.core.chained import ScanChained
from repro.core.kernels import (
    _lookback_geometry,
    chunk_reduce_step,
    chunk_reduce_stats,
    descriptor_reset_step,
    intermediate_scan_step,
    intermediate_scan_stats,
    scan_add_step,
    scan_add_stats,
    single_pass_step,
)
from repro.core.params import KernelParams, ProblemConfig
from repro.core.plan import build_execution_plan
from repro.core.single_gpu import ScanSP
from repro.primitives.operators import Operator, resolve_operator
from repro.primitives.sequential import exclusive_scan, inclusive_scan
from repro.util.hotpath import fast_paths
from repro.util.ints import ceil_div

#: Whose counters the closed form is checked against: the float warp flow,
#: and the integer warp flow with the one-pass exact bodies switched off.
WARP_FLOWS = [(np.float32, True), (np.int32, False)]


def make_setup(gpu, n=1 << 14, g=4, k=2, dtype=np.int32, operator="add",
               inclusive=True, seed=0):
    rng = np.random.default_rng(seed)
    problem = ProblemConfig.from_sizes(N=n, G=g, dtype=dtype, operator=operator,
                                       inclusive=inclusive)
    plan = build_execution_plan(gpu.arch, problem, K=k)
    host = rng.integers(0, 100, (g, n)).astype(dtype)
    data = gpu.upload(host)
    aux = gpu.alloc((g, plan.chunks_total), dtype)
    return problem, plan, host, data, aux


class TestChunkReduce:
    def test_writes_chunk_reductions(self, gpu):
        problem, plan, host, data, aux = make_setup(gpu)
        chunk_reduce_step(plan, gpu.arch, problem.G).launch(Trace(), gpu, data, aux)
        chunk = plan.chunk_size
        expected = host.reshape(problem.G, -1, chunk).sum(axis=-1, dtype=np.int32)
        np.testing.assert_array_equal(aux.to_host(), expected)

    def test_does_not_modify_input(self, gpu):
        problem, plan, host, data, aux = make_setup(gpu)
        chunk_reduce_step(plan, gpu.arch, problem.G).launch(Trace(), gpu, data, aux)
        np.testing.assert_array_equal(data.to_host(), host)

    def test_max_operator(self, gpu):
        problem, plan, host, data, aux = make_setup(gpu, operator="max")
        chunk_reduce_step(plan, gpu.arch, problem.G).launch(Trace(), gpu, data, aux)
        chunk = plan.chunk_size
        expected = host.reshape(problem.G, -1, chunk).max(axis=-1)
        np.testing.assert_array_equal(aux.to_host(), expected)

    def test_column_offset(self, gpu):
        problem, plan, host, data, _ = make_setup(gpu)
        wide = gpu.alloc((problem.G, 2 * plan.chunks_total), np.int32, fill=-1)
        chunk_reduce_step(plan, gpu.arch, problem.G).launch(
            Trace(), gpu, data,
            wide.view(slice(None), slice(plan.chunks_total, None)))
        out = wide.to_host()
        assert (out[:, : plan.chunks_total] == -1).all()
        chunk = plan.chunk_size
        expected = host.reshape(problem.G, -1, chunk).sum(axis=-1, dtype=np.int32)
        np.testing.assert_array_equal(out[:, plan.chunks_total :], expected)

    def test_stats_match_closed_form(self, gpu):
        for dtype, fast in WARP_FLOWS:
            problem, plan, host, data, aux = make_setup(gpu, dtype=dtype)
            with fast_paths(fast):
                record = chunk_reduce_step(plan, gpu.arch, problem.G).launch(
                    Trace(), gpu, data, aux)
            analytic = chunk_reduce_stats(plan, gpu.arch.warp_size)
            assert record.global_bytes_read == analytic.global_bytes_read
            assert record.global_bytes_written == analytic.global_bytes_written
            assert record.shuffle_instructions == analytic.shuffle_instructions
            assert record.operator_applications == analytic.operator_applications


class TestIntermediateScan:
    def test_exclusive_scan_in_place(self, gpu):
        problem, plan, host, data, aux = make_setup(gpu)
        chunk_reduce_step(plan, gpu.arch, problem.G).launch(Trace(), gpu, data, aux)
        before = aux.to_host()
        intermediate_scan_step(plan, gpu.arch).launch(Trace(), gpu, aux)
        np.testing.assert_array_equal(aux.to_host(), exclusive_scan(before, axis=-1))

    def test_stats_match_closed_form(self, gpu):
        for dtype, fast in WARP_FLOWS:
            problem, plan, host, data, aux = make_setup(gpu, dtype=dtype)
            with fast_paths(fast):
                record = intermediate_scan_step(plan, gpu.arch).launch(
                    Trace(), gpu, aux)
            analytic = intermediate_scan_stats(plan, gpu.arch.warp_size)
            assert record.global_bytes_read == analytic.global_bytes_read
            assert record.shuffle_instructions == analytic.shuffle_instructions


class TestScanAdd:
    def run_pipeline(self, gpu, **kwargs):
        problem, plan, host, data, aux = make_setup(gpu, **kwargs)
        trace = Trace()
        chunk_reduce_step(plan, gpu.arch, problem.G).launch(trace, gpu, data, aux)
        intermediate_scan_step(plan, gpu.arch).launch(trace, gpu, aux)
        scan_add_step(plan, gpu.arch, problem.G).launch(trace, gpu, data, aux)
        return problem, host, data.to_host(), trace

    def test_inclusive_result(self, gpu):
        _, host, out, _ = self.run_pipeline(gpu)
        np.testing.assert_array_equal(out, np.cumsum(host, axis=-1, dtype=np.int32))

    def test_exclusive_result(self, gpu):
        _, host, out, _ = self.run_pipeline(gpu, inclusive=False)
        np.testing.assert_array_equal(out, exclusive_scan(host, axis=-1))

    def test_max_operator_end_to_end(self, gpu):
        _, host, out, _ = self.run_pipeline(gpu, operator="max")
        np.testing.assert_array_equal(out, np.maximum.accumulate(host, axis=-1))

    @pytest.mark.parametrize("k", [1, 2, 8])
    @pytest.mark.parametrize("g", [1, 4])
    def test_cascade_depths(self, gpu, k, g):
        _, host, out, _ = self.run_pipeline(gpu, k=k, g=g)
        np.testing.assert_array_equal(out, np.cumsum(host, axis=-1, dtype=np.int32))

    def test_int64(self, gpu):
        _, host, out, _ = self.run_pipeline(gpu, dtype=np.int64)
        np.testing.assert_array_equal(out, np.cumsum(host, axis=-1))

    def test_stats_match_closed_form(self, gpu):
        for dtype, fast in WARP_FLOWS:
            problem, plan, host, data, aux = make_setup(gpu, dtype=dtype)
            trace = Trace()
            with fast_paths(fast):
                chunk_reduce_step(plan, gpu.arch, problem.G).launch(
                    trace, gpu, data, aux)
                intermediate_scan_step(plan, gpu.arch).launch(trace, gpu, aux)
                record = scan_add_step(plan, gpu.arch, problem.G).launch(
                    trace, gpu, data, aux)
            analytic = scan_add_stats(plan, gpu.arch.warp_size)
            assert record.global_bytes_read == analytic.global_bytes_read
            assert record.global_bytes_written == analytic.global_bytes_written
            assert record.shuffle_instructions == analytic.shuffle_instructions
            assert record.operator_applications == analytic.operator_applications


class TestBlockIndependence:
    """The same kernels must produce identical results when blocks execute
    one at a time in a random order — proof there is no illegal
    inter-block communication within a kernel (Section 3's global-sync
    between kernels is the only cross-block dependency)."""

    def test_blockwise_equals_vectorized(self):
        vec_gpu = GPU(0, KEPLER_K80)
        blk_gpu = GPU(
            1, KEPLER_K80,
            engine=ExecutionEngine(mode="blockwise", rng=np.random.default_rng(3)),
        )
        results = []
        stats = []
        for gpu in (vec_gpu, blk_gpu):
            problem, plan, host, data, aux = make_setup(gpu, n=1 << 13, g=2, k=2)
            trace = Trace()
            chunk_reduce_step(plan, gpu.arch, problem.G).launch(
                trace, gpu, data, aux)
            intermediate_scan_step(plan, gpu.arch).launch(trace, gpu, aux)
            scan_add_step(plan, gpu.arch, problem.G).launch(trace, gpu, data, aux)
            results.append(data.to_host())
            stats.append([
                (r.global_bytes_read, r.global_bytes_written,
                 r.shuffle_instructions, r.operator_applications)
                for r in trace.kernel_records()
            ])
        np.testing.assert_array_equal(results[0], results[1])
        assert stats[0] == stats[1]  # counters are schedule-independent


# --------------------------------------------------------------------------
# Exact-dtype bodies: one pass per chunk, pinned to the warp flow
# --------------------------------------------------------------------------

EXACT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
                np.uint8, np.uint32, np.uint64, np.bool_]
OPERATORS = ["add", "mul", "max", "min", "or", "xor"]


def _valid(op: str, dtype) -> bool:
    try:
        resolve_operator(op).identity(np.dtype(dtype))
    except ConfigurationError:
        return False
    return True


PARITY_GRID = [
    pytest.param(dtype, op, id=f"{np.dtype(dtype).name}-{op}")
    for dtype in EXACT_DTYPES for op in OPERATORS if _valid(op, dtype)
]

#: Two warps of 32 lanes, P=2, K=2: 256-element chunks, a cross-warp
#: exchange and a cascade, at sizes the blockwise engine runs quickly.
SMALL = KernelParams(s=1, p=1, l=6, lx=6, ly=0, K=2)
#: One warp, P=2, K=1: 64-element chunks, so 2^14 elements make a
#: four-round Stage 2 and a 256-block sp-dlb grid (over 208 resident).
TINY = KernelParams(s=0, p=1, l=5, lx=5, ly=0, K=1)


def exact_payload(rng, shape, dtype):
    """Full-range values: integer add and mul wrap, bool is random."""
    dtype = np.dtype(dtype)
    if dtype == np.bool_:
        return rng.random(shape) < 0.3
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, shape, dtype=dtype, endpoint=True)


def run_every_kernel(host, op, inclusive, mode, template):
    """All four kernels over ``host`` on one GPU; every output and record.

    The three-kernel pipeline runs as two GPUs' shares of each problem
    would on one device: both halves reduce into one auxiliary array, the
    second through a column view from ``Bx`` on. sp-dlb scans the whole
    batch.
    """
    gpu = GPU(0, KEPLER_K80, engine=ExecutionEngine(mode, np.random.default_rng(4)))
    g, n = host.shape
    problem = ProblemConfig.from_sizes(N=n, G=g, dtype=host.dtype, operator=op,
                                       inclusive=inclusive)
    shared = build_execution_plan(gpu.arch, problem, K=template.K,
                                  gpus_sharing_problem=2, stage1_template=template)
    bx = shared.stage1.bx
    halves = [gpu.upload(host[:, : n // 2]), gpu.upload(host[:, n // 2:])]
    aux = gpu.alloc((g, shared.chunks_total), host.dtype)
    columns = [aux.view(slice(None), slice(i * bx, (i + 1) * bx)) for i in range(2)]
    trace = Trace()
    for half, cols in zip(halves, columns):
        chunk_reduce_step(shared, gpu.arch, g).launch(trace, gpu, half, cols)
    out = {"stage1": aux.to_host()}
    intermediate_scan_step(shared, gpu.arch).launch(trace, gpu, aux)
    out["stage2"] = aux.to_host()
    for half, cols in zip(halves, columns):
        scan_add_step(shared, gpu.arch, g).launch(trace, gpu, half, cols)
    out["stage3"] = np.concatenate([h.to_host() for h in halves], axis=1)

    single = build_execution_plan(gpu.arch, problem, K=template.K,
                                  stage1_template=template)
    data = gpu.upload(host)
    status = gpu.alloc((g, single.stage1.bx), np.int32)
    # Block 0 never publishes an aggregate: fill so the planes compare.
    descriptors = gpu.alloc((g, single.stage1.bx, 2), host.dtype, fill=0)
    descriptor_reset_step(single, gpu.arch, status.shape).launch(trace, gpu, status)
    single_pass_step(single, gpu.arch).launch(trace, gpu, data, status, descriptors)
    out.update(sp_dlb=data.to_host(), status=status.to_host(),
               descriptors=descriptors.to_host())
    return out, list(trace.kernel_records()), (shared, single)


def assert_bodies_agree(host, op, inclusive, mode, template):
    """Exact bodies and the warp flow: same bytes, same records."""
    with fast_paths(False):
        flow, flow_records, plans = run_every_kernel(host, op, inclusive, mode,
                                                     template)
    exact, exact_records, _ = run_every_kernel(host, op, inclusive, mode, template)
    for name, arr in flow.items():
        assert exact[name].dtype == arr.dtype, name
        assert exact[name].tobytes() == arr.tobytes(), name
    assert exact_records == flow_records
    expected = (inclusive_scan if inclusive else exclusive_scan)(host, op)
    assert exact["stage3"].tobytes() == expected.tobytes()
    assert exact["sp_dlb"].tobytes() == expected.tobytes()
    return plans


class TestExactBodies:
    @pytest.mark.parametrize("mode", ["vectorized", "blockwise"])
    @pytest.mark.parametrize("inclusive", [True, False], ids=["inc", "exc"])
    @pytest.mark.parametrize("dtype,op", PARITY_GRID)
    def test_parity_with_warp_flow(self, rng, dtype, op, inclusive, mode):
        host = exact_payload(rng, (2, 1 << 11), dtype)
        assert_bodies_agree(host, op, inclusive, mode, SMALL)

    @pytest.mark.parametrize("mode", ["vectorized", "blockwise"])
    def test_int8_add_wraps(self, rng, mode):
        host = exact_payload(rng, (2, 1 << 11), np.int8)
        wide = np.cumsum(host, axis=1, dtype=np.int64)
        assert (wide < -128).any() and (wide > 127).any()  # it does wrap
        assert_bodies_agree(host, "add", True, mode, SMALL)

    @pytest.mark.parametrize("mode", ["vectorized", "blockwise"])
    @pytest.mark.parametrize("dtype,op", [(np.int32, "add"), (np.int8, "mul"),
                                          (np.uint64, "xor"), (np.bool_, "max")])
    def test_multi_round_stage2_and_multi_wave_lookback(self, rng, dtype, op, mode):
        host = exact_payload(rng, (1, 1 << 14), dtype)
        for inclusive in (True, False):
            shared, single = assert_bodies_agree(host, op, inclusive, mode, TINY)
        kp2 = shared.stage2.params
        assert ceil_div(shared.chunks_total, kp2.P * kp2.Lx) > 1
        assert single.stage1.bx > _lookback_geometry(single, KEPLER_K80)[1]


class TestHostCost:
    """Host-independent guard on the exact bodies: a warm ``sp`` scan runs
    no warp scan, and its operator calls do not grow with the block count
    (K sets Bx). Floats still replay the warp flow."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        for name in ("accumulate", "reduce", "combine"):
            def counted(*args, _method=getattr(Operator, name), **kwargs):
                calls.append(_method.__name__)
                return _method(*args, **kwargs)
            monkeypatch.setattr(Operator, name, counted)
        warp_scans = []
        original = kernels.warp_exclusive_scan

        def counted_warp(*args, **kwargs):
            warp_scans.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(kernels, "warp_exclusive_scan", counted_warp)
        return calls, warp_scans

    def warm_scan(self, machine, dtype, K, rng, counters, executor_cls=ScanSP):
        data = rng.integers(-40, 90, (16, 1 << 14)).astype(dtype)
        executor = executor_cls(machine.gpus[0], K=K)
        executor.run(data)  # warm: plan resolved, buffers pooled
        for counter in counters:
            counter.clear()
        result = executor.run(data)
        np.testing.assert_array_equal(result.output,
                                      np.cumsum(data, axis=1, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_exact_dtypes_take_one_pass(self, machine, rng, monkeypatch, dtype):
        calls, warp_scans = self.count_calls(monkeypatch)
        counts = {}
        for K in (1, 4):
            self.warm_scan(machine, dtype, K, rng, (calls, warp_scans))
            assert warp_scans == []
            counts[K] = len(calls)
        assert counts[1] == counts[4] <= 12

    def test_floats_keep_the_warp_flow(self, machine, rng, monkeypatch):
        calls, warp_scans = self.count_calls(monkeypatch)
        self.warm_scan(machine, np.float32, 1, rng, (calls, warp_scans))
        assert len(warp_scans) > 0

    def test_chained_runs_the_single_pass_body(self, machine, rng, monkeypatch):
        """chained is sp-dlb's pass under idealised pricing, so an exact
        dtype takes the one-pass body there too: no warp scan."""
        calls, warp_scans = self.count_calls(monkeypatch)
        self.warm_scan(machine, np.int32, None, rng, (calls, warp_scans),
                       executor_cls=ScanChained)
        assert warp_scans == []
