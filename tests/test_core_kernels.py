"""Tests for the three-stage kernels: correctness, block independence,
and exactness of the closed-form stats (the estimate-path invariant)."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gpusim.arch import KEPLER_K80
from repro.gpusim.device import GPU
from repro.gpusim.events import Trace
from repro.gpusim.kernel import ExecutionEngine
from repro.interconnect.topology import tsubame_kfc
from repro.core import kernels
from repro.core.chained import ScanChained
from repro.core.kernels import (
    _lookback_geometry,
    _view,
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
from repro.core.single_pass import ScanSinglePassDLB
from repro.gpusim.lookback import STATE_PREFIX
from repro.primitives.ladner_fischer import ladner_fischer_schedule
from repro.primitives.networks import run_schedule
from repro.primitives.operators import Operator, resolve_operator
from repro.primitives.sequential import exclusive_scan, inclusive_scan
from repro.util.ints import ceil_div
from tests.conftest import warp_flow

#: Whose counters the closed form is checked against: the float warp flow,
#: and the integer warp flow run in place of the one-pass exact bodies.
WARP_FLOWS = [np.float32, np.int32]


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
        for dtype in WARP_FLOWS:
            problem, plan, host, data, aux = make_setup(gpu, dtype=dtype)
            with warp_flow():
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
        for dtype in WARP_FLOWS:
            problem, plan, host, data, aux = make_setup(gpu, dtype=dtype)
            with warp_flow():
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
        for dtype in WARP_FLOWS:
            problem, plan, host, data, aux = make_setup(gpu, dtype=dtype)
            trace = Trace()
            with warp_flow():
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
    with warp_flow():
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


# --------------------------------------------------------------------------
# Float bodies: the block flow's association, pinned to a reference flow
# --------------------------------------------------------------------------

FLOAT_DTYPES = [np.float16, np.float32, np.float64, np.complex64, np.complex128]

FLOAT_GRID = [
    pytest.param(dtype, op, id=f"{np.dtype(dtype).name}-{op}")
    for dtype in FLOAT_DTYPES for op in OPERATORS if _valid(op, dtype)
]

#: Eight register elements per thread (as the derived plans have) and an
#: eight-deep cascade: a thread's total folds eight elements, and the
#: chunk total reduces eight iteration totals, which numpy's add reduce
#: sums pairwise.
DEEP = KernelParams(s=1, p=3, l=6, lx=6, ly=0, K=8)


def float_payload(rng, shape, dtype, op):
    """Finite values; the last row opens with a run of -0.0 (so signed
    zeros meet the identity in every offset combine), and rows after the
    first carry -0.0, +0.0, NaN and both infinities (in both parts of a
    complex value). Products draw magnitudes near one, so they stay
    finite for a while."""
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf])

    def part():
        if op == "mul":
            values = rng.choice([-1.25, -1.0, -0.75, 0.5, 1.0, 1.5], shape)
            values = values * (1 + rng.standard_normal(shape) / 64)
        else:
            values = rng.standard_normal(shape) * 8
        mask = rng.random(shape) < 0.02
        mask[0] = False
        values[mask] = rng.choice(specials, int(mask.sum()))
        values[-1, : shape[1] // 4] = -0.0
        return values

    dtype = np.dtype(dtype)
    if dtype.kind == "c":
        values = np.empty(shape, dtype)
        values.real, values.imag = part(), part()
        return values
    return part().astype(dtype)


def _ref_register_scan(op, threads):
    """Each thread's register scan: a left fold along the last axis."""
    out = threads.copy()
    for p in range(1, out.shape[-1]):
        out[..., p] = op.combine(out[..., p - 1], out[..., p])
    return out


def _ref_warp_exclusive(op, values, width):
    """Exclusive LF(0) scan of the last axis, lane by lane."""
    inclusive = run_schedule(values, ladner_fischer_schedule(width, 0), op)
    out = np.empty_like(inclusive)
    out[..., 0] = op.identity(values.dtype)
    out[..., 1:] = inclusive[..., :-1]
    return out


def ref_block_flow(op, chunks, K, Lx, P, base=None, inclusive=True):
    """The block flow over ``chunks`` ``(nb, K*Lx*P)``, step by step on
    copies: returns (scanned chunks, chunk totals).

    Thread register scans, the exclusive LF scan of thread totals per
    warp, the warp totals, their exclusive LF scan across warps, the
    iteration totals and the cascade's left fold; the chunk total is
    numpy's reduce of the iteration totals. Each element is then
    ``(base . (carry . warp_offset)) . thread_offset`` combined with its
    register scan (``base=None``: no base is combined in).
    """
    nb = len(chunks)
    identity = op.identity(chunks.dtype)
    width = min(Lx, KEPLER_K80.warp_size)
    nw = Lx // width
    local = _ref_register_scan(op, chunks.reshape(nb, K, nw, width, P))
    totals = local[..., -1]
    thread_offsets = _ref_warp_exclusive(op, totals, width)
    warp_totals = op.combine(thread_offsets[..., -1], totals[..., -1])
    if nw > 1:
        warp_offsets = _ref_warp_exclusive(op, warp_totals, nw)
        iteration_totals = op.combine(warp_offsets[..., -1], warp_totals[..., -1])
    else:
        warp_offsets = np.full(warp_totals.shape, identity, chunks.dtype)
        iteration_totals = warp_totals[..., -1].copy()
    chunk_totals = op.reduce(iteration_totals, axis=-1)
    carries = np.full(iteration_totals.shape, identity, chunks.dtype)
    carries[:, 1:] = _ref_register_scan(op, iteration_totals)[:, :-1]

    offset = op.combine(carries[:, :, None], warp_offsets)
    if base is not None:
        offset = op.combine(base[:, None, None], offset)
    offset = op.combine(offset[..., None], thread_offsets)
    if not inclusive:
        local = np.concatenate(
            [np.full(local[..., :1].shape, identity, chunks.dtype), local[..., :-1]],
            axis=-1)
    return op.combine(offset[..., None], local).reshape(nb, -1), chunk_totals


def ref_every_kernel(host, op, inclusive, plans):
    """What :func:`run_every_kernel` must produce, from the reference flow."""
    op = resolve_operator(op)
    shared, single = plans
    g, n = host.shape
    kp, kp2 = shared.stage1.params, shared.stage2.params
    flow = (kp.K, kp.Lx, kp.P)
    identity = op.identity(host.dtype)
    halves = [host[:, : n // 2], host[:, n // 2:]]
    out = {"stage1": np.concatenate(
        [ref_block_flow(op, h.reshape(-1, kp.chunk_size), *flow)[1].reshape(g, -1)
         for h in halves], axis=1)}

    cx = shared.chunks_total
    rounds = ceil_div(cx, kp2.P * kp2.Lx)
    staged = np.full((g, rounds * kp2.P * kp2.Lx), identity, host.dtype)
    staged[:, :cx] = out["stage1"]
    out["stage2"] = ref_block_flow(op, staged, rounds, kp2.Lx, kp2.P,
                                   inclusive=False)[0][:, :cx]
    bx = shared.stage1.bx
    out["stage3"] = np.concatenate([
        ref_block_flow(op, h.reshape(-1, kp.chunk_size), *flow,
                       base=out["stage2"][:, i * bx:(i + 1) * bx].reshape(-1),
                       inclusive=inclusive)[0].reshape(g, -1)
        for i, h in enumerate(halves)], axis=1)

    kp1 = single.stage1.params
    chunks = host.reshape(-1, kp1.chunk_size)
    totals = ref_block_flow(op, chunks, kp1.K, kp1.Lx, kp1.P)[1].reshape(g, -1)
    # The lookback: each row's left fold of chunk totals, block 0's total
    # published as is.
    prefixes = _ref_register_scan(op, totals)
    exclusive = np.full(totals.shape, identity, host.dtype)
    exclusive[:, 1:] = prefixes[:, :-1]
    out["sp_dlb"] = ref_block_flow(op, chunks, kp1.K, kp1.Lx, kp1.P,
                                   base=exclusive.reshape(-1),
                                   inclusive=inclusive)[0].reshape(g, n)
    out["status"] = np.full(totals.shape, STATE_PREFIX, np.int32)
    descriptors = np.zeros(totals.shape + (2,), host.dtype)
    descriptors[:, 1:, 0] = totals[:, 1:]
    descriptors[:, :, 1] = prefixes
    out["descriptors"] = descriptors
    return out


def assert_float_flow(host, op, inclusive, mode, template):
    """Every kernel gives the reference flow's bytes."""
    with np.errstate(all="ignore"):
        got, _, plans = run_every_kernel(host, op, inclusive, mode, template)
        want = ref_every_kernel(host, op, inclusive, plans)
    for name, arr in want.items():
        assert got[name].dtype == arr.dtype, name
        assert got[name].tobytes() == arr.tobytes(), name
    return plans


class TestFloatBodies:
    """Float payloads replay the block flow: the lane-major LF, in-place
    views and the totals-only Stage 1 must combine every element in the
    flow's order, bit for bit, under both engines."""

    @pytest.mark.parametrize("mode", ["vectorized", "blockwise"])
    @pytest.mark.parametrize("inclusive", [True, False], ids=["inc", "exc"])
    @pytest.mark.parametrize("dtype,op", FLOAT_GRID)
    def test_flow_matches_reference(self, rng, dtype, op, inclusive, mode):
        host = float_payload(rng, (2, 1 << 11), dtype, op)
        assert_float_flow(host, op, inclusive, mode, SMALL)

    @pytest.mark.parametrize("mode", ["vectorized", "blockwise"])
    @pytest.mark.parametrize("dtype,op", [(np.float16, "add"), (np.float32, "mul"),
                                          (np.float64, "max"), (np.complex64, "min"),
                                          (np.complex128, "add")])
    def test_multi_round_stage2_and_multi_wave_lookback(self, rng, dtype, op, mode):
        host = float_payload(rng, (1, 1 << 14), dtype, op)
        for inclusive in (True, False):
            shared, single = assert_float_flow(host, op, inclusive, mode, TINY)
        kp2 = shared.stage2.params
        assert ceil_div(shared.chunks_total, kp2.P * kp2.Lx) > 1
        assert single.stage1.bx > _lookback_geometry(single, KEPLER_K80)[1]

    def test_views_write_through_or_raise(self):
        """The bodies write through reshaped views of device buffers: a
        reshape numpy could only serve with a copy must raise, not drop
        the writes."""
        buffer = np.zeros((4, 16), np.float32)
        _view(buffer, 4, 2, 8)[:, 1] = 1
        assert buffer[:, 8:].all() and not buffer[:, :8].any()
        columns = buffer[:, :8]  # not contiguous, but its rows split
        _view(columns, 4, 2, 4)[...] = 2
        assert (buffer[:, :8] == 2).all()
        with pytest.raises(ValueError):
            _view(columns, -1)
        with pytest.raises(ValueError):
            _view(buffer.T, 8, 8)

    @pytest.mark.parametrize("mode", ["vectorized", "blockwise"])
    def test_deep_registers_and_cascade(self, rng, mode):
        host = float_payload(rng, (2, 1 << 14), np.float32, "add")
        for inclusive in (True, False):
            shared, _ = assert_float_flow(host, "add", inclusive, mode, DEEP)
        assert (shared.stage1.params.P, shared.stage1.params.K) == (8, 8)

    @pytest.mark.parametrize("executor_cls", [ScanSP, ScanSinglePassDLB])
    @pytest.mark.parametrize("inclusive", [True, False], ids=["inc", "exc"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_warm_call_allocates_only_its_output(self, rng, executor_cls, inclusive,
                                                 dtype):
        """Host-independent guard: a warm covering call scans its result
        array in place, through views, so its allocation peak is that
        output plus the block flow's per-thread arrays, not a gather copy
        of the batch.

        The flow holds at most three arrays of one element per thread at
        once (Stage 1's thread totals and the warp scan's two) and one
        offset tile (:func:`kernels._add_offsets`).
        """
        machine = tsubame_kfc(1)
        machine.enable_buffer_pooling()
        data = rng.integers(-40, 90, (16, 1 << 14)).astype(dtype)
        executor = executor_cls(machine.gpus[0])
        for _ in range(2):
            executor.run(data, inclusive=inclusive)
        tracemalloc.start()
        try:
            result = executor.run(data, inclusive=inclusive)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = (inclusive_scan if inclusive else exclusive_scan)(data, "add")
        assert result.output.tobytes() == expected.tobytes()  # integer-valued
        per_thread = data.nbytes // result.plan.stage1.params.P
        flow = 3 * per_thread + kernels._OFFSET_TILE_BYTES
        assert peak <= 1.1 * (data.nbytes + flow)


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
