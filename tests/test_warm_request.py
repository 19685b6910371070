"""Warm requests: a repeated request re-derives nothing.

A served request used to pay for work unrelated to its data: the service
re-validated its spelling, rebuilt and sorted a deadline list over every
queue on each clock advance and summed every queue for each depth read,
and an executor re-derived its buffer shapes, launch steps, kernel bodies,
copy message counts and MPI records on every call. These tests pin three
things:

- *host cost*: a warm submit validates nothing and builds the deadline
  list only when a flush is due; a warm call of any executor (``sp``,
  ``sp-dlb``, ``chained``, ``pp``, ``mps``, ``mppc`` and ``mn-mps``) builds
  no launch step and no launch program, binds no body, asks no
  P2P route and prices no MPI leg, whichever storage the buffer pools
  hand back and on a machine without pools too;
- *same accounting*: pool counters, flush times and reasons, batch logs,
  ticket latencies, span trees, failovers and degraded-network records
  equal the literals measured before requests were held (controllers,
  evictions and backpressure included);
- *invalidation*: new pool blocks, poison mode, replaced cost or
  transfer params, a swapped resolver or architecture, an armed fault,
  a degraded network and observability each give the bytes, records and
  reports of a fresh session (new pool blocks rebind nothing); warp-flow
  bodies bound under ``warp_flow`` replay warm with the bytes and
  records of the one-pass bodies.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.core import kernels
from repro.core.autotune_cache import AutotuneCache
from repro.core.executor import PlanResolver, ScanExecutor
from repro.core.multi_gpu import ScanMPS
from repro.core.params import NodeConfig
from repro.core.prioritized import ScanMPPC
from repro.core.session import ScanSession
from repro.errors import BackpressureError
from repro.gpusim import warp
from repro.gpusim.events import TransferRecord
from repro.gpusim.faults import DeviceDown, FaultSchedule, LinkDown
from repro.gpusim.kernel import ExecutionEngine
from repro.gpusim.metrics import buffer_pool_stats
from repro.interconnect.topology import SystemTopology, tsubame_kfc
from repro.interconnect.transfer import TransferCostParams
from repro.mpisim.communicator import Communicator
from repro.serve import service as service_module
from repro.serve.service import ScanService
from tests.conftest import warp_flow

#: (proposal, placement, shape) of the held-program calls.
PROGRAM_CALLS = [
    ("sp", {}, (4, 1 << 12)),
    ("sp-dlb", {}, (4, 1 << 12)),
    ("chained", {}, (4, 1 << 12)),
    ("pp", {"W": 4}, (8, 1 << 11)),
    ("mps", {"W": 4, "V": 4}, (4, 1 << 12)),
    ("mppc", {"W": 8, "V": 4}, (4, 1 << 12)),
    ("mn-mps", {"W": 4, "V": 4, "M": 2}, (2, 1 << 13)),
]
PROGRAM_IDS = [call[0] for call in PROGRAM_CALLS]
#: The multi-GPU calls, which run on two TSUBAME-KFC nodes.
MULTI_GPU_CALLS = PROGRAM_CALLS[4:]
MULTI_GPU_IDS = PROGRAM_IDS[4:]
NODES = {"mps": 2, "mppc": 2, "mn-mps": 2}
ENGINES = ("vectorized", "blockwise")

#: What a second identical call adds to the pool counters of
#: ``buffer_pool_stats``: hits, misses, allocs, releases, bytes reused,
#: pooled buffers, pooled bytes (as in ``tests/test_warm_path.py``). The
#: uploaded portions are the result array's, so only the auxiliary,
#: staging, status and descriptor buffers come from the pools.
POOL_DELTAS = {
    "sp": (1, 0, 1, 1, 64, 0, 0),
    "sp-dlb": (2, 0, 2, 2, 192, 0, 0),
    "chained": (2, 0, 2, 2, 192, 0, 0),
    "pp": (4, 0, 4, 4, 64, 0, 0),
    "mps": (4, 0, 4, 4, 112, 0, 0),
    "mppc": (8, 0, 8, 8, 112, 0, 0),
    "mn-mps": (10, 0, 10, 10, 192, 0, 0),
}
_POOL_KEYS = ("hits", "misses", "allocs", "releases", "bytes_reused",
              "pooled_buffers", "pooled_bytes")
#: Every body binder a held program may call.
BINDERS = ("bind_chunk_reduce", "bind_intermediate_scan", "bind_scan_add",
           "bind_descriptor_reset", "bind_single_pass_scan")


def _machine(engine: str = "vectorized", poison: bool = False,
             nodes: int = 1):
    topology = tsubame_kfc(nodes, engine=ExecutionEngine(
        mode=engine, rng=np.random.default_rng(7)))
    topology.enable_buffer_pooling(poison=poison)
    return topology


def _session(topology=None) -> ScanSession:
    return ScanSession(topology if topology is not None else _machine(),
                       autotune_cache=AutotuneCache())


def _machine_for(proposal: str, engine: str = "vectorized",
                 poison: bool = False):
    return _machine(engine, poison, NODES.get(proposal, 1))


def _data(shape, dtype=np.int32, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-50, 100, shape).astype(dtype)


def _pools(session: ScanSession) -> tuple:
    stats = buffer_pool_stats(session.topology)
    return tuple(stats[key] for key in _POOL_KEYS)


def _same_result(got, want) -> None:
    assert got.output.dtype == want.output.dtype
    assert got.output.tobytes() == want.output.tobytes()
    assert got.trace.records == want.trace.records
    assert got.total_time_s == want.total_time_s
    assert got.proposal == want.proposal
    assert got.config == want.config


@pytest.fixture
def derivations(monkeypatch) -> Counter:
    """Count launch-step builds (at the class, which no import can
    bypass), body binds, program builds (each build derives a plan's
    buffer slots and stages), P2P route questions and MPI leg pricing.

    Installed before a test's first call, so the programs it builds hold
    the counting binders.
    """
    counts: Counter = Counter()

    def spy(owner, name, key=None):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key or name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(kernels.LaunchStep, "__init__", "LaunchStep")
    for name in BINDERS:
        spy(kernels, name)
    spy(SystemTopology, "p2p_usable")
    spy(Communicator, "_hierarchical_legs")
    classes, seen = [ScanExecutor], set()
    while classes:
        cls = classes.pop()
        if cls in seen:
            continue
        seen.add(cls)
        classes.extend(cls.__subclasses__())
        for name in ("_slots", "_stages"):
            if name in vars(cls):
                spy(cls, name)
    return counts


def _count_warp_scans(monkeypatch) -> Counter:
    """Count the warp flow's shuffle scans (``warp_inclusive_scan``)."""
    warps: Counter = Counter()
    real = warp.warp_inclusive_scan

    def counted(*args, **kwargs):
        warps["warp_inclusive_scan"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(warp, "warp_inclusive_scan", counted)
    return warps


@pytest.fixture
def observed():
    """Observability on for one test, then back to how it was."""
    was_enabled = obs.is_enabled()
    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()


class obs_off:
    """Observability off inside the block, then back to how it was."""

    def __enter__(self):
        self.was = obs.is_enabled()
        obs.disable()

    def __exit__(self, *exc):
        if self.was:
            obs.enable()


# ------------------------------------------------------------- programs


class TestHeldProgramHostCost:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("proposal,spec,shape", PROGRAM_CALLS,
                             ids=PROGRAM_IDS)
    def test_second_identical_call_derives_nothing(
        self, derivations, engine, proposal, spec, shape
    ):
        session = _session(_machine_for(proposal, engine))
        data = _data(shape)
        first = session.scan(data, proposal=proposal, **spec)
        assert derivations["LaunchStep"] > 0
        assert derivations["_slots"] == derivations["_stages"] > 0
        assert sum(derivations[name] for name in BINDERS) > 0
        before = _pools(session)

        derivations.clear()
        warm = session.scan(data, proposal=proposal, **spec)
        assert dict(derivations) == {}
        _same_result(warm, first)
        reference = np.cumsum(data, axis=1, dtype=data.dtype)
        assert warm.output.tobytes() == reference.tobytes()
        deltas = tuple(a - b for a, b in zip(_pools(session), before))
        assert deltas == POOL_DELTAS[proposal]

    @pytest.mark.parametrize("proposal,spec,shape", PROGRAM_CALLS,
                             ids=PROGRAM_IDS)
    def test_unpooled_warm_call_binds_nothing(self, derivations, proposal,
                                              spec, shape):
        """Without buffer pools every call gets fresh storage; the held
        ops are bound to slots, so a warm call still derives nothing."""
        machine = tsubame_kfc(NODES.get(proposal, 1))
        session = _session(machine)
        data = _data(shape)
        first = session.scan(data, proposal=proposal, **spec)
        assert sum(derivations[name] for name in BINDERS) > 0
        derivations.clear()
        warm = session.scan(data, proposal=proposal, **spec)
        assert dict(derivations) == {}
        _same_result(warm, first)
        assert warm.output is not first.output
        assert warm.output.tobytes() == np.cumsum(
            data, axis=1, dtype=data.dtype).tobytes()
        assert all(gpu.pool.used == 0 for gpu in machine.gpus)

    @pytest.mark.parametrize("proposal,spec,shape", PROGRAM_CALLS,
                             ids=PROGRAM_IDS)
    def test_estimate_runs_the_program_without_bodies(
        self, derivations, proposal, spec, shape
    ):
        session = _session(_machine_for(proposal))
        data = _data(shape)
        functional = session.scan(data, proposal=proposal, **spec)
        derivations.clear()
        estimate = session.estimate(functional.problem, proposal=proposal,
                                    **spec)
        assert sum(derivations[name] for name in BINDERS) == 0
        assert derivations["LaunchStep"] == 0
        assert estimate.trace.records == functional.trace.records
        assert estimate.config == {**functional.config, "estimated": True}


class TestBoundScanPath:
    def test_only_a_quiet_call_that_cannot_fail_over_runs_straight(
        self, monkeypatch
    ):
        """A standing decision runs straight through its executor only
        with observability off on a placement that cannot fail over;
        every other call takes the failover path. Both count the call
        and its cache hit the same way."""
        runs = Counter()
        real = ScanSession._run_with_failover

        def counted(self, *args, **kwargs):
            runs["failover_path"] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ScanSession, "_run_with_failover", counted)
        machine = _machine()
        session = _session(machine)
        data = _data((4, 1 << 12))
        reference = np.cumsum(data, axis=1, dtype=data.dtype).tobytes()

        def call(path_runs: int, hit: int = 1) -> None:
            runs.clear()
            calls, hits = session.calls, session.hits
            result = session.scan(data, proposal="sp")
            assert runs["failover_path"] == path_runs
            assert (session.calls - calls, session.hits - hits) == (1, hit)
            assert result.output.tobytes() == reference

        def settled(path_runs: int) -> None:
            # The cost fingerprint covers health and fault state, so the
            # first call after a change may decide afresh.
            session.scan(data, proposal="sp")
            call(path_runs)

        with obs_off():
            call(1, hit=0)  # cold: decided in full
            call(0)  # warm: straight through
            call(0)
        was_enabled = obs.is_enabled()
        obs.enable()
        try:
            call(1)  # observed
        finally:
            if not was_enabled:
                obs.disable()
                obs.reset()
        with obs_off():
            call(0)
            machine.ensure_health()
            settled(1)  # health tracked
            machine.health = None
            settled(0)
            machine.gpus[0].fault_schedule = FaultSchedule([])
            settled(1)  # the placement's GPU has its own schedule
            machine.gpus[0].fault_schedule = None
            machine.gpus[1].fault_schedule = FaultSchedule([])
            settled(0)  # another GPU's schedule does not matter


# ----------------------------------------------------------- invalidation


class TestHeldProgramInvalidation:
    def test_trimmed_pool_rebinds(self, derivations):
        """A trimmed pool hands the next call fresh blocks: the held ops
        run over them and bind nothing."""
        session = _session()
        data = _data((4, 1 << 12))
        first = session.scan(data, proposal="sp")
        for gpu in session.topology.gpus:
            gpu.buffer_pool.trim()
        derivations.clear()
        warm = session.scan(data, proposal="sp")
        assert dict(derivations) == {}
        assert session.topology.gpus[0].buffer_pool.misses == 2
        _same_result(warm, first)

    def test_block_held_elsewhere_rebinds(self, derivations):
        """A block another owner holds is not handed back: the call gets a
        fresh one, and the held ops run over it and bind nothing."""
        session = _session()
        data = _data((4, 1 << 12))
        first = session.scan(data, proposal="sp-dlb")
        pool = session.topology.gpus[0].buffer_pool
        plane = (data.shape[0], first.plan.stage1.bx, 2)
        hold = pool.take(plane, data.dtype)
        misses = pool.misses
        derivations.clear()
        warm = session.scan(data, proposal="sp-dlb")
        assert dict(derivations) == {}
        assert pool.misses == misses + 1
        _same_result(warm, first)
        pool.put(hold[1], data.dtype)

    def test_keys_sharing_a_size_class(self, derivations):
        """Two problems whose buffers share size classes take turns with
        the same blocks: each program keeps working on them."""
        session = _session()
        a, b = _data((1, 1 << 12), seed=1), _data((2, 1 << 11), seed=2)
        fresh = _session()
        want = {id(x): fresh.scan(x, proposal="sp") for x in (a, b)}
        for _ in range(3):
            for x in (a, b):
                _same_result(session.scan(x, proposal="sp"), want[id(x)])

    def test_fast_paths_off_after_binding_runs_the_warp_flow(
        self, derivations, monkeypatch
    ):
        """Warp-flow bodies bound under ``warp_flow`` are held like any
        other: a warm call replays them, binds nothing and gives the
        one-pass bodies' bytes and records."""
        data = _data((4, 1 << 12))
        want = _session().scan(data, proposal="sp")
        warps = _count_warp_scans(monkeypatch)
        derivations.clear()
        with warp_flow():
            session = _session()
            _same_result(session.scan(data, proposal="sp"), want)
            assert [derivations[name] for name in BINDERS[:3]] == [1, 1, 1]
            derivations.clear()
            warps.clear()
            _same_result(session.scan(data, proposal="sp"), want)
        assert dict(derivations) == {}
        assert warps["warp_inclusive_scan"] > 0

    @pytest.mark.parametrize("proposal", ["sp", "sp-dlb", "chained"])
    def test_poisoned_pool(self, proposal):
        session = _session(_machine(poison=True))
        data = _data((4, 1 << 12))
        first = session.scan(data, proposal=proposal)
        for _ in range(2):
            _same_result(session.scan(data, proposal=proposal), first)
        pool = session.topology.gpus[0].buffer_pool
        assert pool.poison and pool.hits > 0
        assert first.output.tobytes() == np.cumsum(
            data, axis=1, dtype=data.dtype).tobytes()

    @pytest.mark.parametrize("proposal", ["sp", "sp-dlb", "chained"])
    def test_replaced_cost_params(self, proposal):
        machine = _machine()
        session = _session(machine)
        data = _data((4, 1 << 12), dtype=np.float32)
        session.scan(data, proposal=proposal)
        for gpu in machine.gpus:
            gpu.cost_model.params = dataclasses.replace(
                gpu.cost_model.params, lookback_setup_s=7e-6,
                dram_round_trip_s=2e-6, lookback_contention=0.5,
                uncoalesced_penalty=0.25, int_ops_per_sm_per_cycle=64.0,
            )
        warm = session.scan(data, proposal=proposal)
        _same_result(warm, _session(machine).scan(data, proposal=proposal))

    def test_swapped_resolver(self, derivations):
        class PinnedK(PlanResolver):
            def resolve(self, arch, spec):
                return super().resolve(arch, dataclasses.replace(spec, K=2))

        machine = _machine()
        session = _session(machine)
        data = _data((4, 1 << 14))
        assert session.scan(data, proposal="sp").config["K"] == 1
        original = ScanExecutor.resolver
        try:
            ScanExecutor.resolver = PinnedK()
            derivations.clear()
            warm = session.scan(data, proposal="sp")
            assert warm.config["K"] == 2
            assert derivations["LaunchStep"] == 3
            _same_result(warm, _session(machine).scan(data, proposal="sp"))
        finally:
            ScanExecutor.resolver = original

    @pytest.mark.parametrize("proposal,spec,shape", PROGRAM_CALLS,
                             ids=PROGRAM_IDS)
    def test_swapped_architecture(self, derivations, proposal, spec, shape):
        machine = _machine_for(proposal)
        session = _session(machine)
        data = _data(shape)
        first = session.scan(data, proposal=proposal, **spec)
        arch = dataclasses.replace(machine.arch)
        machine.arch = arch
        for gpu in machine.gpus:
            gpu.arch = arch
        derivations.clear()
        warm = session.scan(data, proposal=proposal, **spec)
        assert derivations["LaunchStep"] > 0
        _same_result(warm, first)


class TestMultiGPUProgramInvalidation:
    """The rebuild rules of the multi-GPU programs: held bodies, copies
    and collectives run over whichever blocks the pools hand back; a
    program is rebuilt with its plan."""

    @pytest.mark.parametrize("proposal,spec,shape", MULTI_GPU_CALLS,
                             ids=MULTI_GPU_IDS)
    def test_trimmed_pool_rebinds(self, derivations, proposal, spec, shape):
        """Fresh blocks after a trim: the held program runs over them and
        binds nothing."""
        session = _session(_machine_for(proposal))
        data = _data(shape)
        first = session.scan(data, proposal=proposal, **spec)
        for gpu in session.topology.gpus:
            gpu.buffer_pool.trim()
        derivations.clear()
        warm = session.scan(data, proposal=proposal, **spec)
        assert dict(derivations) == {}
        stats = buffer_pool_stats(session.topology)
        assert stats["misses"] == 2 * POOL_DELTAS[proposal][2]
        _same_result(warm, first)

    @pytest.mark.parametrize("proposal,spec,shape", MULTI_GPU_CALLS,
                             ids=MULTI_GPU_IDS)
    def test_fast_paths_off_after_binding_runs_the_warp_flow(
        self, derivations, monkeypatch, proposal, spec, shape
    ):
        """As the single-GPU test: held warp-flow bodies replay warm. A
        program's GPUs share its steps, so each stage binds once."""
        data = _data(shape)
        want = _session(_machine_for(proposal)).scan(
            data, proposal=proposal, **spec)
        warps = _count_warp_scans(monkeypatch)
        derivations.clear()
        with warp_flow():
            session = _session(_machine_for(proposal))
            first = session.scan(data, proposal=proposal, **spec)
            _same_result(first, want)
            assert [derivations[name] for name in BINDERS[:3]] == [1, 1, 1]
            derivations.clear()
            warps.clear()
            _same_result(session.scan(data, proposal=proposal, **spec), want)
        assert dict(derivations) == {}
        assert warps["warp_inclusive_scan"] > 0

    @pytest.mark.parametrize("proposal,spec,shape", MULTI_GPU_CALLS,
                             ids=MULTI_GPU_IDS)
    def test_poisoned_pool(self, proposal, spec, shape):
        session = _session(_machine_for(proposal, poison=True))
        data = _data(shape)
        first = session.scan(data, proposal=proposal, **spec)
        for _ in range(2):
            _same_result(session.scan(data, proposal=proposal, **spec), first)
        pool = session.topology.gpus[0].buffer_pool
        assert pool.poison and pool.hits > 0
        assert first.output.tobytes() == np.cumsum(
            data, axis=1, dtype=data.dtype).tobytes()

    @pytest.mark.parametrize("proposal,spec,shape", MULTI_GPU_CALLS,
                             ids=MULTI_GPU_IDS)
    def test_replaced_cost_params(self, proposal, spec, shape):
        """Replaced cost params, dual-die contention included, reprice the
        warm call's launches as on a fresh session."""
        machine = _machine_for(proposal)
        session = _session(machine)
        data = _data(shape)
        first = session.scan(data, proposal=proposal, **spec)
        for gpu in machine.gpus:
            gpu.cost_model.params = dataclasses.replace(
                gpu.cost_model.params, dual_die_contention=0.5,
                uncoalesced_penalty=0.25, int_ops_per_sm_per_cycle=64.0,
            )
        warm = session.scan(data, proposal=proposal, **spec)
        assert warm.total_time_s != first.total_time_s
        _same_result(warm, _session(machine).scan(
            data, proposal=proposal, **spec))

    @pytest.mark.parametrize("proposal,spec,shape", MULTI_GPU_CALLS,
                             ids=MULTI_GPU_IDS)
    def test_swapped_resolver(self, derivations, proposal, spec, shape):
        class PinnedK(PlanResolver):
            def resolve(self, arch, spec):
                return super().resolve(arch, dataclasses.replace(spec, K=2))

        machine = _machine_for(proposal)
        session = _session(machine)
        data = _data((shape[0], shape[1] << 2))  # room for K=2 chunks
        assert session.scan(data, proposal=proposal, **spec).config["K"] == 1
        original = ScanExecutor.resolver
        try:
            ScanExecutor.resolver = PinnedK()
            derivations.clear()
            warm = session.scan(data, proposal=proposal, **spec)
            assert warm.config["K"] == 2
            assert derivations["_slots"] == derivations["_stages"] == 1
            _same_result(warm, _session(machine).scan(
                data, proposal=proposal, **spec))
        finally:
            ScanExecutor.resolver = original


#: The interconnect a machine is repriced to mid-session.
REPRICED = TransferCostParams(p2p_bandwidth_gbs=1.0,
                              host_staged_bandwidth_gbs=0.5,
                              host_dispatch_s=5e-4)
#: (proposal, placement) of the repricing checks, on 16 x 2^14 int32.
REPRICED_CALLS = [("mps", {"W": 8, "V": 4}), ("mppc", {"W": 8, "V": 4}),
                  ("mn-mps", {"W": 4, "V": 4, "M": 2})]


class TestRepricedInterconnect:
    """Replacing a machine's ``transfer_params`` reprices its next call,
    warm executors included, as on a fresh machine with those params."""

    @pytest.mark.parametrize("proposal,spec", REPRICED_CALLS,
                             ids=[c[0] for c in REPRICED_CALLS])
    def test_warm_call_prices_with_the_new_params(self, proposal, spec):
        machine = _machine(nodes=2)
        session = _session(machine)
        data = _data((16, 1 << 14))
        before = session.scan(data, proposal=proposal, **spec)
        machine.transfer_params = REPRICED
        warm = session.scan(data, proposal=proposal, **spec)
        fresh_machine = _machine(nodes=2)
        fresh_machine.transfer_params = REPRICED
        _same_result(warm, _session(fresh_machine).scan(
            data, proposal=proposal, **spec))
        assert warm.total_time_s > before.total_time_s

    def test_estimate_prices_with_the_new_params(self):
        machine = _machine(nodes=2)
        session = _session(machine)
        data = _data((16, 1 << 14))
        problem = session.scan(data, proposal="mppc", W=8, V=4).problem
        session.estimate(problem, proposal="mppc", W=8, V=4)
        machine.transfer_params = REPRICED
        estimate = session.estimate(problem, proposal="mppc", W=8, V=4)
        fresh_machine = _machine(nodes=2)
        fresh_machine.transfer_params = REPRICED
        fresh = _session(fresh_machine).estimate(problem, proposal="mppc",
                                                 W=8, V=4)
        assert estimate.trace.records == fresh.trace.records

    def test_explicit_params_stay_fixed(self):
        machine = _machine(nodes=2)
        node = NodeConfig.from_counts(W=8, V=4)
        executor = ScanMPS(machine, node, transfer_params=REPRICED)
        data = _data((16, 1 << 14))
        first = executor.run(data)
        machine.transfer_params = TransferCostParams(p2p_bandwidth_gbs=99.0)
        _same_result(executor.run(data), first)


#: Each copy (phase, kind, lane, messages) of a warm call after network
#: 0 of node 0 degrades, its total time, and its MPI legs (phase, op,
#: lane, bytes), as measured before multi-GPU flows were held programs.
DEGRADED = {
    "mps": ([("aux_gather", "host_staged", "host0", 4)] * 3
            + [("aux_scatter", "host_staged", "host0", 4)] * 3,
            0.0012462487901234568, []),
    "mppc": ([("aux_gather", "host_staged", "host0", 2)] * 3
             + [("aux_scatter", "host_staged", "host0", 2)] * 3
             + [("aux_gather", "p2p", "pcie0.1", 1)] * 3
             + [("aux_scatter", "p2p", "pcie0.1", 1)] * 3,
             0.0013812389805996474, []),
    "mn-mps": ([], 0.0008502389805996474,
               [("mpi_barrier", "barrier", "mpi", 0)]
               + [(f"mpi_{op}", op, lane, nbytes)
                  for op in ("gather", "scatter")
                  for lane, nbytes in [("mpi", 0)] + [("host0", 8)] * 3
                  + [("pcie1.0", 8)] * 3 + [("ib", 32)]]),
}
#: A warm call's config and total time after GPU 1 goes offline, as
#: measured before multi-GPU flows were held programs.
_LOST_1 = ["DeviceLostError: gpu:1 is offline (device lost)"]
OFFLINE = {
    "mps": ({"K": 1, "W": 4, "V": 4, "Y": 1, "M": 1, "gpu_ids": [4, 5, 6, 7],
             "failover": {"attempts": 2, "backoff_s": 0.001,
                          "degraded_node": (4, 4, 1), "errors": _LOST_1}},
            0.0015742370567901236),
    "mppc": ({"K": 1, "W": 4, "V": 4, "Y": 1, "M": 1, "networks_used": 1,
              "gpu_ids": [4, 5, 6, 7],
              "failover": {"attempts": 2, "backoff_s": 0.001,
                           "degraded_node": (4, 4, 1), "errors": _LOST_1}},
             0.0015742370567901236),
    "mn-mps": ({"K": 1, "W": 4, "V": 4, "Y": 1, "M": 2,
                "gpu_ids": [4, 5, 6, 7, 8, 9, 10, 11],
                "failover": {"attempts": 2, "backoff_s": 0.001,
                             "degraded_node": (4, 4, 2), "errors": _LOST_1}},
               0.0016702331139329806),
}


class TestHeldProgramsUnderHealth:
    @pytest.mark.parametrize("proposal,spec,shape", MULTI_GPU_CALLS,
                             ids=MULTI_GPU_IDS)
    def test_soft_degraded_network_host_stages(self, proposal, spec, shape):
        """A held program asks each copy's route while the machine has a
        health state: a degraded network's copies host-stage, one message
        per auxiliary row, and the MPI legs reprice."""
        machine = _machine_for(proposal)
        session = _session(machine)
        data = _data(shape)
        session.scan(data, proposal=proposal, **spec)
        session.scan(data, proposal=proposal, **spec)
        machine.ensure_health().degraded_networks.add((0, 0))
        warm = session.scan(data, proposal=proposal, **spec)
        copies = [(r.phase, r.kind, r.lane, r.messages)
                  for r in warm.trace.records
                  if isinstance(r, TransferRecord) and r.kind != "dispatch"]
        legs = [(r.phase, r.op, r.lane, r.nbytes)
                for r in warm.trace.mpi_records()]
        assert (copies, warm.total_time_s, legs) == DEGRADED[proposal]
        assert warm.output.tobytes() == np.cumsum(
            data, axis=1, dtype=data.dtype).tobytes()
        machine.health = None
        healed = session.scan(data, proposal=proposal, **spec)
        _same_result(healed, _session(_machine_for(proposal)).scan(
            data, proposal=proposal, **spec))

    @pytest.mark.chaos
    @pytest.mark.parametrize("proposal,spec,shape", MULTI_GPU_CALLS,
                             ids=MULTI_GPU_IDS)
    def test_offline_gpu_fails_over(self, proposal, spec, shape):
        machine = _machine_for(proposal)
        session = _session(machine)
        data = _data(shape)
        session.scan(data, proposal=proposal, **spec)
        session.scan(data, proposal=proposal, **spec)
        machine.mark_offline(1)
        warm = session.scan(data, proposal=proposal, **spec)
        assert (warm.config, warm.total_time_s) == OFFLINE[proposal]
        assert warm.output.tobytes() == np.cumsum(
            data, axis=1, dtype=data.dtype).tobytes()

    def test_link_failing_mid_call_host_stages_the_later_copies(self):
        """A link that fails soft during Stage 1 makes that very call's
        copies host-staged, as a flow asking at each copy would."""
        machine = _machine(nodes=2)
        session = _session(machine)
        data = _data((4, 1 << 12))
        session.scan(data, proposal="mps", W=4, V=4)
        session.scan(data, proposal="mps", W=4, V=4)
        machine.install_faults(FaultSchedule(
            [LinkDown(at_call=3, node=0, network=0)]))
        warm = session.scan(data, proposal="mps", W=4, V=4)
        copies = [(r.kind, r.messages) for r in warm.trace.records
                  if isinstance(r, TransferRecord) and r.kind != "dispatch"]
        assert copies == [("host_staged", 4)] * 6
        assert warm.output.tobytes() == np.cumsum(
            data, axis=1, dtype=data.dtype).tobytes()


#: The phases and total time of a warm W8/V4 overlapped call, as measured
#: before multi-GPU flows were held programs.
OVERLAPPED = {ScanMPS: 0.001020357135802469, ScanMPPC: 0.0010212283139329806}


class TestOverlappedPrograms:
    @pytest.mark.parametrize("executor_class", [ScanMPS, ScanMPPC],
                             ids=["mps", "mppc"])
    def test_overlap_keeps_the_phases(self, derivations, executor_class):
        executor = executor_class(_machine(nodes=2),
                                  NodeConfig.from_counts(W=8, V=4),
                                  overlap=True)
        data = _data((4, 1 << 12))
        first = executor.run(data)
        derivations.clear()
        warm = executor.run(data)
        assert dict(derivations) == {}
        assert warm.trace.phases() == ["stage1", "stage2", "stage3"]
        assert warm.total_time_s == OVERLAPPED[executor_class]
        _same_result(warm, first)


# ------------------------------------------------------ reports and faults

#: The span names of a warm call with observability on, as measured
#: before single-GPU flows were held programs.
SPAN_TREES = {
    "sp": ("scan", [("plan", []), ("execute", [
        ("upload", []), ("stage1", []), ("stage2", []), ("stage3", []),
        ("collect", [])])]),
    "sp-dlb": ("scan", [("plan", []), ("execute", [
        ("upload", []), ("sp-dlb", []), ("collect", [])])]),
    "chained": ("scan", [("plan", []), ("execute", [
        ("upload", []), ("chained", []), ("collect", [])])]),
    "pp": ("scan", [("plan", []), ("execute", [
        ("upload", [])] + [("pp.worker", [
            ("stage1", []), ("stage2", []), ("stage3", [])])] * 4
        + [("collect", [])])]),
    "mps": ("scan", [("plan", []), ("execute", [
        ("upload", []), ("stage1", []), ("aux_gather", []), ("stage2", []),
        ("aux_scatter", []), ("stage3", []), ("collect", [])])]),
    "mppc": ("scan", [("plan", []), ("execute", [
        ("upload", [])] + [("network", [
            ("stage1", []), ("aux_gather", []), ("stage2", []),
            ("aux_scatter", []), ("stage3", [])])] * 2
        + [("collect", [])])]),
    "mn-mps": ("scan", [("plan", []), ("execute", [
        ("upload", []), ("stage1", []), ("mpi_barrier", []),
        ("mpi_gather", []), ("stage2", []), ("mpi_scatter", []),
        ("stage3", []), ("collect", [])])]),
}

#: The launch (counted from the fault's arming) on which GPU 0 goes down
#: during the warm call, and the call's ``config["failover"]``, as
#: measured before single-GPU flows were held programs.
_LOST = ["DeviceLostError: gpu:0 is offline (device lost)"]
FAILOVERS = {
    "sp": (2, {"attempts": 2, "backoff_s": 0.001,
               "degraded_node": (1, 1, 1), "errors": _LOST}),
    "sp-dlb": (2, {"attempts": 2, "backoff_s": 0.001,
                   "degraded_node": (1, 1, 1), "errors": _LOST}),
    "chained": (1, {"attempts": 2, "backoff_s": 0.001,
                    "degraded_node": (1, 1, 1), "errors": _LOST}),
    "pp": (2, {"attempts": 2, "backoff_s": 0.001,
               "degraded_node": (4, 4, 1), "errors": _LOST}),
    # Counted machine-wide, the second operation is GPU 1's Stage-1
    # launch: the first auxiliary copy of mps and mppc (into the lost
    # master) or mn-mps's barrier then finds GPU 0 gone. A schedule of
    # GPU 0's own counts its Stage-2 launch.
    "mps": (2, {"attempts": 2, "backoff_s": 0.001,
                "degraded_node": (4, 4, 1), "errors": _LOST}),
    "mppc": (2, {"attempts": 2, "backoff_s": 0.001,
                 "degraded_node": (4, 4, 1), "errors": _LOST}),
    "mn-mps": (2, {"attempts": 2, "backoff_s": 0.001,
                   "degraded_node": (4, 4, 2), "errors": _LOST}),
}


class TestReportsAndFaults:
    @pytest.mark.parametrize("proposal,spec,shape", PROGRAM_CALLS,
                             ids=PROGRAM_IDS)
    def test_obs_on_gives_the_same_span_tree(self, observed, proposal, spec,
                                             shape):
        def names(span):
            return (span.name, [names(child) for child in span.children])

        def tree(span):
            return (span.name, span.attrs,
                    [tree(child) for child in span.children])

        def warm_call(session):
            session.scan(data, proposal=proposal, **spec)
            obs.reset()
            result = session.scan(data, proposal=proposal, **spec)
            (root,) = obs.finished_spans()
            obs.reset()
            return result, root

        data = _data(shape)
        warm, root = warm_call(_session(_machine_for(proposal)))
        assert names(root) == SPAN_TREES[proposal]
        with obs_off():
            quiet = _session(_machine_for(proposal)).scan(
                data, proposal=proposal, **spec)
        _same_result(warm, quiet)
        again, twin = warm_call(_session(_machine_for(proposal)))
        assert tree(root) == tree(twin)
        _same_result(warm, again)

    @pytest.mark.chaos
    @pytest.mark.parametrize("proposal,spec,shape", PROGRAM_CALLS,
                             ids=PROGRAM_IDS)
    def test_fault_armed_on_the_warm_key(self, proposal, spec, shape):
        data = _data(shape, dtype=np.int64)
        machine = _machine_for(proposal)
        fresh_machine = _machine_for(proposal)
        session = _session(machine)
        session.scan(data, proposal=proposal, **spec)
        session.scan(data, proposal=proposal, **spec)
        at_call, failover = FAILOVERS[proposal]
        for topology in (machine, fresh_machine):
            topology.install_faults(
                FaultSchedule([DeviceDown(at_call=at_call, gpu_id=0)]))
        warm = session.scan(data, proposal=proposal, **spec)
        assert warm.config["failover"] == failover
        _same_result(warm, _session(fresh_machine).scan(
            data, proposal=proposal, **spec))
        after = session.scan(data, proposal=proposal, **spec)
        assert "failover" not in after.config
        assert after.output.tobytes() == warm.output.tobytes()

    @pytest.mark.chaos
    @pytest.mark.parametrize("proposal,spec,shape", PROGRAM_CALLS,
                             ids=PROGRAM_IDS)
    def test_failover_retry_matches_the_surviving_placement(
        self, proposal, spec, shape
    ):
        """A device lost mid-call leaves that call's result array
        half-scanned; the retry places a fresh one and returns the bytes
        of a healthy call placed on the surviving GPUs."""
        data = _data(shape, dtype=np.float32)
        machine = _machine_for(proposal)
        session = _session(machine)
        session.scan(data, proposal=proposal, inclusive=False, **spec)
        session.scan(data, proposal=proposal, inclusive=False, **spec)
        at_call, failover = FAILOVERS[proposal]
        machine.install_faults(
            FaultSchedule([DeviceDown(at_call=at_call, gpu_id=0)]))
        retried = session.scan(data, proposal=proposal, inclusive=False,
                               **spec)
        assert retried.config["failover"] == failover
        survivors = _machine_for(proposal)
        survivors.mark_offline(0)
        healthy = _session(survivors).scan(data, proposal=proposal,
                                           inclusive=False, **spec)
        assert "failover" not in healthy.config
        assert retried.config["gpu_ids"] == healthy.config["gpu_ids"]
        assert retried.output.tobytes() == healthy.output.tobytes()
        assert all(gpu.pool.used == 0 for gpu in machine.gpus)

    @pytest.mark.chaos
    @pytest.mark.parametrize("proposal,spec,shape", PROGRAM_CALLS,
                             ids=PROGRAM_IDS)
    @pytest.mark.parametrize("how", ["offline", "own_schedule"])
    def test_gpu_fault_without_health_tracking_fails_over(
        self, how, proposal, spec, shape
    ):
        """A warm call with observability off, on a machine that tracks
        no health and has no machine-wide schedule, still fails over when
        one of its GPUs is offline or carries its own fault schedule."""
        data = _data(shape, dtype=np.int64)
        machine = _machine_for(proposal)
        session = _session(machine)
        session.scan(data, proposal=proposal, **spec)
        session.scan(data, proposal=proposal, **spec)
        gpu = machine.gpus[0]
        if how == "offline":
            gpu.offline = True
        else:
            at_call, failover = FAILOVERS[proposal]
            schedule = FaultSchedule([DeviceDown(at_call=at_call, gpu_id=0)])
            schedule.attach(machine)
            gpu.fault_schedule = schedule
        assert machine.health is None and machine.fault_schedule is None
        with obs_off():
            warm = session.scan(data, proposal=proposal, **spec)
        record = warm.config["failover"]
        if how == "offline":
            assert record["attempts"] == 2
            assert record["errors"] == _LOST
        else:
            assert record == failover
        assert gpu.id not in warm.config["gpu_ids"]
        reference = np.cumsum(data, axis=1, dtype=data.dtype)
        assert warm.output.tobytes() == reference.tobytes()


# ---------------------------------------------------------------- service

#: (length, operator, inclusive) of the request spellings the service
#: replays: five queue keys, as 256 and 129 both pad to 256.
SPELLINGS = [(100, "add", True), (77, "max", True), (200, "add", False),
             (256, "add", True), (300, "max", True), (129, "add", True)]


def _stream(count: int, gap_s: float, seed: int = 11):
    """``count`` requests cycling through :data:`SPELLINGS`, ``gap_s``
    apart on the simulated clock."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n, op, inclusive = SPELLINGS[i % len(SPELLINGS)]
        out.append(((i + 1) * gap_s, rng.integers(0, 100, n).astype(np.int32),
                    op, inclusive))
    return out


def _log(service: ScanService, tickets) -> tuple:
    """Each batch's flush time, reason, key and size, then each ticket's
    status and latency (``None``: shed)."""
    batches = [(b.flush_s, b.reason, str(b.key), b.requests, b.g)
               for b in service.batches]
    tickets = [None if t is None else (t.status, t.latency_s)
               for t in tickets]
    return batches, tickets


class _KnobSchedule:
    """A controller that moves ``max_wait_s`` and ``max_batch`` at fixed
    admissions."""

    MOVES = {4: {"max_wait_s": 2e-6}, 9: {"max_wait_s": 4e-5},
             14: {"max_batch": 2}, 20: {"max_batch": 1, "max_wait_s": 1e-5}}

    def bind(self, service) -> None:
        self.seen = 0

    def on_submit(self, service, ticket) -> None:
        self.seen += 1
        for knob, value in self.MOVES.get(self.seen, {}).items():
            setattr(service, knob, value)


def _controlled_run():
    service = _session().service(max_batch=4, max_wait_s=1e-5,
                                 controller=_KnobSchedule())
    tickets = [service.submit(x, operator=op, inclusive=inc, at=at)
               for at, x, op, inc in _stream(24, 3e-6)]
    service.advance(1e-4)
    return _log(service, tickets)


def _evicting_run():
    service = _session().service(max_batch=3, max_wait_s=2e-5)
    stream = _stream(18, 4e-6)
    tickets = [service.submit(x, operator=op, inclusive=inc, at=at)
               for at, x, op, inc in stream[:9]]
    evicted = service.evict_pending()
    assert service.depth == 0 and len(evicted) > 0
    tickets += [service.submit(x, operator=op, inclusive=inc, at=at)
                for at, x, op, inc in stream[9:]]
    service.drain()
    return _log(service, tickets)


def _shedding_run():
    service = _session().service(max_batch=8, max_wait_s=5e-5, max_queue=4)
    tickets = []
    for at, x, op, inc in _stream(20, 2e-6):
        try:
            tickets.append(service.submit(x, operator=op, inclusive=inc,
                                          at=at))
        except BackpressureError:
            tickets.append(None)
    service.advance(1e-4)
    return _log(service, tickets)


class TestServiceHostCost:
    def test_warm_submits_validate_nothing(self, monkeypatch):
        service = _session().service(max_batch=4, max_wait_s=1e-5)
        for at, x, op, inc in _stream(len(SPELLINGS), 1e-6):
            service.submit(x, operator=op, inclusive=inc, at=at)
        service.drain()
        now, warm_batches = service.clock.now, len(service.batches)
        counts: Counter = Counter()

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for name in ("resolve_operator", "require_scannable", "QueueKey",
                     "pad_rows_to_batch"):
            spy(service_module, name)
        spy(ScanService, "_deadlines")
        tickets = [service.submit(x, operator=op, inclusive=inc, at=now + at)
                   for at, x, op, inc in _stream(60, 3e-6, seed=12)]
        service.advance(1e-3)
        assert all(t.done for t in tickets)
        assert counts["resolve_operator"] == 0
        assert counts["require_scannable"] == 0
        assert counts["QueueKey"] == 0
        # One deadline list per max_wait flush, none per plain advance.
        waits = sum(b.reason == "max_wait"
                    for b in service.batches[warm_batches:])
        assert waits > 0
        assert counts["_deadlines"] == waits
        # The padder is still looked up where the tracer wraps it.
        assert counts["pad_rows_to_batch"] == len(service.batches) - warm_batches

    def test_new_spellings_are_still_validated_in_order(self):
        service = _session().service()
        x = np.arange(8, dtype=np.int32)
        service.submit(x)
        with pytest.raises(Exception, match="unknown operator"):
            service.submit(x, operator="nope")
        with pytest.raises(Exception, match="inclusive must be a bool"):
            service.submit(x, inclusive=1)
        with pytest.raises(Exception, match="operator 'or' requires"):
            service.submit(x.astype(np.float32), operator="or")
        assert service.depth == 1 and service.submitted == 1

    def test_depth_is_kept_where_requests_move(self):
        service = _session().service(max_batch=3, max_wait_s=1e-5)
        stream = _stream(12, 2e-6)
        for at, x, op, inc in stream[:7]:
            service.submit(x, operator=op, inclusive=inc, at=at)
            assert service.depth == sum(len(q) for q in
                                        service._queues.values())
        service.evict_pending()
        assert service.depth == 0
        for at, x, op, inc in stream[7:]:
            service.submit(x, operator=op, inclusive=inc, at=at)
        service.advance(1e-4)
        assert service.depth == 0


class TestServiceAccounting:
    def test_controller_moving_knobs_mid_stream(self):
        assert _controlled_run() == CONTROLLED

    def test_evictions(self):
        assert _evicting_run() == EVICTING

    def test_backpressure(self):
        assert _shedding_run() == SHEDDING


#: The three runs' logs, as measured before admission was constant work.
CONTROLLED = (
    [
        (1.2e-05, 'max_wait', 'add/int32/N=128/inc', 1, 1),
        (1.2e-05, 'max_wait', 'max/int32/N=128/inc', 1, 1),
        (1.2e-05, 'max_wait', 'add/int32/N=256/exc', 1, 1),
        (1.4e-05, 'max_wait', 'add/int32/N=256/inc', 1, 1),
        (1.7e-05, 'max_wait', 'max/int32/N=512/inc', 1, 1),
        (2e-05, 'max_wait', 'add/int32/N=256/inc', 1, 1),
        (2.3000000000000003e-05, 'max_wait', 'add/int32/N=128/inc', 1, 1),
        (2.6000000000000002e-05, 'max_wait', 'max/int32/N=128/inc', 1, 1),
        (4.5e-05, 'max_batch', 'add/int32/N=256/exc', 2, 2),
        (4.8e-05, 'max_batch', 'add/int32/N=256/inc', 2, 2),
        (5.1e-05, 'max_batch', 'max/int32/N=512/inc', 2, 2),
        (5.4e-05, 'max_batch', 'add/int32/N=256/inc', 2, 2),
        (5.7e-05, 'max_batch', 'add/int32/N=128/inc', 2, 2),
        (6e-05, 'max_batch', 'max/int32/N=128/inc', 1, 1),
        (6e-05, 'max_batch', 'max/int32/N=128/inc', 1, 1),
        (6.3e-05, 'max_batch', 'add/int32/N=256/exc', 1, 1),
        (6.6e-05, 'max_batch', 'add/int32/N=256/inc', 1, 1),
        (6.9e-05, 'max_batch', 'max/int32/N=512/inc', 1, 1),
        (7.2e-05, 'max_batch', 'add/int32/N=256/inc', 1, 1),
    ],
    [
        ('done', 2.596946349206349e-05),
        ('done', 2.2969463492063492e-05),
        ('done', 2.1780968253968253e-05),
        ('done', 2.0780968253968256e-05),
        ('done', 2.440397777777778e-05),
        ('done', 2.0780968253968256e-05),
        ('done', 1.8969463492063493e-05),
        ('done', 1.8969463492063493e-05),
        ('done', 2.7390269841269846e-05),
        ('done', 2.7390269841269843e-05),
        ('done', 2.92017746031746e-05),
        ('done', 2.1390269841269843e-05),
        ('done', 2.6484517460317463e-05),
        ('done', 3.496946349206349e-05),
        ('done', 9.390269841269843e-06),
        ('done', 1.539026984126984e-05),
        ('done', 1.1201774603174603e-05),
        ('done', 9.390269841269843e-06),
        ('done', 8.48451746031746e-06),
        ('done', 1.6969463492063492e-05),
        ('done', 1.8780968253968255e-05),
        ('done', 1.8780968253968255e-05),
        ('done', 2.240397777777778e-05),
        ('done', 1.8780968253968255e-05),
    ],
)
EVICTING = (
    [
        (2.4e-05, 'max_wait', 'add/int32/N=128/inc', 1, 1),
        (2.8000000000000003e-05, 'max_wait', 'max/int32/N=128/inc', 1, 1),
        (3.2000000000000005e-05, 'max_wait', 'add/int32/N=256/exc', 1, 1),
        (3.6e-05, 'max_wait', 'add/int32/N=256/inc', 2, 2),
        (5.9999999999999995e-05, 'max_wait', 'add/int32/N=256/inc', 2, 2),
        (6.4e-05, 'max_wait', 'max/int32/N=512/inc', 1, 1),
        (7.2e-05, 'max_wait', 'add/int32/N=128/inc', 1, 1),
        (7.2e-05, 'drain', 'max/int32/N=128/inc', 1, 1),
        (7.2e-05, 'drain', 'add/int32/N=256/exc', 1, 1),
        (7.2e-05, 'drain', 'add/int32/N=256/inc', 2, 2),
        (7.2e-05, 'drain', 'max/int32/N=512/inc', 1, 1),
    ],
    [
        ('done', 3.6969463492063494e-05),
        ('done', 3.69694634920635e-05),
        ('done', 3.878096825396826e-05),
        ('done', 2.9390269841269844e-05),
        ('evicted', 0.0),
        ('done', 2.1390269841269843e-05),
        ('evicted', 0.0),
        ('evicted', 0.0),
        ('evicted', 0.0),
        ('done', 2.939026984126984e-05),
        ('done', 4.240397777777778e-05),
        ('done', 2.1390269841269836e-05),
        ('done', 3.69694634920635e-05),
        ('done', 3.29694634920635e-05),
        ('done', 3.078096825396826e-05),
        ('done', 1.7390269841269847e-05),
        ('done', 2.6403977777777782e-05),
        ('done', 9.390269841269843e-06),
    ],
)
SHEDDING = (
    [
        (5.2000000000000004e-05, 'max_wait', 'add/int32/N=128/inc', 1, 1),
        (5.4000000000000005e-05, 'max_wait', 'max/int32/N=128/inc', 1, 1),
        (5.6000000000000006e-05, 'max_wait', 'add/int32/N=256/exc', 1, 1),
        (5.8e-05, 'max_wait', 'add/int32/N=256/inc', 1, 1),
    ],
    [
        ('done', 6.69694634920635e-05),
        ('done', 6.69694634920635e-05),
        ('done', 6.878096825396827e-05),
        ('done', 6.878096825396826e-05),
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
        None,
    ],
)
