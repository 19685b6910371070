"""Warm path: a repeated call signature reuses the decision its first call made.

``ScanSession.scan`` binds each call signature (the input's exact type,
shape and dtype plus every argument with its exact type) to the problem,
placement, proposal and executor entry that its first call validated,
and each executor keeps the plan it resolved. These tests pin three
things:

- *host cost*: a warm call validates, tunes and resolves nothing, while
  outputs, trace records and every counter advance as before;
- *invalidation*: whenever the machine or the session moves under a
  bound decision, the warm call equals a fresh session's call;
- *key hygiene*: no call reuses a decision made for a different
  signature (byte order, subclass, operator spelling, argument types).
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import obs
from repro.core import api, executor, session as session_module
from repro.core.autotune_cache import AutotuneCache, CachedTuner
from repro.core.executor import PlanResolver, ScanExecutor, ScanRequest
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.session import ScanSession
from repro.errors import DeviceLostError, ReproError
from repro.gpusim.faults import DeviceDown, FaultSchedule
from repro.gpusim.metrics import buffer_pool_stats
from repro.interconnect.topology import tsubame_kfc
from repro.primitives.operators import resolve_operator

#: (proposal, placement, dtype, shape) of the warm calls the guard takes.
GUARDED_CALLS = [
    ("auto", {}, np.int32, (1, 1 << 10)),
    ("sp-dlb", {}, np.int32, (4, 1 << 12)),
    ("mps", {"W": 4, "V": 4}, np.int64, (4, 1 << 12)),
    ("pp", {"W": 4}, np.int32, (8, 1 << 11)),
]
GUARDED_IDS = [call[0] for call in GUARDED_CALLS]

#: What the second identical call adds to the counters of
#: :func:`_counters`, as measured before calls were bound: session hits,
#: misses and calls, then the buffer pools' hits, misses, allocs,
#: releases, reused bytes, pooled buffers and pooled bytes. Only the
#: auxiliary, status and descriptor buffers come from the pools: the
#: uploaded portions are the result array's.
WARM_DELTAS = {
    "auto": (1, 0, 1, 1, 0, 1, 1, 4, 0, 0),
    "sp-dlb": (1, 0, 1, 2, 0, 2, 2, 192, 0, 0),
    "mps": (1, 0, 1, 4, 0, 4, 4, 448, 0, 0),
    "pp": (1, 0, 1, 4, 0, 4, 4, 64, 0, 0),
    "service": (1, 0, 1, 1, 0, 1, 1, 16, 0, 0),
}

_POOL_KEYS = ("hits", "misses", "allocs", "releases", "bytes_reused",
              "pooled_buffers", "pooled_bytes")


class _Unbound:
    """Array-like input with no signature: every call is decided afresh."""

    def __init__(self, array: np.ndarray):
        self.array = array

    def __array__(self, dtype=None, copy=None):
        return self.array


class _Sub(np.ndarray):
    """A do-nothing ndarray subclass."""


def _machine(nodes: int = 1):
    topology = tsubame_kfc(nodes)
    topology.enable_buffer_pooling()
    return topology


def _session(topology=None) -> ScanSession:
    return ScanSession(topology if topology is not None else _machine(),
                       autotune_cache=AutotuneCache())


def _data(dtype, shape, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-50, 100, shape).astype(dtype)


def _counters(session: ScanSession) -> tuple:
    pools = buffer_pool_stats(session.topology)
    return (session.hits, session.misses, session.calls) + tuple(
        pools[key] for key in _POOL_KEYS)


def _delta(after: tuple, before: tuple) -> tuple:
    return tuple(a - b for a, b in zip(after, before))


def _same_result(got, want) -> None:
    assert got.output.dtype == want.output.dtype
    assert got.output.tobytes() == want.output.tobytes()
    assert got.trace.records == want.trace.records
    assert got.proposal == want.proposal
    assert got.config == want.config


@pytest.fixture
def decisions(monkeypatch) -> Counter:
    """Count every call into the per-call decision machinery."""
    counts: Counter = Counter()

    def count_function(owner, name, label):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            counts[label] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def count_classmethod(owner, name, label):
        real = vars(owner)[name].__func__

        def spy(cls, *args, **kwargs):
            counts[label] += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(owner, name, classmethod(spy))

    count_function(executor, "coerce_batch", "coerce_batch")
    count_function(session_module, "coerce_batch", "coerce_batch")
    count_function(api, "recommend_proposal", "recommend_proposal")
    count_function(CachedTuner, "best_single_gpu_variant",
                   "best_single_gpu_variant")
    count_function(PlanResolver, "resolve", "PlanResolver.resolve")
    count_classmethod(ProblemConfig, "for_batch", "ProblemConfig.for_batch")
    count_classmethod(ProblemConfig, "from_sizes", "ProblemConfig.from_sizes")
    count_classmethod(NodeConfig, "from_counts", "NodeConfig.from_counts")
    count_classmethod(ScanRequest, "from_host", "ScanRequest.from_host")
    return counts


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


# ------------------------------------------------------------------ host cost


class TestHostCostGuard:
    @pytest.mark.parametrize("proposal,spec,dtype,shape", GUARDED_CALLS,
                             ids=GUARDED_IDS)
    def test_second_identical_call_decides_nothing(
        self, decisions, proposal, spec, dtype, shape
    ):
        session, twin = _session(), _session()
        data = _data(dtype, shape)
        first = session.scan(data, proposal=proposal, **spec)
        twin.scan(_Unbound(data), proposal=proposal, **spec)
        if proposal == "auto":
            assert first.proposal == "scan-sp"
        before, twin_before = _counters(session), _counters(twin)

        decisions.clear()
        warm = session.scan(data, proposal=proposal, **spec)
        assert dict(decisions) == {}
        # The counters see calls: an unbound call re-decides everything.
        cold = twin.scan(_Unbound(data), proposal=proposal, **spec)
        assert decisions["coerce_batch"] == 1
        assert decisions["NodeConfig.from_counts"] == 1

        _same_result(warm, cold)
        _same_result(warm, first)
        assert _delta(_counters(session), before) == WARM_DELTAS[proposal]
        assert _delta(_counters(twin), twin_before) == WARM_DELTAS[proposal]

    def test_repeated_service_flush_decides_nothing(self, decisions):
        session = _session()
        service = session.service(max_batch=8, max_wait_s=1.0)
        rng = np.random.default_rng(5)
        rows = [rng.integers(-50, 100, n).astype(np.int32)
                for n in (100, 77, 128)]

        def flush():
            tickets = [service.submit(row) for row in rows]
            service.flush()
            return tickets

        flush()
        before = _counters(session)
        decisions.clear()
        tickets = flush()
        assert dict(decisions) == {}
        for ticket, row in zip(tickets, rows):
            assert ticket.result().tobytes() == np.cumsum(
                row, dtype=np.int32).tobytes()
        first, second = service.batches
        assert second.result.trace.records == first.result.trace.records
        assert _delta(_counters(session), before) == WARM_DELTAS["service"]


# --------------------------------------------------------------- invalidation


class TestInvalidation:
    def test_gpu_marked_offline(self):
        machine = _machine()
        session = _session(machine)
        data = _data(np.int32, (4, 1 << 12))
        assert session.scan(data, proposal="sp").config["gpu_ids"] == [0]
        session.health.record_failure(DeviceLostError("lost", gpu_id=0))
        warm = session.scan(data, proposal="sp")
        assert warm.config["gpu_ids"] == [1]
        _same_result(warm, _session(machine).scan(data, proposal="sp"))

    def test_epoch_bump_rebuilds_the_entry(self):
        """An epoch bump alone (as the tune controller makes after a
        re-admit) still rebuilds the entry, as a miss."""
        session = _session()
        data = _data(np.int32, (4, 1 << 12))
        first = session.scan(data, proposal="sp")
        (stale,) = session._entries.values()
        session.health.epoch += 1
        warm = session.scan(data, proposal="sp")
        (entry,) = session._entries.values()
        assert entry is not stale and entry.epoch == 1
        assert (session.hits, session.misses, session.calls) == (0, 2, 2)
        _same_result(warm, first)

    def test_entry_dropped_behind_the_binding(self):
        session = _session()
        data = _data(np.int32, (4, 1 << 12))
        first = session.scan(data, proposal="sp")
        session._entries.clear()
        warm = session.scan(data, proposal="sp")
        assert (session.hits, session.misses, session.calls) == (0, 2, 2)
        assert session.cached_configurations == 1
        _same_result(warm, first)

    def test_executor_re_resolves_on_a_new_architecture(self, fresh_resolver):
        machine = _machine()
        gpu = machine.gpus[0]
        sp = executor.build_executor("sp", machine, NodeConfig.from_counts(1, 1))
        data = _data(np.int32, (4, 1 << 12))
        sp.run(data)
        sp.run(data)
        assert fresh_resolver.misses + fresh_resolver.hits == 1
        gpu.arch = dataclasses.replace(gpu.arch)
        sp.run(data)
        assert fresh_resolver.misses + fresh_resolver.hits == 2

    def test_replaced_cost_params_flip_the_auto_variant(self):
        """The documented way to reprice replaces the frozen params
        object; the cost fingerprint moves, so the bound ``auto`` variant
        is decided again (here sp -> sp-dlb on a float32 shape)."""
        machine = _machine()
        session = _session(machine)
        data = _data(np.float32, (4, 1 << 14))
        assert session.scan(data).proposal == "scan-sp"
        assert session.scan(data).proposal == "scan-sp"
        for gpu in machine.gpus:
            gpu.cost_model.params = dataclasses.replace(
                gpu.cost_model.params, lookback_setup_s=0.0,
                dram_round_trip_s=1e-9,
            )
        warm = session.scan(data)
        assert warm.proposal == "scan-sp-dlb"
        _same_result(warm, _session(machine).scan(data))

    def test_reset(self):
        machine = _machine()
        session = _session(machine)
        data = _data(np.int64, (4, 1 << 12))
        session.scan(data, proposal="mps", W=4, V=4)
        session.reset()
        assert not session._bindings
        warm = session.scan(data, proposal="mps", W=4, V=4)
        assert (session.hits, session.misses, session.calls) == (0, 1, 1)
        _same_result(warm, _session(machine).scan(data, proposal="mps",
                                                  W=4, V=4))

    def test_swapped_resolver(self):
        """A swapped ``ScanExecutor.resolver`` plans the warm call."""

        class PinnedK(PlanResolver):
            def resolve(self, arch, spec):
                return super().resolve(arch, dataclasses.replace(spec, K=2))

        machine = _machine()
        session = _session(machine)
        data = _data(np.int32, (4, 1 << 14))
        assert session.scan(data, proposal="sp").config["K"] == 1
        original = ScanExecutor.resolver
        try:
            ScanExecutor.resolver = PinnedK()
            warm = session.scan(data, proposal="sp")
            assert warm.config["K"] == 2
            assert ScanExecutor.resolver.misses == 1
            _same_result(warm, _session(machine).scan(data, proposal="sp"))
        finally:
            ScanExecutor.resolver = original

    @pytest.mark.chaos
    @pytest.mark.parametrize("proposal,spec,gpu_ids,node", [
        ("sp", {}, [1], (1, 1, 1)),
        ("mps", {"W": 4, "V": 4}, [4, 5, 6, 7], (4, 4, 1)),
    ], ids=["sp", "mps"])
    def test_device_down_armed_on_the_warm_key(self, proposal, spec, gpu_ids,
                                                node):
        data = _data(np.int64, (4, 1 << 12))
        machine, fresh_machine = _machine(), _machine()
        session = _session(machine)
        session.scan(data, proposal=proposal, **spec)
        session.scan(data, proposal=proposal, **spec)
        for topology in (machine, fresh_machine):
            topology.install_faults(
                FaultSchedule([DeviceDown(at_call=2, gpu_id=0)]))
        warm = session.scan(data, proposal=proposal, **spec)
        _same_result(warm, _session(fresh_machine).scan(
            data, proposal=proposal, **spec))
        assert warm.config["failover"] == {
            "attempts": 2, "backoff_s": 0.001, "degraded_node": node,
            "errors": ["DeviceLostError: gpu:0 is offline (device lost)"],
        }
        (backoff,) = [r for r in warm.trace.records if r.phase == "failover"]
        assert (backoff.lane, backoff.kind, backoff.time_s,
                backoff.messages) == ("health", "backoff", 0.001, 1)
        (entry,) = session._entries.values()
        assert (entry.proposal, entry.k_value, entry.epoch) == (proposal,
                                                                None, 1)
        assert (entry.node.W, entry.node.V, entry.node.M) == node
        assert [gpu.id for gpu in entry.executor.gpus] == gpu_ids
        # The degraded entry then serves the key warm.
        after = session.scan(data, proposal=proposal, **spec)
        assert after.config["gpu_ids"] == gpu_ids
        assert "failover" not in after.config
        assert (session.hits, session.misses, session.calls) == (3, 1, 4)

    @pytest.mark.parametrize("proposal,spec", [
        ("auto", {}), ("mps", {"W": 4, "V": 4}),
    ], ids=["auto", "mps"])
    def test_obs_enabled_spans_and_counters(self, observed, proposal, spec):
        def tree(span):
            return (span.name, span.attrs,
                    [tree(child) for child in span.children])

        def warm_call(session, data):
            session.scan(data, proposal=proposal, **spec)
            obs.reset()
            session.scan(data, proposal=proposal, **spec)
            (root,) = obs.finished_spans()
            counters = {name: value for name, value
                        in obs.registry().snapshot().items()
                        if name.startswith("session.plan_cache.")}
            obs.reset()
            return tree(root), counters

        data = _data(np.int32, (4, 1 << 12))
        bound = warm_call(_session(), data)
        unbound = warm_call(_session(), _Unbound(data))
        assert bound == unbound
        (name, attrs, children), counters = bound
        assert name == "scan"
        assert [child[0] for child in children] == ["plan", "execute"]
        assert children[0][1] == {"cache": "hit",
                                  "proposal": attrs["proposal"]}
        assert counters == {"session.plan_cache.hits": {"": 1}}


# ---------------------------------------------------------------- key hygiene

#: Second-call input forms that keep the values and the shape.
DATA_VARIANTS = {
    "byte order": lambda a: a.astype(a.dtype.newbyteorder("S")),
    "contiguity": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
    "subclass": lambda a: a.view(_Sub),
    "masked": lambda a: np.ma.masked_array(a),
}

#: Second-call arguments that differ from the defaults in value or in
#: exact type only.
ARGUMENT_VARIANTS = [
    ("operator", resolve_operator("add")), ("operator", "max"),
    ("operator", resolve_operator("max")),
    ("inclusive", np.True_), ("inclusive", False), ("inclusive", np.False_),
    ("inclusive", 1), ("inclusive", None), ("inclusive", "no"),
    ("W", 1.0), ("W", True), ("W", np.int64(1)), ("W", 2),
    ("V", 1), ("V", 1.0), ("V", True), ("V", np.int64(1)),
    ("M", 1.0), ("M", True), ("M", np.int64(1)),
    ("K", 1), ("K", 2), ("K", 1.0), ("K", True), ("K", np.int64(1)),
    ("K", "tune"),
]


@st.composite
def call_pairs(draw, one_d: bool = False):
    """Two calls on one shape that differ in one input or argument."""
    g = 1 if one_d else draw(st.sampled_from([1, 2, 4]))
    n = draw(st.integers(min_value=5, max_value=9))
    dtype = draw(st.sampled_from(["int32", "int64", "float64"]))
    data = _data(dtype, (1 << n,) if one_d else (g, 1 << n),
                 seed=draw(st.integers(0, 2**16)))
    base = {"operator": "add", "inclusive": True}
    if draw(st.booleans()):
        variant = draw(st.sampled_from(sorted(DATA_VARIANTS)))
        other = (DATA_VARIANTS[variant](data), base)
    else:
        name, value = draw(st.sampled_from(ARGUMENT_VARIANTS))
        other = (data, {**base, name: value})
    pair = [(data, base), other]
    if draw(st.booleans()):
        pair.reverse()
    return pair


def _outcome(call):
    try:
        result = call()
    except ReproError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", result.output.dtype, result.output.tobytes(),
            result.trace.records, result.proposal, result.config)


class TestKeyHygiene:
    @pytest.mark.parametrize("entry", ["session", "api"])
    @given(pair=call_pairs())
    @settings(max_examples=100, deadline=None)
    def test_warm_second_call_equals_a_fresh_session(self, entry, pair):
        if entry == "api":
            warm_scan, fresh_scan = (
                functools.partial(repro.scan, topology=_machine())
                for _ in range(2))
        else:
            warm_scan, fresh_scan = _session().scan, _session().scan
        (first, first_kwargs), (second, second_kwargs) = pair
        _outcome(lambda: warm_scan(first, **first_kwargs))
        assert _outcome(lambda: warm_scan(second, **second_kwargs)) == \
            _outcome(lambda: fresh_scan(second, **second_kwargs))

    @given(pair=call_pairs(one_d=True))
    @settings(max_examples=60, deadline=None)
    def test_service_second_request_equals_a_fresh_service(self, pair):
        def serve(session, data, kwargs):
            knobs = {k: v for k, v in kwargs.items()
                     if k in ("W", "V", "M", "K")}
            request = {k: v for k, v in kwargs.items() if k not in knobs}
            service = session.service(max_batch=4, max_wait_s=1.0, **knobs)
            try:
                ticket = service.submit(data, **request)
                service.flush()
            except ReproError as exc:
                return ("error", type(exc), str(exc))
            result = service.batches[-1].result
            return ("ok", ticket.result().tobytes(), result.trace.records,
                    result.proposal)

        (first, first_kwargs), (second, second_kwargs) = pair
        warm = _session()
        serve(warm, first, first_kwargs)
        assert serve(warm, second, second_kwargs) == serve(
            _session(), second, second_kwargs)
