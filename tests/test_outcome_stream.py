"""The serving outcome stream: one report per outcome, every reader agrees.

``ScanService`` reports each outcome (admitted, rejected, flushed, split,
batch completed, batch failed, evicted) once, to an ordered list of
subscribers: the lifetime stats record, the SLO monitor, the obs/flight
mirror, the controller, a fronting ``ClusterRouter`` and a replay's
per-run record. These tests pin what that buys:

- a replay's summary is its own record, not lifetime minus a baseline,
  so two replays of the same batches agree bit for bit;
- the obs registry and ``stats()`` read the same outcomes, so their
  counters are equal;
- every admitted request reaches exactly one terminal outcome;
- with observability off the stream costs no registry call and no
  extra queue-depth evaluation.
"""

import numpy as np
import pytest

from repro import obs
from repro.cluster import ClusterRouter, TenantSpec, cluster_replay
from repro.core.session import ScanSession
from repro.errors import (
    ConfigurationError,
    FailoverExhaustedError,
    RequestFailedError,
)
from repro.gpusim.faults import DeviceDown, FaultSchedule
from repro.interconnect.topology import tsubame_kfc
from repro.obs import flight
from repro.obs.registry import MetricsRegistry
from repro.serve import ScanService
from repro.serve.replay import Request, poisson_workload, replay

#: Registry counter -> matching ``stats()`` counter, per layer.
SERVE_COUNTERS = {
    "serve.submitted": "submitted",
    "serve.served": "served",
    "serve.request_failures": "failed",
    "serve.rejected": "rejected",
    "serve.evicted": "evicted",
    "serve.batch_splits": "splits",
    "serve.padded_rows": "padded_rows",
}
CLUSTER_COUNTERS = {
    "cluster.submitted": "submitted",
    "cluster.rejected": "rejected",
    "cluster.quota_rejected": "quota_rejected",
    "cluster.rerouted": "rerouted",
    "cluster.drains": "drains",
    "cluster.readmits": "readmits",
    "cluster.batches": "batches",
}


@pytest.fixture
def observed():
    """Observability on, over an empty registry; restored afterwards."""
    was_enabled = obs.is_enabled()
    obs.enable()
    obs.reset()
    yield obs.registry()
    obs.reset()
    if not was_enabled:
        obs.disable()


@pytest.fixture
def quiet():
    """Observability off and the flight recorder disarmed, then restored."""
    was_enabled = obs.is_enabled()
    directory = flight.flight_recorder().directory
    obs.disable()
    flight.disarm()
    yield
    if was_enabled:
        obs.enable()
    if directory is not None:
        flight.arm(directory)


def registry_total(snapshot: dict, name: str) -> float:
    """A counter summed over its label sets (0 when never written)."""
    return sum(snapshot.get(name, {}).values())


def faulty_service(max_queue=5, lose_at=40):
    """A service whose machine loses every GPU at schedule call ``lose_at``:
    batches served before it, exhausted (split, then failed) after."""
    machine = tsubame_kfc(1)
    service = ScanSession(machine).service(
        max_batch=4, max_wait_s=1e-4, max_queue=max_queue, proposal="sp",
    )
    machine.install_faults(FaultSchedule(
        [DeviceDown(at_call=lose_at, gpu_id=g) for g in range(8)]
    ))
    return service


def chaos_router(built: list):
    """Three replicas, a quota'd tenant; ``built`` collects every service
    the router builds, respawned ones included."""
    router = ClusterRouter(
        replicas=3, max_batch=4, max_wait_s=1e-4, max_queue=6,
        tenants=[TenantSpec("capped", max_inflight=2)],
    )
    built.extend(r.service for r in router.replicas)
    build = router._build_service

    def spy(replica, snapshot):
        service = build(replica, snapshot)
        built.append(service)
        return service

    router._build_service = spy
    return router


CHAOS_WORKLOAD = poisson_workload(48, sizes_log2=(9, 10), rate=4e4, seed=7)


class TestReplayRecord:
    @pytest.mark.parametrize("seed", range(10))
    def test_second_replay_reports_the_same_batches_bit_for_bit(self, seed):
        """The second run is its own record: its exec time is summed from
        its own batches, not taken as lifetime minus a baseline."""
        service = ScanSession(tsubame_kfc(1)).service(max_batch=8,
                                                      max_wait_s=5e-4)
        workload = poisson_workload(16, sizes_log2=(9, 10), rate=20000.0,
                                    seed=seed)
        first = replay(service, workload)
        shift = service.clock.now
        first_batches = list(service.batches)
        second = replay(service, [
            Request(at_s=r.at_s + shift, data=r.data, operator=r.operator,
                    inclusive=r.inclusive) for r in workload
        ])
        second_batches = service.batches[len(first_batches):]
        assert [(str(b.key), b.requests, b.g, b.sim_time_s)
                for b in second_batches] == \
            [(str(b.key), b.requests, b.g, b.sim_time_s)
             for b in first_batches]
        for name in ("submitted", "served", "batches", "padded_rows",
                     "mean_batch_size", "total_exec_s", "coalesced_sim_s",
                     "batch_size"):
            assert second[name] == first[name], name
        assert service.stats()["served"] == 2 * first["served"]

    def test_replay_record_is_unsubscribed_afterwards(self):
        service = ScanSession(tsubame_kfc(1)).service(max_batch=4)
        before = list(service._subscribers)
        replay(service, poisson_workload(6, sizes_log2=(9,), seed=1))
        assert service._subscribers == before


class TestOneRecordTwoReaders:
    def test_service_registry_matches_stats(self, observed):
        service = faulty_service()
        summary = replay(service, CHAOS_WORKLOAD)
        stats = service.stats()
        assert summary["rejected"] > 0 and stats["failed"] > 0
        assert stats["splits"] > 0 and stats["served"] > 0
        service.submit(CHAOS_WORKLOAD[0].data)
        assert len(service.evict_pending()) == 1
        stats = service.stats()
        snap = observed.snapshot()
        for metric, field in SERVE_COUNTERS.items():
            assert registry_total(snap, metric) == stats[field], metric
        assert snap["serve.latency_s"][""]["count"] == \
            stats["latency"]["count"]
        assert snap["serve.batch_size"][""]["count"] == stats["batches"]

    def test_cluster_registry_matches_stats(self, observed):
        built: list = []
        router = chaos_router(built)
        with pytest.raises(ConfigurationError):
            router.submit(np.array(["not", "numbers"]))
        summary = cluster_replay(
            router, CHAOS_WORKLOAD, tenants=("default", "capped"),
            fail_replica_at=CHAOS_WORKLOAD[20].at_s, fail_replica_id=0,
        )
        stats = router.stats()
        assert stats["drains"] == stats["readmits"] == 1
        assert stats["quota_rejected"] > 0 and stats["rerouted"] > 0
        assert summary["served"] == stats["submitted"]
        snap = observed.snapshot()
        for metric, field in CLUSTER_COUNTERS.items():
            assert registry_total(snap, metric) == stats[field], metric
        assert snap["cluster.latency_s"][""]["count"] == \
            stats["latency"]["count"]
        replica_stats = [service.stats() for service in built]
        for metric, field in SERVE_COUNTERS.items():
            assert registry_total(snap, metric) == \
                sum(s[field] for s in replica_stats), metric


    def test_router_stats_count_a_replaced_replicas_outcomes(self):
        """A drained replica's first service still counts after re-admit:
        each replica keeps one stats record across its services."""
        built: list = []
        router = chaos_router(built)
        summary = cluster_replay(
            router, CHAOS_WORKLOAD, fail_replica_at=CHAOS_WORKLOAD[20].at_s,
            fail_replica_id=0,
        )
        stats = router.stats()
        assert stats["readmits"] == 1 and len(built) == 4
        served = [service.stats()["served"] for service in built]
        failed = [service.stats()["failed"] for service in built]
        assert stats["served"] == sum(served) == summary["served"]
        assert stats["failed"] == sum(failed)
        rows = stats["per_replica"]
        # built: replicas 0, 1, 2, then replica 0's replacement.
        assert [row["served"] for row in rows] == \
            [served[0] + served[3], served[1], served[2]]
        assert [row["failed"] for row in rows] == \
            [failed[0] + failed[3], failed[1], failed[2]]


class _Terminal:
    """Counts each ticket's terminal outcomes, and its admissions."""

    def __init__(self):
        self.admitted: list = []
        self.outcomes: dict[int, list[str]] = {}

    def _end(self, ticket, outcome):
        self.outcomes.setdefault(id(ticket), []).append(outcome)

    def on_submit(self, service, ticket):
        self.admitted.append(ticket)

    def on_batch(self, service, report, tickets):
        for t in tickets:
            self._end(t, "done")

    def on_fail(self, service, pairs, exc):
        for t, _data in pairs:
            self._end(t, "failed")

    def on_evict(self, service, pairs):
        for t, _data in pairs:
            self._end(t, "evicted")


class TestConservation:
    def test_service_settles_every_admitted_request_once(self):
        service = faulty_service(max_queue=64)
        terminal = _Terminal()
        service.subscribe(terminal)
        for i, req in enumerate(CHAOS_WORKLOAD):
            service.submit(req.data, at=req.at_s)
            if i == 10:
                service.evict_pending()
            s = service.stats()
            assert s["submitted"] == (s["served"] + s["failed"]
                                      + s["evicted"] + s["queued"])
        service.drain()
        assert service.depth == 0
        assert len(terminal.admitted) == service.submitted == len(CHAOS_WORKLOAD)
        for ticket in terminal.admitted:
            assert terminal.outcomes[id(ticket)] == [ticket.status]
        assert {t.status for t in terminal.admitted} == \
            {"done", "failed", "evicted"}

    def test_cluster_finishes_every_admitted_request_once(self):
        built: list = []
        router = chaos_router(built)
        terminal = _Terminal()
        for service in built:
            service.subscribe(terminal)
        build = router._build_service

        def watched(replica, snapshot):
            service = build(replica, snapshot)
            service.subscribe(terminal)
            return service

        router._build_service = watched
        cluster_replay(
            router, CHAOS_WORKLOAD, fail_replica_at=CHAOS_WORKLOAD[20].at_s,
        )
        stats = router.stats()
        assert stats["drains"] == 1 and stats["parked"] == 0
        # Each cluster request finished exactly once, and each replica
        # ticket ended exactly once: done, failed or evicted.
        assert stats["latency"]["count"] == stats["submitted"] == \
            len(CHAOS_WORKLOAD)
        assert all(outcomes in (["done"], ["failed"], ["evicted"])
                   for outcomes in terminal.outcomes.values())
        done_origins = [t.origin for t in terminal.admitted if t.done]
        assert len(done_origins) == len(set(map(id, done_origins))) == \
            sum(service.served for service in built)
        assert any(t.status == "evicted" for t in terminal.admitted)


class TestEscapedFailure:
    def test_an_escaping_error_settles_every_popped_request(self):
        """Whatever ``session.scan`` raises, each popped request is failed
        through the one accounting path before the error propagates."""
        service = ScanSession(tsubame_kfc(1)).service(max_batch=4)
        boom = RuntimeError("scan blew up")

        def scan(*args, **kwargs):
            raise boom

        service.session.scan = scan
        data = np.ones(1 << 12, np.float32)
        tickets = [service.submit(data) for _ in range(3)]
        with pytest.raises(RuntimeError, match="blew up"):
            service.submit(data)
        s = service.stats()
        assert (s["submitted"], s["failed"], s["served"], s["queued"]) == \
            (4, 4, 0, 0)
        assert s["latency"]["count"] == 4
        for ticket in tickets:
            assert ticket.failed and ticket.error is boom
            with pytest.raises(RequestFailedError):
                ticket.result()

    def test_an_error_inside_a_split_settles_both_halves(self):
        """The batch is exhausted and bisected; its first half then raises.
        The second half, never dispatched, is settled too."""
        service = ScanSession(tsubame_kfc(1)).service(max_batch=4)
        boom = RuntimeError("half blew up")
        calls = []

        def scan(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise FailoverExhaustedError("exhausted", attempts=[])
            raise boom

        service.session.scan = scan
        data = np.ones(1 << 12, np.float32)
        tickets = [service.submit(data) for _ in range(3)]
        with pytest.raises(RuntimeError, match="half blew up"):
            service.submit(data)
        s = service.stats()
        assert (s["submitted"], s["failed"], s["splits"], s["queued"]) == \
            (4, 4, 1, 0)
        assert len(calls) == 2
        assert all(t.failed and t.error is boom for t in tickets)


class TestHostCost:
    def test_quiet_stream_makes_no_registry_call(self, quiet, monkeypatch):
        """Obs off, recorder disarmed: submit -> flush -> scatter writes no
        registry instrument and reads the queue depth once per submit
        (the admission check)."""
        service = ScanSession(tsubame_kfc(1)).service(max_batch=2)
        data = np.arange(1 << 10, dtype=np.int32)
        service.submit(data)
        service.submit(data)          # warm: plans resolved
        registry_calls = []
        for name in ("counter", "gauge", "histogram"):
            real = getattr(MetricsRegistry, name)

            def spy(self, *args, _real=real, _name=name, **kwargs):
                registry_calls.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(MetricsRegistry, name, spy)
        depth_reads = []
        real_depth = ScanService.depth

        def depth(self):
            depth_reads.append(1)
            return real_depth.fget(self)

        monkeypatch.setattr(ScanService, "depth", property(depth))
        tickets = [service.submit(data) for _ in range(4)]
        assert all(t.done for t in tickets)
        assert len(service.batches) == 3
        assert registry_calls == []
        assert len(depth_reads) == 4
