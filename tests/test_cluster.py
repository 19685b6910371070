"""Cluster-layer tests: routing policies, tenant quotas, lockstepped
clocks, drain/re-admit failover, and end-to-end replay determinism.

The router must be traffic-invisible (every request's output identical
to the sequential oracle regardless of which replica served it, even
across a mid-traffic drain) and schedule-deterministic (the same
workload produces the same batch assignment on every run).
"""

import math

import numpy as np
import pytest

from repro.cluster import (
    ClusterRouter,
    TenantSpec,
    cluster_replay,
    policy_names,
    resolve_policy,
)
from repro.core.health import AttemptRecord, RetryPolicy
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    FailoverExhaustedError,
    QuotaExceededError,
)
from repro.obs.slo import slo_class
from repro.primitives.sequential import inclusive_scan
from repro.serve.replay import poisson_workload


def rows(rng, count, n=1 << 10, dtype=np.int32):
    return [rng.integers(-40, 90, n).astype(dtype) for _ in range(count)]


def small_router(**kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_s", 1e-4)
    return ClusterRouter(**kwargs)


def exhaust(sess):
    """Make a session fail every scan with a realistic attempt trail."""
    def scan(data, **kwargs):
        raise FailoverExhaustedError(
            "injected exhaustion",
            attempts=[AttemptRecord(attempt=1, proposal="sp", node=None,
                                    error_type="DeviceLostError",
                                    error="injected", backoff_s=1e-3)],
        )
    sess.scan = scan
    sess.health.policy = RetryPolicy(max_batch_splits=0)


class TestPolicies:
    def test_policy_registry(self):
        assert policy_names() == ["least_depth", "managed", "round_robin"]
        with pytest.raises(ConfigurationError, match="unknown dispatch"):
            resolve_policy("warp-drive")
        p = resolve_policy("managed")
        assert resolve_policy(p) is p

    def test_round_robin_rotates_statically(self, rng):
        router = small_router(replicas=3, policy="round_robin")
        tickets = [router.submit(d) for d in rows(rng, 6)]
        assert [t.replica_id for t in tickets] == [0, 1, 2, 0, 1, 2]

    def test_least_depth_prefers_emptier_replica(self, rng):
        router = small_router(replicas=2, policy="least_depth", max_batch=8)
        a = router.submit(rows(rng, 1)[0])
        b = router.submit(rows(rng, 1)[0])
        assert a.replica_id == 0 and b.replica_id == 1

    def test_managed_prefers_idle_executor(self, rng):
        """The master-managed policy sees serial-executor backlog: after
        replica 0 runs a batch, new work goes to the idle replica 1."""
        router = small_router(replicas=2, policy="managed", max_batch=1)
        a = router.submit(rows(rng, 1)[0])  # flushes on 0: executor busy
        assert a.replica_id == 0
        assert router.replica(0).service.busy_until_s > 0.0
        b = router.submit(rows(rng, 1)[0])
        assert b.replica_id == 1

    def test_backpressure_falls_through_to_next_replica(self, rng):
        router = small_router(replicas=2, policy="round_robin",
                              max_batch=64, max_queue=2)
        tickets = [router.submit(d) for d in rows(rng, 4)]
        # Round-robin alternates; queues hold 2 each. The 5th request's
        # preferred replica is full either way -> lands on the other...
        assert [t.replica_id for t in tickets] == [0, 1, 0, 1]
        with pytest.raises(BackpressureError, match="every active replica"):
            router.submit(rows(rng, 1)[0])
        assert router.rejected == 1


class TestTenants:
    def test_quota_sheds_with_quota_error(self, rng):
        router = small_router(
            replicas=1, max_batch=64,
            tenants=[TenantSpec("acme", max_inflight=2)],
        )
        for d in rows(rng, 2):
            router.submit(d, tenant="acme")
        with pytest.raises(QuotaExceededError, match="acme"):
            router.submit(rows(rng, 1)[0], tenant="acme")
        # QuotaExceededError is shed-load: a BackpressureError subclass.
        assert issubclass(QuotaExceededError, BackpressureError)
        assert router.quota_rejected == 1
        # Another tenant is unaffected by acme's quota.
        other = router.submit(rows(rng, 1)[0], tenant="bulk")
        assert other.replica_id == 0

    def test_quota_frees_as_requests_complete(self, rng):
        router = small_router(
            replicas=1, max_batch=2,
            tenants=[TenantSpec("acme", max_inflight=2)],
        )
        for d in rows(rng, 2):
            router.submit(d, tenant="acme")  # 2nd flushes the batch
        t = router.submit(rows(rng, 1)[0], tenant="acme")
        assert t is not None and router.quota_rejected == 0

    def test_tenant_slo_monitor_per_class(self, rng):
        router = small_router(
            replicas=1, max_batch=2,
            tenants=[TenantSpec("acme", slo_class="gold")],
        )
        for d in rows(rng, 2):
            router.submit(d, tenant="acme")
        snap = router.tenant_slo("acme").snapshot()
        names = {o["name"] for o in snap["objectives"]}
        assert names == {"acme/gold-latency", "acme/gold-availability"}
        assert snap["observed"] == 2

    def test_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError, match="max_inflight"):
            TenantSpec("x", max_inflight=-1)
        with pytest.raises(ConfigurationError, match="SLO class"):
            TenantSpec("x", slo_class="platinum")
        with pytest.raises(ValueError, match="unknown SLO class"):
            slo_class("platinum")


class TestLockstepClock:
    def test_advance_moves_every_replica(self, rng):
        router = small_router(replicas=3, max_batch=64, max_wait_s=1e-3)
        tickets = [router.submit(d, at=i * 1e-4)
                   for i, d in enumerate(rows(rng, 3))]
        router.advance_to(0.05)
        assert all(t.done for t in tickets)
        assert router.clock.now == 0.05
        for r in router.replicas:
            assert r.service.clock.now == 0.05

    def test_cluster_clock_never_runs_backwards(self, rng):
        router = small_router(replicas=1)
        router.advance_to(1.0)
        with pytest.raises(ConfigurationError, match="backwards"):
            router.advance_to(0.5)


class TestFailover:
    def test_strikes_drain_replica_and_reroute(self, rng):
        router = small_router(replicas=2, policy="round_robin",
                              drain_after=1, max_batch=64)
        exhaust(router.replica(0).service.session)
        d = rows(rng, 1)[0]
        t = router.submit(d, at=0.0)
        assert t.replica_id == 0
        router.advance_to(2e-4)  # max_wait fires -> exhaustion -> drain
        assert router.replica(0).state == "down"
        assert router.drains == 1
        # The failed request was rerouted to replica 1 and served there.
        router.drain_queues()
        assert t.done and t.replica_id == 1 and t.reroutes == 1
        np.testing.assert_array_equal(t.result(), inclusive_scan(d))

    def test_drain_evicts_and_reroutes_queued_requests(self, rng):
        router = small_router(replicas=2, policy="round_robin",
                              max_batch=64, max_wait_s=1.0)
        data = rows(rng, 4)
        tickets = [router.submit(d) for d in data]
        assert [t.replica_id for t in tickets] == [0, 1, 0, 1]
        router.fail_replica(0)
        moved = [t for t in tickets if t.replica_id == 1]
        assert len(moved) == 4  # replica 0's two requests moved over
        router.drain_queues()
        for d, t in zip(data, tickets):
            np.testing.assert_array_equal(t.result(), inclusive_scan(d))
        # Eviction reroutes are not charged to the request's budget.
        assert all(t.reroutes == 0 for t in tickets)
        assert router.rerouted == 2

    def test_readmit_spawns_from_leader_snapshot(self, rng):
        router = small_router(replicas=2, recovery_s=1e-3, max_batch=1)
        # Warm the leader so its snapshot carries plans.
        warm = [router.submit(d, at=0.0) for d in rows(rng, 2)]
        assert all(t.done for t in warm)
        old_service = router.replica(1).service
        router.fail_replica(1)
        router.advance_to(router.clock.now + 5e-3)
        replica = router.replica(1)
        assert replica.state == "active"
        assert replica.service is not old_service
        assert router.readmits == 1
        info = replica.service.session.restore_info
        assert info is not None and info["compatible"]
        # Resolver plans are process-wide (prime is a no-op in-process);
        # the per-session warmth is the memoised executor entries.
        assert info["entries"] > 0
        t = router.submit(rows(rng, 1)[0], tenant="acme")
        router.drain_queues()
        assert t.done

    def test_all_replicas_down_parks_then_recovers(self, rng):
        router = small_router(replicas=1, recovery_s=1e-3, max_batch=64,
                              max_wait_s=1.0)
        data = rows(rng, 3)
        tickets = [router.submit(d) for d in data]
        router.fail_replica(0)
        assert router.parked == 3
        assert all(t.status == "evicted" or t.inner is None for t in tickets)
        with pytest.raises(ConfigurationError, match="parked"):
            tickets[0].result()
        router.advance_to(5e-3)  # past recovery: readmit + unpark
        assert router.parked == 0
        router.drain_queues()
        for d, t in zip(data, tickets):
            np.testing.assert_array_equal(t.result(), inclusive_scan(d))
        assert router.readmits == 1

    def test_reroute_budget_exhaustion_sticks_failure(self, rng):
        router = small_router(replicas=2, policy="round_robin",
                              drain_after=99, max_reroutes=0, max_batch=64)
        exhaust(router.replica(0).service.session)
        t = router.submit(rows(rng, 1)[0], at=0.0)
        router.advance_to(1e-3)
        assert t.failed and t.reroutes == 0
        # Failed-but-not-rerouted requests are terminal: cluster latency
        # includes the attempted backoff the replica charged.
        assert t.latency_s > 0.0
        assert router.latency.count == 1


class TestClusterReplay:
    WL = dict(requests=48, sizes_log2=(10, 12), rate=150_000.0, seed=11)

    def test_replay_verifies_and_scales(self):
        wl = poisson_workload(**self.WL)
        p99 = {}
        for n in (1, 4):
            router = small_router(replicas=n, max_batch=8, max_wait_s=2e-5,
                                  policy="managed")
            summary = cluster_replay(router, wl)
            assert summary["served"] == 48
            assert summary["verified"] == 48
            assert summary["request_failures"] == 0
            p99[n] = summary["latency_p99_s"]
        # The acceptance direction: more replicas, better tail latency.
        assert p99[4] < p99[1]

    def test_drain_readmit_replay_loses_nothing(self):
        wl = poisson_workload(**self.WL)
        router = small_router(replicas=3, max_batch=8, max_wait_s=2e-5,
                              recovery_s=1e-4)
        summary = cluster_replay(router, wl, tenants=("acme", "bulk"),
                                 fail_replica_at=1e-4, fail_replica_id=0)
        assert summary["drains"] == 1 and summary["readmits"] == 1
        assert summary["served"] == 48 and summary["verified"] == 48
        assert summary["request_failures"] == 0

    def test_replay_is_deterministic(self):
        """Same schedule -> identical batch assignment across replicas
        and identical summaries, run after run (drain included)."""
        wl = poisson_workload(**self.WL)

        def run():
            router = small_router(replicas=3, max_batch=8, max_wait_s=2e-5,
                                  recovery_s=1e-4)
            summary = cluster_replay(router, wl, fail_replica_at=1e-4)
            return summary, router.batch_log

        s1, log1 = run()
        s2, log2 = run()
        assert log1 == log2
        assert s1 == s2


class TestRouterValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one replica"):
            ClusterRouter(replicas=0)
        with pytest.raises(ConfigurationError, match="drain_after"):
            ClusterRouter(replicas=1, drain_after=0)
        with pytest.raises(ConfigurationError, match="recovery_s"):
            ClusterRouter(replicas=1, recovery_s=0.0)

    @pytest.mark.parametrize("recovery_s", [math.nan, math.inf, "1e-3"])
    def test_non_finite_recovery_rejected(self, recovery_s):
        with pytest.raises(ConfigurationError, match="recovery_s"):
            ClusterRouter(replicas=1, recovery_s=recovery_s)

    def test_fractional_max_batch_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            ClusterRouter(replicas=2, max_batch=2.5)

    @pytest.mark.parametrize("at", [math.nan, math.inf])
    def test_non_finite_arrival_leaves_every_clock_alone(self, rng, at):
        router = small_router(replicas=2)
        x = rows(rng, 1)[0]
        router.submit(x, at=1e-6)
        with pytest.raises(ConfigurationError, match="finite"):
            router.submit(x, at=at)
        with pytest.raises(ConfigurationError, match="finite"):
            router.advance(at)
        assert router.clock.now == 1e-6
        assert [r.service.clock.now for r in router.replicas] == [1e-6, 1e-6]
        assert router.submitted == 1
        router.submit(x, at=2e-6)
        assert router.clock.now == 2e-6

    def test_stats_snapshot(self, rng):
        router = small_router(replicas=2, max_batch=2)
        for d in rows(rng, 4):
            router.submit(d, tenant="acme")
        router.drain_queues()
        stats = router.stats()
        assert stats["replicas"] == 2 and stats["active_replicas"] == 2
        assert stats["submitted"] == 4 and stats["served"] == 4
        assert stats["latency"]["count"] == 4
        assert len(stats["per_replica"]) == 2
        assert "acme" in stats["tenants"]

    def test_rejected_input_is_not_counted_as_submitted(self, rng):
        """A request a replica refuses at validation was never admitted: it
        takes no ticket index and no ``submitted`` count, in ``stats()``
        or in the obs mirror."""
        router = small_router(replicas=2)
        with pytest.raises(ConfigurationError):
            router.submit(np.array(["not", "numbers"]))
        with pytest.raises(ConfigurationError):
            router.submit(rows(rng, 1)[0], inclusive="no")
        ticket = router.submit(rows(rng, 1)[0])
        assert router.stats()["submitted"] == 1
        assert ticket.index == 0

    def test_rejected_input_leaves_obs_mirror_equal(self, rng):
        from repro import obs

        was_enabled = obs.is_enabled()
        obs.enable()
        obs.reset()
        try:
            router = small_router(replicas=2)
            with pytest.raises(ConfigurationError):
                router.submit(np.array(["not", "numbers"]))
            router.submit(rows(rng, 1)[0])
            counted = obs.registry().snapshot()["cluster.submitted"]
            assert router.stats()["submitted"] == sum(counted.values()) == 1
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()
