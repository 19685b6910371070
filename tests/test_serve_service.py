"""Service-level tests: admission, coalescing, flush policy, accounting,
backpressure, and failure handling (splits + chaos).

The service is a *front-end*: coalescing must be output-invisible
(identical results to individual scans), latencies must sum without
double counting, and a failing batch must degrade to per-request
failures only after retry and bisection are exhausted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.health import AttemptRecord, RetryPolicy
from repro.core.session import ScanSession
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    FailoverExhaustedError,
    RequestFailedError,
)
from repro.gpusim.faults import DeviceDown, FaultSchedule
from repro.interconnect.topology import tsubame_kfc
from repro.obs.slo import SLOMonitor, availability_objective
from repro.primitives.sequential import inclusive_scan
from repro.serve import ScanService, SimClock, poisson_workload, replay, solo_baseline
from repro.serve.replay import Request


@pytest.fixture
def service(machine):
    return ScanSession(machine).service(max_batch=8, max_wait_s=1e-3)


def rows(rng, count, n=1 << 10, dtype=np.int32):
    return [rng.integers(-40, 90, n).astype(dtype) for _ in range(count)]


class TestAdmission:
    def test_submit_returns_queued_ticket(self, service, rng):
        ticket = service.submit(rows(rng, 1)[0])
        assert ticket.status == "queued"
        assert not ticket.done
        assert service.depth == 1
        with pytest.raises(ConfigurationError, match="still queued"):
            ticket.result()

    def test_rejects_2d_and_empty_requests(self, service):
        with pytest.raises(ConfigurationError, match="1-D"):
            service.submit(np.zeros((2, 8), dtype=np.int32))
        with pytest.raises(ConfigurationError, match="non-empty"):
            service.submit(np.zeros(0, dtype=np.int32))

    def test_backpressure_rejection(self, machine, rng):
        service = ScanSession(machine).service(max_batch=64, max_queue=4)
        for r in rows(rng, 4):
            service.submit(r)
        with pytest.raises(BackpressureError, match="4/4"):
            service.submit(rows(rng, 1)[0])
        assert service.rejected == 1
        # Rejected requests are not enqueued; the queue drains clean.
        service.drain()
        assert service.served == 4

    def test_compatibility_keying(self, service, rng):
        """Different size/dtype/operator/inclusivity never coalesce."""
        service.submit(rng.integers(0, 9, 1 << 10).astype(np.int32))
        service.submit(rng.integers(0, 9, 1 << 11).astype(np.int32))
        service.submit(rng.integers(0, 9, 1 << 10).astype(np.int64))
        service.submit(rng.integers(0, 9, 1 << 10).astype(np.int32),
                       operator="max")
        service.submit(rng.integers(0, 9, 1 << 10).astype(np.int32),
                       inclusive=False)
        assert len([q for q in service._queues.values() if q]) == 5
        service.drain()
        assert len(service.batches) == 5
        assert all(b.requests == 1 for b in service.batches)


class TestKnobAndTimeValidation:
    """Knobs and timestamps are checked before anything is queued."""

    def _queued(self, service, x):
        service.submit(x, at=1e-6)
        return service.depth, service.clock.now

    @pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_is_rejected(self, service, rng, at):
        x = rows(rng, 1)[0]
        before = self._queued(service, x)
        with pytest.raises(ConfigurationError, match="finite"):
            service.submit(x, at=at)
        assert (service.depth, service.clock.now) == before
        assert service.batches == [] and service.submitted == 1
        service.submit(x, at=2e-6)  # the clock still moves afterwards
        assert service.clock.now == 2e-6

    @pytest.mark.parametrize("dt", [math.nan, math.inf, "1e-3"])
    def test_non_finite_advance_is_rejected(self, service, rng, dt):
        before = self._queued(service, rows(rng, 1)[0])
        with pytest.raises(ConfigurationError, match="finite"):
            service.advance(dt)
        assert (service.depth, service.clock.now) == before
        assert service.batches == []

    def test_sim_clock_rejects_non_finite_times(self):
        clock = SimClock()
        for bad in (math.nan, math.inf, "1e-3"):
            with pytest.raises(ConfigurationError, match="finite"):
                clock.advance(bad)
            with pytest.raises(ConfigurationError, match="finite"):
                clock.advance_to(bad)
        assert clock.now == 0.0

    @pytest.mark.parametrize("knob, value", [
        ("max_batch", 2.5), ("max_batch", True), ("max_batch", 0),
        ("max_batch", "4"), ("max_queue", 2.5), ("max_queue", False),
        ("max_wait_s", "1e-4"), ("max_wait_s", math.nan), ("max_wait_s", -1.0),
        ("max_wait_s", True),
    ])
    def test_bad_knob_is_rejected_at_construction(self, machine, knob, value):
        with pytest.raises(ConfigurationError, match=knob):
            ScanSession(machine).service(**{knob: value})

    def test_integral_and_real_knobs_are_accepted(self, machine, rng):
        service = ScanSession(machine).service(
            max_batch=np.int64(2), max_queue=np.int32(8),
            max_wait_s=np.float32(1e-4))
        tickets = [service.submit(r) for r in rows(rng, 2)]
        assert all(t.done for t in tickets)


class TestCoalescing:
    def test_results_identical_to_individual_scans(self, machine, rng):
        """The coalescing front door must be output-invisible."""
        service = ScanSession(machine).service(max_batch=16)
        data = rows(rng, 10)
        tickets = [service.submit(d) for d in data]
        service.drain()
        solo_session = ScanSession(tsubame_kfc(1))
        for d, t in zip(data, tickets):
            expected = solo_session.scan(d[None, :]).output[0]
            np.testing.assert_array_equal(t.result(), expected)

    def test_max_batch_triggers_flush(self, service, rng):
        tickets = [service.submit(d) for d in rows(rng, 8)]
        # max_batch=8: the 8th submit flushes without drain().
        assert all(t.done for t in tickets)
        assert service.batches[0].reason == "max_batch"
        assert service.batches[0].requests == 8

    def test_row_count_padded_to_power_of_two(self, service, rng):
        tickets = [service.submit(d) for d in rows(rng, 5)]
        service.drain()
        batch = service.batches[0]
        assert batch.requests == 5 and batch.g == 8
        assert service.padded_rows == 3
        for t in tickets:
            assert t.batch_requests == 5 and t.batch_g == 8

    def test_ragged_stragglers_identity_padded(self, service, rng):
        """Non-power-of-two sizes pad up and join the pow2 queue."""
        odd = rng.integers(-40, 90, 1000).astype(np.int32)
        even = rng.integers(-40, 90, 1024).astype(np.int32)
        t_odd = service.submit(odd)
        t_even = service.submit(even)
        assert t_odd.key == t_even.key and t_odd.key.n == 1024
        service.drain()
        assert len(service.batches) == 1
        np.testing.assert_array_equal(t_odd.result(), inclusive_scan(odd))
        assert t_odd.result().shape == (1000,)
        np.testing.assert_array_equal(t_even.result(), inclusive_scan(even))

    def test_operator_identity_padding_for_mul_and_min(self, machine, rng):
        service = ScanSession(machine).service(max_batch=16)
        a = rng.integers(1, 3, 100).astype(np.int64)
        b = rng.integers(-90, 90, 200).astype(np.int64)
        ta = service.submit(a, operator="mul")
        tb = service.submit(b, operator="min")
        service.drain()
        np.testing.assert_array_equal(ta.result(), inclusive_scan(a, op="mul"))
        np.testing.assert_array_equal(tb.result(), inclusive_scan(b, op="min"))


class TestFlushPolicy:
    def test_max_wait_flush_ordering(self, machine, rng):
        """Queues flush at their oldest request's deadline, in deadline
        order, each at its exact deadline time."""
        service = ScanSession(machine).service(max_batch=64, max_wait_s=1e-3)
        a = service.submit(rng.integers(0, 9, 1 << 10).astype(np.int32), at=0.0)
        b = service.submit(rng.integers(0, 9, 1 << 11).astype(np.int32),
                           at=0.0004)
        # Neither deadline has elapsed yet.
        service.advance_to(0.0009)
        assert a.status == "queued" and b.status == "queued"
        service.advance_to(0.01)
        assert a.done and b.done
        first, second = service.batches
        assert first.key.n == 1 << 10 and second.key.n == 1 << 11
        assert first.flush_s == pytest.approx(1e-3)
        assert second.flush_s == pytest.approx(1.4e-3)
        assert first.reason == "max_wait" and second.reason == "max_wait"
        assert a.queue_wait_s == pytest.approx(1e-3)
        assert b.queue_wait_s == pytest.approx(1e-3)

    def test_late_arrival_joins_next_batch(self, machine, rng):
        """A request arriving after a deadline fires lands in a fresh
        batch — the elapsed queue flushed at its own deadline first."""
        service = ScanSession(machine).service(max_batch=64, max_wait_s=1e-3)
        service.submit(rng.integers(0, 9, 1 << 10).astype(np.int32), at=0.0)
        late = service.submit(rng.integers(0, 9, 1 << 10).astype(np.int32),
                              at=0.005)
        assert len(service.batches) == 1  # deadline fired during advance
        assert late.status == "queued"
        service.drain()
        assert len(service.batches) == 2
        assert late.done and late.queue_wait_s == 0.0

    def test_clock_is_monotone(self, service, rng):
        service.submit(rows(rng, 1)[0], at=1.0)
        with pytest.raises(ConfigurationError, match="backwards"):
            service.submit(rows(rng, 1)[0], at=0.5)
        with pytest.raises(ConfigurationError, match="advance the clock by"):
            SimClock().advance(-1.0)


class TestAccounting:
    def test_latencies_sum_no_double_counting(self, machine, rng):
        """sum(per-request latency) == sum(batch sim time) + sum(queue
        wait) — per batch this is exact by construction (the share
        remainder lands on the last request, so D/R division drift cannot
        accumulate); across batches only float re-association remains,
        bounded at rounding precision. Double counting (a request charged
        two batches, a batch charged twice) would show up orders of
        magnitude above both bounds."""
        import math

        service = ScanSession(machine).service(max_batch=8, max_wait_s=1e-3)
        tickets = []
        t = 0.0
        for i, d in enumerate(rows(rng, 13)):  # 8 + 5: one odd batch
            tickets.append(service.submit(d, at=t))
            t += 1e-4
        service.drain()
        assert all(t.done for t in tickets)
        # Exact per-batch identity: execution shares re-sum to the batch
        # simulated time with zero drift, odd batch width included.
        for batch in service.batches:
            members = [t for t in tickets if t.batch_index == batch.index]
            assert batch.requests in (8, 5)
            assert sum(t.exec_share_s for t in members) == batch.sim_time_s
        total_latency = math.fsum(t.latency_s for t in tickets)
        total_wait = math.fsum(t.queue_wait_s for t in tickets)
        total_exec = math.fsum(b.sim_time_s for b in service.batches)
        assert total_latency == pytest.approx(total_wait + total_exec,
                                              rel=1e-12, abs=0)
        assert service.total_latency_s == pytest.approx(total_latency)
        assert service.total_queue_wait_s == pytest.approx(total_wait)
        assert service.total_exec_s == pytest.approx(total_exec)

    def test_exec_shares_sum_to_batch_time(self, machine, rng):
        service = ScanSession(machine).service(max_batch=8)
        tickets = [service.submit(d) for d in rows(rng, 5)]
        service.drain()
        batch = service.batches[0]
        shares = sum(t.exec_share_s for t in tickets)
        assert shares == batch.sim_time_s  # exact by remainder assignment
        for t in tickets:
            assert t.batch_time_s == batch.sim_time_s
            assert t.completion_s == batch.flush_s + batch.sim_time_s

    def test_stats_snapshot(self, machine, rng):
        service = ScanSession(machine).service(max_batch=4)
        for d in rows(rng, 6):
            service.submit(d)
        service.drain()
        stats = service.stats()
        assert stats["submitted"] == 6
        assert stats["served"] == 6
        assert stats["batches"] == 2
        assert stats["mean_batch_size"] == 3.0
        assert stats["latency"]["count"] == 6
        assert stats["queued"] == 0


class TestObservability:
    def test_metrics_and_spans(self, machine, rng):
        obs.enable()
        obs.reset()
        try:
            service = ScanSession(machine).service(max_batch=4, max_queue=6)
            for d in rows(rng, 4):  # 4th submit fires the max_batch flush
                service.submit(d)
            # Refill to max_queue across two keys so neither queue reaches
            # max_batch before the admission check trips.
            for d in rows(rng, 3) + rows(rng, 3, n=1 << 11):
                service.submit(d)
            with pytest.raises(BackpressureError):
                service.submit(rows(rng, 1)[0])
            service.drain()
            snap = obs.registry().snapshot()
            assert snap["serve.submitted"][""] == 10
            assert snap["serve.served"][""] == 10
            assert snap["serve.rejected"][""] == 1
            assert snap["serve.flushes"]["reason=max_batch"] == 1
            assert snap["serve.flushes"]["reason=drain"] == 2
            assert snap["serve.batch_size"][""]["count"] == 3
            assert snap["serve.queue_depth"][""] == 0.0
            names = [s.name for root in obs.finished_spans()
                     for s in root.walk()]
            assert "serve.coalesce" in names and "serve.flush" in names
        finally:
            obs.disable()
            obs.reset()

    def test_disabled_obs_costs_nothing_but_still_serves(self, machine, rng):
        assert not obs.is_enabled()
        service = ScanSession(machine).service(max_batch=4)
        t = service.submit(rows(rng, 1)[0])
        service.drain()
        assert t.done
        assert service.latency.count == 1  # plain accounting always on


class TestFailureHandling:
    class _FlakySession(ScanSession):
        """Fails any batch wider than ``fail_above`` rows; counts calls."""

        def __init__(self, machine, fail_above):
            super().__init__(machine)
            self.fail_above = fail_above
            self.attempted_widths = []

        def scan(self, data, **kwargs):
            self.attempted_widths.append(data.shape[0])
            if data.shape[0] > self.fail_above:
                raise FailoverExhaustedError(
                    f"injected: batches wider than {self.fail_above} fail"
                )
            return super().scan(data, **kwargs)

    def test_failed_batch_splits_before_failing_requests(self, machine, rng):
        """A batch that exhausts failover bisects until its halves pass."""
        session = self._FlakySession(machine, fail_above=2)
        service = session.service(max_batch=8)
        data = rows(rng, 8)
        tickets = [service.submit(d) for d in data]
        assert all(t.done for t in tickets)
        for d, t in zip(data, tickets):
            np.testing.assert_array_equal(t.result(), inclusive_scan(d))
        assert service.splits == 3  # 8 -> 4+4 -> 2+2+2+2
        assert len(service.batches) == 4
        assert all(t.splits == 2 for t in tickets)
        assert session.attempted_widths[:3] == [8, 4, 2]

    def test_singleton_failure_marks_only_that_request(self, machine, rng):
        session = self._FlakySession(machine, fail_above=0)
        service = session.service(max_batch=2)
        t1 = service.submit(rows(rng, 1)[0])
        t2 = service.submit(rows(rng, 1)[0])
        assert t1.failed and t2.failed
        assert service.failed == 2
        with pytest.raises(RequestFailedError, match="request 0 failed"):
            t1.result()
        assert isinstance(t1.error, FailoverExhaustedError)

    def test_split_budget_bounds_recursion(self, machine, rng):
        session = self._FlakySession(machine, fail_above=0)
        session.health.policy = RetryPolicy(max_batch_splits=1)
        service = session.service(max_batch=8)
        tickets = [service.submit(d) for d in rows(rng, 8)]
        assert all(t.failed for t in tickets)
        # One bisection level allowed: 8 -> 4+4, then the 4s fail whole.
        assert session.attempted_widths == [8, 4, 4]


@pytest.mark.chaos
class TestServiceChaos:
    def test_gpu_death_mid_batch_fails_over_per_request(self, rng):
        """A GPU dying while a coalesced batch runs must be invisible to
        every rider: correct outputs, failover visible on each ticket."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        service = session.service(max_batch=8, proposal="mps", W=4, V=4)
        machine.install_faults(
            FaultSchedule([DeviceDown(at_call=3, gpu_id=0)])
        )
        data = rows(rng, 8, n=1 << 11, dtype=np.int64)
        tickets = [service.submit(d) for d in data]
        assert all(t.done for t in tickets)
        for d, t in zip(data, tickets):
            np.testing.assert_array_equal(t.result(), inclusive_scan(d))
        # The session failed over inside the batch; every rider sees it.
        for t in tickets:
            assert t.failover is not None
            assert t.failover["attempts"] >= 2
        assert session.health.failovers == 1
        assert machine.gpus[0].offline

    def test_chaos_batch_latency_still_sums(self, rng):
        """Failover backoff lands in the batch trace, so the accounting
        invariant must survive a degraded batch unchanged."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        service = session.service(max_batch=4, proposal="mps", W=4, V=4)
        machine.install_faults(
            FaultSchedule([DeviceDown(at_call=2, gpu_id=1)])
        )
        tickets = [service.submit(d, at=i * 1e-4)
                   for i, d in enumerate(rows(rng, 4, n=1 << 11))]
        service.drain()
        assert all(t.done for t in tickets)
        import math

        total_latency = math.fsum(t.latency_s for t in tickets)
        total_wait = math.fsum(t.queue_wait_s for t in tickets)
        total_exec = math.fsum(b.sim_time_s for b in service.batches)
        assert total_latency == pytest.approx(total_wait + total_exec,
                                              rel=1e-12, abs=0)
        assert sum(t.exec_share_s for t in tickets) == total_exec
        # Backoff made the batch strictly slower than a healthy one.
        healthy = ScanSession(tsubame_kfc(1))
        baseline = healthy.scan(
            np.stack([d for d in rows(rng, 4, n=1 << 11)]),
            proposal="mps", W=4, V=4,
        ).total_time_s
        assert service.batches[0].sim_time_s > baseline


class TestReplayDriver:
    def test_replay_verifies_and_reports(self, machine):
        session = ScanSession(machine)
        service = session.service(max_batch=16, max_wait_s=5e-4)
        workload = poisson_workload(24, sizes_log2=(9, 10), rate=20000.0,
                                    seed=3)
        report = replay(service, workload)
        assert report["verified"] == 24
        assert report["request_failures"] == 0
        assert report["batches"] == len(service.batches)
        assert report["coalesced_sim_s"] == pytest.approx(service.total_exec_s)

    def test_replay_counts_backpressure(self, machine):
        service = ScanSession(machine).service(max_batch=64, max_queue=8,
                                               max_wait_s=10.0)
        workload = poisson_workload(12, sizes_log2=(9,), rate=0.0, seed=3)
        report = replay(service, workload)
        assert report["rejected_by_backpressure"] == 4
        assert report["verified"] == 8

    def test_coalescing_beats_solo_on_small_bursts(self, machine):
        """The amortisation story at the acceptance shape: 64 small
        requests, coalesced vs one-at-a-time, >= 2x."""
        workload = poisson_workload(64, sizes_log2=(12,), rate=0.0, seed=0)
        service = ScanSession(machine).service(max_batch=64)
        report = replay(service, workload)
        solo = solo_baseline(ScanSession(tsubame_kfc(1)), workload)
        assert solo["solo_sim_s"] / report["coalesced_sim_s"] >= 2.0


class TestFlushReasonAccounting:
    def test_overfull_remainder_reflushes_as_max_batch(self, machine, rng):
        """Shrinking max_batch mid-run (the adaptive-policy pattern)
        leaves a deadline flush with an over-full remainder; the
        re-flushes fire *because of max_batch* and must be labelled so —
        carrying the triggering "max_wait" through skewed the
        serve.flushes counter."""
        obs.enable()
        obs.reset()
        try:
            service = ScanSession(machine).service(max_batch=64,
                                                   max_wait_s=1e-3)
            tickets = [service.submit(d, at=0.0) for d in rows(rng, 5)]
            service.max_batch = 2
            service.advance_to(0.01)
            # Deadline flush takes 2, the over-full remainder (3) re-flushes
            # 2 as max_batch, and the last singleton's own deadline fires.
            assert [b.reason for b in service.batches] == [
                "max_wait", "max_batch", "max_wait"
            ]
            snap = obs.registry().snapshot()
            assert snap["serve.flushes"]["reason=max_wait"] == 2
            assert snap["serve.flushes"]["reason=max_batch"] == 1
            assert all(t.done for t in tickets)
        finally:
            obs.disable()
            obs.reset()


class TestFailedRequestAccounting:
    class _ExhaustedSession(ScanSession):
        """Always exhausts failover, with a realistic attempt trail."""

        BACKOFFS = (1e-3, 2e-3, 4e-3)

        def scan(self, data, **kwargs):
            attempts = [
                AttemptRecord(attempt=i + 1, proposal="sp", node=None,
                              error_type="DeviceLostError",
                              error="injected", backoff_s=b)
                for i, b in enumerate(self.BACKOFFS)
            ]
            raise FailoverExhaustedError("injected exhaustion",
                                         attempts=attempts)

    def test_failed_tickets_charge_queue_wait_plus_attempted_time(
            self, machine, rng):
        """Failed requests are charged queue wait + their share of the
        attempted (backoff) time — not latency 0.0 — and complete at
        flush + attempted time."""
        session = self._ExhaustedSession(machine)
        session.health.policy = RetryPolicy(max_batch_splits=0)
        service = session.service(max_batch=4)
        tickets = [service.submit(d, at=i * 1e-4)
                   for i, d in enumerate(rows(rng, 3))]
        service.drain()
        assert all(t.failed for t in tickets)
        attempted = sum(self._ExhaustedSession.BACKOFFS)
        flush_s = service.clock.now
        assert sum(t.exec_share_s for t in tickets) == attempted
        for t in tickets:
            assert t.queue_wait_s == flush_s - t.arrival_s
            assert t.latency_s == t.queue_wait_s + t.exec_share_s
            assert t.latency_s > 0.0
            assert t.completion_s == pytest.approx(flush_s + attempted)
            assert t.batch_time_s == attempted
        # Failed latencies land in the histogram and the totals.
        assert service.latency.count == 3
        assert service.total_exec_s == pytest.approx(attempted)
        assert service.total_latency_s == pytest.approx(
            math.fsum(t.latency_s for t in tickets))

    def test_failure_slo_outcome_stamped_after_backoff(self, machine, rng):
        """The availability outcome lands at the simulated completion
        (flush + attempted backoff), not at flush time."""
        monitor = SLOMonitor([availability_objective("avail", 0.99)])
        session = self._ExhaustedSession(machine)
        session.health.policy = RetryPolicy(max_batch_splits=0)
        service = session.service(max_batch=2, slo=monitor)
        service.submit(rows(rng, 1)[0], at=1e-3)
        service.drain()
        flush_s = service.clock.now
        attempted = sum(self._ExhaustedSession.BACKOFFS)
        short, _ = monitor._windows["avail"]
        at_s, is_bad = short.events[-1]
        assert is_bad
        assert at_s == pytest.approx(flush_s + attempted)
        assert at_s > flush_s

    def test_invariant_holds_across_mixed_success_and_failure(
            self, machine, rng):
        """The no-double-counting invariant extends over failures:
        sum(latency) == sum(queue wait) + sum(exec wait) + sum(executed
        and attempted batch time)."""

        class _Flaky(ScanSession):
            def scan(self, data, **kwargs):
                if data.shape[0] > 2:
                    raise FailoverExhaustedError(
                        "wide batches fail",
                        attempts=[AttemptRecord(
                            attempt=1, proposal="sp", node=None,
                            error_type="DeviceLostError", error="injected",
                            backoff_s=3e-3)],
                    )
                return super().scan(data, **kwargs)

        session = _Flaky(machine)
        session.health.policy = RetryPolicy(max_batch_splits=0)
        service = session.service(max_batch=4)
        tickets = [service.submit(d, at=i * 1e-4)
                   for i, d in enumerate(rows(rng, 6))]
        service.drain()
        assert sum(t.failed for t in tickets) == 4  # the max_batch flush
        assert sum(t.done for t in tickets) == 2    # the drained tail
        total_latency = math.fsum(t.latency_s for t in tickets)
        total_wait = math.fsum(t.queue_wait_s for t in tickets)
        total_exec_wait = math.fsum(t.exec_wait_s for t in tickets)
        assert total_latency == pytest.approx(
            total_wait + total_exec_wait + service.total_exec_s,
            rel=1e-12, abs=0)
        assert service.total_latency_s == pytest.approx(total_latency)


class TestSerializedExecutor:
    def test_busy_executor_delays_next_batch(self, machine, rng):
        """With serialize_exec, two batches flushed back-to-back stack:
        the second's riders wait for the first to leave the executor."""
        service = ScanSession(machine).service(max_batch=2,
                                               serialize_exec=True)
        first = [service.submit(d) for d in rows(rng, 2)]
        second = [service.submit(d) for d in rows(rng, 2)]
        b1, b2 = service.batches
        assert b1.exec_wait_s == 0.0
        assert b2.exec_wait_s == pytest.approx(b1.sim_time_s)
        for t in first:
            assert t.exec_wait_s == 0.0
        for t in second:
            assert t.exec_wait_s == pytest.approx(b1.sim_time_s)
            assert t.completion_s == pytest.approx(
                b1.sim_time_s + b2.sim_time_s)
            assert t.latency_s == (t.queue_wait_s + t.exec_wait_s
                                   + t.exec_share_s)
        assert service.busy_until_s == pytest.approx(
            b1.sim_time_s + b2.sim_time_s)
        assert service.total_exec_wait_s == pytest.approx(
            2 * b1.sim_time_s)

    def test_default_overlapping_mode_unchanged(self, machine, rng):
        service = ScanSession(machine).service(max_batch=2)
        [service.submit(d) for d in rows(rng, 4)]
        assert all(b.exec_wait_s == 0.0 for b in service.batches)
        assert service.total_exec_wait_s == 0.0


class TestEviction:
    def test_evict_pending_returns_rows_and_marks_tickets(self, service, rng):
        data = rows(rng, 3)
        tickets = [service.submit(d) for d in data]
        pairs = service.evict_pending()
        assert [t for t, _ in pairs] == tickets
        assert all(t.status == "evicted" for t in tickets)
        for (_, row), d in zip(pairs, data):
            np.testing.assert_array_equal(row, d)
        assert service.depth == 0
        assert service.evicted == 3
        assert service.served == 0 and service.failed == 0
        with pytest.raises(RequestFailedError, match="evicted"):
            tickets[0].result()


class TestDeadlineEdge:
    def test_passed_deadline_flushes_at_now_not_backwards(self, machine, rng):
        """Shrinking max_wait mid-run leaves a queue head whose deadline
        already passed; the flush fires *now* (the max(deadline, now)
        path) — the clock never runs backwards."""
        service = ScanSession(machine).service(max_batch=64, max_wait_s=1.0)
        ticket = service.submit(rows(rng, 1)[0], at=0.0)
        service.advance_to(0.5)
        assert ticket.status == "queued"
        service.max_wait_s = 0.1  # head deadline is now 0.1 < clock 0.5
        service.advance_to(0.6)
        assert ticket.done
        batch = service.batches[0]
        assert batch.reason == "max_wait"
        assert batch.flush_s == 0.5  # fired immediately, not at 0.1
        assert ticket.queue_wait_s == 0.5
        assert service.clock.now == 0.6

    def test_multiple_passed_deadlines_flush_in_deadline_order(
            self, machine, rng):
        service = ScanSession(machine).service(max_batch=64, max_wait_s=1.0)
        b = service.submit(rng.integers(0, 9, 1 << 10).astype(np.int32),
                           at=0.0)
        a = service.submit(rng.integers(0, 9, 1 << 11).astype(np.int32),
                           at=0.2)
        service.advance_to(0.5)
        service.max_wait_s = 0.05  # both deadlines (0.05, 0.25) passed
        service.advance_to(0.5)
        assert a.done and b.done
        first, second = service.batches
        # b arrived first -> earlier deadline -> flushes first; both at now.
        assert first.key.n == 1 << 10 and second.key.n == 1 << 11
        assert first.flush_s == 0.5 and second.flush_s == 0.5

    def test_partial_flush_remainder_with_passed_deadline(self, machine, rng):
        """A partial (max_batch-shrunk) flush leaves a new queue head
        whose deadline already elapsed; it must flush at the current
        time, in order, without clock regression."""
        service = ScanSession(machine).service(max_batch=64, max_wait_s=0.3)
        tickets = [service.submit(d, at=0.01 * i)
                   for i, d in enumerate(rows(rng, 5))]
        service.max_batch = 2
        # First deadline (0.3) triggers a flush of 2; remainder heads'
        # deadlines (0.32, 0.34) are then <= now as the loop walks on.
        service.advance_to(0.4)
        assert all(t.done for t in tickets[:4])
        flush_times = [b.flush_s for b in service.batches]
        assert flush_times == sorted(flush_times)
        assert service.clock.now == 0.4

    @given(
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=2e-3, allow_nan=False),
            min_size=1, max_size=12),
        sizes_log2=st.lists(st.sampled_from([9, 10, 11]),
                            min_size=1, max_size=12),
        new_max_wait=st.floats(min_value=1e-5, max_value=2e-3,
                               allow_nan=False),
        new_max_batch=st.integers(min_value=1, max_value=4),
        shrink_after=st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=25, deadline=None)
    def test_schedule_property_monotone_flushes(self, offsets, sizes_log2,
                                                new_max_wait, new_max_batch,
                                                shrink_after):
        """Any schedule with a mid-run policy shrink keeps: monotone
        flush times, a monotone clock, every ticket terminal after a
        drain, and the accounting invariant."""
        rng = np.random.default_rng(0)
        service = ScanSession(tsubame_kfc(1)).service(max_batch=8,
                                                      max_wait_s=1e-3)
        arrivals = np.cumsum(offsets)
        tickets = []
        for i, (at, lg) in enumerate(zip(arrivals, sizes_log2 * 12)):
            if i == shrink_after:
                service.max_wait_s = new_max_wait
                service.max_batch = new_max_batch
            data = rng.integers(0, 50, 1 << lg).astype(np.int32)
            tickets.append(service.submit(data, at=float(at)))
        end = float(arrivals[-1]) + 5e-3
        service.advance_to(end)
        service.drain()
        assert all(t.done for t in tickets)
        assert service.clock.now == end
        flush_times = [b.flush_s for b in service.batches]
        assert flush_times == sorted(flush_times)
        # max_wait flushes never fire before the deadline that was
        # current when they fired... but never before their arrival.
        for b in service.batches:
            assert b.flush_s >= 0.0
        total_latency = math.fsum(t.latency_s for t in tickets)
        total_wait = math.fsum(t.queue_wait_s for t in tickets)
        assert total_latency == pytest.approx(
            total_wait + math.fsum(b.sim_time_s for b in service.batches),
            rel=1e-12, abs=0)


class TestReplayDeltas:
    def test_second_replay_reports_per_run_deltas(self, machine):
        """Replaying twice on one service (the restart/cluster pattern)
        must not double-count the first run in the second summary."""
        session = ScanSession(machine)
        service = session.service(max_batch=8, max_wait_s=5e-4)
        wl1 = poisson_workload(16, sizes_log2=(9, 10), rate=20000.0, seed=5)
        r1 = replay(service, wl1)
        shift = service.clock.now + 1e-3
        wl2 = [Request(at_s=r.at_s + shift, data=r.data, operator=r.operator,
                       inclusive=r.inclusive) for r in wl1]
        r2 = replay(service, wl2)
        for key in ("submitted", "served", "failed", "batches",
                    "mean_batch_size", "requests", "verified"):
            assert r2[key] == r1[key], key
        assert r2["submitted"] == 16  # not 32
        # Same schedule shape -> identical per-run accounting.
        assert r2["total_queue_wait_s"] == pytest.approx(
            r1["total_queue_wait_s"])
        assert r2["coalesced_sim_s"] == pytest.approx(r1["coalesced_sim_s"])
        assert r2["latency"]["count"] == 16
        # Lifetime counters still accumulate on the service itself.
        assert service.submitted == 32 and service.served == 32

    def test_fresh_service_deltas_match_lifetime_summary(self, machine):
        """On a fresh service the per-run summary is the lifetime
        summary — bit-identical distributions included (pinning the
        recorded bench baselines)."""
        service = ScanSession(machine).service(max_batch=8, max_wait_s=5e-4)
        wl = poisson_workload(20, sizes_log2=(9, 10), rate=30000.0, seed=6)
        report = replay(service, wl)
        stats = service.stats()
        assert report["latency"] == stats["latency"]
        assert report["batch_size"] == stats["batch_size"]
        assert report["submitted"] == stats["submitted"]
        assert report["total_exec_s"] == stats["total_exec_s"]
