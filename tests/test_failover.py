"""Failover tests: availability faults, retry/replanning, and the no-tax
guarantee that a healthy machine's traces are bit-identical with the fault
machinery present.

Chaos-marked classes inject device losses / link failures mid-run and
assert the session still returns the *correct* scan — on a degraded
placement — with the failure visible in health state, obs counters and
the trace's backoff record.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.executor import build_executor
from repro.core.health import HealthTracker, RetryPolicy, degraded_candidates
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.session import ScanSession
from repro.errors import (
    DeviceLostError,
    FailoverExhaustedError,
    LinkDownError,
)
from repro.gpusim.faults import (
    DeviceDown,
    FaultPlan,
    FaultSchedule,
    FaultyTransferEngine,
    LaneSlow,
    LinkDown,
    parse_fault,
)
from repro.interconnect.topology import tsubame_kfc


def batch(rng, g=4, n=1 << 12, dtype=np.int64):
    return rng.integers(-50, 100, (g, n)).astype(dtype)


#: (proposal, scan kwargs, nodes, fault call) — every registered proposal.
#: The fault call places the device loss mid-run; the chained scan is a
#: single launch, so its loss can only land on call 1.
PROPOSALS = [
    ("sp", {}, 1, 3),
    ("chained", {}, 1, 1),
    ("pp", {"W": 4}, 1, 3),
    ("mps", {"W": 4, "V": 4}, 1, 3),
    ("mppc", {"W": 8, "V": 4}, 1, 3),
    ("mn-mps", {"W": 4, "V": 4, "M": 2}, 2, 3),
]


@pytest.mark.chaos
class TestDeviceLossFailover:
    @pytest.mark.parametrize("proposal,kwargs,nodes,at_call",
                             PROPOSALS, ids=[p[0] for p in PROPOSALS])
    def test_completes_correctly_after_mid_run_device_loss(
        self, rng, proposal, kwargs, nodes, at_call
    ):
        """A GPU dying mid-run must not change the answer — only the
        placement (and the simulated latency, via backoff)."""
        machine = tsubame_kfc(nodes)
        session = ScanSession(machine)
        data = batch(rng)
        expected = np.cumsum(data, axis=1)
        # Fire a few calls in, so the loss lands mid-pipeline.
        machine.install_faults(
            FaultSchedule([DeviceDown(at_call=at_call, gpu_id=0)])
        )
        result = session.scan(data, proposal=proposal, **kwargs)
        np.testing.assert_array_equal(result.output, expected)
        failover = result.config["failover"]
        assert failover["attempts"] >= 2
        assert failover["backoff_s"] > 0
        assert session.health.failovers == 1
        assert machine.gpus[0].offline
        # The backoff is charged into the trace, on its own lane/phase.
        backoff_records = [r for r in result.trace.records
                           if r.phase == "failover"]
        assert len(backoff_records) == 1
        assert backoff_records[0].time_s == pytest.approx(
            failover["backoff_s"])

    @pytest.mark.parametrize("proposal,kwargs,nodes,at_call",
                             PROPOSALS, ids=[p[0] for p in PROPOSALS])
    def test_followup_calls_serve_from_degraded_plan(
        self, rng, proposal, kwargs, nodes, at_call
    ):
        """After one failover the session caches the degraded plan: the
        next identical request runs clean (no retry, no backoff)."""
        machine = tsubame_kfc(nodes)
        session = ScanSession(machine)
        data = batch(rng)
        expected = np.cumsum(data, axis=1)
        machine.install_faults(
            FaultSchedule([DeviceDown(at_call=at_call, gpu_id=0)])
        )
        session.scan(data, proposal=proposal, **kwargs)
        again = session.scan(data, proposal=proposal, **kwargs)
        np.testing.assert_array_equal(again.output, expected)
        assert "failover" not in again.config
        assert session.health.failovers == 1

    def test_mps_replans_across_networks_when_network_short(self, rng):
        """W=4 V=4 with a dead GPU in network 0: the same shape lands on
        network 1's four survivors."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = batch(rng)
        machine.install_faults(FaultSchedule([DeviceDown(at_call=2, gpu_id=1)]))
        result = session.scan(data, proposal="mps", W=4, V=4)
        used = result.config["gpu_ids"]
        assert 1 not in used
        assert set(used) == {4, 5, 6, 7}

    def test_single_gpu_falls_back_to_healthy_peer(self, rng):
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = batch(rng)
        machine.install_faults(FaultSchedule([DeviceDown(at_call=1, gpu_id=0)]))
        result = session.scan(data, proposal="sp")
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1))
        assert result.config["gpu_ids"] == [1]

    def test_tuned_k_sweeps_on_a_healthy_peer(self, rng):
        """A K sweep places its candidates as the request is placed: GPU
        0 lost mid-sweep, the retry sweeps and serves on GPU 1."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = batch(rng, g=16, n=1 << 14)
        machine.install_faults(FaultSchedule([DeviceDown(at_call=1, gpu_id=0)]))
        result = session.scan(data, proposal="sp", K="tune")
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1))
        assert result.config["gpu_ids"] == [1]
        assert result.config["failover"]["attempts"] == 2

    def test_obs_records_failover_span_and_retry_counter(self, rng):
        machine = tsubame_kfc(1)
        obs.reset()
        obs.enable()
        try:
            session = ScanSession(machine)
            data = batch(rng)
            machine.install_faults(
                FaultSchedule([DeviceDown(at_call=3, gpu_id=0)])
            )
            session.scan(data, proposal="mps", W=4, V=4)
            metrics = list(obs.registry())
            retries = [m for m in metrics if m.name == "scan.retries"]
            assert retries and sum(m.value for m in retries) >= 1
            failovers = [m for m in metrics if m.name == "scan.failovers"]
            assert failovers and sum(m.value for m in failovers) >= 1
            attempts = [m for m in metrics if m.name == "scan.attempts"]
            assert attempts and attempts[0].count >= 1
            spans = [
                s
                for root in obs.finished_spans()
                for s in root.walk()
                if s.name == "failover"
            ]
            assert len(spans) >= 1
        finally:
            obs.disable()
            obs.reset()


@pytest.mark.chaos
class TestLinkFaults:
    def test_soft_link_down_reroutes_host_staged_silently(self, rng):
        """A degraded network loses P2P: same answer, no retry, transfers
        rerouted (and priced) host-staged."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = batch(rng)
        machine.install_faults(
            FaultSchedule([LinkDown(at_call=1, node=0, network=0)])
        )
        result = session.scan(data, proposal="mps", W=4, V=4)
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1))
        assert "failover" not in result.config
        kinds = {r.kind for r in result.trace.records if hasattr(r, "kind")}
        assert "host_staged" in kinds and "p2p" not in kinds

    def test_hard_link_down_fails_over_to_surviving_network(self, rng):
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = batch(rng)
        machine.install_faults(
            FaultSchedule([LinkDown(at_call=3, node=0, network=0, hard=True)])
        )
        result = session.scan(data, proposal="mps", W=4, V=4)
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1))
        assert "failover" in result.config
        assert set(result.config["gpu_ids"]) == {4, 5, 6, 7}
        assert session.health.link_failures >= 1

    def test_lane_slowdown_prices_transfers_up(self, rng):
        machine = tsubame_kfc(1)
        data = batch(rng)
        clean = ScanSession(tsubame_kfc(1)).scan(data, proposal="mps", W=4, V=4)
        machine.install_faults(
            FaultSchedule([LaneSlow(at_call=1, lane="pcie0.0", factor=4.0)])
        )
        slowed = ScanSession(machine).scan(data, proposal="mps", W=4, V=4)
        np.testing.assert_array_equal(slowed.output, clean.output)
        assert slowed.total_time_s > clean.total_time_s


@pytest.mark.chaos
class TestRetryExhaustion:
    def test_exhaustion_raises_typed_error_with_attempt_trace(self, rng):
        """max_attempts=1 turns the first availability failure terminal;
        the typed error carries the attempt records."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine, retry_policy=RetryPolicy(max_attempts=1))
        data = batch(rng)
        machine.install_faults(FaultSchedule([DeviceDown(at_call=3, gpu_id=0)]))
        with pytest.raises(FailoverExhaustedError) as excinfo:
            session.scan(data, proposal="mps", W=4, V=4)
        attempts = excinfo.value.attempts
        assert len(attempts) == 1
        assert attempts[0].attempt == 1
        assert attempts[0].error_type == "DeviceLostError"
        assert attempts[0].node == (4, 4, 1)
        assert attempts[0].backoff_s > 0

    def test_no_surviving_placement_raises_with_attempts(self, rng):
        """Losing every GPU leaves nothing to replan onto."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = batch(rng)
        machine.install_faults(FaultSchedule(
            [DeviceDown(at_call=1, gpu_id=g) for g in range(8)]
        ))
        with pytest.raises(FailoverExhaustedError) as excinfo:
            session.scan(data, proposal="sp")
        assert len(excinfo.value.attempts) >= 1

    def test_auto_with_no_gpu_left_raises_like_an_explicit_proposal(self, rng):
        """With every GPU lost there is no crossover to estimate: ``auto``
        fails over like ``sp`` instead of escaping the tuner raw."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = batch(rng, dtype=np.float32)
        machine.install_faults(FaultSchedule(
            [DeviceDown(at_call=1, gpu_id=g) for g in range(8)]
        ))
        with pytest.raises(FailoverExhaustedError):
            session.scan(data, proposal="sp")
        assert machine.healthy_gpus() == []
        with pytest.raises(FailoverExhaustedError, match="no degraded placement"):
            session.scan(data)
        problem = ProblemConfig.from_sizes(N=1 << 12, G=4, dtype=np.float32)
        with pytest.raises(FailoverExhaustedError, match="no degraded placement"):
            session.estimate(problem)

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("at_call", [1, 2, 3, 4, 5])
    def test_fault_while_auto_decides_fails_over(self, at_call, warm):
        """Arming a schedule moves the cost fingerprint, so ``auto``
        re-tunes its sp/sp-dlb variant, and the tuner's estimates tick
        the schedule. A device loss that fires there fails over like one
        in execute instead of escaping raw."""
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = np.ones((4, 1 << 14), np.float32)
        if warm:
            session.scan(data)
        machine.install_faults(FaultSchedule(
            [DeviceDown(at_call=at_call, gpu_id=0)]
        ))
        result = session.scan(data)
        assert result.config["failover"]["attempts"] == 2
        assert result.config["failover"]["errors"][0].startswith(
            "DeviceLostError")
        np.testing.assert_array_equal(result.output,
                                      np.cumsum(data, axis=1, dtype=np.float32))
        assert 0 not in machine.healthy_gpus()

    def test_fault_while_auto_decides_serves_every_request(self):
        """The same fault behind a service: the max_batch flush that
        re-tunes fails over, and all four requests are served."""
        machine = tsubame_kfc(1)
        service = ScanSession(machine).service(max_batch=4)
        machine.install_faults(FaultSchedule([DeviceDown(at_call=1, gpu_id=0)]))
        rows = [np.full(1 << 12, i + 1, np.float32) for i in range(4)]
        tickets = [service.submit(row) for row in rows]
        assert [t.status for t in tickets] == ["done"] * 4
        assert tickets[0].failover["attempts"] == 2
        stats = service.stats()
        assert (stats["submitted"], stats["served"], stats["failed"],
                stats["queued"]) == (4, 4, 0, 0)
        for row, ticket in zip(rows, tickets):
            np.testing.assert_array_equal(ticket.result(), np.cumsum(row))

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=1e-3, backoff_factor=2.0)
        assert policy.backoff_s(1) == pytest.approx(1e-3)
        assert policy.backoff_s(2) == pytest.approx(2e-3)
        assert policy.backoff_s(3) == pytest.approx(4e-3)


class TestHealthyPathBitIdentity:
    """No fault schedule installed => zero behaviour tax, bit for bit."""

    @pytest.mark.parametrize("proposal,kwargs,nodes,at_call",
                             PROPOSALS, ids=[p[0] for p in PROPOSALS])
    def test_session_trace_matches_direct_executor(
        self, rng, proposal, kwargs, nodes, at_call
    ):
        """The session's failover wrapper must not perturb the healthy
        path: its trace equals a direct executor run's, record for
        record."""
        data = batch(rng)
        node = NodeConfig.from_counts(
            W=kwargs.get("W", 1), V=kwargs.get("V", kwargs.get("W", 1)),
            M=kwargs.get("M", 1),
        )
        direct = build_executor(proposal, tsubame_kfc(nodes), node).run(data)
        served = ScanSession(tsubame_kfc(nodes)).scan(
            data, proposal=proposal, **kwargs
        )
        assert served.trace.records == direct.trace.records
        assert served.total_time_s == direct.total_time_s
        np.testing.assert_array_equal(served.output, direct.output)

    @pytest.mark.parametrize("proposal,kwargs,nodes,at_call",
                             PROPOSALS, ids=[p[0] for p in PROPOSALS])
    def test_armed_but_unfired_schedule_is_invisible(
        self, rng, proposal, kwargs, nodes, at_call
    ):
        """A schedule whose trigger never fires must leave the trace
        bit-identical to a machine with no schedule at all."""
        data = batch(rng)
        clean = ScanSession(tsubame_kfc(nodes)).scan(
            data, proposal=proposal, **kwargs
        )
        armed_machine = tsubame_kfc(nodes)
        armed_machine.install_faults(
            FaultSchedule([DeviceDown(at_call=10**9, gpu_id=0)])
        )
        armed = ScanSession(armed_machine).scan(
            data, proposal=proposal, **kwargs
        )
        assert armed.trace.records == clean.trace.records
        assert armed.total_time_s == clean.total_time_s


@pytest.mark.chaos
class TestFaultScheduleMechanics:
    def test_time_triggered_fault_fires_after_simulated_time(self, rng):
        machine = tsubame_kfc(1)
        session = ScanSession(machine)
        data = batch(rng)
        # Far below one scan's simulated time: fires during the first run.
        machine.install_faults(
            FaultSchedule([DeviceDown(at_time_s=1e-5, gpu_id=0)])
        )
        result = session.scan(data, proposal="mps", W=4, V=4)
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1))
        assert machine.gpus[0].offline
        assert "failover" in result.config

    def test_schedule_attach_resets_counters(self):
        fault = DeviceDown(at_call=1, gpu_id=0)
        schedule = FaultSchedule([fault])
        first = tsubame_kfc(1)
        first.install_faults(schedule)
        schedule.tick()
        assert fault.fired
        second = tsubame_kfc(1)
        second.install_faults(schedule)
        assert not fault.fired and schedule.calls == 0
        assert not second.gpus[0].offline

    def test_fault_without_trigger_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            FaultSchedule([DeviceDown(gpu_id=0)])
        with pytest.raises(ConfigurationError):
            FaultSchedule([DeviceDown(at_call=1, at_time_s=1.0, gpu_id=0)])

    def test_parse_fault_specs(self):
        device = parse_fault("device:3@call=5")
        assert (device.gpu_id, device.at_call) == (3, 5)
        link = parse_fault("link:0.1@t=1e-3")
        assert (link.node, link.network, link.hard) == (0, 1, False)
        assert link.at_time_s == pytest.approx(1e-3)
        hard = parse_fault("link-hard:1.0@call=2")
        assert (hard.node, hard.network, hard.hard) == (1, 0, True)
        slow = parse_fault("slow:pcie0.1*2.5@call=7")
        assert (slow.lane, slow.factor) == ("pcie0.1", 2.5)

    def test_parse_fault_rejects_malformed(self):
        from repro.errors import ConfigurationError

        for bad in ("device:3", "device:x@call=1", "device:1@call=zero",
                    "gremlin:1@call=1", "slow:lane@call=1"):
            with pytest.raises(ConfigurationError):
                parse_fault(bad)


class TestDegradedCandidates:
    def test_first_candidate_is_the_requested_shape(self):
        machine = tsubame_kfc(1)
        node = NodeConfig.from_counts(W=4, V=4)
        first = next(degraded_candidates(machine, node))
        assert (first.W, first.V, first.M) == (4, 4, 1)

    def test_candidates_shed_v_then_w_then_m(self):
        machine = tsubame_kfc(2)
        node = NodeConfig.from_counts(W=4, V=4, M=2)
        shapes = [(c.W, c.V, c.M) for c in degraded_candidates(machine, node)]
        assert shapes[0] == (4, 4, 2)
        assert (4, 2, 2) in shapes and (2, 2, 2) in shapes
        assert (1, 1, 1) == shapes[-1]
        assert len(shapes) == len(set(shapes))

    def test_classify(self):
        tracker = HealthTracker(tsubame_kfc(1))
        assert tracker.classify(DeviceLostError("x", gpu_id=1)) == "device_lost"
        assert tracker.classify(LinkDownError("x", node=0, network=1)) == "link_down"
        assert tracker.classify(ValueError("x")) is None


@pytest.mark.chaos
class TestFaultPlanReset:
    """Satellite: FaultPlan run-state must not leak across engines/retries."""

    def test_engine_attach_resets_counters(self, machine):
        plan = FaultPlan(corrupt_nth_copy=2)
        plan.copies_seen = 7
        plan.faults_fired = 1
        FaultyTransferEngine(machine, plan)
        assert plan.copies_seen == 0 and plan.faults_fired == 0

    def test_reusing_plan_across_engines_fires_same_copy(self, machine, rng):
        """Pre-fix, the second engine would inherit copies_seen and fire
        on the wrong copy (or never)."""
        from repro.core.multi_gpu import ScanMPS

        plan = FaultPlan(corrupt_nth_copy=1, corrupt_delta=5)
        node = NodeConfig.from_counts(W=4, V=4)
        for _ in range(2):
            data = rng.integers(1, 100, (2, 1 << 12)).astype(np.int32)
            executor = ScanMPS(machine, node)
            executor.engine = FaultyTransferEngine(machine, plan)
            executor.run(data)
            assert plan.faults_fired == 1

    def test_h2d_and_d2h_count_toward_copy_index(self, machine):
        from repro.gpusim.events import Trace

        plan = FaultPlan(drop_nth_copy=2)
        engine = FaultyTransferEngine(machine, plan)
        trace = Trace()
        gpu = machine.gpus[0]
        engine.host_to_device(trace, "distribute", gpu, 4096)
        engine.device_to_host(trace, "collect", gpu, 4096)
        assert plan.copies_seen == 2
        assert plan.faults_fired == 1


@pytest.mark.chaos
class TestAdaptiveChaos:
    """The adaptive control stack under an availability-fault barrage.

    Convergence contract: every request reaches a terminal state, the
    queue fully drains (admission never deadlocks, whatever the
    controller did to the knobs mid-storm), every answer that completes
    is correct, and the knobs end inside their configured bounds. Being
    simulated end to end, the storm is also replayable: a second run
    reproduces the same decision log bit-for-bit.
    """

    REQUESTS = 96

    @staticmethod
    def _storm():
        from repro.control import ServiceControllerConfig, adaptive_controller
        from repro.serve import ScanService, bursty_workload, replay

        machine = tsubame_kfc(1)
        machine.install_faults(FaultSchedule([
            DeviceDown(at_call=30, gpu_id=0),
            LinkDown(at_call=55, node=0, network=1),         # soft reroute
            LaneSlow(at_call=80, lane="pcie0.1", factor=2.0),
        ]))
        config = ServiceControllerConfig(
            high_rate=1e5, low_rate=1e4, batch_ceiling=16,
            wait_ceiling_s=2e-4, cooldown_s=5e-6, window=8, min_samples=4,
        )
        service = ScanService(
            topology=machine, max_batch=4, max_wait_s=2e-4,
            serialize_exec=True, controller=adaptive_controller(config),
        )
        workload = bursty_workload(
            TestAdaptiveChaos.REQUESTS, sizes_log2=(12,), base_rate=2e3,
            burst_rate=1e6, burst_every=32, burst_len=24, seed=29,
        )
        stats = replay(service, workload)
        return machine, service, stats

    def test_converges_and_never_deadlocks_admission(self):
        machine, service, stats = self._storm()
        # Every fault actually fired mid-storm.
        assert machine.fault_schedule.pending == 0
        assert machine.gpus[0].offline
        # Terminal convergence: nothing stuck in a queue, nothing lost.
        assert service.depth == 0
        assert stats["served"] + stats["failed"] == self.REQUESTS
        assert stats["rejected"] == 0
        assert stats["verified"] == stats["served"]
        # The storm exercised the controller, and the knobs respected
        # their bounds throughout recovery.
        decisions = service.controller.decision_log()
        assert any(d["action"] == "scale_up" for d in decisions)
        assert 4 <= service.max_batch <= 16
        assert service.max_wait_s == pytest.approx(2e-4)

    def test_storm_replays_bit_identically(self):
        _, first_service, first_stats = self._storm()
        _, second_service, second_stats = self._storm()
        assert first_service.controller.decision_log() == \
            second_service.controller.decision_log()
        assert first_stats["latency"] == second_stats["latency"]
        assert first_stats["batch_size"] == second_stats["batch_size"]
