"""Feedback controllers: decision functions, determinism, A/B harness.

Three layers:

- unit tests for each controller's *pure decision function* — hysteresis
  edges (the dead band between the watermarks), step bounds (ceiling and
  baseline floor), cooldown, rate-estimator edge cases;
- integration tests driving controllers through a real
  :class:`~repro.serve.service.ScanService` on the simulated clock —
  burst traffic grows the knobs and calm traffic walks them home,
  health degradation re-tunes and recovery restores the cached plan,
  in-place repricing triggers a recalibration reset;
- a hypothesis property: same workload + seed implies a bit-identical
  decision log *and* bit-identical ticket latencies across two replays —
  the tentpole's determinism contract, randomised over workload shapes.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.control import (
    CalibrationController,
    CalibrationControllerConfig,
    ControllerGroup,
    ServiceController,
    ServiceControllerConfig,
    TuneController,
    adaptive_controller,
    run_ab,
)
from repro.control.ab import DEFAULT_AB_PARAMS
from repro.core.autotune_cache import cost_fingerprint
from repro.core.session import ScanSession
from repro.gpusim.faults import DeviceDown, FaultSchedule
from repro.interconnect.topology import tsubame_kfc
from repro.serve.replay import bursty_workload, poisson_workload, replay

CONFIG = ServiceControllerConfig(
    high_rate=1e5, low_rate=1e4, batch_step=2, wait_step=2.0,
    batch_ceiling=32, wait_ceiling_s=8e-4, cooldown_s=1e-5,
    window=8, min_samples=4,
)


def decide(now_s=1.0, rate=0.0, burn=0.0, max_batch=4, max_wait_s=1e-4,
           baseline_batch=4, baseline_wait_s=1e-4,
           last_decision_s=-math.inf, config=CONFIG):
    return ServiceController.decide(
        now_s, rate, burn, max_batch, max_wait_s,
        baseline_batch, baseline_wait_s, last_decision_s, config,
    )


class TestServiceDecide:
    """The batching controller's pure decision function."""

    def test_scale_up_above_high_watermark(self):
        assert decide(rate=CONFIG.high_rate) == ("scale_up", 8, 2e-4)

    def test_scale_down_below_low_watermark(self):
        assert decide(rate=CONFIG.low_rate, max_batch=16, max_wait_s=4e-4) \
            == ("scale_down", 8, 2e-4)

    def test_dead_band_holds(self):
        # Hysteresis: between the watermarks nothing moves, in either
        # direction — this is what stops the knobs chattering.
        mid = (CONFIG.low_rate + CONFIG.high_rate) / 2
        assert decide(rate=mid) is None
        assert decide(rate=mid, max_batch=16, max_wait_s=4e-4) is None

    def test_watermark_edges(self):
        # The comparisons are inclusive at high_rate and low_rate.
        assert decide(rate=CONFIG.high_rate)[0] == "scale_up"
        assert decide(rate=math.nextafter(CONFIG.high_rate, 0.0)) is None
        assert decide(rate=CONFIG.low_rate, max_batch=8)[0] == "scale_down"
        assert decide(rate=math.nextafter(CONFIG.low_rate, math.inf),
                      max_batch=8) is None

    def test_burn_accelerates_scale_up_inside_dead_band(self):
        mid = (CONFIG.low_rate + CONFIG.high_rate) / 2
        verdict = decide(rate=mid, burn=CONFIG.burn_hot)
        assert verdict is not None and verdict[0] == "scale_up"
        # ...but not below the low watermark: burn on idle traffic is
        # history, not pressure.
        assert decide(rate=CONFIG.low_rate, burn=CONFIG.burn_hot) is None

    def test_step_bounds_ceiling(self):
        action, batch, wait = decide(rate=math.inf, max_batch=24,
                                     max_wait_s=6e-4)
        assert action == "scale_up"
        assert batch == CONFIG.batch_ceiling
        assert wait == CONFIG.wait_ceiling_s

    def test_at_ceiling_returns_none(self):
        assert decide(rate=math.inf, max_batch=CONFIG.batch_ceiling,
                      max_wait_s=CONFIG.wait_ceiling_s) is None

    def test_step_bounds_baseline_floor(self):
        action, batch, wait = decide(rate=0.0, max_batch=6, max_wait_s=1.5e-4)
        assert action == "scale_down"
        assert batch == 4 and wait == 1e-4  # never below the baseline

    def test_at_baseline_returns_none(self):
        assert decide(rate=0.0) is None

    def test_cooldown_blocks_both_directions(self):
        last = 1.0 - CONFIG.cooldown_s / 2
        assert decide(rate=math.inf, last_decision_s=last) is None
        assert decide(rate=0.0, max_batch=8, last_decision_s=last) is None
        # Once the cooldown has elapsed the decision goes through again.
        assert decide(rate=math.inf,
                      last_decision_s=1.0 - 2 * CONFIG.cooldown_s) is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceControllerConfig(high_rate=1e4, low_rate=1e4)
        with pytest.raises(ValueError):
            ServiceControllerConfig(batch_step=1)
        with pytest.raises(ValueError):
            ServiceControllerConfig(min_samples=1)


class TestObservedRate:
    def test_quiet_below_min_samples(self):
        ctrl = ServiceController(CONFIG)
        for t in (0.0, 1e-5, 2e-5):
            ctrl._arrivals.append(t)
        assert ctrl.observed_rate() == 0.0

    def test_pure_burst_is_infinite(self):
        ctrl = ServiceController(CONFIG)
        for _ in range(CONFIG.min_samples):
            ctrl._arrivals.append(0.5)
        assert ctrl.observed_rate() == math.inf

    def test_window_rate(self):
        ctrl = ServiceController(CONFIG)
        for i in range(4):
            ctrl._arrivals.append(i * 1e-3)
        assert ctrl.observed_rate() == pytest.approx(1e3)


def _service(topology=None, controller=None, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_s", 1e-4)
    session = ScanSession(topology or tsubame_kfc(1))
    return session.service(controller=controller, **kwargs)


def _feed(service, requests, rate, seed=3, n_log2=12):
    workload = poisson_workload(requests, sizes_log2=(n_log2,), rate=rate,
                                seed=seed)
    # The serving clock is monotonic: repeated feeds on one service must
    # schedule their arrivals after everything already served.
    offset = service.clock.now
    if offset > 0.0:
        workload = [dataclasses.replace(r, at_s=r.at_s + offset)
                    for r in workload]
    return replay(service, workload)


class TestServiceControllerIntegration:
    def test_burst_grows_knobs_then_calm_restores_baseline(self):
        # One schedule, burst first then a long calm tail (the service
        # clock is monotonic, so phases must share one workload).
        ctrl = ServiceController(CONFIG)
        service = _service(controller=ctrl)
        workload = bursty_workload(64, base_rate=2e3, burst_rate=1e6,
                                   burst_every=64, burst_len=16, seed=3)
        stats = replay(service, workload)
        assert stats["verified"] == 64
        ups = [d for d in ctrl.decisions if d.action == "scale_up"]
        assert ups and ups[0].before == {"max_batch": 4, "max_wait_s": 1e-4}
        assert max(d.after["max_batch"] for d in ups) > 4
        # The calm tail walked everything back down to the static floor.
        assert any(d.action == "scale_down" for d in ctrl.decisions)
        assert service.max_batch == 4
        assert service.max_wait_s == 1e-4

    def test_steady_traffic_never_departs_baseline(self):
        ctrl = ServiceController(CONFIG)
        service = _service(controller=ctrl)
        stats = _feed(service, 64, rate=2e3)
        assert stats["verified"] == 64
        assert ctrl.decisions == []
        assert service.max_batch == 4 and service.max_wait_s == 1e-4

    def test_decisions_surface_in_stats(self):
        ctrl = ServiceController(CONFIG)
        service = _service(controller=ctrl)
        _feed(service, 32, rate=1e6)
        snap = service.stats()["control"]
        assert snap["name"] == "service"
        assert snap["decisions"] == len(ctrl.decisions) > 0


class TestControllerGroup:
    def test_children_share_one_interleaved_log(self):
        a, b = ServiceController(CONFIG), TuneController()
        group = ControllerGroup([a, b])
        assert a.decisions is group.decisions
        assert b.decisions is group.decisions
        a.record(0.0, "x", "r", {}, {})
        b.record(1.0, "y", "r", {}, {})
        assert [d.action for d in group.decisions] == ["x", "y"]
        snap = group.snapshot()
        assert snap["decisions"] == 2
        assert [c["name"] for c in snap["controllers"]] == ["service", "tune"]


class TestTuneController:
    def test_degrade_retunes_and_recovery_restores_cached_plan(self):
        # rate=0 feeds: every request at one instant, so batches flush by
        # size into one uniform warmed shape (no deadline-flush shapes
        # that would need a fresh sweep right as the fault fires). The
        # health state is created up front so installing the fault
        # schedule later does not itself shift the cost fingerprint.
        topology = tsubame_kfc(1)
        topology.ensure_health()
        ctrl = TuneController()
        service = _service(topology=topology, controller=ctrl)
        _feed(service, 8, rate=0)             # warm: hot keys + tuner cache
        healthy_fingerprint = cost_fingerprint(topology)
        assert ctrl._hot                      # shapes remembered

        # Degrade: device loss mid-batch -> failover -> health epoch bump
        # -> the batch boundary re-tunes under the degraded fingerprint.
        topology.install_faults(FaultSchedule([DeviceDown(at_call=1,
                                                          gpu_id=0)]))
        _feed(service, 8, rate=0, seed=7)
        retunes = [d for d in ctrl.decisions if d.action == "retune"]
        assert retunes, [d.action for d in ctrl.decisions]
        assert cost_fingerprint(topology) != healthy_fingerprint

        # Recover: the fingerprint reverts to the known healthy value;
        # the controller bumps the epoch once ("restore") and the
        # rebuilt entries come from the warm tuner cache — zero sweeps.
        topology.clear_faults()
        topology.ensure_health()  # same empty snapshot as the warm phase
        epoch_before = service.session.health.epoch
        sweeps_before = service.session.tuner.cache.misses
        _feed(service, 8, rate=0, seed=9)
        restores = [d for d in ctrl.decisions if d.action == "restore"]
        assert restores, [d.action for d in ctrl.decisions]
        assert service.session.health.epoch > epoch_before
        assert service.session.tuner.cache.misses == sweeps_before
        assert restores[0].after["fingerprint"] == healthy_fingerprint

    def test_healthy_machine_never_decides(self):
        ctrl = TuneController()
        service = _service(controller=ctrl)
        _feed(service, 16, rate=0)
        assert ctrl.decisions == []

    def test_multi_gpu_service_retunes_k_on_its_placement(self):
        """An ``mps`` service with ``K="tune"`` re-tunes K for the node its
        batches resolve to: after a degrade, the next batch of a warmed
        shape finds its K in the tuner cache instead of sweeping inline."""
        topology = tsubame_kfc(1)
        ctrl = TuneController()
        session = ScanSession(topology)
        service = session.service(proposal="mps", W=4, V=4, K="tune",
                                  max_batch=2, controller=ctrl)
        rng = np.random.default_rng(0)

        def serve(n):
            for _ in range(2):
                service.submit(rng.integers(0, 100, n).astype(np.int32))

        serve(1 << 14)
        serve(1 << 13)
        fingerprint = cost_fingerprint(topology)
        topology.mark_offline(6)  # outside the placement (GPUs 0-3)
        session.health.epoch += 1
        assert cost_fingerprint(topology) != fingerprint
        serve(1 << 14)  # its batch boundary re-tunes the hot shapes
        assert [d.action for d in ctrl.decisions] == ["retune"]
        assert len(ctrl.decisions[0].after["warmed"]) == 2
        misses = session.tuner.cache.misses
        serve(1 << 13)
        assert session.tuner.cache.misses == misses
        assert service.stats()["served"] == 8

    @pytest.mark.parametrize("proposal", ["sp", "sp-dlb"])
    def test_explicit_single_gpu_service_skips_the_variant_sweep(
        self, monkeypatch, proposal
    ):
        """A service pinned to ``sp`` or ``sp-dlb`` never reads the
        single-GPU variant choice, so its re-tune sweeps nothing."""
        topology = tsubame_kfc(1)
        ctrl = TuneController()
        session = ScanSession(topology)
        service = session.service(proposal=proposal, max_batch=2,
                                  controller=ctrl)
        rng = np.random.default_rng(0)

        def serve():
            for _ in range(2):
                service.submit(rng.integers(0, 100, 1 << 12).astype(np.int32))

        serve()
        variants = []
        real = session.tuner.best_single_gpu_variant
        monkeypatch.setattr(
            session.tuner, "best_single_gpu_variant",
            lambda problem: variants.append(problem) or real(problem),
        )
        misses = session.tuner.cache.misses
        topology.mark_offline(6)
        session.health.epoch += 1
        serve()  # its batch boundary re-tunes the hot shape
        assert [d.action for d in ctrl.decisions] == ["retune"]
        assert variants == []
        assert session.tuner.cache.misses == misses
        assert service.stats()["served"] == 4

    @staticmethod
    def _retune_under(faults):
        """Warm a 2^12 float32 shape, arm ``faults`` (GPU 0 lost at the
        next batch, so the batch boundary re-tunes), then submit a 2^13
        batch; returns the service, its last ticket and the controller."""
        session = ScanSession(tsubame_kfc(1))
        ctrl = TuneController()
        service = session.service(max_batch=4, controller=ctrl)
        rng = np.random.default_rng(0)
        for _ in range(4):
            service.submit(rng.random(1 << 12).astype(np.float32))
        session.topology.install_faults(
            FaultSchedule([DeviceDown(at_call=1, gpu_id=0)] + faults))
        tickets = [service.submit(rng.random(1 << 13).astype(np.float32))
                   for _ in range(4)]
        return service, tickets[-1], ctrl

    def test_device_loss_inside_the_retune_is_logged_and_quarantined(self):
        """The re-tune's estimates tick the schedule: a device lost there
        is a decision, not an error escaping ``submit``."""
        service, ticket, ctrl = self._retune_under(
            [DeviceDown(at_call=10, gpu_id=1)])
        assert ticket.status == "done"
        stats = service.stats()
        assert (stats["submitted"], stats["served"]) == (8, 8)
        failed = [d for d in ctrl.decisions if d.action == "retune_failed"]
        assert len(failed) == 1
        assert failed[0].reason.startswith("DeviceLostError")
        health = service.session.health
        assert health.device_losses == 2  # the batch's failover + the retune
        assert {0, 1} <= set(health.snapshot()["offline"])

    def test_losing_every_gpu_inside_the_retune_is_logged(self):
        service, ticket, ctrl = self._retune_under(
            [DeviceDown(at_call=2, gpu_id=g) for g in range(1, 8)])
        assert ticket.status == "failed"
        stats = service.stats()
        assert (stats["submitted"], stats["served"], stats["failed"]) == \
            (8, 4, 4)
        failed = [d for d in ctrl.decisions if d.action == "retune_failed"]
        assert len(failed) == 1
        assert failed[0].reason.startswith("TopologyError")


def _reprice(topology, factor=8.0):
    """Mutate the cost params in place — the documented reset-worthy sin."""
    for gpu in topology.gpus:
        p = gpu.cost_model.params
        gpu.cost_model.params = dataclasses.replace(
            p,
            int_ops_per_sm_per_cycle=p.int_ops_per_sm_per_cycle / factor,
            min_latency_hiding=1.0,
            occupancy_saturation=1e-9,
        )


class TestCalibrationController:
    CONFIG = CalibrationControllerConfig(refit_every=4, min_kernels=4,
                                         tolerance=0.05)

    def test_stable_machine_only_fits_reference(self):
        ctrl = CalibrationController(self.CONFIG)
        service = _service(controller=ctrl)
        _feed(service, 32, rate=0)
        actions = [d.action for d in ctrl.decisions]
        assert actions.count("fit") == 1
        assert "recalibrate" not in actions

    def test_inplace_repricing_triggers_reset(self):
        topology = tsubame_kfc(1)
        ctrl = CalibrationController(self.CONFIG)
        service = _service(topology=topology, controller=ctrl)
        session = service.session
        _feed(service, 16, rate=0)
        assert [d.action for d in ctrl.decisions] == ["fit"]
        reference = dict(ctrl.reference)

        _reprice(topology)
        resets_before = session.tuner.cache.misses
        _feed(service, 16, rate=0, seed=11)
        recals = [d for d in ctrl.decisions if d.action == "recalibrate"]
        assert len(recals) == 1, [d.action for d in ctrl.decisions]
        # The reset rebased the whole reference baseline: only the
        # drifted shape remains, re-referenced under the new pricing.
        assert set(ctrl.reference) == {recals[0].after["shape"]}
        assert ctrl.reference != reference
        assert recals[0].after["fingerprint"]
        # The refit window fills at this feed's final batch, so the
        # session.reset() it triggered is the last thing that happened:
        # the plan-cache counters sit freshly zeroed.
        assert session.hits + session.misses == 0
        assert session.cached_configurations == 0
        assert session.tuner.cache.misses >= resets_before

    def test_short_window_is_not_fit_worthy(self):
        ctrl = CalibrationController(CalibrationControllerConfig(
            refit_every=1, min_kernels=100, tolerance=0.05))
        service = _service(controller=ctrl)
        _feed(service, 8, rate=0)
        assert ctrl.decisions == []


class TestDeterminismProperty:
    """Same workload + seed => bit-identical decisions and latencies."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        requests=st.integers(min_value=12, max_value=40),
        burst_rate=st.sampled_from([2e5, 1e6, 5e6]),
        burst_len=st.integers(min_value=4, max_value=12),
    )
    @settings(max_examples=8, deadline=None)
    def test_two_replays_are_bit_identical(self, seed, requests, burst_rate,
                                           burst_len):
        def run():
            service = _service(controller=adaptive_controller(CONFIG))
            workload = bursty_workload(
                requests, base_rate=2e3, burst_rate=burst_rate,
                burst_every=burst_len * 2, burst_len=burst_len, seed=seed,
            )
            stats = replay(service, workload)
            return (
                service.controller.decision_log(),
                stats["latency"],
                stats["batch_size"],
                stats["total_exec_s"],
                [float(b.sim_time_s) for b in service.batches],
            )

        assert run() == run()


class TestABHarness:
    def test_default_ab_meets_acceptance_bars(self):
        report = run_ab(DEFAULT_AB_PARAMS, repeats=2)
        assert report["deterministic"]
        assert report["bursty"]["p99_improvement"] >= 1.3
        assert report["steady"]["p99_ratio"] <= 1.05
        # The steady adaptive arm reproduces static *exactly*: the
        # baseline floor means no knob ever moved.
        steady = report["steady"]
        assert steady["adaptive"]["batch_sim_times"] == \
            steady["static"]["batch_sim_times"]
