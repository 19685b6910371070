"""Deterministic feedback controllers: observability closed back to policy.

Every layer below this one is *statically* configured — batch knobs fixed
at service construction, K tuned once per fingerprint, cost-model
constants frozen at calibration time. This module closes the loop: small
controllers ride on the service's simulated clock, read the same metrics
the operator would (``serve.*`` histograms, SLO burn rates, health
epochs, batch traces) and feed adjustments back into the policy knobs.

The design constraint is **determinism**. A control decision is a pure
function of ``(simulated clock, metrics snapshot, config)``: controllers
never read wall clocks, never sample randomness, and only act on the
service's own outcome stream, which they subscribe to (request
admission, batch scatter, batch failure). Replaying the same workload
against the same configuration therefore reproduces the same decision
log bit-for-bit — which is exactly what `tests/test_control.py` and the
``adaptive`` bench-drift suite pin.

Three controllers, one shared decision-log contract:

- :class:`ServiceController` — latency-vs-throughput targeting. Watches
  the observed arrival rate (and the SLO burn rate when the service has
  a monitor) and walks ``max_batch``/``max_wait_s`` up under pressure
  and back down toward the static baseline when traffic relaxes, with
  hysteresis (distinct up/down watermarks), bounded multiplicative
  steps and a cooldown between decisions.
- :class:`TuneController` — re-tunes when the machine degrades. A
  health-epoch bump (device loss, link death) re-runs the K sweep /
  single-GPU-variant choice for the hot request shapes under the *new*
  cost fingerprint, at a controlled instant instead of on the next
  unlucky request; when the fingerprint reverts to a previously seen
  healthy value (recovery), the cached plans are restored by bumping
  the health epoch so stale degraded entries rebuild from the warm
  tuner cache.
- :class:`CalibrationController` — re-fits cost-model constants from
  the measured batch traces (:func:`repro.bench.calibration
  .fit_cost_constants`) on a rolling window and, when the fitted
  constants drift from the reference fit beyond tolerance, invalidates
  the stale plans (``session.reset()``) so everything re-prices under
  the current cost fingerprint.

Use :func:`adaptive_controller` for the standard stack of all three, and
pass it to ``ScanService(controller=...)`` (or ``ClusterRouter(
controller_factory=...)`` for one per replica).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.obs import flight

__all__ = [
    "ControlDecision",
    "Controller",
    "ControllerGroup",
    "ServiceControllerConfig",
    "ServiceController",
    "TuneControllerConfig",
    "TuneController",
    "CalibrationControllerConfig",
    "CalibrationController",
    "adaptive_controller",
]


@dataclass(frozen=True)
class ControlDecision:
    """One applied control action, fully replayable.

    ``at_s`` is the simulated instant the decision was taken; ``before``
    and ``after`` are JSON-friendly snapshots of the knobs it moved.
    Decisions are only recorded when something actually changed — the
    log is the sequence of *actions*, not of evaluations.
    """

    at_s: float
    controller: str
    action: str
    reason: str
    before: dict
    after: dict

    def to_dict(self) -> dict:
        return {
            "at_s": self.at_s,
            "controller": self.controller,
            "action": self.action,
            "reason": self.reason,
            "before": dict(self.before),
            "after": dict(self.after),
        }

    def format(self) -> str:
        return (f"[control] t={self.at_s * 1e3:.3f}ms {self.controller}: "
                f"{self.action} ({self.reason}) {self.before} -> {self.after}")


class Controller:
    """Base controller: hook surface + shared decision log.

    A controller subscribes to its service's outcome stream, after the
    stats record, the SLO monitor and the obs mirror, so each hook reads
    metrics that already hold the outcome it is called for. The hooks
    take a subscriber's arguments: :meth:`on_submit` after each admitted
    request, :meth:`on_batch` after each scattered batch and
    :meth:`on_fail` after a batch fails terminally — all at
    deterministic simulated instants. Subclasses override the hooks they
    care about and record actions through :meth:`record`.
    """

    name = "controller"

    def __init__(self) -> None:
        #: The decision log. A :class:`ControllerGroup` rebinds this to
        #: its shared list so composed controllers interleave in hook
        #: order, which keeps one replayable sequence per service.
        self.decisions: list[ControlDecision] = []

    # -- hook surface (all no-ops by default) ---------------------------

    def bind(self, service) -> None:
        """Called once when the service adopts this controller."""

    def on_submit(self, service, ticket) -> None:
        """After ``ticket`` was admitted (service clock at arrival)."""

    def on_batch(self, service, report, tickets) -> None:
        """After one batch scattered ``tickets`` successfully."""

    def on_fail(self, service, pairs, exc) -> None:
        """After ``(ticket, data)`` rows failed terminally (post-bisection)."""

    # -- decision log ----------------------------------------------------

    def record(self, at_s: float, action: str, reason: str,
               before: dict, after: dict) -> ControlDecision:
        decision = ControlDecision(
            at_s=at_s, controller=self.name, action=action, reason=reason,
            before=before, after=after,
        )
        self.decisions.append(decision)
        if flight.is_armed():
            flight.note("control", at_s=at_s, controller=self.name,
                        action=action, reason=reason,
                        before=dict(before), after=dict(after))
        return decision

    def decision_log(self) -> list[dict]:
        """The decision log as JSON-friendly dicts (replay-comparable)."""
        return [d.to_dict() for d in self.decisions]

    def snapshot(self) -> dict:
        """Introspection summary for ``service.stats()``/bundles."""
        return {"name": self.name, "decisions": len(self.decisions)}


class ControllerGroup(Controller):
    """Compose controllers behind one hook surface and one decision log.

    Children append into the group's shared log, so the combined
    sequence is ordered exactly by hook invocation — deterministic, and
    directly comparable across replays.
    """

    name = "group"

    def __init__(self, controllers) -> None:
        super().__init__()
        self.controllers = list(controllers)
        for c in self.controllers:
            c.decisions = self.decisions

    def bind(self, service) -> None:
        for c in self.controllers:
            c.bind(service)

    def on_submit(self, service, ticket) -> None:
        for c in self.controllers:
            c.on_submit(service, ticket)

    def on_batch(self, service, report, tickets) -> None:
        for c in self.controllers:
            c.on_batch(service, report, tickets)

    def on_fail(self, service, pairs, exc) -> None:
        for c in self.controllers:
            c.on_fail(service, pairs, exc)

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "decisions": len(self.decisions),
            "controllers": [c.snapshot() for c in self.controllers],
        }


# --------------------------------------------------------------- service


@dataclass(frozen=True)
class ServiceControllerConfig:
    """Knobs of the batching controller.

    Hysteresis: the controller scales *up* only above ``high_rate`` and
    back *down* only below ``low_rate`` (requests per simulated second);
    the dead band between them absorbs noise so the knobs do not chatter.
    Steps are multiplicative and bounded: ``max_batch`` never exceeds
    ``batch_ceiling`` nor drops below the service's own static baseline,
    ``max_wait_s`` likewise between the baseline and ``wait_ceiling_s``.
    ``cooldown_s`` is the minimum simulated time between two decisions.
    ``burn_hot`` lets SLO pressure accelerate a scale-up while the rate
    sits inside the dead band (the monitor's short-window latency burn).
    """

    high_rate: float = 5e4
    low_rate: float = 1e4
    batch_step: int = 2
    wait_step: float = 2.0
    batch_ceiling: int = 64
    wait_ceiling_s: float = 4e-3
    cooldown_s: float = 2e-4
    window: int = 16
    min_samples: int = 8
    burn_hot: float = 10.0

    def __post_init__(self) -> None:
        if self.low_rate >= self.high_rate:
            raise ValueError("hysteresis needs low_rate < high_rate")
        if self.batch_step < 2:
            raise ValueError("batch_step must be >= 2")
        if self.min_samples < 2:
            raise ValueError("min_samples must be >= 2 (rate needs a span)")


class ServiceController(Controller):
    """Adapt ``max_batch``/``max_wait_s`` to the observed arrival rate.

    Latency-vs-throughput targeting: a burst (rate above the high
    watermark, or SLO burn while the rate is above the low watermark)
    grows the coalescing window so batches amortise; calm traffic
    (rate below the low watermark) walks the knobs back toward the
    static baseline — never below it, so steady workloads serve exactly
    as the static configuration would.
    """

    name = "service"

    def __init__(self, config: ServiceControllerConfig | None = None) -> None:
        super().__init__()
        self.config = config or ServiceControllerConfig()
        self._arrivals: deque[float] = deque(maxlen=self.config.window)
        self._last_decision_s = -math.inf
        self._baseline_batch: int | None = None
        self._baseline_wait_s: float | None = None

    def bind(self, service) -> None:
        # The static configuration is the floor the controller relaxes
        # back to; bind-time capture makes it the service's own knobs.
        if self._baseline_batch is None:
            self._baseline_batch = service.max_batch
            self._baseline_wait_s = service.max_wait_s

    # -- pure decision function -----------------------------------------

    @staticmethod
    def decide(now_s: float, rate: float, burn: float,
               max_batch: int, max_wait_s: float,
               baseline_batch: int, baseline_wait_s: float,
               last_decision_s: float,
               config: ServiceControllerConfig) -> tuple[str, int, float] | None:
        """The decision proper: pure in all of its inputs.

        Returns ``(action, new_max_batch, new_max_wait_s)`` or ``None``
        when nothing should change (cooldown active, rate inside the
        dead band, or knobs already at their bound).
        """
        if now_s - last_decision_s < config.cooldown_s:
            return None
        pressured = rate >= config.high_rate or (
            rate > config.low_rate and burn >= config.burn_hot
        )
        if pressured:
            batch = min(max_batch * config.batch_step, config.batch_ceiling)
            wait = min(max_wait_s * config.wait_step, config.wait_ceiling_s)
            if batch == max_batch and wait == max_wait_s:
                return None
            return ("scale_up", batch, wait)
        if rate <= config.low_rate:
            batch = max(max_batch // config.batch_step, baseline_batch)
            wait = max(max_wait_s / config.wait_step, baseline_wait_s)
            if batch == max_batch and wait == max_wait_s:
                return None
            return ("scale_down", batch, wait)
        return None

    # -- metric extraction ----------------------------------------------

    def observed_rate(self) -> float:
        """Arrival rate over the recent window (simulated seconds).

        ``inf`` when the whole window arrived at one instant (a pure
        burst), ``0.0`` until :attr:`ServiceControllerConfig.min_samples`
        arrivals have been seen — the controller does not act on noise.
        """
        if len(self._arrivals) < self.config.min_samples:
            return 0.0
        span = self._arrivals[-1] - self._arrivals[0]
        if span <= 0.0:
            return math.inf
        return (len(self._arrivals) - 1) / span

    # -- hook -----------------------------------------------------------

    def on_submit(self, service, ticket) -> None:
        now = service.clock.now
        self._arrivals.append(now)
        rate = self.observed_rate()
        burn = service.slo.latency_burn() if service.slo is not None else 0.0
        verdict = self.decide(
            now, rate, burn, service.max_batch, service.max_wait_s,
            self._baseline_batch, self._baseline_wait_s,
            self._last_decision_s, self.config,
        )
        if verdict is None:
            return
        action, batch, wait = verdict
        before = {"max_batch": service.max_batch,
                  "max_wait_s": service.max_wait_s}
        service.max_batch = batch
        service.max_wait_s = wait
        self._last_decision_s = now
        self.record(
            now, action,
            f"rate={rate:.3g}/s burn={burn:.3g}x",
            before, {"max_batch": batch, "max_wait_s": wait},
        )

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "decisions": len(self.decisions),
            "rate": self.observed_rate(),
            "baseline": {"max_batch": self._baseline_batch,
                         "max_wait_s": self._baseline_wait_s},
        }


# ------------------------------------------------------------------ tune


@dataclass(frozen=True)
class TuneControllerConfig:
    """Knobs of the degrade/recover re-tuner."""

    #: How many distinct hot request shapes to re-tune on a degrade.
    max_warm_keys: int = 4


class TuneController(Controller):
    """Re-tune K / the sp-variant on degrade; restore plans on recovery.

    A health-epoch bump means the machine lost a resource and every
    cached plan is stale. Rather than letting the next unlucky request
    pay the re-tune inline, this controller proactively re-resolves the
    hottest request shapes under the new cost fingerprint at the batch
    boundary where the degrade surfaced. When the fingerprint later
    reverts to a previously seen value (the machine recovered — e.g.
    ``clear_faults()``), it bumps the health epoch once so the degraded
    entries lazily rebuild from the still-cached healthy tuner entries:
    the cached plan is restored with zero fresh sweeps.
    """

    name = "tune"

    def __init__(self, config: TuneControllerConfig | None = None) -> None:
        super().__init__()
        self.config = config or TuneControllerConfig()
        self._epoch: int | None = None
        self._fingerprint: str | None = None
        self._seen_fingerprints: set[str] = set()
        #: Hot request shapes in most-recent-last order: key -> padded G.
        self._hot: dict = {}

    def bind(self, service) -> None:
        from repro.core.autotune_cache import cost_fingerprint

        self._epoch = service.session.health.epoch
        self._fingerprint = cost_fingerprint(service.session.topology)
        self._seen_fingerprints.add(self._fingerprint)

    def _remember(self, key, g: int) -> None:
        self._hot.pop(key, None)
        self._hot[key] = g
        while len(self._hot) > self.config.max_warm_keys:
            self._hot.pop(next(iter(self._hot)))

    def _retune(self, service, at_s: float) -> None:
        """Re-resolve the hot shapes under the current fingerprint.

        The tuner's estimates tick the fault schedule like any launch, so
        a fault can fire here, after the batch that triggered the re-tune
        has settled. A failed re-tune stops warming and never propagates:
        it is logged as a ``retune_failed`` decision, and a retryable
        fault is quarantined by the session's health tracker (its epoch
        bump re-tunes at the next batch boundary).
        """
        import numpy as np

        from repro.core.executor import get_proposal
        from repro.core.health import HealthTracker
        from repro.core.params import ProblemConfig
        from repro.errors import ReproError

        session = service.session
        misses_before = session.tuner.cache.misses
        warmed = []
        for key, g in reversed(list(self._hot.items())):
            problem = ProblemConfig.from_sizes(
                N=key.n, G=g, dtype=np.dtype(key.dtype),
                operator=key.operator, inclusive=key.inclusive,
            )
            try:
                # An ``auto`` service on one GPU (the default) routes
                # through the memoised single-GPU variant choice; warming
                # it re-runs the sp vs sp-dlb crossover against the
                # degraded machine. An explicit proposal never reads it.
                if service.W == 1 and service.proposal == "auto":
                    session.tuner.best_single_gpu_variant(problem)
                # K is warmed for the proposal and placement the key's next
                # batch resolves, through the session's own resolution.
                if service.K == "tune":
                    node, proposal = session._resolve(
                        problem, service.proposal, service.W, service.V,
                        service.M, service.K,
                    )
                    if get_proposal(proposal).tunable:
                        session._tuned_k(problem, proposal, node)
            except ReproError as exc:
                if isinstance(exc, HealthTracker.RETRYABLE):
                    session.health.record_failure(exc)
                self.record(
                    at_s, "retune_failed",
                    f"{type(exc).__name__} while warming {key}: {exc}",
                    {"epoch": self._epoch, "fingerprint": self._fingerprint},
                    {"epoch": session.health.epoch, "warmed": warmed},
                )
                return
            warmed.append(str(key))
        self.record(
            at_s, "retune",
            f"health epoch {self._epoch} -> {session.health.epoch}; "
            f"{session.tuner.cache.misses - misses_before} fresh sweeps",
            {"epoch": self._epoch, "fingerprint": self._fingerprint},
            {"epoch": session.health.epoch, "warmed": warmed},
        )

    def _check(self, service, at_s: float) -> None:
        from repro.core.autotune_cache import cost_fingerprint

        session = service.session
        epoch = session.health.epoch
        fingerprint = cost_fingerprint(session.topology)
        if epoch != self._epoch:
            self._retune(service, at_s)
            self._epoch = epoch
        elif (fingerprint != self._fingerprint
              and fingerprint in self._seen_fingerprints):
            # Recovery: the machine is back to a shape we have warm
            # plans for. One epoch bump lazily invalidates the degraded
            # entries; their rebuilds hit the cached tuner entries under
            # the restored fingerprint (zero sweeps).
            session.health.epoch += 1
            self._epoch = session.health.epoch
            self.record(
                at_s, "restore",
                "cost fingerprint reverted to a known healthy value",
                {"fingerprint": self._fingerprint},
                {"fingerprint": fingerprint, "epoch": session.health.epoch},
            )
        self._fingerprint = fingerprint
        self._seen_fingerprints.add(fingerprint)

    def on_batch(self, service, report, tickets) -> None:
        self._remember(report.key, report.g)
        self._check(service, service.clock.now)

    def on_fail(self, service, pairs, exc) -> None:
        self._check(service, service.clock.now)

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "decisions": len(self.decisions),
            "epoch": self._epoch,
            "fingerprint": self._fingerprint,
            "hot_keys": [str(k) for k in self._hot],
        }


# ----------------------------------------------------------- calibration


@dataclass(frozen=True)
class CalibrationControllerConfig:
    """Knobs of the cost-constant re-fitter."""

    #: Batches per re-fit window.
    refit_every: int = 8
    #: Minimum kernel records a window needs to be fit-worthy.
    min_kernels: int = 8
    #: Relative drift of the fitted constants that triggers invalidation.
    tolerance: float = 0.05


class CalibrationController(Controller):
    """Re-fit cost-model constants from measured traces; evict on drift.

    Rolls batch traces into :func:`repro.bench.calibration
    .fit_cost_constants` and compares each fit against a reference fit
    of the *same batch shape* — achieved bandwidth depends on how well
    a batch amortises fixed overheads, so only identical work is
    comparable across time. For a fixed shape the simulated traces are
    generated *by* the cost model, so a drift can only mean the
    machine's pricing changed underneath the cached plans (cost params
    swapped in place, bandwidth repriced) — exactly the "requires
    :meth:`~repro.core.session.ScanSession.reset`" case the session
    docstring warns about. The controller performs that reset and
    records the old/new cost fingerprints, so the plan/autotune caches
    re-key under the current constants.
    """

    name = "calibration"

    def __init__(self,
                 config: CalibrationControllerConfig | None = None) -> None:
        super().__init__()
        self.config = config or CalibrationControllerConfig()
        #: Rolling trace window and fill counter per batch shape.
        self._traces: dict[str, deque] = {}
        self._since_fit: dict[str, int] = {}
        #: Reference fit per batch shape (set at that shape's first
        #: full window, rebased wholesale on a recalibration).
        self.reference: dict[str, dict] = {}

    def on_batch(self, service, report, tickets) -> None:
        if report.result is None:
            return
        shape = f"{report.key}|G={report.g}"
        window = self._traces.setdefault(
            shape, deque(maxlen=self.config.refit_every))
        window.append(report.result.trace)
        self._since_fit[shape] = self._since_fit.get(shape, 0) + 1
        if self._since_fit[shape] < self.config.refit_every:
            return
        self._refit(service, shape, service.clock.now)

    def _refit(self, service, shape: str, at_s: float) -> None:
        from repro.bench.calibration import calibration_drift, fit_cost_constants
        from repro.core.autotune_cache import cost_fingerprint

        fitted = fit_cost_constants(self._traces[shape])
        self._since_fit[shape] = 0
        if fitted["kernels"] < self.config.min_kernels:
            return
        reference = self.reference.get(shape)
        if reference is None:
            first = not self.reference
            self.reference[shape] = fitted
            if first:
                # Log the first reference only; later shapes join the
                # baseline silently so the log stays a log of *actions*.
                self.record(
                    at_s, "fit",
                    f"reference fit over {fitted['kernels']} kernels",
                    {}, {**fitted, "shape": shape},
                )
            return
        drift = calibration_drift(reference, fitted)
        if drift <= self.config.tolerance:
            return
        session = service.session
        old_fingerprint = cost_fingerprint(session.topology)
        session.reset()
        self.record(
            at_s, "recalibrate",
            f"constants drifted {drift:.3f} (> {self.config.tolerance:g}); "
            "stale plans evicted",
            reference, {**fitted, "shape": shape,
                        "fingerprint": old_fingerprint},
        )
        # The machine was repriced once, for every shape: rebase the
        # whole baseline so the other shapes re-reference under the new
        # pricing instead of each re-triggering the same reset.
        self.reference = {shape: fitted}

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "decisions": len(self.decisions),
            "reference": self.reference,
        }


# ----------------------------------------------------------------- stack


def adaptive_controller(
    service_config: ServiceControllerConfig | None = None,
    tune_config: TuneControllerConfig | None = None,
    calibration_config: CalibrationControllerConfig | None = None,
) -> ControllerGroup:
    """The standard adaptive stack: batching + re-tune + re-calibration.

    One :class:`ControllerGroup` holding a :class:`ServiceController`,
    a :class:`TuneController` and a :class:`CalibrationController`, all
    writing one interleaved decision log. This is what ``serve
    --adaptive`` and ``ClusterRouter(controller_factory=...)`` install.
    """
    return ControllerGroup([
        ServiceController(service_config),
        TuneController(tune_config),
        CalibrationController(calibration_config),
    ])
