"""Declarative SLOs with multi-window burn-rate alerting on simulated time.

An :class:`SLOObjective` states a target the serving layer must meet —
"99% of requests finish within 500 simulated microseconds", "99.9% of
requests succeed" — and an :class:`SLOMonitor` evaluates a stream of
request outcomes against it on **rolling simulated-time windows**, so
replays driven by the service's :class:`~repro.serve.service.SimClock`
produce bit-identical alert sequences run after run.

Alerting follows the multi-window burn-rate recipe: the *burn rate* is
the fraction of bad events divided by the objective's error budget
(``1 - target``); a burn rate of 1 spends the budget exactly at the end
of the compliance horizon, a burn rate of 10 spends it ten times faster.
An alert fires only when **both** a short and a long window exceed the
threshold — the long window proves the problem is sustained, the short
window makes the alert reset quickly once the problem clears — and only
on the rising edge, so a sustained violation produces one alert, not one
per request. Alerts go to a pluggable sink (any callable); by default
they accumulate on :attr:`SLOMonitor.alerts`.

A monitor subscribes to a :class:`repro.serve.service.ScanService`'s
outcome stream (its ``on_batch``/``on_fail``/``on_reject`` hooks below):
completed tickets feed latency outcomes at their simulated completion
time, failed and backpressure-rejected requests feed availability
outcomes. Nothing here reads wall clocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "SLOObjective",
    "BurnRateAlert",
    "SLOMonitor",
    "latency_objective",
    "availability_objective",
    "SLO_CLASSES",
    "slo_class",
]


@dataclass(frozen=True)
class SLOObjective:
    """One declarative service-level objective.

    ``kind="latency"`` judges each request against ``threshold_s``
    (a request is *bad* if it failed or took longer); the target is the
    fraction that must be good — a latency-percentile target stated in
    SLO form ("p99 <= 500us" == "99% of requests within 500us").
    ``kind="availability"`` judges success only.
    """

    name: str
    kind: str  # "latency" | "availability"
    target: float
    threshold_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1) — a budget of zero "
                             "makes every event an infinite burn")
        if self.kind == "latency" and self.threshold_s is None:
            raise ValueError("latency objectives need threshold_s")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def is_bad(self, latency_s: float | None, ok: bool) -> bool:
        if not ok:
            return True
        if self.kind == "latency":
            return latency_s is None or latency_s > self.threshold_s
        return False


def latency_objective(name: str, target: float, threshold_s: float) -> SLOObjective:
    return SLOObjective(name=name, kind="latency", target=target,
                        threshold_s=threshold_s)


def availability_objective(name: str, target: float) -> SLOObjective:
    return SLOObjective(name=name, kind="availability", target=target)


#: Named SLO tiers for multi-tenant serving. Each maps to the
#: (latency target/threshold, availability target) pair a tenant of that
#: class is held to; thresholds are simulated seconds and sized to the
#: serving benchmarks' sub-millisecond batch times.
SLO_CLASSES: dict[str, dict] = {
    "gold": {"latency_target": 0.99, "latency_threshold_s": 500e-6,
             "availability_target": 0.999},
    "standard": {"latency_target": 0.95, "latency_threshold_s": 2e-3,
                 "availability_target": 0.99},
    "batch": {"latency_target": 0.90, "latency_threshold_s": 20e-3,
              "availability_target": 0.95},
}


def slo_class(name: str, prefix: str = "", **monitor_kwargs) -> SLOMonitor:
    """An :class:`SLOMonitor` preconfigured for one named service tier.

    ``name`` is one of :data:`SLO_CLASSES` (``gold``/``standard``/
    ``batch``); ``prefix`` namespaces the objective names (e.g. a tenant
    id) so per-tenant monitors stay distinguishable in snapshots.
    Remaining keyword arguments pass through to :class:`SLOMonitor`
    (windows, threshold, sink).
    """
    try:
        spec = SLO_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown SLO class {name!r}; choose from {sorted(SLO_CLASSES)}"
        ) from None
    tag = f"{prefix}/" if prefix else ""
    return SLOMonitor(
        [
            latency_objective(f"{tag}{name}-latency",
                              spec["latency_target"],
                              spec["latency_threshold_s"]),
            availability_objective(f"{tag}{name}-availability",
                                   spec["availability_target"]),
        ],
        **monitor_kwargs,
    )


@dataclass(frozen=True)
class BurnRateAlert:
    """One rising-edge burn-rate violation."""

    objective: str
    at_s: float
    short_burn: float
    long_burn: float
    short_window_s: float
    long_window_s: float
    threshold: float

    def format(self) -> str:
        return (
            f"[slo] {self.objective}: burn rate "
            f"{self.short_burn:.1f}x/{self.long_burn:.1f}x "
            f"(short {self.short_window_s * 1e3:g}ms / "
            f"long {self.long_window_s * 1e3:g}ms) "
            f">= {self.threshold:g}x at t={self.at_s * 1e3:.3f}ms"
        )


@dataclass
class _Window:
    """Rolling (timestamp, bad) counts over one simulated-time span."""

    span_s: float
    events: deque = field(default_factory=deque)
    bad: int = 0

    def push(self, at_s: float, is_bad: bool) -> None:
        self.events.append((at_s, is_bad))
        if is_bad:
            self.bad += 1
        self.evict(at_s)

    def evict(self, now_s: float) -> None:
        cutoff = now_s - self.span_s
        while self.events and self.events[0][0] < cutoff:
            _, was_bad = self.events.popleft()
            if was_bad:
                self.bad -= 1

    def bad_fraction(self) -> float:
        n = len(self.events)
        return self.bad / n if n else 0.0


class SLOMonitor:
    """Evaluate request outcomes against objectives; emit burn-rate alerts.

    ``sink`` is any callable taking a :class:`BurnRateAlert`; alerts
    always also accumulate on :attr:`alerts`. Observations must arrive in
    non-decreasing simulated time (the service's dispatch order), which
    makes the whole alert sequence deterministic.
    """

    def __init__(
        self,
        objectives: list[SLOObjective] | tuple[SLOObjective, ...],
        short_window_s: float = 0.002,
        long_window_s: float = 0.02,
        burn_rate_threshold: float = 10.0,
        sink: Callable[[BurnRateAlert], None] | None = None,
    ):
        if short_window_s >= long_window_s:
            raise ValueError("short window must be shorter than long window")
        self.objectives = tuple(objectives)
        self.short_window_s = short_window_s
        self.long_window_s = long_window_s
        self.burn_rate_threshold = burn_rate_threshold
        self.sink = sink
        self.alerts: list[BurnRateAlert] = []
        self.observed = 0
        self._windows = {
            obj.name: (_Window(short_window_s), _Window(long_window_s))
            for obj in self.objectives
        }
        #: Objectives currently in violation — suppresses re-firing until
        #: the burn drops back below threshold (rising-edge alerting).
        self._active: set[str] = set()

    def observe(self, at_s: float, latency_s: float | None = None,
                ok: bool = True) -> list[BurnRateAlert]:
        """Feed one request outcome; returns any alerts it triggered."""
        self.observed += 1
        fired: list[BurnRateAlert] = []
        for obj in self.objectives:
            short, long = self._windows[obj.name]
            is_bad = obj.is_bad(latency_s, ok)
            short.push(at_s, is_bad)
            long.push(at_s, is_bad)
            budget = obj.error_budget
            short_burn = short.bad_fraction() / budget
            long_burn = long.bad_fraction() / budget
            violating = (short_burn >= self.burn_rate_threshold
                         and long_burn >= self.burn_rate_threshold)
            if violating and obj.name not in self._active:
                self._active.add(obj.name)
                alert = BurnRateAlert(
                    objective=obj.name,
                    at_s=at_s,
                    short_burn=short_burn,
                    long_burn=long_burn,
                    short_window_s=self.short_window_s,
                    long_window_s=self.long_window_s,
                    threshold=self.burn_rate_threshold,
                )
                self.alerts.append(alert)
                fired.append(alert)
                if self.sink is not None:
                    self.sink(alert)
            elif not violating:
                self._active.discard(obj.name)
        return fired

    def latency_burn(self) -> float:
        """Worst short-window burn rate across the latency objectives.

        ``0.0`` without a latency objective. Controllers and the cluster
        router read it to tell a replica burning its latency budget.
        """
        rates = self.burn_rates()
        return max((rates[obj.name][0] for obj in self.objectives
                    if obj.kind == "latency"), default=0.0)

    # -- service subscriber: each outcome at its simulated instant ------

    def on_reject(self, service, error) -> None:
        self.observe(service.clock.now, ok=False)

    def on_batch(self, service, report, tickets) -> None:
        for t in tickets:
            self.observe(t.completion_s, latency_s=t.latency_s)

    def on_fail(self, service, pairs, exc) -> None:
        for t, _data in pairs:
            self.observe(t.completion_s, latency_s=t.latency_s, ok=False)

    def burn_rates(self) -> dict[str, tuple[float, float]]:
        """Current (short, long) burn rate per objective."""
        out = {}
        for obj in self.objectives:
            short, long = self._windows[obj.name]
            budget = obj.error_budget
            out[obj.name] = (short.bad_fraction() / budget,
                             long.bad_fraction() / budget)
        return out

    def snapshot(self) -> dict:
        """JSON-friendly state (rides along in postmortem bundles)."""
        return {
            "objectives": [
                {"name": o.name, "kind": o.kind, "target": o.target,
                 "threshold_s": o.threshold_s}
                for o in self.objectives
            ],
            "observed": self.observed,
            "burn_rates": {
                name: {"short": s, "long": l2}
                for name, (s, l2) in self.burn_rates().items()
            },
            "alerts": [
                {"objective": a.objective, "at_s": a.at_s,
                 "short_burn": a.short_burn, "long_burn": a.long_burn}
                for a in self.alerts
            ],
        }
