"""Fault injection: corruption *and* availability faults.

A verification suite is only as good as the bugs it can catch, and a
serving layer is only as robust as the failures it can survive. This
module provides both halves:

- **Corruption faults** (:class:`FaultPlan` / :class:`FaultyTransferEngine`):
  corrupt one transfer payload, drop a message's bytes, flip a bit — so
  tests can prove the functional checks and the
  :mod:`repro.core.validation` diagnostics detect each failure mode
  (``tests/test_fault_injection.py``).
- **Availability faults** (:class:`FaultSchedule` with
  :class:`DeviceDown` / :class:`LinkDown` / :class:`LaneSlow`): a GPU
  goes offline, a PCIe link drops to host-staged (or dies hard), a lane
  runs slow by a factor. A schedule fires each fault at a given *call
  count* (kernel launches + transfer-engine copies, h2d/d2h included) or
  *simulated time*, mutating the topology's
  :class:`~repro.interconnect.topology.HealthState`; the serving layer's
  :class:`~repro.core.health.HealthTracker` then classifies the resulting
  :class:`~repro.errors.DeviceLostError` / :class:`~repro.errors.LinkDownError`
  and replans on the degraded machine (``tests/test_failover.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.gpusim.events import Trace, TransferRecord
from repro.gpusim.memory import DeviceArray
from repro.interconnect.transfer import TransferEngine


@dataclass
class FaultPlan:
    """Which fault to inject, and when.

    ``corrupt_nth_copy``: 1-based index of the copy whose payload gets a
    single-element perturbation (simulating a torn/raced transfer).
    ``drop_nth_copy``: 1-based index of the copy whose data silently never
    arrives (the destination keeps its old contents).

    The copy index counts *every* transfer the engine performs — device
    to device copies and the h2d/d2h legs alike — in issue order.
    ``copies_seen``/``faults_fired`` are run state, not configuration:
    reusing one plan across engines or across a serving retry without
    :meth:`reset` would double-count copies and fire on the wrong one
    (the engine resets the plan when it attaches).
    """

    corrupt_nth_copy: int | None = None
    drop_nth_copy: int | None = None
    #: Element offset perturbed by a corruption fault.
    corrupt_offset: int = 0
    #: Value added to the corrupted element.
    corrupt_delta: int = 1
    copies_seen: int = field(default=0, init=False)
    faults_fired: int = field(default=0, init=False)

    def reset(self) -> None:
        """Zero the run counters so the plan can serve a fresh run."""
        self.copies_seen = 0
        self.faults_fired = 0


class FaultyTransferEngine(TransferEngine):
    """A transfer engine that injects the faults of a :class:`FaultPlan`.

    Attaching resets the plan's run counters: a plan instance describes
    *which* copy to break, and each engine (or retry) starts counting
    copies from zero again.
    """

    def __init__(self, topology, plan: FaultPlan, params=None):
        super().__init__(topology, params)
        plan.reset()
        self.plan = plan

    def host_to_device(self, trace, phase, gpu, nbytes, messages=1):
        """An h2d leg counts toward the copy index; a "dropped" upload is
        priced but marked fired (there is no payload to withhold — h2d/d2h
        records are pricing-only)."""
        self.plan.copies_seen += 1
        if self.plan.copies_seen == self.plan.drop_nth_copy:
            self.plan.faults_fired += 1
        return super().host_to_device(trace, phase, gpu, nbytes, messages)

    def device_to_host(self, trace, phase, gpu, nbytes, messages=1):
        """A d2h leg counts toward the copy index (see h2d note)."""
        self.plan.copies_seen += 1
        if self.plan.copies_seen == self.plan.drop_nth_copy:
            self.plan.faults_fired += 1
        return super().device_to_host(trace, phase, gpu, nbytes, messages)

    def copy(
        self,
        trace: Trace,
        phase: str,
        src: DeviceArray,
        dst: DeviceArray,
        messages: int = 1,
    ) -> TransferRecord:
        self.plan.copies_seen += 1
        n = self.plan.copies_seen
        if not dst.virtual and n == self.plan.drop_nth_copy:
            # Price the transfer but never move the data: copy into a
            # virtual stand-in for ``dst``.
            self.plan.faults_fired += 1
            standin = np.broadcast_to(np.zeros((), dst.dtype), dst.shape)
            dst = DeviceArray(dst.device, standin, virtual=True)
            return super().copy(trace, phase, src, dst, messages)
        record = super().copy(trace, phase, src, dst, messages)
        if not dst.virtual and n == self.plan.corrupt_nth_copy:
            # Index-based write: the destination may be a strided view, so
            # a reshape(-1) would silently mutate a copy instead.
            offset = self.plan.corrupt_offset % dst.size
            idx = np.unravel_index(offset, dst.shape)
            dst.data[idx] += self.plan.corrupt_delta
            self.plan.faults_fired += 1
        return record


# --------------------------------------------------------------------------
# Availability faults
# --------------------------------------------------------------------------


@dataclass
class AvailabilityFault:
    """Base trigger: fire at the N-th simulator call or at a simulated time.

    Exactly one of ``at_call`` / ``at_time_s`` must be set. Calls are
    counted across the whole topology — every kernel launch and every
    transfer-engine copy (h2d/d2h included) ticks the schedule once, in
    issue order — so ``at_call=3`` breaks the third operation of the run.
    """

    at_call: int | None = None
    at_time_s: float | None = None
    fired: bool = field(default=False, init=False)

    def validate(self) -> None:
        if (self.at_call is None) == (self.at_time_s is None):
            raise ConfigurationError(
                "an availability fault needs exactly one of at_call/at_time_s"
            )
        if self.at_call is not None and self.at_call < 1:
            raise ConfigurationError(f"at_call must be >= 1, got {self.at_call}")
        if self.at_time_s is not None and self.at_time_s < 0:
            raise ConfigurationError(f"at_time_s must be >= 0, got {self.at_time_s}")

    def apply(self, topology) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    def _trigger(self) -> str:
        if self.at_call is not None:
            return f"call={self.at_call}"
        return f"t={self.at_time_s:g}"


@dataclass
class DeviceDown(AvailabilityFault):
    """A GPU goes offline: subsequent allocs/uploads/launches on it raise
    :class:`~repro.errors.DeviceLostError` and health-aware placement
    skips it."""

    gpu_id: int = 0

    def apply(self, topology) -> None:
        topology.mark_offline(self.gpu_id)

    def describe(self) -> str:
        return f"device:{self.gpu_id}@{self._trigger()}"


@dataclass
class LinkDown(AvailabilityFault):
    """A PCIe network fails. Soft (default): P2P on that network drops to
    host-staged routes — transfers reroute silently and only get slower.
    Hard: the switch is gone, the network's GPUs are unreachable, and the
    next transfer touching them raises :class:`~repro.errors.LinkDownError`.
    """

    node: int = 0
    network: int = 0
    hard: bool = False

    def apply(self, topology) -> None:
        health = topology.ensure_health()
        key = (self.node, self.network)
        if self.hard:
            health.dead_networks.add(key)
        else:
            health.degraded_networks.add(key)

    def describe(self) -> str:
        kind = "link-hard" if self.hard else "link"
        return f"{kind}:{self.node}.{self.network}@{self._trigger()}"


@dataclass
class LaneSlow(AvailabilityFault):
    """A transfer lane runs slow by ``factor`` (thermal throttle, cable
    renegotiation): every priced transfer on that lane costs factor× more
    simulated time. Lane names match trace lanes, e.g. ``pcie0.1`` or
    ``host0``."""

    lane: str = ""
    factor: float = 2.0

    def validate(self) -> None:
        super().validate()
        if self.factor <= 0:
            raise ConfigurationError(f"slowdown factor must be > 0, got {self.factor}")
        if not self.lane:
            raise ConfigurationError("LaneSlow needs a lane name")

    def apply(self, topology) -> None:
        health = topology.ensure_health()
        health.lane_slowdown[self.lane] = self.factor

    def describe(self) -> str:
        return f"slow:{self.lane}*{self.factor:g}@{self._trigger()}"


class FaultSchedule:
    """Fires availability faults at call counts or simulated times.

    Install on a topology via
    :meth:`~repro.interconnect.topology.SystemTopology.install_faults`;
    the simulator then ticks the schedule once per operation (kernel
    launch, transfer copy, h2d/d2h leg) *before* executing it, and
    advances simulated time *after* pricing it. A fault fires at most
    once; ``attach`` rewinds the counters so a schedule can be re-armed
    on a fresh topology.
    """

    def __init__(self, faults):
        self.faults = list(faults)
        for fault in self.faults:
            fault.validate()
        self.topology = None
        self.calls: int = 0
        self.time_s: float = 0.0

    def attach(self, topology) -> None:
        self.topology = topology
        self.calls = 0
        self.time_s = 0.0
        for fault in self.faults:
            fault.fired = False

    def tick(self) -> None:
        """Count one simulator call and fire any call-triggered faults due."""
        self.calls += 1
        self._fire_due()

    def advance_time(self, dt: float) -> None:
        """Advance the simulated clock and fire any time-triggered faults due."""
        self.time_s += dt
        self._fire_due()

    def _fire_due(self) -> None:
        if self.topology is None:
            return
        for fault in self.faults:
            if fault.fired:
                continue
            due = (fault.at_call is not None and self.calls >= fault.at_call) or (
                fault.at_time_s is not None and self.time_s >= fault.at_time_s
            )
            if not due:
                continue
            fault.fired = True
            fault.apply(self.topology)
            if obs.is_enabled():
                obs.counter("fault.fired", kind=type(fault).__name__).inc()

    @property
    def pending(self) -> int:
        return sum(1 for fault in self.faults if not fault.fired)

    def describe(self) -> list[str]:
        return [fault.describe() for fault in self.faults]


def parse_fault(spec: str) -> AvailabilityFault:
    """Parse a CLI fault spec into an availability fault.

    Formats (trigger is ``@call=N`` or ``@t=SECONDS``)::

        device:<gpu_id>@call=5          GPU 5th-call loss
        link:<node>.<network>@t=1e-4    soft link degradation
        link-hard:<node>.<network>@...  hard network death
        slow:<lane>*<factor>@...        lane slowdown (e.g. slow:pcie0.1*2)
    """
    if "@" not in spec:
        raise ConfigurationError(
            f"fault spec {spec!r} is missing a trigger (@call=N or @t=SECONDS)"
        )
    body, _, trigger = spec.rpartition("@")
    at_call: int | None = None
    at_time_s: float | None = None
    try:
        if trigger.startswith("call="):
            at_call = int(trigger[len("call="):])
        elif trigger.startswith("t="):
            at_time_s = float(trigger[len("t="):])
        else:
            raise ValueError(trigger)
    except ValueError:
        raise ConfigurationError(
            f"bad fault trigger {trigger!r}; expected call=N or t=SECONDS"
        ) from None
    kind, _, rest = body.partition(":")
    try:
        if kind == "device":
            return DeviceDown(at_call=at_call, at_time_s=at_time_s, gpu_id=int(rest))
        if kind in ("link", "link-hard"):
            node_s, _, net_s = rest.partition(".")
            return LinkDown(
                at_call=at_call,
                at_time_s=at_time_s,
                node=int(node_s),
                network=int(net_s),
                hard=(kind == "link-hard"),
            )
        if kind == "slow":
            lane, _, factor_s = rest.rpartition("*")
            if not lane:
                raise ValueError(rest)
            return LaneSlow(
                at_call=at_call,
                at_time_s=at_time_s,
                lane=lane,
                factor=float(factor_s),
            )
    except ConfigurationError:
        raise
    except ValueError:
        raise ConfigurationError(f"bad fault body {body!r} in spec {spec!r}") from None
    raise ConfigurationError(
        f"unknown fault kind {kind!r}; expected device, link, link-hard, or slow"
    )


def seu_flip(buffer: DeviceArray, element: int, bit: int) -> None:
    """Flip one bit of one element (a single-event-upset model).

    Operates on integer buffers; useful for asserting that the validator
    localises silent data corruption to the right problem/index.
    """
    flat = buffer.data.reshape(-1)
    if not np.issubdtype(flat.dtype, np.integer):
        raise TypeError(f"seu_flip needs an integer buffer, got {flat.dtype}")
    info_bits = flat.dtype.itemsize * 8
    if not (0 <= bit < info_bits):
        raise ValueError(f"bit {bit} out of range for {flat.dtype}")
    flat[element % flat.size] ^= flat.dtype.type(1) << bit
