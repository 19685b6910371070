"""The cluster router: N service replicas behind one front door.

One :class:`~repro.serve.service.ScanService` saturates at its
topology's throughput; the paper's answer to more GPUs is more nodes,
and the serving answer is **replicas** — independent
service+session+topology shards behind a router. This module is that
router:

- :meth:`ClusterRouter.submit` admits one request for a *tenant*,
  checks the tenant's in-flight quota, asks the dispatch policy for a
  replica preference order, and offers the request to each replica in
  turn (a replica's :class:`~repro.errors.BackpressureError` means "try
  the next", not "reject"). Only when every active replica sheds does
  the cluster reject.
- All replica clocks are **lockstepped** to the cluster clock:
  :meth:`advance_to` advances every active replica, in replica-id
  order, to the same simulated instant, firing their ``max_wait``
  flushes on the way — so a fixed request schedule produces the same
  batches on the same replicas every run, regardless of replica count.
- Each :class:`Replica` **subscribes** to its service's outcome stream:
  an admission binds the replica ticket to its cluster request
  (:attr:`~repro.serve.service.SubmitResult.origin`) and counts it, a
  scattered batch settles its cluster requests, and a failed batch
  reroutes them.
- **Cluster failover**: each :class:`~repro.errors.FailoverExhaustedError`
  a replica reports (its ``on_fail`` outcome) bumps its strike count;
  at ``drain_after`` strikes the replica is **drained** — its queued
  requests are evicted and re-routed to surviving replicas — and marked
  down. After ``recovery_s`` of simulated time it is
  **re-admitted**: a brand-new session is spawned on a fresh topology
  shard, primed from the current leader's
  :class:`~repro.core.store.SessionSnapshot`
  (:func:`repro.core.store.spawn_replica_session`), so it serves warm
  from its first request.
- Failed requests are re-routed up to ``max_reroutes`` times before the
  failure sticks; requests that cannot be placed anywhere (every
  replica down or shedding) are **parked** and resubmitted as soon as a
  replica can take them — a drain never loses a request.

Tenant SLOs reuse :mod:`repro.obs.slo`: each tenant gets a monitor for
its SLO class, fed cluster-level latency (from *original* cluster
arrival, so time spent queued on a drained replica counts) at simulated
completion times.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    QuotaExceededError,
)
from repro.interconnect.topology import tsubame_kfc
from repro.obs.registry import Histogram
from repro.serve.clock import SimClock, finite_seconds
from repro.serve.service import ScanService, ServiceStats
from repro.cluster.policies import resolve_policy
from repro.cluster.tenants import DEFAULT_TENANT, TenantSpec

__all__ = ["ClusterTicket", "Replica", "ClusterRouter"]


class ClusterTicket:
    """One cluster request: a stable handle across reroutes.

    Wraps the replica-level :class:`~repro.serve.service.SubmitResult`
    currently carrying the request; a drain or failure reroute swaps the
    inner ticket, the cluster ticket stays. Latency is cluster-level:
    measured from the *original* cluster arrival, so queueing time on a
    replica that was later drained is not forgotten.
    """

    __slots__ = ("index", "tenant", "arrival_s", "size", "inner",
                 "replica_id", "reroutes")

    def __init__(self, tenant: str, arrival_s: float, size: int):
        #: Admission order across the cluster; ``None`` until a replica
        #: first admits the request.
        self.index: int | None = None
        self.tenant = tenant
        self.arrival_s = arrival_s
        self.size = size
        #: The replica-level ticket currently carrying this request.
        self.inner = None
        #: Replica currently (or finally) holding the request.
        self.replica_id: int | None = None
        #: How many times the request moved replicas (drain or failure).
        self.reroutes = 0

    @property
    def status(self) -> str:
        return self.inner.status if self.inner is not None else "queued"

    @property
    def done(self) -> bool:
        return self.inner is not None and self.inner.done

    @property
    def failed(self) -> bool:
        return self.inner is not None and self.inner.failed

    @property
    def terminal(self) -> bool:
        """Whether the request reached a final state (done or failed).

        An evicted/parked inner ticket is *not* terminal — the router
        still owes the request a replica.
        """
        return self.inner is not None and self.inner.status in ("done", "failed")

    @property
    def latency_s(self) -> float:
        """Cluster-level latency: reroute delay + the final replica's own."""
        if self.inner is None:
            return 0.0
        return (self.inner.arrival_s - self.arrival_s) + self.inner.latency_s

    @property
    def completion_s(self) -> float:
        return self.inner.completion_s if self.inner is not None else 0.0

    def result(self) -> np.ndarray:
        if self.inner is None:
            raise ConfigurationError(
                f"cluster request {self.index} is parked (no replica can "
                "take it yet); advance the clock past a recovery first"
            )
        return self.inner.result()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ClusterTicket(#{self.index}, tenant={self.tenant}, "
                f"{self.status}, replica={self.replica_id}, "
                f"reroutes={self.reroutes})")


class Replica:
    """One service shard and its cluster-side health bookkeeping.

    The replica subscribes to its service's outcome stream and hands
    each outcome the router acts on to the router, with itself attached.
    Its ``stats`` record is subscribed to every service the replica runs,
    a re-admitted replica's replacement included, so it counts the
    replica's outcomes across respawns.
    """

    __slots__ = ("id", "router", "stats", "service", "state", "strikes",
                 "down_since_s")

    def __init__(self, rid: int, router: "ClusterRouter"):
        self.id = rid
        self.router = router
        self.stats = ServiceStats()
        self.service = router._build_service(self, snapshot=None)
        #: "active" | "down"
        self.state = "active"
        #: Consecutive FailoverExhaustedError count (reset on success).
        self.strikes = 0
        self.down_since_s: float | None = None

    def on_submit(self, service, ticket) -> None:
        self.router._admitted(self, ticket)

    def on_batch(self, service, report, tickets) -> None:
        self.router._served(self, report, tickets)

    def on_fail(self, service, pairs, exc) -> None:
        self.router._failed(self, pairs, exc)


class ClusterRouter:
    """Route requests across N lockstepped :class:`ScanService` replicas.

    Parameters
    ----------
    replicas:
        Shard count. Each replica gets its own topology (from
        ``topology_factory``), session, health tracker and clock.
    topology_factory:
        ``rid -> SystemTopology`` building each replica's shard (and a
        drained replica's replacement). Defaults to one TSUBAME-KFC
        node per replica — **never shared**: replica isolation is the
        point.
    policy:
        Dispatch policy name (``round_robin``/``least_depth``/
        ``managed``) or a :class:`~repro.cluster.policies.DispatchPolicy`.
    tenants:
        Iterable of :class:`~repro.cluster.tenants.TenantSpec`. Unknown
        tenants are auto-registered with an unlimited-quota
        ``standard``-class spec.
    drain_after:
        Consecutive ``FailoverExhaustedError`` strikes before a replica
        is drained.
    recovery_s:
        Simulated downtime before a drained replica is re-admitted
        (spawned fresh from the leader's snapshot).
    max_reroutes:
        How many times one request may chase a new replica after
        *failures* before the failure sticks (drain evictions also
        count a reroute but are never capped — eviction is the
        cluster's fault, not the request's).
    serialize_exec:
        Passed to every replica service; on by default here (unlike the
        single service) so per-replica executor backlog is modelled and
        adding replicas actually improves tail latency.
    controller_factory:
        Optional ``rid -> Controller`` building a fresh
        :class:`~repro.control.controllers.Controller` for each replica
        service (including a re-admitted replica's replacement). Each
        replica adapts independently from its own metrics; decisions
        stay deterministic because replica clocks are lockstepped.
    replica_slo:
        Optional SLO class name. When set, every replica service gets
        its own :func:`~repro.obs.slo.slo_class` monitor (prefixed
        ``replica<rid>.``) fed by the service, and :meth:`submit`
        prefers replicas in ascending SLO-burn buckets: a replica
        burning through its latency budget is placed *after* healthy
        peers (a soft drain), and drops back to normal preference as
        its burn recovers (re-admit). Placement stays deterministic —
        burn is bucketed to an integer and the sort is stable, so
        ties preserve the dispatch policy's order.
    **service_kwargs:
        Remaining :class:`~repro.serve.service.ScanService` knobs
        (``max_batch``, ``max_wait_s``, ``max_queue``, placement...).
    """

    def __init__(
        self,
        replicas: int = 2,
        *,
        topology_factory=None,
        policy="least_depth",
        tenants=None,
        drain_after: int = 2,
        recovery_s: float = 5e-3,
        max_reroutes: int = 2,
        serialize_exec: bool = True,
        controller_factory=None,
        replica_slo: str | None = None,
        **service_kwargs,
    ):
        if replicas < 1:
            raise ConfigurationError(f"need at least one replica, got {replicas}")
        if drain_after < 1:
            raise ConfigurationError(f"drain_after must be >= 1, got {drain_after}")
        finite_seconds(recovery_s, "recovery_s")
        if recovery_s <= 0:
            raise ConfigurationError(f"recovery_s must be > 0, got {recovery_s}")
        self.topology_factory = (topology_factory if topology_factory is not None
                                 else (lambda rid: tsubame_kfc(1)))
        self.policy = resolve_policy(policy)
        self.drain_after = drain_after
        self.recovery_s = recovery_s
        self.max_reroutes = max_reroutes
        self.serialize_exec = bool(serialize_exec)
        self.controller_factory = controller_factory
        self.replica_slo = replica_slo
        self.service_kwargs = dict(service_kwargs)
        self.clock = SimClock()
        # The cluster request a replica submit is placing (see _place).
        self._placing: ClusterTicket | None = None
        self._replicas = [Replica(rid, self) for rid in range(replicas)]
        # Requests no replica can hold right now: (ticket, data, op, inc).
        self._parked: list[tuple[ClusterTicket, np.ndarray, str, bool]] = []
        self.tenants: dict[str, TenantSpec] = {}
        self._tenant_slo = {}
        self._outstanding: dict[str, list[ClusterTicket]] = {}
        for spec in (tenants or ()):
            self.register_tenant(spec)
        # Cluster counters.
        self.submitted = 0
        self.rejected = 0
        self.quota_rejected = 0
        self.rerouted = 0
        self.drains = 0
        self.readmits = 0
        #: Cluster-level latency distribution (terminal requests, in
        #: terminal order across the lockstepped replicas).
        self.latency = Histogram("cluster.latency_s")
        #: Every dispatched batch: (replica, key, requests, flush_s,
        #: sim_time_s) — survives respawns, pins assignment determinism.
        self.batch_log: list[tuple[int, str, int, float, float]] = []

    # ------------------------------------------------------------- replicas

    def _build_service(self, replica: Replica, snapshot) -> ScanService:
        """A fresh service for ``replica``, with the replica and its stats
        record subscribed."""
        from repro.core.store import spawn_replica_session

        rid = replica.id
        session = spawn_replica_session(snapshot, self.topology_factory(rid))
        extra = {}
        if self.controller_factory is not None:
            extra["controller"] = self.controller_factory(rid)
        if self.replica_slo is not None:
            from repro.obs.slo import slo_class

            extra["slo"] = slo_class(self.replica_slo, prefix=f"replica{rid}")
        service = ScanService(
            session=session,
            serialize_exec=self.serialize_exec,
            **extra,
            **self.service_kwargs,
        )
        service.subscribe(replica.stats)
        service.subscribe(replica)
        return service

    def replica(self, rid: int) -> Replica:
        return self._replicas[rid]

    @property
    def replicas(self) -> list[Replica]:
        return list(self._replicas)

    def active_replica_ids(self) -> list[int]:
        return [r.id for r in self._replicas if r.state == "active"]

    def leader(self) -> Replica | None:
        """The lowest-id active replica (snapshot source for re-admits)."""
        for r in self._replicas:
            if r.state == "active":
                return r
        return None

    # ------------------------------------------------------------- tenants

    def register_tenant(self, spec: TenantSpec) -> None:
        self.tenants[spec.name] = spec
        self._tenant_slo[spec.name] = spec.monitor()
        self._outstanding.setdefault(spec.name, [])

    def _tenant(self, name: str) -> TenantSpec:
        if name not in self.tenants:
            self.register_tenant(TenantSpec(name=name))
        return self.tenants[name]

    def tenant_slo(self, name: str):
        """The per-tenant SLO monitor (auto-registering the tenant)."""
        self._tenant(name)
        return self._tenant_slo[name]

    def _outstanding_count(self, name: str) -> int:
        live = [ct for ct in self._outstanding[name] if not ct.terminal]
        self._outstanding[name] = live
        return len(live)

    # ------------------------------------------------------------ admission

    def submit(
        self,
        data: np.ndarray,
        operator="add",
        inclusive: bool = True,
        at: float | None = None,
        tenant: str = DEFAULT_TENANT,
    ) -> ClusterTicket:
        """Admit one request for ``tenant``; returns its cluster ticket.

        Raises :class:`~repro.errors.QuotaExceededError` when the tenant
        is over its in-flight quota and plain
        :class:`~repro.errors.BackpressureError` when every active
        replica sheds the request.
        """
        if at is not None:
            self.advance_to(at)
        arr = np.asarray(data)
        spec = self._tenant(tenant)
        if spec.max_inflight and self._outstanding_count(tenant) >= spec.max_inflight:
            raise self._shed(tenant, QuotaExceededError(
                f"tenant {tenant!r} is at its in-flight quota "
                f"({spec.max_inflight}); request shed"
            ), "quota_rejected", tenant=tenant)
        ticket = ClusterTicket(tenant, self.clock.now, arr.size)
        if self._place(ticket, arr, operator, inclusive, self.clock.now) is None:
            raise self._shed(tenant, BackpressureError(
                "every active replica shed the request "
                f"({len(self.active_replica_ids())} active)"
            ), "rejected")
        return ticket

    def _shed(self, tenant: str, error: Exception, counter: str, /,
              **labels) -> Exception:
        """Count one cluster-level rejection; returns ``error`` to raise."""
        self._count(counter, **labels)
        self._tenant_slo[tenant].observe(self.clock.now, ok=False)
        return error

    def _count(self, name: str, /, **labels) -> None:
        """Count one router outcome: its attribute and its obs mirror."""
        setattr(self, name, getattr(self, name) + 1)
        if obs.is_enabled():
            obs.counter(f"cluster.{name}", **labels).inc()

    def _place(self, ticket: ClusterTicket, data: np.ndarray, operator,
               inclusive: bool, at_s: float,
               exclude: int | None = None) -> int | None:
        """Offer ``ticket`` to replicas in policy order; None if all shed.

        ``at_s`` is the submit instant; it is clamped per target to the
        target's local clock — during a lockstepped advance the replicas
        reach the target time one after another, so a reroute sourced
        from a replica that is mid-advance must never drag an
        already-advanced neighbour's clock backwards. What happens to
        the request once admitted (served or failed, even inside this
        very submit) reaches the router through the replica's
        subscription.
        """
        order = self.policy.select(self, data.size)
        if self.replica_slo is not None:
            # SLO-burn-driven preference: replicas burning their latency
            # budget fall to the back of the line (soft drain) and come
            # back forward as their burn recovers. Bucketed + stable so
            # placement stays deterministic and policy order breaks ties.
            order = sorted(order, key=self._burn_bucket)
        for rid in order:
            if rid == exclude:
                continue
            replica = self._replicas[rid]
            # The submit may first advance the replica's clock, and the
            # flushes on the way may place other requests: restore.
            outer, self._placing = self._placing, ticket
            try:
                replica.service.submit(
                    data, operator=operator, inclusive=inclusive,
                    at=max(at_s, replica.service.clock.now),
                )
            except BackpressureError:
                continue
            finally:
                self._placing = outer
            return rid
        return None

    def _burn_bucket(self, rid: int) -> int:
        """Integer SLO-burn bucket for one replica (0 = healthy).

        The replica monitor's worst short-window latency burn, floored
        to an int and capped at 100 so infinitesimal burn differences
        cannot reorder placement.
        """
        monitor = self._replicas[rid].service.slo
        if monitor is None:
            return 0
        return int(min(monitor.latency_burn(), 100.0))

    # ------------------------------------------- replica outcome stream

    def _admitted(self, replica: Replica, inner) -> None:
        """A replica admitted the request being placed."""
        ct = inner.origin = self._placing
        if ct is None:  # submitted to the replica directly
            return
        ct.inner = inner
        ct.replica_id = replica.id
        if obs.is_enabled():
            obs.counter("cluster.routed", replica=replica.id).inc()
        if ct.index is None:  # first admission: count it once
            ct.index = self.submitted
            self._outstanding[ct.tenant].append(ct)
            self._count("submitted", tenant=ct.tenant)

    def _served(self, replica: Replica, report, tickets) -> None:
        replica.strikes = 0
        self.batch_log.append(
            (replica.id, str(report.key), report.requests, report.flush_s,
             report.sim_time_s)
        )
        if obs.is_enabled():
            obs.counter("cluster.batches", replica=replica.id).inc()
        for inner in tickets:
            if inner.origin is not None:
                self._finish(inner.origin, ok=True)

    def _failed(self, replica: Replica, pairs, exc) -> None:
        replica.strikes += 1
        must_drain = (replica.strikes >= self.drain_after
                      and replica.state == "active")
        if must_drain:
            # Down first so the reroutes below can't land back on it.
            self._drain(replica.id)
        at_s = replica.service.clock.now
        for inner, data in pairs:
            ct = inner.origin
            if ct is None:
                continue
            if ct.reroutes < self.max_reroutes:
                self._reroute(ct, inner, data, at_s=at_s,
                              exclude=None if must_drain else replica.id)
            else:
                self._finish(ct, ok=False)

    def _finish(self, ct: ClusterTicket, ok: bool) -> None:
        """Terminal bookkeeping for one cluster request."""
        self.latency.observe(ct.latency_s)
        self._tenant_slo[ct.tenant].observe(
            ct.completion_s, latency_s=ct.latency_s, ok=ok
        )
        if obs.is_enabled():
            obs.histogram("cluster.latency_s").observe(ct.latency_s)

    # ----------------------------------------------------------------- time

    def advance(self, dt_s: float) -> float:
        return self.advance_to(self.clock.now + finite_seconds(dt_s, "a clock step"))

    def advance_to(self, t_s: float) -> float:
        """Advance the cluster (and every replica, lockstepped) to ``t_s``.

        Re-admits due replicas at their exact recovery instants along
        the way, so recovery interleaves deterministically with the
        replicas' ``max_wait`` flush deadlines.
        """
        finite_seconds(t_s, "a cluster time")
        if t_s < self.clock.now:
            raise ConfigurationError(
                f"cluster clock cannot run backwards: now={self.clock.now}, "
                f"requested {t_s}"
            )
        while True:
            due = sorted(
                (r.down_since_s + self.recovery_s, r.id)
                for r in self._replicas if r.state == "down"
            )
            if not due or due[0][0] > t_s:
                break
            at_s, rid = due[0]
            at_s = max(at_s, self.clock.now)
            self._advance_replicas(at_s)
            self.clock.advance_to(at_s)
            self._readmit(rid)
        self._advance_replicas(t_s)
        self.clock.advance_to(t_s)
        self._retry_parked()
        return self.clock.now

    def _advance_replicas(self, t_s: float) -> None:
        for r in self._replicas:
            if r.state == "active":
                r.service.advance_to(t_s)

    def drain_queues(self) -> None:
        """Flush every active replica's queues at the current time."""
        for r in self._replicas:
            if r.state == "active":
                r.service.drain()

    # ------------------------------------------------------------- failover

    def _reroute(self, ct: ClusterTicket, old_inner, data, *, at_s: float,
                 exclude: int | None, count_reroute: bool = True) -> None:
        """Move a request to another replica (or park it)."""
        if count_reroute:
            ct.reroutes += 1
        key = old_inner.key
        if self._place(ct, data, key.operator, key.inclusive, at_s,
                       exclude=exclude) is not None:
            self._count("rerouted")
            return
        ct.inner = None
        ct.replica_id = None
        self._parked.append((ct, data, key.operator, key.inclusive))
        if obs.is_enabled():
            obs.counter("cluster.parked").inc()

    def _retry_parked(self) -> None:
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        for ct, data, operator, inclusive in parked:
            rid = self._place(ct, data, operator, inclusive, self.clock.now)
            if rid is None:
                self._parked.append((ct, data, operator, inclusive))
            else:
                self._count("rerouted")

    def _drain(self, rid: int) -> None:
        """Take a replica out of rotation, rerouting its queued requests."""
        replica = self._replicas[rid]
        with obs.span("cluster.drain", replica=rid,
                      queued=replica.service.depth):
            replica.state = "down"
            replica.down_since_s = self.clock.now
            self._count("drains", replica=rid)
            if obs.is_enabled():
                obs.gauge("cluster.active_replicas").set(
                    len(self.active_replica_ids()))
            at_s = replica.service.clock.now
            for inner, data in replica.service.evict_pending():
                ct = inner.origin
                if ct is None:
                    continue
                # Eviction reroutes are the cluster's fault; they are
                # not charged against the request's reroute budget.
                self._reroute(ct, inner, data, at_s=at_s, exclude=rid,
                              count_reroute=False)

    def fail_replica(self, rid: int, at: float | None = None) -> None:
        """Operator/chaos entry point: take one replica down *now*.

        Same lifecycle as an organic drain (evict, reroute, recover
        after ``recovery_s``) — the deterministic way benches and tests
        exercise mid-traffic drain/re-admit.
        """
        if at is not None:
            self.advance_to(at)
        if self._replicas[rid].state != "active":
            return
        self._drain(rid)

    def _readmit(self, rid: int) -> None:
        """Spawn a fresh replica from the leader's snapshot; rejoin."""
        replica = self._replicas[rid]
        leader = self.leader()
        snapshot = leader.service.session.snapshot() if leader is not None else None
        with obs.span("cluster.readmit", replica=rid,
                      leader=(leader.id if leader is not None else None)):
            service = self._build_service(replica, snapshot=snapshot)
            service.clock.advance_to(self.clock.now)
            replica.service = service
            replica.state = "active"
            replica.strikes = 0
            replica.down_since_s = None
            self._count("readmits", replica=rid)
            if obs.is_enabled():
                obs.gauge("cluster.active_replicas").set(
                    len(self.active_replica_ids()))
        self._retry_parked()

    # -------------------------------------------------------- introspection

    @property
    def parked(self) -> int:
        """Requests currently waiting for any replica to come back."""
        return len(self._parked)

    def stats(self) -> dict:
        """Cluster counter snapshot + per-replica/tenant breakdowns."""
        return {
            "replicas": len(self._replicas),
            "active_replicas": len(self.active_replica_ids()),
            "submitted": self.submitted,
            "rejected": self.rejected,
            "quota_rejected": self.quota_rejected,
            "rerouted": self.rerouted,
            "parked": self.parked,
            "drains": self.drains,
            "readmits": self.readmits,
            "served": sum(r.stats.served for r in self._replicas),
            "failed": sum(r.stats.failed for r in self._replicas),
            "batches": len(self.batch_log),
            "latency": self.latency.summary(),
            "per_replica": [
                {
                    "id": r.id,
                    "state": r.state,
                    "strikes": r.strikes,
                    "served": r.stats.served,
                    "failed": r.stats.failed,
                    "depth": r.service.depth,
                    "burn_bucket": self._burn_bucket(r.id),
                    "decisions": (len(r.service.controller.decisions)
                                  if r.service.controller is not None else 0),
                }
                for r in self._replicas
            ],
            "tenants": {
                name: self._tenant_slo[name].snapshot()
                for name in sorted(self.tenants)
            },
        }
