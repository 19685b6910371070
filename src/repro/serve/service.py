"""The concurrent scan service: admission queue, coalescing, scatter.

The paper's design is *batch* scan — G independent problems executed
together so fixed per-launch and per-transfer overheads amortise — but a
deployed service receives a *stream* of small independent requests. This
module is the front door that turns one into the other:

- :meth:`ScanService.submit` accepts one problem per call (a 1-D array),
  keyed for compatibility by ``(padded N, dtype, operator, inclusive)``,
  and parks it in a per-key **admission queue**. Admission is bounded:
  past ``max_queue`` outstanding requests, :class:`~repro.errors.BackpressureError`
  is raised instead of queueing (shed load early, never melt down).
- A queue **flushes** — coalescing its requests into a single batched
  scan — when it reaches ``max_batch``, when its oldest request has
  waited ``max_wait_s`` of simulated time, or on an explicit
  :meth:`flush`/:meth:`drain`. Rows are identity-padded to a common
  power-of-two length and the row count is identity-padded to a power of
  two (:func:`repro.core.executor.pad_rows_to_batch`), so ragged
  stragglers ride along instead of being rejected — the same
  deterministic-degrade shaping as ``shrink_template_to_fit``.
- The coalesced batch dispatches through the owning
  :class:`~repro.core.session.ScanSession` (proposal registry, plan
  cache, failover, observability — the whole serving stack), and the
  per-row outputs **scatter** back to their :class:`SubmitResult`
  tickets.
- If a batch exhausts the session's failover retries, the service
  **bisects** it and retries the halves (bounded by
  ``RetryPolicy.max_batch_splits``) so one poisoned request cannot take
  down its whole batch; only requests whose singleton batch still fails
  are marked failed.

Latency accounting is in *simulated* seconds and sums exactly: each
request's latency is its queue wait, plus the executor wait its batch
spent behind earlier batches (only in ``serialize_exec`` mode — zero
otherwise), plus its **execution share** of the batch (batch simulated
time divided by the real — unpadded — request count, with the division
remainder assigned to the last row so the shares sum to the batch time
bit-exactly instead of drifting). Hence, over any set of terminal
requests::

    sum(latency) == sum(queue_wait) + sum(exec_wait) + sum(batch simulated time)

which the test suite pins as the no-double-counting invariant.

**Each outcome is reported once.** Admitted, rejected, flushed, split,
batch completed, batch failed and evicted requests each go through one
:meth:`ScanService._report` call to an ordered subscriber list, and
everything that reacts to an outcome is a subscriber: the lifetime
:class:`ServiceStats` record (behind :meth:`ScanService.stats` and the
``served``/``total_exec_s``/... attributes), the SLO monitor, the obs
registry and flight-recorder mirror, the controller, and whatever
subscribes later — a fronting router, or a replay's per-run record.

**Failed requests are charged too**: a batch that exhausts failover (and
service-level bisection) marks its tickets failed with their queue wait
*plus* the simulated time the failed attempts actually consumed (the
retry backoff trail carried by
:class:`~repro.errors.FailoverExhaustedError`), shared exactly like a
successful batch's execution time. Failed latencies feed the same
histograms and totals as successes, and their SLO availability outcome
is stamped at ``flush + attempted time`` — after the backoff elapsed,
not when the flush began — so failures are neither invisible to the
latency distribution nor reported before they simulated-happened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.obs import flight
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    FailoverExhaustedError,
    RequestFailedError,
)
from repro.obs.registry import Histogram
from repro.core.executor import pad_rows_to_batch
from repro.core.params import require_scannable
from repro.core.results import ScanResult
from repro.primitives.operators import resolve_operator
from repro.serve.clock import SimClock, finite_seconds
from repro.util.ints import next_power_of_two

__all__ = ["QueueKey", "SubmitResult", "BatchReport", "ServiceStats",
           "ScanService"]

#: The outcome hooks a subscriber may define (see ScanService.subscribe).
_EVENTS = ("on_submit", "on_reject", "on_flush", "on_split", "on_batch",
          "on_fail", "on_evict")


@dataclass(frozen=True)
class QueueKey:
    """Compatibility key: requests coalesce iff every field matches.

    ``n`` is the padded problem length (each request's size rounded up to
    a power of two); dtype and operator are canonical names so the key
    hashes/compares cheaply.
    """

    n: int
    dtype: str
    operator: str
    inclusive: bool

    def __str__(self) -> str:
        kind = "inc" if self.inclusive else "exc"
        return f"{self.operator}/{self.dtype}/N={self.n}/{kind}"


class SubmitResult:
    """One admitted request: its ticket through queue, batch and scatter.

    Returned immediately by :meth:`ScanService.submit`; filled in when
    the request's batch executes. ``status`` walks
    ``"queued" -> "done"`` (or ``"failed"``). All times are simulated
    seconds on the service's :class:`~repro.serve.clock.SimClock`
    timeline.
    """

    __slots__ = (
        "index", "key", "arrival_s", "size", "status", "output", "error",
        "queue_wait_s", "exec_wait_s", "exec_share_s", "batch_time_s",
        "latency_s", "completion_s", "batch_index", "batch_requests",
        "batch_g", "failover", "splits", "origin",
    )

    def __init__(self, index: int, key: QueueKey, arrival_s: float, size: int):
        self.index = index
        self.key = key
        self.arrival_s = arrival_s
        #: Original (pre-padding) element count of the request.
        self.size = size
        self.status = "queued"
        self.output: np.ndarray | None = None
        self.error: BaseException | None = None
        self.queue_wait_s = 0.0
        #: Time the batch waited behind earlier batches on the (serial)
        #: executor; always 0.0 unless the service runs serialize_exec.
        self.exec_wait_s = 0.0
        #: This request's share of its batch's simulated execution time.
        self.exec_share_s = 0.0
        #: Full simulated time of the batch that served this request.
        self.batch_time_s = 0.0
        #: queue_wait_s + exec_wait_s + exec_share_s (the accounting quantity).
        self.latency_s = 0.0
        #: Simulated completion: exec start time + full batch time.
        self.completion_s = 0.0
        self.batch_index: int | None = None
        #: Real (unpadded) request count of the serving batch.
        self.batch_requests = 0
        #: Padded G actually dispatched.
        self.batch_g = 0
        #: The batch's ``config["failover"]`` dict, if it failed over.
        self.failover: dict | None = None
        #: How many service-level bisections this request went through.
        self.splits = 0
        #: The request this ticket carries for a fronting router (its
        #: :class:`~repro.cluster.router.ClusterTicket`), set when the
        #: router's replica subscription sees the admission.
        self.origin = None

    @property
    def done(self) -> bool:
        return self.status == "done"

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def result(self) -> np.ndarray:
        """The scanned request, or raise if pending/failed/evicted."""
        if self.status == "queued":
            raise ConfigurationError(
                f"request {self.index} is still queued; advance the clock, "
                "flush or drain the service first"
            )
        if self.status == "evicted":
            raise RequestFailedError(
                f"request {self.index} was evicted from its queue "
                "(replica drained before its batch flushed)", cause=self.error
            )
        if self.status == "failed":
            raise RequestFailedError(
                f"request {self.index} failed: {self.error}", cause=self.error
            )
        assert self.output is not None
        return self.output

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SubmitResult(#{self.index}, {self.key}, {self.status}, "
                f"latency={self.latency_s * 1e3:.3f} ms)")


class _Pending(NamedTuple):
    """A queued request: its ticket plus the raw row to coalesce (the
    ``(ticket, data)`` pair failure and eviction outcomes carry)."""

    ticket: SubmitResult
    data: np.ndarray


@dataclass
class BatchReport:
    """One dispatched batch: what coalesced into it and what it cost."""

    index: int
    key: QueueKey
    reason: str
    flush_s: float
    requests: int
    g: int
    sim_time_s: float
    queue_wait_s: float
    splits: int = 0
    #: Time the batch waited for the serial executor (serialize_exec only).
    exec_wait_s: float = 0.0
    result: ScanResult | None = field(default=None, repr=False)


class ServiceStats:
    """Counters and distributions of one service's outcomes.

    A subscriber like any other: the service keeps one for its lifetime
    (:meth:`ScanService.stats` and the service's ``served``,
    ``total_exec_s``, ``latency``... attributes read it), and
    :func:`~repro.serve.replay.replay` subscribes a fresh one per run.
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.served = 0
        self.failed = 0
        self.rejected = 0
        self.evicted = 0
        self.batches = 0
        self.splits = 0
        self.padded_rows = 0
        # Exact accounting totals for the no-double-counting invariant.
        self.total_queue_wait_s = 0.0
        self.total_exec_wait_s = 0.0
        self.total_exec_s = 0.0
        self.total_latency_s = 0.0
        #: Streaming distributions (mirroring the session's histograms).
        self.latency = Histogram("serve.latency_s")
        self.batch_size = Histogram("serve.batch_size")

    def on_submit(self, service, ticket) -> None:
        self.submitted += 1

    def on_reject(self, service, error) -> None:
        self.rejected += 1

    def on_split(self, service, key, requests, depth) -> None:
        self.splits += 1

    def on_batch(self, service, report, tickets) -> None:
        self.served += report.requests
        self.batches += 1
        self.padded_rows += report.g - report.requests
        self.batch_size.observe(report.requests)
        self._settled(tickets)

    def on_fail(self, service, pairs, exc) -> None:
        self.failed += len(pairs)
        self._settled([t for t, _data in pairs])

    def on_evict(self, service, pairs) -> None:
        self.evicted += len(pairs)

    def _settled(self, tickets) -> None:
        """Book one settled batch's latencies and exact totals.

        Every ticket of a batch shares its executor wait and its
        execution (or attempted) time, so the totals grow by the batch,
        not by the ticket.
        """
        queue_wait = 0.0
        for t in tickets:
            self.latency.observe(t.latency_s)
            queue_wait += t.queue_wait_s
        exec_wait = tickets[0].exec_wait_s * len(tickets)
        exec_s = tickets[0].batch_time_s
        self.total_queue_wait_s += queue_wait
        self.total_exec_wait_s += exec_wait
        self.total_exec_s += exec_s
        self.total_latency_s += queue_wait + exec_wait + exec_s

    def summary(self, service) -> dict:
        """This record's counters and distributions, plus ``service``'s
        live state (queue depth, SLO, controller, session counters)."""
        return {
            "submitted": self.submitted,
            "served": self.served,
            "failed": self.failed,
            "rejected": self.rejected,
            "evicted": self.evicted,
            "queued": service.depth,
            "batches": self.batches,
            "splits": self.splits,
            "padded_rows": self.padded_rows,
            "mean_batch_size": (self.served / self.batches
                                if self.batches else 0.0),
            "total_queue_wait_s": self.total_queue_wait_s,
            "total_exec_wait_s": self.total_exec_wait_s,
            "total_exec_s": self.total_exec_s,
            "total_latency_s": self.total_latency_s,
            "latency": self.latency.summary(),
            "batch_size": self.batch_size.summary(),
            "slo": service.slo.snapshot() if service.slo is not None else None,
            "control": (service.controller.snapshot()
                        if service.controller is not None else None),
            "session": {
                "calls": service.session.calls,
                "hits": service.session.hits,
                "misses": service.session.misses,
            },
        }


class _Mirror:
    """Mirrors each outcome into the obs registry and the flight recorder.

    Subscribed after the SLO monitor, so a backpressure postmortem holds
    the rejection in both its registry and its SLO snapshot. With
    observability off and the recorder disarmed every hook is a flag
    check.
    """

    def on_submit(self, service, ticket) -> None:
        if obs.is_enabled():
            obs.counter("serve.submitted").inc()
            obs.gauge("serve.queue_depth").set(service.depth)

    def on_reject(self, service, error) -> None:
        if obs.is_enabled():
            obs.counter("serve.rejected").inc()
        if flight.is_armed():
            flight.note("backpressure", at_s=service.clock.now,
                        depth=service.depth, max_queue=service.max_queue)
            # The last batch's trace rides along, if a batch ran yet.
            flight.dump_postmortem(
                error,
                trace=(service.batches[-1].result.trace
                       if service.batches else None),
                registry=obs.registry(),
                health=service.session.health.snapshot(),
                slo=service.slo.snapshot() if service.slo is not None else None,
            )

    def on_flush(self, service, key, requests, reason, depth) -> None:
        # Only the queue's own flush counts as one; a split's halves
        # re-dispatch inside it.
        if depth == 0 and obs.is_enabled():
            obs.counter("serve.flushes", reason=reason).inc()
            obs.gauge("serve.queue_depth").set(service.depth)
        if flight.is_armed():
            flight.note("dispatch", at_s=service.clock.now, key=str(key),
                        requests=requests, reason=reason, depth=depth)

    def on_split(self, service, key, requests, depth) -> None:
        if obs.is_enabled():
            obs.counter("serve.batch_splits").inc()

    def on_batch(self, service, report, tickets) -> None:
        if obs.is_enabled():
            self._settled(tickets)
            obs.histogram("serve.batch_size").observe(report.requests)
            obs.counter("serve.served").inc(report.requests)
            obs.counter("serve.padded_rows").inc(report.g - report.requests)

    def on_fail(self, service, pairs, exc) -> None:
        if obs.is_enabled():
            self._settled([t for t, _data in pairs])
            obs.counter("serve.request_failures").inc(len(pairs))
        if flight.is_armed():
            flight.note("requests_failed", at_s=service.clock.now,
                        requests=len(pairs), depth=pairs[0][0].splits,
                        error=str(exc))

    def on_evict(self, service, pairs) -> None:
        if obs.is_enabled():
            obs.counter("serve.evicted").inc(len(pairs))
            obs.gauge("serve.queue_depth").set(service.depth)

    @staticmethod
    def _settled(tickets) -> None:
        for t in tickets:
            obs.histogram("serve.latency_s").observe(t.latency_s)
            obs.histogram("serve.queue_wait_s").observe(t.queue_wait_s)


_MIRROR = _Mirror()

#: ``ScanService._head_s`` after a flush or eviction moved a queue head.
_STALE = object()
#: Bound on the request spellings one service keeps validated.
_KEYS_CAP = 256


def _require_count(name: str, value) -> None:
    """``value`` must be an int >= 1 (a bool is not a count)."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(f"{name} must be an int >= 1, got {value!r}")


class ScanService:
    """A request-coalescing front-end over one :class:`ScanSession`.

    Parameters
    ----------
    session:
        The serving session to dispatch through. ``None`` builds one on
        ``topology`` (or the default machine).
    max_batch:
        Flush a queue as soon as it holds this many requests.
    max_wait_s:
        Flush a queue (during :meth:`advance`/timestamped submits) once
        its oldest request has waited this long in simulated time.
    max_queue:
        Admission bound across *all* queues; beyond it :meth:`submit`
        raises :class:`~repro.errors.BackpressureError`.
    proposal, W, V, M, K:
        Placement knobs applied to every dispatched batch (``"auto"``
        re-runs Premise 4 per batch shape).
    slo:
        Optional :class:`~repro.obs.slo.SLOMonitor`, subscribed to the
        outcome stream. Completed requests feed it latency outcomes at
        their simulated completion time; failed and
        backpressure-rejected requests feed availability outcomes — so
        burn-rate alerts fire deterministically inside replays, at
        simulated timestamps.
    snapshot:
        Optional :class:`~repro.core.store.SessionSnapshot` (or a path
        to one) applied to the serving session before the first request
        — a restored replica answers request one from warm plans, tuned
        K entries and pre-populated buffer pools. An incompatible
        snapshot (schema, architecture or cost-fingerprint mismatch) is
        refused gracefully and serving starts cold; see
        ``session.restore_info``.
    serialize_exec:
        Model the replica's executor as a *serial* resource: a batch
        whose flush time lands while an earlier batch is still executing
        waits for it (``exec_wait_s``), and completions stack up instead
        of overlapping. Off by default — the classic service overlaps
        batches freely, which keeps historical accounting bit-identical
        — but the cluster layer turns it on so tail latency actually
        responds to per-replica load.
    controller:
        Optional :class:`~repro.control.Controller` (usually the
        :func:`~repro.control.adaptive_controller` stack) closing the
        loop from the service's own metrics back to its policy knobs.
        It subscribes to the outcome stream, so it is ticked at
        deterministic points only — after each admitted request, each
        scattered batch and each terminal batch failure, all on the
        simulated clock — and an adaptive replay is exactly as
        reproducible as a static one; its decision log rides along in
        :meth:`stats` and in flight-recorder notes. Controllers adjust
        batching and latency, never payloads: results stay bit-identical
        to a static service's.

    Every outcome goes to the subscribers in this order: the lifetime
    stats record, ``slo``, the obs/flight mirror, ``controller``, then
    anything added with :meth:`subscribe` (a fronting router, a
    replay's per-run record). The clock only moves when the caller
    moves it — via timestamped ``submit(..., at=...)``, :meth:`advance`,
    or :meth:`advance_to` — so identical request schedules replay into
    identical batches.
    """

    def __init__(
        self,
        session=None,
        topology=None,
        *,
        max_batch: int = 64,
        max_wait_s: float = 1e-3,
        max_queue: int = 1024,
        proposal: str = "auto",
        W: int = 1,
        V: int | None = None,
        M: int = 1,
        K: int | str | None = None,
        slo=None,
        snapshot=None,
        serialize_exec: bool = False,
        controller=None,
    ):
        from repro.core.session import ScanSession, default_session

        if session is None:
            if topology is not None or snapshot is not None:
                session = ScanSession(topology, M=M, snapshot=snapshot)
            else:
                session = default_session(M)
        elif snapshot is not None:
            session.apply_snapshot(snapshot)
        _require_count("max_batch", max_batch)
        _require_count("max_queue", max_queue)
        if (not isinstance(max_wait_s, Real) or isinstance(max_wait_s, bool)
                or math.isnan(max_wait_s) or max_wait_s < 0):
            raise ConfigurationError(
                f"max_wait_s must be a number of seconds >= 0, got {max_wait_s!r}"
            )
        self.session = session
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.max_queue = max_queue
        self.proposal = proposal
        self.W = W
        self.V = V
        self.M = M
        self.K = K
        self.slo = slo
        self.serialize_exec = bool(serialize_exec)
        self.controller = controller
        self.clock = SimClock()
        self._queues: dict[QueueKey, list[_Pending]] = {}
        #: Requests queued across every key (:attr:`depth`), kept where
        #: requests enter and leave the queues.
        self._depth = 0
        #: The earliest arrival among the queue heads (``None``: every
        #: queue is empty), or ``_STALE`` after a flush or eviction moved
        #: a head. Deadlines are never cached: controllers move
        #: ``max_wait_s`` mid-stream.
        self._head_s = None
        #: ``(padded n, dtype, operator, inclusive) -> QueueKey`` of every
        #: request spelling validated so far (see :meth:`submit`).
        self._keys: dict[tuple, QueueKey] = {}
        self.batches: list[BatchReport] = []
        # When the last batch frees the serial executor (serialize_exec).
        self.busy_until_s = 0.0
        #: The lifetime stats record: the first subscriber.
        self.record = ServiceStats()
        self._subscribers = [s for s in (self.record, slo, _MIRROR, controller)
                             if s is not None]
        self._wire()
        if controller is not None:
            controller.bind(self)

    # --------------------------------------------------------- outcomes

    def subscribe(self, subscriber) -> None:
        """Append ``subscriber`` to this service's outcome stream.

        A subscriber defines any of these hooks; each outcome calls them
        once, service first, in subscription order:

        - ``on_submit(service, ticket)``: a request was admitted (before
          its queue's ``max_batch`` check);
        - ``on_reject(service, error)``: admission shed a request with
          ``error`` (a :class:`~repro.errors.BackpressureError`);
        - ``on_flush(service, key, requests, reason, depth)``: a batch is
          about to dispatch (``depth > 0`` for the halves of a split);
        - ``on_split(service, key, requests, depth)``: a batch that
          exhausted failover is bisected;
        - ``on_batch(service, report, tickets)``: a batch scattered;
        - ``on_fail(service, pairs, exc)``: ``(ticket, data)`` rows failed
          terminally with ``exc``;
        - ``on_evict(service, pairs)``: queued ``(ticket, data)`` rows were
          evicted.
        """
        self._subscribers.append(subscriber)
        self._wire()

    def unsubscribe(self, subscriber) -> None:
        """Remove ``subscriber`` from the outcome stream."""
        self._subscribers.remove(subscriber)
        self._wire()

    def _wire(self) -> None:
        # Each event's hooks are looked up here, once, not per outcome.
        self._hooks = {
            event: [getattr(s, event) for s in self._subscribers
                    if hasattr(s, event)]
            for event in _EVENTS
        }

    def _report(self, event: str, *args) -> None:
        """Hand one outcome to every subscriber hook, in order."""
        for hook in self._hooks[event]:
            hook(self, *args)

    # ------------------------------------------------------------- admission

    @property
    def depth(self) -> int:
        """Requests currently queued across every key."""
        return self._depth

    def submit(
        self,
        data: np.ndarray,
        operator="add",
        inclusive: bool = True,
        at: float | None = None,
    ) -> SubmitResult:
        """Admit one problem (a 1-D array) into the coalescing queue.

        ``at`` stamps the arrival on the simulated timeline (and first
        advances the clock there, firing any ``max_wait`` deadlines that
        elapse on the way); ``None`` means "now". Returns the request's
        :class:`SubmitResult` ticket immediately — it completes when its
        batch flushes.
        """
        arr = np.asarray(data)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"service requests are single problems (1-D), got shape {arr.shape}"
            )
        size = arr.size
        if size == 0:
            raise ConfigurationError("service requests must be non-empty")
        n = next_power_of_two(size)
        # A spelling validated before maps straight to its key; the exact
        # types keep e.g. ``inclusive=1`` from riding on ``True``'s entry.
        spelling = (n, arr.dtype, type(operator), operator,
                    type(inclusive), inclusive)
        try:
            key = self._keys.get(spelling)
        except TypeError:  # an unhashable operator: validate every time
            spelling = key = None
        if key is None:
            key = self._queue_key(n, arr.dtype, operator, inclusive)
            if spelling is not None:
                if len(self._keys) >= _KEYS_CAP:
                    self._keys.clear()
                self._keys[spelling] = key
        if at is not None:
            self.advance_to(at)
        depth = self.depth
        if depth >= self.max_queue:
            error = BackpressureError(
                f"admission queue full ({depth}/{self.max_queue} queued); "
                "request rejected"
            )
            self._report("on_reject", error)
            raise error
        now = self.clock.now
        ticket = SubmitResult(self.record.submitted, key, now, size)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = []
        if not queue and self._head_s is None:
            self._head_s = now
        queue.append(_Pending(ticket, arr))
        self._depth += 1
        # Subscribers (the controller among them) see the admission
        # before the max_batch check, so a knob moved here governs this
        # very admission.
        self._report("on_submit", ticket)
        if len(queue) >= self.max_batch:
            self._flush_key(key, reason="max_batch")
        return ticket

    @staticmethod
    def _queue_key(n: int, dtype: np.dtype, operator, inclusive) -> QueueKey:
        """Validate one request spelling into its queue key."""
        op = resolve_operator(operator)
        require_scannable(dtype, op)
        if not isinstance(inclusive, (bool, np.bool_)):
            raise ConfigurationError(f"inclusive must be a bool, got {inclusive!r}")
        return QueueKey(n=n, dtype=dtype.name, operator=op.name,
                        inclusive=bool(inclusive))

    # ----------------------------------------------------------------- time

    def _earliest_head_s(self) -> float | None:
        """The earliest queue-head arrival, recomputed only after a head
        moved (``None``: every queue is empty)."""
        head = self._head_s
        if head is _STALE:
            head = self._head_s = min(
                (q[0].ticket.arrival_s for q in self._queues.values() if q),
                default=None,
            )
        return head

    def _deadlines(self) -> list[tuple[float, QueueKey]]:
        """(deadline, key) of every non-empty queue, soonest first."""
        out = [
            (queue[0].ticket.arrival_s + self.max_wait_s, key)
            for key, queue in self._queues.items()
            if queue
        ]
        out.sort(key=lambda item: (item[0], item[1].n, item[1].operator))
        return out

    def advance(self, dt_s: float) -> float:
        """Advance simulated time, firing ``max_wait`` flushes on the way."""
        return self.advance_to(self.clock.now + finite_seconds(dt_s, "a clock step"))

    def advance_to(self, t_s: float) -> float:
        """Advance to absolute time ``t_s``, flushing queues whose oldest
        request's ``max_wait`` deadline falls at or before it — each at
        its exact deadline, in deadline order."""
        finite_seconds(t_s, "a serving time")
        if t_s < self.clock.now:
            raise ConfigurationError(
                f"serving clock cannot run backwards: now={self.clock.now}, "
                f"requested {t_s}"
            )
        while True:
            # The earliest deadline is the earliest head plus the current
            # max_wait_s; the ordered list is built only when one is due.
            head = self._earliest_head_s()
            if head is None or head + self.max_wait_s > t_s:
                break
            deadline, key = self._deadlines()[0]
            self.clock.advance_to(max(deadline, self.clock.now))
            self._flush_key(key, reason="max_wait")
        return self.clock.advance_to(max(t_s, self.clock.now))

    # ---------------------------------------------------------------- flush

    def flush(self, key: QueueKey | None = None, reason: str = "flush") -> None:
        """Flush one queue (or, with ``key=None``, every queue) now."""
        if key is not None:
            self._flush_key(key, reason=reason)
            return
        for k in self._ordered_keys():
            self._flush_key(k, reason=reason)

    def drain(self) -> None:
        """Flush every queue at the current simulated time."""
        self.flush(reason="drain")

    def _ordered_keys(self) -> list[QueueKey]:
        """Non-empty queues, oldest head request first (FIFO across keys)."""
        keys = [(q[0].ticket.arrival_s, q[0].ticket.index, k)
                for k, q in self._queues.items() if q]
        keys.sort(key=lambda item: (item[0], item[1]))
        return [k for _, _, k in keys]

    def _flush_key(self, key: QueueKey, reason: str) -> None:
        queue = self._queues.get(key)
        if not queue:
            return
        pending, self._queues[key] = queue[: self.max_batch], queue[self.max_batch:]
        self._depth -= len(pending)
        self._head_s = _STALE
        span = (obs.span("serve.coalesce", key=str(key), requests=len(pending),
                         reason=reason)
                if obs.is_enabled() else obs.NULL_SPAN)
        with span:
            try:
                self._dispatch(key, pending, reason, depth=0)
            except BaseException as exc:
                # Whatever escaped (failover exhaustion never does), every
                # popped request is settled exactly once before it
                # propagates: none is left queued outside its queue.
                stranded = [p for p in pending if p.ticket.status == "queued"]
                if stranded:
                    self._fail(stranded, exc)
                raise
        # A flush can leave a (rare) over-full remainder behind when
        # submits outpaced max_batch; keep flushing until legal. The
        # re-flush fires because the remainder is over max_batch, not
        # because of whatever triggered the original flush, so it gets
        # its own reason — carrying e.g. "max_wait" through would skew
        # the serve.flushes counter labels.
        if len(self._queues.get(key, ())) >= self.max_batch:
            self._flush_key(key, reason="max_batch")

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, key: QueueKey, pending: list[_Pending], reason: str,
                  depth: int) -> None:
        """Coalesce ``pending`` into one batch, run it, scatter results.

        On :class:`FailoverExhaustedError` the batch is bisected and each
        half redispatched (``depth`` bounds the recursion via the retry
        policy's ``max_batch_splits``); a singleton that still fails marks
        its ticket failed.
        """
        flush_s = self.clock.now
        requests = len(pending)
        self._report("on_flush", key, requests, reason, depth)
        rows = [p.data for p in pending]
        batch = pad_rows_to_batch(rows, key.n, key.operator,
                                  dtype=np.dtype(key.dtype))
        g = batch.shape[0]
        span = (obs.span("serve.flush", key=str(key), requests=requests,
                         g=g, depth=depth)
                if obs.is_enabled() else obs.NULL_SPAN)
        try:
            with span:
                result = self.session.scan(
                    batch,
                    proposal=self.proposal,
                    W=self.W,
                    V=self.V,
                    M=self.M,
                    operator=key.operator,
                    inclusive=key.inclusive,
                    K=self.K,
                )
        except FailoverExhaustedError as exc:
            policy = self.session.health.policy
            if requests == 1 or depth >= policy.max_batch_splits:
                self._fail(pending, exc)
                return
            self._report("on_split", key, requests, depth)
            mid = requests // 2
            for p in pending:
                p.ticket.splits += 1
            self._dispatch(key, pending[:mid], reason, depth + 1)
            self._dispatch(key, pending[mid:], reason, depth + 1)
            return
        self._scatter(key, pending, result, reason, flush_s)

    def _settle(self, pending: list[_Pending], status: str,
                flush_s: float, exec_s: float) -> tuple[float, float]:
        """Stamp each ticket's outcome and latency accounting.

        The one accounting path for served and failed requests alike:
        ``exec_s`` is the batch's execution time (for a failed batch, the
        time its attempts burned). Latency is queue wait plus executor
        wait plus the request's share of ``exec_s``, and the request
        completes at execution start plus ``exec_s``. Returns the batch's
        executor wait and its summed queue wait.
        """
        requests = len(pending)
        # With a serial executor, a batch flushed while an earlier batch
        # is still running waits for it before starting.
        if self.serialize_exec:
            start_s = max(flush_s, self.busy_until_s)
            self.busy_until_s = start_s + exec_s
        else:
            start_s = flush_s
        exec_wait = start_s - flush_s
        # Equal execution shares, with the division remainder assigned to
        # the last request so the shares sum to exec_s *bit-exactly*
        # (requests is not always a power of two; naive D/R shares would
        # leak float drift into the accounting invariant).
        share = exec_s / requests
        queue_wait_total = 0.0
        for i, p in enumerate(pending):
            t = p.ticket
            t.status = status
            t.queue_wait_s = flush_s - t.arrival_s
            t.exec_wait_s = exec_wait
            t.exec_share_s = (share if i < requests - 1
                              else exec_s - share * (requests - 1))
            t.batch_time_s = exec_s
            t.latency_s = t.queue_wait_s + t.exec_wait_s + t.exec_share_s
            t.completion_s = start_s + exec_s
            queue_wait_total += t.queue_wait_s
        return exec_wait, queue_wait_total

    def _scatter(self, key: QueueKey, pending: list[_Pending],
                 result: ScanResult, reason: str, flush_s: float) -> None:
        """Hand each request its output row and its latency accounting."""
        requests = len(pending)
        batch_time = result.total_time_s
        exec_wait, queue_wait_total = self._settle(pending, "done",
                                                   flush_s, batch_time)
        batch_index = len(self.batches)
        failover = result.config.get("failover")
        tickets = [p.ticket for p in pending]
        for i, t in enumerate(tickets):
            t.output = result.output[i, : t.size].copy()
            t.batch_index = batch_index
            t.batch_requests = requests
            t.batch_g = result.problem.G
            t.failover = failover
        report = BatchReport(
            index=batch_index,
            key=key,
            reason=reason,
            flush_s=flush_s,
            requests=requests,
            g=result.problem.G,
            sim_time_s=batch_time,
            queue_wait_s=queue_wait_total,
            splits=pending[0].ticket.splits,
            exec_wait_s=exec_wait,
            result=result,
        )
        self.batches.append(report)
        self._report("on_batch", report, tickets)

    def _fail(self, pending: list[_Pending], exc: BaseException) -> None:
        """Mark ``pending`` failed, charging the time the attempts burned.

        Failed-request accounting: latency is queue wait plus the
        request's share of the *attempted* execution time — the retry
        backoff the exhausted failover actually simulated, carried by
        ``FailoverExhaustedError.attempts`` — shared across the batch
        exactly like a successful batch's execution time. The request
        completes (and the SLO monitor sees its failure) at flush plus
        the attempted time, not at flush time.
        """
        attempted_s = 0.0
        if isinstance(exc, FailoverExhaustedError):
            attempted_s = float(sum(a.backoff_s for a in exc.attempts))
        self._settle(pending, "failed", self.clock.now, attempted_s)
        for p in pending:
            p.ticket.error = exc
        self._report("on_fail", pending, exc)

    # -------------------------------------------------------------- eviction

    def evict_pending(self) -> list[tuple[SubmitResult, np.ndarray]]:
        """Remove every queued request without dispatching it.

        Used by a fronting router when draining a replica: the queued
        rows come back as ``(ticket, data)`` pairs so they can be
        resubmitted elsewhere. Evicted tickets get ``status ==
        "evicted"`` (their :meth:`SubmitResult.result` raises) and are
        *not* counted as served or failed — they are accounted by
        whichever replica finally serves them.
        """
        pairs: list[_Pending] = []
        for key in self._ordered_keys():
            for p in self._queues.pop(key, []):
                p.ticket.status = "evicted"
                pairs.append(p)
        self._depth -= len(pairs)
        self._head_s = _STALE
        if pairs:
            self._report("on_evict", pairs)
        return pairs

    # -------------------------------------------------------- introspection

    def stats(self) -> dict:
        """Counter snapshot plus latency/batch-size distributions."""
        return self.record.summary(self)


# Counter reads (``service.served``, ``.total_exec_s``, ``.latency``...)
# are views of the lifetime stats record.
for _field in ("submitted", "served", "failed", "rejected", "evicted",
               "splits", "padded_rows", "total_queue_wait_s",
               "total_exec_wait_s", "total_exec_s", "total_latency_s",
               "latency", "batch_size"):
    setattr(ScanService, _field, property(attrgetter(f"record.{_field}")))
del _field
