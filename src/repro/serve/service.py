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

from dataclasses import dataclass, field

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
from repro.core.results import ScanResult
from repro.primitives.operators import resolve_operator
from repro.serve.clock import SimClock
from repro.util.ints import next_power_of_two

__all__ = ["QueueKey", "SubmitResult", "BatchReport", "ScanService"]


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
        "batch_g", "failover", "splits", "seq",
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
        #: Monotone terminal-order stamp: the order in which this service
        #: resolved tickets (done/failed/evicted). Lets callers rebuild
        #: the service's own observation order bit-exactly.
        self.seq: int | None = None

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


@dataclass
class _Pending:
    """A queued request: its ticket plus the raw row to coalesce."""

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
        Optional :class:`~repro.obs.slo.SLOMonitor`. Completed requests
        feed it latency outcomes at their simulated completion time;
        failed and backpressure-rejected requests feed availability
        outcomes — so burn-rate alerts fire deterministically inside
        replays, at simulated timestamps.
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
    on_scatter, on_fail:
        Optional replica hooks for a fronting router.
        ``on_scatter(service, report, tickets)`` fires after a batch
        scatters; ``on_fail(service, pairs, exc)`` fires after tickets
        are marked failed, with ``pairs`` the ``(ticket, data)`` rows so
        the router can re-route them elsewhere.
    controller:
        Optional :class:`~repro.control.Controller` (usually the
        :func:`~repro.control.adaptive_controller` stack) closing the
        loop from the service's own metrics back to its policy knobs.
        The controller is ticked at deterministic points only — after
        each admitted request, each scattered batch and each terminal
        batch failure, all on the simulated clock — so an adaptive
        replay is exactly as reproducible as a static one; its decision
        log rides along in :meth:`stats` and in flight-recorder notes.
        Controllers adjust batching and latency, never payloads: results
        stay bit-identical to a static service's.

    The clock only moves when the caller moves it — via timestamped
    ``submit(..., at=...)``, :meth:`advance`, or :meth:`advance_to` —
    so identical request schedules replay into identical batches.
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
        on_scatter=None,
        on_fail=None,
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
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ConfigurationError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
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
        self.on_scatter = on_scatter
        self.on_fail = on_fail
        self.controller = controller
        self.clock = SimClock()
        self._queues: dict[QueueKey, list[_Pending]] = {}
        self.batches: list[BatchReport] = []
        # Serving counters (always on; cheap ints).
        self.submitted = 0
        self.served = 0
        self.failed = 0
        self.rejected = 0
        self.evicted = 0
        self.padded_rows = 0
        self.splits = 0
        # Monotone terminal-order stamp (see SubmitResult.seq).
        self._seq = 0
        # When the last batch frees the serial executor (serialize_exec).
        self.busy_until_s = 0.0
        # Exact accounting totals for the no-double-counting invariant.
        self.total_queue_wait_s = 0.0
        self.total_exec_wait_s = 0.0
        self.total_exec_s = 0.0
        self.total_latency_s = 0.0
        #: Streaming distributions (mirroring the session's histograms).
        self.latency = Histogram("serve.latency_s")
        self.batch_size = Histogram("serve.batch_size")
        if controller is not None:
            controller.bind(self)

    # ------------------------------------------------------------- admission

    @property
    def depth(self) -> int:
        """Requests currently queued across every key."""
        return sum(len(q) for q in self._queues.values())

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
        if arr.size == 0:
            raise ConfigurationError("service requests must be non-empty")
        op = resolve_operator(operator)
        if at is not None:
            self.advance_to(at)
        if self.depth >= self.max_queue:
            self.rejected += 1
            if obs.is_enabled():
                obs.counter("serve.rejected").inc()
            if self.slo is not None:
                self.slo.observe(self.clock.now, ok=False)
            error = BackpressureError(
                f"admission queue full ({self.depth}/{self.max_queue} queued); "
                "request rejected"
            )
            if flight.is_armed():
                flight.note("backpressure", at_s=self.clock.now,
                            depth=self.depth, max_queue=self.max_queue)
                last_trace = next(
                    (b.result.trace for b in reversed(self.batches)
                     if b.result is not None),
                    None,
                )
                flight.dump_postmortem(
                    error,
                    trace=last_trace,
                    registry=obs.registry(),
                    health=self.session.health.snapshot(),
                    slo=self.slo.snapshot() if self.slo is not None else None,
                )
            raise error
        key = QueueKey(
            n=next_power_of_two(arr.size),
            dtype=arr.dtype.name,
            operator=op.name,
            inclusive=bool(inclusive),
        )
        ticket = SubmitResult(self.submitted, key, self.clock.now, arr.size)
        self.submitted += 1
        queue = self._queues.setdefault(key, [])
        queue.append(_Pending(ticket, arr))
        if obs.is_enabled():
            obs.counter("serve.submitted").inc()
            obs.gauge("serve.queue_depth").set(self.depth)
        # The controller ticks before the max_batch check so a knob it
        # just moved governs this very admission (deterministically: the
        # tick is a pure function of the clock and the counters).
        if self.controller is not None:
            self.controller.on_submit(self)
        if len(queue) >= self.max_batch:
            self._flush_key(key, reason="max_batch")
        return ticket

    # ----------------------------------------------------------------- time

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
        return self.advance_to(self.clock.now + dt_s)

    def advance_to(self, t_s: float) -> float:
        """Advance to absolute time ``t_s``, flushing queues whose oldest
        request's ``max_wait`` deadline falls at or before it — each at
        its exact deadline, in deadline order."""
        if t_s < self.clock.now:
            raise ConfigurationError(
                f"serving clock cannot run backwards: now={self.clock.now}, "
                f"requested {t_s}"
            )
        while True:
            deadlines = self._deadlines()
            if not deadlines or deadlines[0][0] > t_s:
                break
            deadline, key = deadlines[0]
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
        enabled = obs.is_enabled()
        with obs.span("serve.coalesce", key=str(key), requests=len(pending),
                      reason=reason):
            if enabled:
                obs.counter("serve.flushes", reason=reason).inc()
                obs.gauge("serve.queue_depth").set(self.depth)
            self._dispatch(key, pending, reason, depth=0)
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
        if flight.is_armed():
            flight.note("dispatch", at_s=flush_s, key=str(key),
                        requests=requests, reason=reason, depth=depth)
        rows = [p.data for p in pending]
        batch = pad_rows_to_batch(rows, key.n, key.operator,
                                  dtype=np.dtype(key.dtype))
        g = batch.shape[0]
        try:
            with obs.span("serve.flush", key=str(key), requests=requests,
                          g=g, depth=depth):
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
                self._fail(pending, exc, depth)
                return
            self.splits += 1
            if obs.is_enabled():
                obs.counter("serve.batch_splits").inc()
            mid = requests // 2
            for p in pending:
                p.ticket.splits += 1
            self._dispatch(key, pending[:mid], reason, depth + 1)
            self._dispatch(key, pending[mid:], reason, depth + 1)
            return
        self._scatter(key, pending, result, reason, flush_s)

    def _settle(self, pending: list[_Pending], status: str, ok: bool,
                flush_s: float, exec_s: float) -> tuple[float, float]:
        """Stamp each ticket's outcome and latency accounting; book totals.

        The one accounting path for served and failed requests alike:
        ``exec_s`` is the batch's execution time (for a failed batch, the
        time its attempts burned). Latency is queue wait plus executor
        wait plus the request's share of ``exec_s``; the SLO outcome is
        stamped at the simulated completion. Returns the batch's executor
        wait and its summed queue wait.
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
        enabled = obs.is_enabled()
        for i, p in enumerate(pending):
            t = p.ticket
            t.status = status
            t.seq = self._seq
            self._seq += 1
            t.queue_wait_s = flush_s - t.arrival_s
            t.exec_wait_s = exec_wait
            t.exec_share_s = (share if i < requests - 1
                              else exec_s - share * (requests - 1))
            t.batch_time_s = exec_s
            t.latency_s = t.queue_wait_s + t.exec_wait_s + t.exec_share_s
            t.completion_s = start_s + exec_s
            queue_wait_total += t.queue_wait_s
            self.latency.observe(t.latency_s)
            if self.slo is not None:
                self.slo.observe(t.completion_s, latency_s=t.latency_s, ok=ok)
            if enabled:
                obs.histogram("serve.latency_s").observe(t.latency_s)
                obs.histogram("serve.queue_wait_s").observe(t.queue_wait_s)
        self.total_queue_wait_s += queue_wait_total
        self.total_exec_wait_s += exec_wait * requests
        self.total_exec_s += exec_s
        self.total_latency_s += queue_wait_total + exec_wait * requests + exec_s
        return exec_wait, queue_wait_total

    def _scatter(self, key: QueueKey, pending: list[_Pending],
                 result: ScanResult, reason: str, flush_s: float) -> None:
        """Hand each request its output row and its latency accounting."""
        requests = len(pending)
        batch_time = result.total_time_s
        exec_wait, queue_wait_total = self._settle(pending, "done", True,
                                                   flush_s, batch_time)
        batch_index = len(self.batches)
        failover = result.config.get("failover")
        for i, p in enumerate(pending):
            t = p.ticket
            t.output = result.output[i, : t.size].copy()
            t.batch_index = batch_index
            t.batch_requests = requests
            t.batch_g = result.problem.G
            t.failover = failover
        self.served += requests
        self.padded_rows += result.problem.G - requests
        self.batch_size.observe(requests)
        if obs.is_enabled():
            obs.histogram("serve.batch_size").observe(requests)
            obs.counter("serve.served").inc(requests)
            obs.counter("serve.padded_rows").inc(result.problem.G - requests)
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
        if self.controller is not None:
            self.controller.on_batch(self, report)
        if self.on_scatter is not None:
            self.on_scatter(self, report, [p.ticket for p in pending])

    def _fail(self, pending: list[_Pending], exc: BaseException,
              depth: int) -> None:
        """Mark ``pending`` failed, charging the time the attempts burned.

        Failed-request accounting: latency is queue wait plus the
        request's share of the *attempted* execution time — the retry
        backoff the exhausted failover actually simulated, carried by
        ``FailoverExhaustedError.attempts`` — shared across the batch
        exactly like a successful batch's execution time. The SLO
        availability outcome is stamped at the simulated completion
        (flush + attempted time), not at flush time.
        """
        requests = len(pending)
        attempted_s = 0.0
        if isinstance(exc, FailoverExhaustedError):
            attempted_s = float(sum(a.backoff_s for a in exc.attempts))
        self._settle(pending, "failed", False, self.clock.now, attempted_s)
        for p in pending:
            p.ticket.error = exc
            p.ticket.splits = depth
        self.failed += requests
        if obs.is_enabled():
            obs.counter("serve.request_failures").inc(requests)
        if flight.is_armed():
            flight.note("requests_failed", at_s=self.clock.now,
                        requests=requests, depth=depth, error=str(exc))
        if self.controller is not None:
            self.controller.on_fail(self, exc)
        if self.on_fail is not None:
            self.on_fail(self, [(p.ticket, p.data) for p in pending], exc)

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
        pairs: list[tuple[SubmitResult, np.ndarray]] = []
        for key in self._ordered_keys():
            for p in self._queues.pop(key, []):
                t = p.ticket
                t.status = "evicted"
                t.seq = self._seq
                self._seq += 1
                pairs.append((t, p.data))
        self.evicted += len(pairs)
        if pairs and obs.is_enabled():
            obs.counter("serve.evicted").inc(len(pairs))
            obs.gauge("serve.queue_depth").set(self.depth)
        return pairs

    # -------------------------------------------------------- introspection

    def stats(self) -> dict:
        """Counter snapshot plus latency/batch-size distributions."""
        served_batches = len(self.batches)
        return {
            "submitted": self.submitted,
            "served": self.served,
            "failed": self.failed,
            "rejected": self.rejected,
            "evicted": self.evicted,
            "queued": self.depth,
            "batches": served_batches,
            "splits": self.splits,
            "padded_rows": self.padded_rows,
            "mean_batch_size": (self.served / served_batches
                                if served_batches else 0.0),
            "total_queue_wait_s": self.total_queue_wait_s,
            "total_exec_wait_s": self.total_exec_wait_s,
            "total_exec_s": self.total_exec_s,
            "total_latency_s": self.total_latency_s,
            "latency": self.latency.summary(),
            "batch_size": self.batch_size.summary(),
            "slo": self.slo.snapshot() if self.slo is not None else None,
            "control": (self.controller.snapshot()
                        if self.controller is not None else None),
            "session": {
                "calls": self.session.calls,
                "hits": self.session.hits,
                "misses": self.session.misses,
            },
        }
