"""Workload replay: drive a :class:`ScanService` from a request schedule.

A replay is a deterministic list of ``(arrival_s, data)`` requests — a
seeded Poisson process over a size mix by default — submitted to the
service in timestamp order, drained, verified against the sequential
oracle and summarised. The same schedule can also be served *solo* (one
``session.scan`` per request, no coalescing), which is the baseline the
coalescing speedup is measured against: identical work, identical
machine, only the front door differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import BackpressureError, ConfigurationError
from repro.primitives.sequential import exclusive_scan, inclusive_scan
from repro.serve.service import ScanService, ServiceStats, SubmitResult
from repro.util.ints import next_power_of_two

__all__ = ["Request", "poisson_workload", "bursty_workload", "replay",
           "solo_baseline"]


@dataclass(frozen=True)
class Request:
    """One scheduled service request."""

    at_s: float
    data: np.ndarray = field(repr=False)
    operator: str = "add"
    inclusive: bool = True


def poisson_workload(
    requests: int,
    sizes_log2: tuple[int, ...] = (12,),
    rate: float = 0.0,
    dtype=np.int32,
    operator: str = "add",
    inclusive: bool = True,
    seed: int = 0,
) -> list[Request]:
    """A seeded request schedule: Poisson arrivals over a size mix.

    ``rate`` is requests per simulated second; ``0`` means every request
    arrives at t=0 (the closed-loop, batch-friendliest schedule). Sizes
    cycle deterministically through ``sizes_log2`` so every size in the
    mix is exercised regardless of ``requests``.
    """
    if requests < 1:
        raise ConfigurationError(f"need at least one request, got {requests}")
    if not sizes_log2:
        raise ConfigurationError("sizes_log2 must name at least one size")
    rng = np.random.default_rng(seed)
    out: list[Request] = []
    t = 0.0
    for i in range(requests):
        if rate > 0:
            t += float(rng.exponential(1.0 / rate))
        n = 1 << sizes_log2[i % len(sizes_log2)]
        data = rng.integers(0, 100, n).astype(dtype)
        out.append(Request(at_s=t, data=data, operator=operator,
                           inclusive=inclusive))
    return out


def bursty_workload(
    requests: int,
    sizes_log2: tuple[int, ...] = (12,),
    base_rate: float = 2e3,
    burst_rate: float = 2e5,
    burst_every: int = 48,
    burst_len: int = 24,
    dtype=np.int32,
    operator: str = "add",
    inclusive: bool = True,
    seed: int = 0,
) -> list[Request]:
    """A seeded bursty schedule: calm Poisson traffic with periodic bursts.

    Requests cycle through a fixed pattern of ``burst_every`` arrivals:
    the first ``burst_len`` of each cycle arrive at ``burst_rate`` (the
    burst), the rest at ``base_rate`` (the calm tail). Both phases are
    Poisson (seeded exponential gaps), so the schedule stresses exactly
    the hysteresis band an adaptive batching controller must track —
    and, being fully seeded, replays bit-identically.
    """
    if requests < 1:
        raise ConfigurationError(f"need at least one request, got {requests}")
    if not sizes_log2:
        raise ConfigurationError("sizes_log2 must name at least one size")
    if base_rate <= 0 or burst_rate <= 0:
        raise ConfigurationError("bursty schedules need positive rates")
    if not 0 < burst_len <= burst_every:
        raise ConfigurationError(
            f"burst_len must be in (0, burst_every]; got {burst_len} "
            f"of {burst_every}"
        )
    rng = np.random.default_rng(seed)
    out: list[Request] = []
    t = 0.0
    for i in range(requests):
        rate = burst_rate if (i % burst_every) < burst_len else base_rate
        t += float(rng.exponential(1.0 / rate))
        n = 1 << sizes_log2[i % len(sizes_log2)]
        data = rng.integers(0, 100, n).astype(dtype)
        out.append(Request(at_s=t, data=data, operator=operator,
                           inclusive=inclusive))
    return out


def _oracle(req: Request) -> np.ndarray:
    scan = inclusive_scan if req.inclusive else exclusive_scan
    return scan(req.data, op=req.operator)


def replay(
    service: ScanService,
    workload: list[Request],
    verify: bool = True,
) -> dict:
    """Submit ``workload`` in arrival order, drain, verify and summarise.

    Rejected requests (backpressure) are counted, not raised. With
    ``verify`` every completed request is checked against
    :mod:`repro.primitives.sequential` — the service is a front-end and
    must be output-invisible.

    The summary is **this run's**, not the service's lifetime: the
    replay subscribes a fresh :class:`~repro.serve.service.ServiceStats`
    record for the run, so replaying twice on the same service (the
    restart/cluster pattern) yields two independent summaries, and a
    replay on a fresh service reports exactly its lifetime record.
    """
    run = ServiceStats()
    service.subscribe(run)
    tickets: list[tuple[Request, SubmitResult]] = []
    rejected = 0
    try:
        for req in sorted(workload, key=lambda r: r.at_s):
            try:
                ticket = service.submit(req.data, operator=req.operator,
                                        inclusive=req.inclusive, at=req.at_s)
            except BackpressureError:
                rejected += 1
                continue
            tickets.append((req, ticket))
        service.drain()
    finally:
        service.unsubscribe(run)
    verified = 0
    failures = 0
    for req, ticket in tickets:
        if ticket.failed:
            failures += 1
            continue
        if verify:
            np.testing.assert_array_equal(ticket.result(), _oracle(req))
            verified += 1
    stats = run.summary(service)
    stats.update({
        "requests": len(workload),
        "rejected_by_backpressure": rejected,
        "request_failures": failures,
        "verified": verified,
        # Makespan of the executor: coalesced batches run back to back.
        "coalesced_sim_s": stats["total_exec_s"],
    })
    return stats


def solo_baseline(session, workload: list[Request], verify: bool = True) -> dict:
    """Serve the same schedule one request at a time (no coalescing).

    Each request becomes its own G=1 batch (identity-padded to a power
    of two), scanned through the same session/machine. Returns the total
    simulated execution time — the quantity coalescing amortises.
    """
    total_sim = 0.0
    for req in sorted(workload, key=lambda r: r.at_s):
        n = next_power_of_two(req.data.size)
        if n != req.data.size:
            from repro.core.executor import pad_rows_to_batch

            batch = pad_rows_to_batch([req.data], n, req.operator,
                                      dtype=req.data.dtype)
        else:
            batch = req.data[None, :]
        result = session.scan(batch, operator=req.operator,
                              inclusive=req.inclusive)
        total_sim += result.total_time_s
        if verify:
            np.testing.assert_array_equal(
                result.output[0, : req.data.size], _oracle(req)
            )
    return {"requests": len(workload), "solo_sim_s": total_sim}
