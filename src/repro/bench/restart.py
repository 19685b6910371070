"""Restart benchmark — cold start vs snapshot-restored start.

A deployed scan service dies and respawns: deploys, preemptions, node
failures. Everything the serving stack memoises — resolved plans, the
empirically tuned K, the sp/sp-dlb variant choice, warm buffer pools —
used to die with the process, so every replica re-paid the planning and
K-sweep cost on its first requests. The persistence layer
(:mod:`repro.core.store`) makes that state durable; :func:`measure`
prices what a restored replica actually buys.

Protocol, per repeat (everything process-fresh each time: new topology,
new :class:`~repro.core.executor.PlanResolver`, new session):

- **cold**: replay a seeded Poisson workload through the coalescing
  service with ``proposal="auto"`` and ``K="tune"``. The first request's
  wall-clock latency (submit + flush) pays proposal recommendation, the
  single-GPU variant sweep, the K sweep and plan construction.
- snapshot the now-warm session (once, from the first cold run).
- **restored**: same machine shape, same fresh resolver, but the session
  starts from the snapshot. The first request must be served entirely
  from restored state: the run asserts **zero** plan-resolver misses and
  **zero** tuner sweeps across the whole replay.

Simulated time is a closed form of the plan geometry, so the cold and
restored replays must produce *bit-identical* batch traces and latency
distributions — the run asserts it. The win is wall-clock only:
``first_request_speedup = cold first-request latency / restored
first-request latency`` (medians across repeats), gated at
>= :data:`MIN_FIRST_REQUEST_SPEEDUP`. ``benchmarks/bench_restart.py``
records the payload as ``BENCH_restart.json``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.executor import PlanResolver, ScanExecutor
from repro.core.session import ScanSession
from repro.interconnect.topology import tsubame_kfc
from repro.primitives.sequential import inclusive_scan
from repro.serve.replay import poisson_workload

__all__ = ["PARAMS", "MIN_FIRST_REQUEST_SPEEDUP", "measure", "bars"]

#: The committed experiment: enough requests to form several batches,
#: sizes mixed so both the sp/sp-dlb variant sweep and the K sweeps are
#: exercised, Poisson arrivals at ``rate_per_s`` simulated requests/s.
PARAMS = {"requests": 32, "sizes_log2": [14, 12], "rate_per_s": 2e5,
          "seed": 7, "repeats": 5}

#: A restored replica's first request must be at least this much faster
#: (wall-clock) than a cold replica's — the zero-warmup acceptance bar.
MIN_FIRST_REQUEST_SPEEDUP = 2.0


def _replay_run(params: dict, snapshot=None) -> dict:
    """One process-fresh replay; returns timings, traces and cache stats."""
    topology = tsubame_kfc(1)
    topology.enable_buffer_pooling()
    ScanExecutor.resolver = PlanResolver()
    session = ScanSession(topology, autotune_cache=None, snapshot=snapshot)
    service = session.service(max_batch=8, proposal="auto", K="tune")
    workload = poisson_workload(
        params["requests"], sizes_log2=tuple(params["sizes_log2"]),
        rate=params["rate_per_s"], seed=params["seed"],
    )

    # First request timed alone: submit + forced flush is the replica's
    # time-to-first-result, the quantity a restart actually degrades.
    first = workload[0]
    t0 = time.perf_counter()
    tickets = [service.submit(first.data, operator=first.operator,
                              inclusive=first.inclusive, at=first.at_s)]
    service.flush()
    first_request_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    for req in workload[1:]:
        tickets.append(service.submit(req.data, operator=req.operator,
                                      inclusive=req.inclusive, at=req.at_s))
    service.drain()
    rest_s = time.perf_counter() - t1

    for req, ticket in zip(workload, tickets):
        np.testing.assert_array_equal(
            ticket.result(), inclusive_scan(req.data, op=req.operator)
        )

    latencies = sorted(t.latency_s for t in tickets)
    return {
        "session": session,
        "first_request_s": first_request_s,
        "total_wall_s": first_request_s + rest_s,
        "batch_sim_s": [b.sim_time_s for b in service.batches],
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p99_s": float(np.percentile(latencies, 99)),
        "resolver_misses": ScanExecutor.resolver.misses,
        "tuner_misses": session.tuner.cache.misses,
    }


def measure(params: dict) -> dict:
    """Run the cold/restored protocol; return the ``BENCH_restart.json`` payload.

    ``params`` holds ``requests``, ``sizes_log2``, ``rate_per_s``,
    ``seed`` and ``repeats``; a recorded payload works as is.
    """
    original_resolver = ScanExecutor.resolver
    try:
        cold_first: list[float] = []
        restored_first: list[float] = []
        snapshot = None
        cold = restored = None
        for _ in range(params["repeats"]):
            cold = _replay_run(params)
            if snapshot is None:
                snapshot = cold["session"].snapshot()
            restored = _replay_run(params, snapshot=snapshot)
            cold_first.append(cold["first_request_s"])
            restored_first.append(restored["first_request_s"])

            if restored["resolver_misses"] != 0:
                raise AssertionError(
                    f"restored replay re-planned: "
                    f"{restored['resolver_misses']} resolver misses"
                )
            if restored["tuner_misses"] != 0:
                raise AssertionError(
                    f"restored replay re-tuned: "
                    f"{restored['tuner_misses']} tuner sweeps"
                )
            if cold["batch_sim_s"] != restored["batch_sim_s"]:
                raise AssertionError(
                    "restored replay diverged from cold (simulated batch "
                    "times differ) — snapshot restore is not bit-identical"
                )
    finally:
        ScanExecutor.resolver = original_resolver

    cold_s = float(np.median(cold_first))
    restored_s = float(np.median(restored_first))
    return {
        "requests": params["requests"],
        "sizes_log2": list(params["sizes_log2"]),
        "rate_per_s": params["rate_per_s"],
        "seed": params["seed"],
        "repeats": params["repeats"],
        "cold_first_request_s": cold_s,
        "restored_first_request_s": restored_s,
        "first_request_speedup": cold_s / restored_s,
        "min_first_request_speedup": MIN_FIRST_REQUEST_SPEEDUP,
        "cold_total_wall_s": cold["total_wall_s"],
        "restored_total_wall_s": restored["total_wall_s"],
        "latency_p50_s": cold["latency_p50_s"],
        "latency_p99_s": cold["latency_p99_s"],
        "restored_latency_p50_s": restored["latency_p50_s"],
        "restored_latency_p99_s": restored["latency_p99_s"],
        "restored_resolver_misses": restored["resolver_misses"],
        "restored_tuner_misses": restored["tuner_misses"],
        "identical_traces": cold["batch_sim_s"] == restored["batch_sim_s"],
        "snapshot_counts": snapshot.counts,
    }


def bars(payload: dict) -> list[tuple[bool, str]]:
    """The acceptance bar as ``(holds, failure message)`` facts."""
    speedup = payload["first_request_speedup"]
    return [(math.isfinite(speedup) and speedup >= MIN_FIRST_REQUEST_SPEEDUP,
             f"first_request_speedup {speedup!r} below the "
             f"{MIN_FIRST_REQUEST_SPEEDUP}x floor")]
