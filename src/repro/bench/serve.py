"""Coalescing service throughput — batched dispatch vs one request at a time.

The acceptance shape: 64 small requests (N=2^12) arrive as a burst. Served
one at a time, each pays a full G=1 scan; coalesced through
:class:`repro.serve.ScanService` they share one batched launch per
admission key, so the per-request kernel/transfer overheads amortise
across the batch. Both sides are *simulated* time from the same cost
model, so the ratio is deterministic — the floor is
:data:`MIN_BURST_SPEEDUP` and the real figure is tens of x for sp/pp
placements.

Also swept: request rate (burst vs Poisson arrivals, where ``max_wait``
caps how long the queue may hold a request) and placement (sp vs pp).
Every replay is differentially verified against the numpy oracle inside
:func:`repro.serve.replay`. ``benchmarks/bench_serve.py`` records the
payload as ``BENCH_serve.json``.
"""

from __future__ import annotations

from repro.core.session import ScanSession
from repro.interconnect.topology import tsubame_kfc
from repro.serve import poisson_workload, replay, solo_baseline

__all__ = ["PLACEMENTS", "ARRIVALS", "PARAMS", "MIN_BURST_SPEEDUP",
           "measure", "bars"]

#: (label, service placement kwargs) — single-GPU and pipelined placements
#: win on small batched problems; mps-style partitioning pays inter-GPU
#: carry traffic that tiny problems cannot amortise.
PLACEMENTS = [
    ("sp", dict(proposal="sp", W=1, V=1)),
    ("pp", dict(proposal="pp", W=4, V=4)),
]

#: (label, arrival rate in requests per simulated second; 0 = burst)
ARRIVALS = [("burst", 0.0), ("poisson_50k", 50_000.0)]

#: The committed experiment.
PARAMS = {"requests": 64, "size_log2": 12, "max_batch": 64}

#: Coalesced throughput must be at least this many times one-at-a-time
#: when the requests arrive as a burst.
MIN_BURST_SPEEDUP = 2.0


def measure(params: dict) -> dict:
    """Replay the workload grid; return the ``BENCH_serve.json`` payload.

    ``params`` holds ``requests``, ``size_log2`` and ``max_batch``; a
    recorded payload works as is. Every cell verifies all outputs against
    the sequential oracle.
    """
    requests, size_log2 = params["requests"], params["size_log2"]
    rows: dict[str, dict] = {}
    for place_label, place in PLACEMENTS:
        for rate_label, rate in ARRIVALS:
            workload = poisson_workload(
                requests, sizes_log2=(size_log2,), rate=rate, seed=11,
            )
            service = ScanSession(tsubame_kfc(1)).service(
                max_batch=params["max_batch"], max_wait_s=1e-3, **place,
            )
            coalesced = replay(service, workload)
            assert coalesced["verified"] == requests, coalesced
            assert coalesced["request_failures"] == 0, coalesced

            # solo_baseline verifies each output against the oracle inline
            # (raises on mismatch).
            solo = solo_baseline(ScanSession(tsubame_kfc(1)), workload)
            assert solo["requests"] == requests, solo

            rows[f"{place_label}/{rate_label}"] = {
                "proposal": place["proposal"],
                "W": place["W"],
                "rate_per_s": rate,
                "batches": coalesced["batches"],
                "mean_batch_size": coalesced["mean_batch_size"],
                "padded_rows": coalesced["padded_rows"],
                "coalesced_sim_s": coalesced["coalesced_sim_s"],
                "solo_sim_s": solo["solo_sim_s"],
                "coalesce_speedup": solo["solo_sim_s"]
                / coalesced["coalesced_sim_s"],
                "latency_p50_s": coalesced["latency"]["p50"],
                "latency_p95_s": coalesced["latency"]["p95"],
                "total_queue_wait_s": coalesced["total_queue_wait_s"],
            }

    return {
        "requests": requests,
        "size_log2": size_log2,
        "max_batch": params["max_batch"],
        "dtype": "int32",
        "cells": rows,
        "min_burst_speedup": min(
            r["coalesce_speedup"] for key, r in rows.items()
            if key.endswith("burst")
        ),
    }


def bars(payload: dict) -> list[tuple[bool, str]]:
    """The acceptance bar as ``(holds, failure message)`` facts."""
    speedup = payload["min_burst_speedup"]
    return [(speedup >= MIN_BURST_SPEEDUP,
             f"min_burst_speedup {speedup!r} below the "
             f"{MIN_BURST_SPEEDUP}x floor")]
