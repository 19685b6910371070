"""Serving throughput — cold vs warm calls/sec for repeated scans.

The paper benchmarks one scan of one configuration; a scan *service*
solves the same (N, G) shape over and over. :func:`measure` times the
host-side serving rate of every proposal in two regimes:

- **cold**: the pre-warm-path cost of one call. Each call builds a fresh
  machine and a fresh :class:`~repro.core.session.ScanSession` with the
  kernel fast paths disabled (:func:`repro.util.hotpath.fast_paths`) —
  topology construction, the empirical K sweep (``K="tune"``: every
  candidate in the premise search space is executed), planning, executor
  setup and per-call buffer allocation are all paid per request, through
  the original kernel code paths.
- **warm**: one session with buffer pooling serves every call — the
  sweep/plan/executors/buffers are reused and the fast paths are on, so
  only uploads, kernel bodies and transfers remain.

A deployed service wants the tuned K, which is why serving it cold is so
expensive: the sweep re-runs the whole search space per request. (``pp``
has no K sweep — problems are independent — so its warm win comes mostly
from the kernel fast paths plus topology/executor/buffer reuse.)

Simulated time must be identical in both regimes (the cost model is a
closed form of the plan geometry), and recycled buffers must not change
a single output bit even in poison mode (a third, untimed session runs
with ``poison=True`` purely as that correctness gate); both are asserted,
not just eyeballed. ``benchmarks/bench_serving_throughput.py`` records
the payload as ``BENCH_serving.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.session import ScanSession
from repro.interconnect.topology import tsubame_kfc
from repro.util.hotpath import fast_paths

__all__ = ["PROPOSAL_SPECS", "PARAMS", "MIN_GEOMEAN_WARM_SPEEDUP",
           "measure", "bars"]

#: Placement per proposal on the paper's platform (per-node 2 networks x 4
#: GPUs): mppc spans both networks (Y=2), mn-mps spans two nodes.
PROPOSAL_SPECS = {
    "sp": dict(W=1, V=1, M=1),
    "pp": dict(W=4, V=4, M=1),
    "mps": dict(W=4, V=4, M=1),
    "mppc": dict(W=8, V=4, M=1),
    "mn-mps": dict(W=4, V=4, M=2),
}

#: The committed experiment: repeated (G=16, N=2^13) int64 scans.
PARAMS = {"n_log2": 13, "G": 16, "repeats": 15, "proposals": PROPOSAL_SPECS}

#: Repeated scans must serve at least this much faster warm than cold
#: (geomean over the proposals).
MIN_GEOMEAN_WARM_SPEEDUP = 3.0


def measure(params: dict) -> dict:
    """Time cold vs warm serving; return the ``BENCH_serving.json`` payload.

    ``params`` holds ``n_log2``, ``G``, ``repeats`` and ``proposals``
    (name -> ``W``/``V``/``M`` placement); a recorded payload works as is.
    Correctness gates built in: warm outputs (served from recycled
    buffers) must equal cold outputs bit for bit — including under pool
    poison mode — and the simulated ``total_time_s`` must be identical
    across regimes.
    """
    g, n_log2, repeats = params["G"], params["n_log2"], params["repeats"]
    rng = np.random.default_rng(7)
    data = rng.integers(-(2**20), 2**20, size=(g, 1 << n_log2)).astype(np.int64)

    rows: dict[str, dict] = {}
    for proposal, placement in params["proposals"].items():
        spec = {k: placement[k] for k in ("W", "V", "M")}

        cold_samples: list[float] = []
        cold_result = None
        with fast_paths(False):
            for _ in range(repeats):
                t0 = time.perf_counter()
                topology = tsubame_kfc(spec["M"])
                session = ScanSession(topology)
                result = session.scan(data, proposal=proposal, K="tune", **spec)
                cold_samples.append(time.perf_counter() - t0)
                cold_result = result

        warm_topology = tsubame_kfc(spec["M"])
        warm_topology.enable_buffer_pooling()
        warm_session = ScanSession(warm_topology)
        warm_session.scan(data, proposal=proposal, K="tune", **spec)  # the miss
        warm_samples: list[float] = []
        warm_result = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = warm_session.scan(data, proposal=proposal, K="tune", **spec)
            warm_samples.append(time.perf_counter() - t0)
            warm_result = result

        # Untimed correctness pass: serve twice from a poisoned pool so the
        # second call runs on recycled, sentinel-filled buffers.
        poison_topology = tsubame_kfc(spec["M"])
        poison_topology.enable_buffer_pooling(poison=True)
        poison_session = ScanSession(poison_topology)
        poison_session.scan(data, proposal=proposal, K="tune", **spec)
        poison_result = poison_session.scan(data, proposal=proposal, K="tune", **spec)

        if not np.array_equal(cold_result.output, warm_result.output):
            raise AssertionError(
                f"{proposal}: warm (pooled) output differs from cold"
            )
        if not np.array_equal(cold_result.output, poison_result.output):
            raise AssertionError(
                f"{proposal}: output from poisoned recycled buffers differs from cold"
            )
        cold_sim = cold_result.trace.total_time()
        warm_sim = warm_result.trace.total_time()
        if cold_sim != warm_sim or poison_result.trace.total_time() != warm_sim:
            raise AssertionError(
                f"{proposal}: simulated time changed with caching "
                f"({cold_sim} vs {warm_sim})"
            )

        cold_s = float(np.median(cold_samples))
        warm_s = float(np.median(warm_samples))
        stats = warm_session.stats()
        rows[proposal] = {
            **spec,
            "cold_s_median": cold_s,
            "warm_s_median": warm_s,
            "cold_calls_per_sec": 1.0 / cold_s,
            "warm_calls_per_sec": 1.0 / warm_s,
            "warm_speedup": cold_s / warm_s,
            "simulated_time_s": warm_sim,
            "session_hits": stats["hits"],
            "pool_hits": stats["buffer_pools"]["hits"],
            "pool_bytes_reused": stats["buffer_pools"]["bytes_reused"],
        }

    speedups = [r["warm_speedup"] for r in rows.values()]
    return {
        "n_log2": n_log2,
        "G": g,
        "repeats": repeats,
        "dtype": "int64",
        "proposals": rows,
        "geomean_warm_speedup": float(np.exp(np.mean(np.log(speedups)))),
    }


def bars(payload: dict) -> list[tuple[bool, str]]:
    """The acceptance bar as ``(holds, failure message)`` facts."""
    geomean = payload["geomean_warm_speedup"]
    return [(
        geomean >= MIN_GEOMEAN_WARM_SPEEDUP,
        f"geomean_warm_speedup {geomean!r} below the "
        f"{MIN_GEOMEAN_WARM_SPEEDUP}x bar",
    )]
