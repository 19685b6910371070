"""Cluster benchmark — tail latency vs load and replica count.

The cluster layer (:mod:`repro.cluster`) fronts N independent scan
service replicas with one router: pluggable dispatch policies,
per-tenant quotas/SLOs, and drain/re-admit failover. :func:`measure`
replays seeded Poisson workloads through routers of increasing width
and records what replication actually buys at the tail:

- **scaling sweep**: the same workload through 1, 2 and 4 replicas
  (serialised executors, managed dispatch). With one replica every
  batch queues behind the previous batch's executor; with four the
  router spreads them and p99 latency collapses (and throughput rises).
- **policy comparison**: every registered dispatch policy at the widest
  point — same workload, different placement, different tails.
- **drain/re-admit chaos**: a replica is taken down mid-traffic; its
  queue is evicted and re-routed, parked requests retry, and the
  replica re-admits from the leader's session snapshot. The run asserts
  **zero lost requests** and **bit-identical determinism** (the replay
  is repeated and must reproduce the same batch log and summary).

Everything here is simulated time — closed-form cost model, caller-
advanced clocks — so every number is reproducible to the last bit.
``benchmarks/bench_cluster.py`` records the payload as
``BENCH_cluster.json``.
"""

from __future__ import annotations

from repro.cluster import ClusterRouter, cluster_replay, policy_names
from repro.serve.replay import poisson_workload

__all__ = ["PARAMS", "MIN_THROUGHPUT_GAIN", "measure", "bars"]

#: The committed experiment. 64 requests at 8e5 requests per simulated
#: second saturate one replica; in the chaos scenario replica 0 of 3 goes
#: down at ``fail_replica_at_s``.
PARAMS = {
    "requests": 64,
    "sizes_log2": [10, 12],
    "rate_per_s": 8e5,
    "seed": 11,
    "policy": "managed",
    "max_batch": 8,
    "max_wait_s": 1e-4,
    "replica_counts": [1, 2, 4],
    "chaos": {"replicas": 3, "fail_replica_at_s": 4e-5, "recovery_s": 1e-4},
}

#: Replication must buy something from the narrowest to the widest
#: router: a strictly better p99, or at least this much throughput.
MIN_THROUGHPUT_GAIN = 2.0

_SUMMARY_KEYS = (
    "served", "request_failures", "rejected", "verified", "rerouted",
    "drains", "readmits", "makespan_s", "throughput_rps", "latency_p50_s",
    "latency_p95_s", "latency_p99_s", "latency_mean_s", "latency_max_s",
)


def measure(params: dict) -> dict:
    """Run the sweep, the policy table and the chaos scenario.

    Returns the ``BENCH_cluster.json`` payload. ``params`` holds the keys
    of :data:`PARAMS`; a recorded payload works as is.
    """
    requests = params["requests"]

    def _workload():
        return poisson_workload(
            requests, sizes_log2=tuple(params["sizes_log2"]),
            rate=params["rate_per_s"], seed=params["seed"],
        )

    def _router(replicas: int, policy: str, **kwargs) -> ClusterRouter:
        return ClusterRouter(replicas=replicas, policy=policy,
                             max_batch=params["max_batch"],
                             max_wait_s=params["max_wait_s"], **kwargs)

    def _row(router: ClusterRouter) -> dict:
        summary = cluster_replay(router, _workload())
        assert summary["verified"] == requests, summary
        return {k: summary[k] for k in _SUMMARY_KEYS}

    counts = params["replica_counts"]
    scaling = {str(n): _row(_router(n, params["policy"])) for n in counts}
    policies = {name: _row(_router(max(counts), name))
                for name in policy_names()}

    chaos_params = params["chaos"]

    def _chaos_run() -> tuple[dict, list]:
        router = _router(chaos_params["replicas"], params["policy"],
                         recovery_s=chaos_params["recovery_s"])
        summary = cluster_replay(
            router, _workload(),
            fail_replica_at=chaos_params["fail_replica_at_s"],
            fail_replica_id=0,
        )
        return summary, [list(entry) for entry in router.batch_log]

    # Chaos: run twice — the second run must reproduce the first to the
    # bit (same summary, same batch log) or the failover path leaked
    # nondeterminism into the replay.
    chaos, batch_log = _chaos_run()
    if (chaos, batch_log) != _chaos_run():
        raise AssertionError(
            "chaos replay is not deterministic: repeated run diverged"
        )
    lost = requests - (chaos["served"] + chaos["request_failures"]
                       + chaos["rejected"])
    if lost != 0:
        raise AssertionError(f"chaos replay lost {lost} requests")
    if chaos["drains"] < 1 or chaos["readmits"] < 1:
        raise AssertionError(
            f"chaos replay never exercised drain/re-admit: {chaos}"
        )

    base, wide = scaling[str(counts[0])], scaling[str(max(counts))]
    return {
        "requests": requests,
        "sizes_log2": list(params["sizes_log2"]),
        "rate_per_s": params["rate_per_s"],
        "seed": params["seed"],
        "policy": params["policy"],
        "max_batch": params["max_batch"],
        "max_wait_s": params["max_wait_s"],
        "replica_counts": list(counts),
        "scaling": scaling,
        "policies": policies,
        "p99_improvement": base["latency_p99_s"] / wide["latency_p99_s"],
        "throughput_gain": wide["throughput_rps"] / base["throughput_rps"],
        "chaos": {
            "replicas": chaos_params["replicas"],
            "fail_replica_at_s": chaos_params["fail_replica_at_s"],
            "recovery_s": chaos_params["recovery_s"],
            "summary": chaos,
            "batch_log_len": len(batch_log),
            "deterministic": True,
            "lost_requests": lost,
        },
    }


def bars(payload: dict) -> list[tuple[bool, str]]:
    """The acceptance bar as ``(holds, failure message)`` facts."""
    p99, gain = payload["p99_improvement"], payload["throughput_gain"]
    return [(p99 > 1.0 or gain >= MIN_THROUGHPUT_GAIN,
             f"replication buys nothing: p99 {p99:.3f}x, throughput "
             f"{gain:.3f}x (needs p99 > 1x or throughput >= "
             f"{MIN_THROUGHPUT_GAIN}x)")]
