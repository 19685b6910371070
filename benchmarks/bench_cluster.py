"""Cluster benchmark — tail latency vs load and replica count.

The experiment is defined once, in :mod:`repro.bench.cluster` (the
replica-scaling sweep, the policy comparison, the drain/re-admit chaos
scenario and the replication bar); this script runs it, prints the
table and writes ``BENCH_cluster.json`` at the repo root. Everything is
simulated time, so every number doubles as a golden reference for the
``cluster`` suite of ``repro bench check``, which replays the same
``measure``.

Run directly (``python benchmarks/bench_cluster.py [--smoke]``) or via
pytest (``pytest benchmarks/bench_cluster.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.cluster import PARAMS, bars, measure
from repro.bench.regression import enforce

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cluster_benchmark(
    json_path: str | Path | None = REPO_ROOT / "BENCH_cluster.json",
) -> dict:
    payload = measure(PARAMS)
    if json_path is not None:
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def format_cluster_table(payload: dict) -> str:
    lines = [
        f"Cluster benchmark: {payload['requests']} Poisson requests at "
        f"{payload['rate_per_s']:.0f} req/s, sizes "
        f"2^{payload['sizes_log2']}, policy={payload['policy']}",
        "  replicas   p50 us   p95 us   p99 us   throughput",
    ]
    for n in payload["replica_counts"]:
        row = payload["scaling"][str(n)]
        lines.append(
            f"  {n:>8} {row['latency_p50_s'] * 1e6:8.1f} "
            f"{row['latency_p95_s'] * 1e6:8.1f} "
            f"{row['latency_p99_s'] * 1e6:8.1f} "
            f"{row['throughput_rps'] / 1e3:9.1f}k rps"
        )
    lines.append(
        f"  1 -> {max(payload['replica_counts'])} replicas: p99 "
        f"{payload['p99_improvement']:.2f}x better, throughput "
        f"{payload['throughput_gain']:.2f}x"
    )
    lines.append("  policy comparison at "
                 f"{max(payload['replica_counts'])} replicas:")
    for name, row in payload["policies"].items():
        lines.append(
            f"  {name:>13}: p99 {row['latency_p99_s'] * 1e6:8.1f} us, "
            f"{row['throughput_rps'] / 1e3:7.1f}k rps"
        )
    chaos = payload["chaos"]["summary"]
    lines.append(
        f"  chaos (fail 1/{payload['chaos']['replicas']} mid-traffic): "
        f"{chaos['served']} served, {chaos['rerouted']} rerouted, "
        f"{chaos['drains']} drain(s), {chaos['readmits']} readmit(s), "
        f"{payload['chaos']['lost_requests']} lost, deterministic="
        f"{payload['chaos']['deterministic']}"
    )
    return "\n".join(lines)


def test_regenerate_cluster(report):
    payload = run_cluster_benchmark()
    report("cluster", format_cluster_table(payload))
    enforce(bars(payload))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run without rewriting BENCH_cluster.json; "
                        "assert the acceptance bars (CI smoke)")
    parser.add_argument("--no-json", action="store_true",
                        help="do not rewrite BENCH_cluster.json")
    cli_args = parser.parse_args()
    result = run_cluster_benchmark(
        json_path=None if (cli_args.no_json or cli_args.smoke)
        else REPO_ROOT / "BENCH_cluster.json",
    )
    print(format_cluster_table(result))
    if cli_args.smoke:
        enforce(bars(result))
        print("smoke: OK")
