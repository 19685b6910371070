"""Restart benchmark — cold start vs snapshot-restored start.

The protocol is defined once, in :mod:`repro.bench.restart` (cold and
restored replays, their bit-identity and zero-miss checks, and the
first-request speedup floor); this script runs it, prints the table and
writes ``BENCH_restart.json`` at the repo root. ``repro bench check``
replays the same ``measure`` and checks the recorded speedup against
the floor.

Run directly (``python benchmarks/bench_restart.py [--smoke]``) or via
pytest (``pytest benchmarks/bench_restart.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.regression import enforce
from repro.bench.restart import PARAMS, bars, measure

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_restart_benchmark(
    repeats: int = PARAMS["repeats"],
    json_path: str | Path | None = REPO_ROOT / "BENCH_restart.json",
) -> dict:
    payload = measure({**PARAMS, "repeats": repeats})
    if json_path is not None:
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def format_restart_table(payload: dict) -> str:
    return "\n".join([
        f"Restart benchmark: {payload['requests']} Poisson requests, "
        f"sizes 2^{payload['sizes_log2']}, auto proposal, tuned K "
        f"(median of {payload['repeats']})",
        f"  cold first request:     "
        f"{payload['cold_first_request_s'] * 1e3:9.3f} ms wall",
        f"  restored first request: "
        f"{payload['restored_first_request_s'] * 1e3:9.3f} ms wall",
        f"  speedup:                "
        f"{payload['first_request_speedup']:9.2f}x "
        f"(floor {payload['min_first_request_speedup']:.1f}x)",
        f"  restored resolver misses / tuner sweeps: "
        f"{payload['restored_resolver_misses']} / "
        f"{payload['restored_tuner_misses']}",
        f"  simulated latency p50/p99: "
        f"{payload['latency_p50_s'] * 1e6:.1f} / "
        f"{payload['latency_p99_s'] * 1e6:.1f} us "
        f"(bit-identical cold vs restored: {payload['identical_traces']})",
    ])


def test_regenerate_restart(report):
    payload = run_restart_benchmark()
    report("restart", format_restart_table(payload))
    enforce(bars(payload))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=PARAMS["repeats"])
    parser.add_argument("--smoke", action="store_true",
                        help="fewer repeats; assert the acceptance bars "
                        "(CI cold-vs-restored smoke)")
    parser.add_argument("--no-json", action="store_true",
                        help="do not rewrite BENCH_restart.json")
    cli_args = parser.parse_args()
    result = run_restart_benchmark(
        repeats=3 if cli_args.smoke else cli_args.repeats,
        json_path=None if (cli_args.no_json or cli_args.smoke)
        else REPO_ROOT / "BENCH_restart.json",
    )
    print(format_restart_table(result))
    if cli_args.smoke:
        enforce(bars(result))
        print("smoke: OK")
