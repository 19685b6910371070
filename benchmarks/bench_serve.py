"""Coalescing service throughput — batched dispatch vs one request at a time.

The experiment is defined once, in :mod:`repro.bench.serve` (the
placement x arrival grid and the burst-speedup floor); this script runs
it, prints the table and writes ``BENCH_serve.json`` at the repo root.
``repro bench check`` replays the same ``measure``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.regression import enforce
from repro.bench.serve import MIN_BURST_SPEEDUP, PARAMS, bars, measure

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_serve_benchmark(
    requests: int = PARAMS["requests"],
    json_path: str | Path | None = REPO_ROOT / "BENCH_serve.json",
) -> dict:
    """Replay the workload grid; return (and optionally dump) the rows."""
    payload = measure({**PARAMS, "requests": requests})
    if json_path is not None:
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def format_serve_table(payload: dict) -> str:
    lines = [
        f"Coalescing service, {payload['requests']} requests of "
        f"N=2^{payload['size_log2']} (simulated time; all outputs verified)",
        f"{'cell':>16} {'batches':>7} {'mean sz':>7} {'coalesced':>11} "
        f"{'solo':>11} {'speedup':>8} {'p95 lat':>9}",
    ]
    for name, r in payload["cells"].items():
        lines.append(
            f"{name:>16} {r['batches']:>7} {r['mean_batch_size']:>7.1f} "
            f"{r['coalesced_sim_s'] * 1e3:>9.3f}ms {r['solo_sim_s'] * 1e3:>9.3f}ms "
            f"{r['coalesce_speedup']:>7.1f}x {r['latency_p95_s'] * 1e6:>7.1f}us"
        )
    lines.append(
        f"min burst speedup: {payload['min_burst_speedup']:.1f}x "
        f"(floor: {MIN_BURST_SPEEDUP:g}x)"
    )
    return "\n".join(lines)


def test_regenerate_serve(report):
    payload = run_serve_benchmark()
    report("serve_coalescing", format_serve_table(payload))
    enforce(bars(payload))


def main(argv: list[str] | None = None) -> int:
    """CLI entry: full benchmark by default, ``--smoke`` for CI.

    Smoke mode shrinks the workload (16 requests) and skips the JSON
    artifact; the simulated-time ratio is deterministic, so the floor
    still holds and is still asserted.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload, no JSON artifact; acceptance gates still on",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = run_serve_benchmark(requests=16, json_path=None)
    else:
        payload = run_serve_benchmark()
    print(format_serve_table(payload))
    enforce(bars(payload))
    print("serve coalescing OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
