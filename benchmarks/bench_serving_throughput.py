"""Serving throughput — cold vs warm calls/sec for repeated scans.

The experiment is defined once, in :mod:`repro.bench.serving` (the
regimes, the built-in correctness gates and the acceptance bar); this
script runs it, prints the table and writes ``BENCH_serving.json`` at the
repo root. ``repro bench check`` replays the same ``measure``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.regression import enforce, format_report, run_checks
from repro.bench.serving import PARAMS, PROPOSAL_SPECS, bars, measure

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_serving_benchmark(
    n_log2: int = PARAMS["n_log2"],
    g: int = PARAMS["G"],
    repeats: int = PARAMS["repeats"],
    proposals: tuple[str, ...] = tuple(PROPOSAL_SPECS),
    json_path: str | Path | None = REPO_ROOT / "BENCH_serving.json",
) -> dict:
    """Measure cold vs warm serving rates; return (and optionally dump) rows."""
    payload = measure({
        "n_log2": n_log2, "G": g, "repeats": repeats,
        "proposals": {name: PROPOSAL_SPECS[name] for name in proposals},
    })
    if json_path is not None:
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def format_serving_table(payload: dict) -> str:
    lines = [
        f"Serving throughput, G={payload['G']}, N=2^{payload['n_log2']} "
        f"(median of {payload['repeats']}; wall-clock, simulated time unchanged)",
        f"{'proposal':>8} {'W':>2} {'M':>2} {'cold c/s':>10} {'warm c/s':>10} "
        f"{'speedup':>8} {'pool hits':>9}",
    ]
    for name, r in payload["proposals"].items():
        lines.append(
            f"{name:>8} {r['W']:>2} {r['M']:>2} {r['cold_calls_per_sec']:>10.1f} "
            f"{r['warm_calls_per_sec']:>10.1f} {r['warm_speedup']:>7.1f}x "
            f"{r['pool_hits']:>9}"
        )
    lines.append(
        f"geomean warm speedup: {payload['geomean_warm_speedup']:.1f}x"
    )
    return "\n".join(lines)


def test_regenerate_serving_throughput(report):
    payload = run_serving_benchmark()
    report("serving_throughput", format_serving_table(payload))
    enforce(bars(payload))


def main(argv: list[str] | None = None) -> int:
    """CLI entry: full benchmark by default, ``--smoke`` for CI.

    The smoke mode runs tiny sizes with few repeats and does not write
    ``BENCH_serving.json``; its value is the built-in correctness gates
    (warm/poisoned outputs and simulated time must match cold), a
    direction-only check that the warm path is not slower than cold —
    wall-clock ratios at these sizes are too noisy to pin the full bar
    on — and the ``serving`` suite of ``repro bench check``: every
    non-wall-clock field of a full replay must equal the recorded
    ``BENCH_serving.json``.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, no JSON artifact; correctness + direction gates only",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        payload = run_serving_benchmark(
            n_log2=11, g=4, repeats=3, proposals=("sp", "mps"), json_path=None,
        )
        print(format_serving_table(payload))
        slow = {
            name: r["warm_speedup"]
            for name, r in payload["proposals"].items()
            if r["warm_speedup"] < 1.0
        }
        if slow:
            raise AssertionError(f"warm serving slower than cold: {slow}")
        report = run_checks(REPO_ROOT, only=["serving"])
        print(format_report(report))
        if not report["ok"]:
            return 1
        print("serving smoke OK")
        return 0
    payload = run_serving_benchmark()
    print(format_serving_table(payload))
    enforce(bars(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
