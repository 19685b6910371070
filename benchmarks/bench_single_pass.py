"""Crossover bench — three-kernel pipeline vs sp-dlb vs LightScan.

The sweep is defined once, in :mod:`repro.bench.single_pass` (the
series, the crossover rule and the acceptance bars); this script runs
it, prints the table and writes ``BENCH_single_pass.json`` at the repo
root (deterministic: every number is an analytic estimate). ``--smoke``
asserts the bars and runs the ``single_pass`` suite of ``repro bench
check`` against the recorded artifact without rewriting it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.regression import enforce, format_report, run_checks
from repro.bench.single_pass import PARAMS, bars, measure

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_single_pass_benchmark(
    json_path: str | Path | None = REPO_ROOT / "BENCH_single_pass.json",
) -> dict:
    """Sweep the crossover surface; return (and optionally record) it."""
    payload = measure(PARAMS)
    if json_path is not None:
        Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True))
    return payload


def format_crossover_table(payload: dict) -> str:
    lines = [f"Three-kernel vs sp-dlb vs LightScan ({payload['machine']}):", ""]
    for key, points in sorted(payload["series"].items()):
        crossover = payload["crossover_n_log2"][key]
        lines.append(
            f"  {key}: crossover at N=2^{crossover} "
            f"(sp-dlb wins from there on)"
        )
        for p in points:
            mark = "*" if p["winner"] == "sp-dlb" else " "
            lines.append(
                f"    n=2^{p['n_log2']:2d} sp {p['sp_s'] * 1e6:9.1f}us | "
                f"sp-dlb {p['sp_dlb_s'] * 1e6:9.1f}us{mark} | "
                f"lightscan[{p['lightscan_mode']}] "
                f"{p['lightscan_s'] * 1e6:9.1f}us | tuner={p['tuner_choice']}"
            )
        lines.append("")
    return "\n".join(lines)


def test_regenerate_single_pass(report):
    """Pytest entry: regenerate the artifact and gate its bars."""
    payload = run_single_pass_benchmark()
    report("single_pass_crossover", format_crossover_table(payload))
    enforce(bars(payload))


def main(argv: list[str] | None = None) -> int:
    """CLI entry: full sweep by default, ``--smoke`` for CI.

    Smoke mode never rewrites the artifact; it asserts the acceptance
    bars (among them: sp-dlb wins and the tuner picks it at every
    series' largest N) on a fresh sweep and runs the ``single_pass``
    drift gate against the recorded ``BENCH_single_pass.json``.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="no JSON rewrite; acceptance bars + drift gate only",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        enforce(bars(measure(PARAMS)))
        print("single-pass acceptance bars OK")
        report = run_checks(REPO_ROOT, only=["single_pass"])
        print(format_report(report))
        if not report["ok"]:
            return 1
        print("single-pass smoke OK")
        return 0
    payload = run_single_pass_benchmark()
    print(format_crossover_table(payload))
    enforce(bars(payload))
    print(f"wrote {REPO_ROOT / 'BENCH_single_pass.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
