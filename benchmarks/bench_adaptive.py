"""Adaptive control benchmark — A/B replay, adaptive vs static.

The control layer (:mod:`repro.control`) closes the loop from
observability to policy: a :class:`~repro.control.controllers
.ServiceController` walks ``max_batch``/``max_wait_s`` with the observed
arrival rate, a :class:`~repro.control.controllers.TuneController`
re-tunes on health degradation and a :class:`~repro.control.controllers
.CalibrationController` re-fits cost constants from measured traces.
This benchmark is the proof that the stack earns its keep — and costs
nothing when idle:

- **bursty + fault**: a seeded bursty Poisson workload (calm base-rate
  traffic with periodic high-rate bursts) plus a mid-run device loss,
  served by a statically configured service and by an identical service
  wearing the full adaptive stack. The adaptive arm must win p99 by at
  least :data:`~repro.control.ab.P99_IMPROVEMENT_BAR` — it grows the
  coalescing window under burst, so the executor backlog collapses.
- **steady**: the same comparison at the calm base rate. The adaptive
  arm must stay within :data:`~repro.control.ab.STEADY_RATIO_BAR` of
  static p99 — the controller's baseline floor means it never departs
  the static knobs when there is nothing to adapt to (here it
  reproduces static exactly).
- **determinism**: every cell is replayed twice and must reproduce
  bit-identically — ticket latencies, batch shapes and the decision log.

The experiment and its bars are defined once, in :mod:`repro.control.ab`.
Everything is simulated time, so ``BENCH_adaptive.json`` doubles as the
golden reference for the ``adaptive`` suite of ``repro bench check``.

Run directly (``python benchmarks/bench_adaptive.py [--smoke]``) or via
pytest (``pytest benchmarks/bench_adaptive.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.regression import enforce
from repro.control.ab import DEFAULT_AB_PARAMS, bars, measure, summarize

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_adaptive_benchmark(
    json_path: str | Path | None = REPO_ROOT / "BENCH_adaptive.json",
) -> dict:
    payload = measure(DEFAULT_AB_PARAMS)
    enforce(bars(payload))
    if json_path is not None:
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_regenerate_adaptive(report):
    payload = run_adaptive_benchmark()
    report("adaptive", summarize(payload))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run without rewriting BENCH_adaptive.json; "
                        "assert the acceptance bars (CI smoke)")
    parser.add_argument("--no-json", action="store_true",
                        help="do not rewrite BENCH_adaptive.json")
    cli_args = parser.parse_args()
    result = run_adaptive_benchmark(
        json_path=None if (cli_args.no_json or cli_args.smoke)
        else REPO_ROOT / "BENCH_adaptive.json",
    )
    print(summarize(result))
    if cli_args.smoke:
        print("smoke: OK")
