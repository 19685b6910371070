"""End-to-end benchmark: five seeded workloads on two clocks.

Run every workload, each in a fresh process, and print each metric as
``workload metric value unit``:

    python3 benchmarks/e2e/run.py --seed 0

``--trace`` runs the workloads at a quarter of their size with spans
around each layer's public methods and prints the per-layer table
instead. ``--workload NAME`` runs one workload; ``--repeat K`` runs the
set K times, reversing the workload order on every other repeat, and
prints each metric's median, quartiles and (max - min) / median. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A JSON file
with everything, including the environment, lands in
``benchmarks/e2e/out/``. The exit code is 0 only when every output was
verified and nothing failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from metrics import E2E, EXTRA, LAYERS, PER_LAYER, RESOLVED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: A workload process that runs longer than this is stopped.
CHILD_TIMEOUT_S = 170

#: Variables that would turn on observability, flight dumps or a
#: developer's log format inside the measured process.
UNSET = ("REPRO_OBS", "REPRO_FLIGHT_DIR", "REPRO_LOG_FORMAT")


def child_env(cache_dir: str) -> dict:
    """Single-threaded numpy, a fresh tuning cache, and fixed glibc malloc
    thresholds: with glibc's adaptive threshold, whether a multi-megabyte
    array reuses heap pages or faults in fresh ones differs from process
    to process, which made whole runs bimodal."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(REPRO_CACHE_DIR=cache_dir, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               MALLOC_MMAP_THRESHOLD_=str(32 << 20),
               MALLOC_TRIM_THRESHOLD_=str(1 << 30))
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> dict:
    """One workload in a fresh process with a fresh, empty cache directory."""
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(cache_dir),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload}: exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str:
    """HEAD of the checkout, or "unknown"; git may not look above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": " ".join(platform.uname()[i] for i in (0, 2, 4)),
            "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "smoke": args.smoke,
            "repeat": args.repeat}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (max(values) - min(values)) / med if med else 0.0,
            "values": values}


def print_layer_table(results: dict) -> None:
    """Per-layer self time per request: microseconds and share of the call."""
    names = list(results)
    print("\nlayer self time per request, us (share of traced wall)")
    print(f"{'layer':<12}" + "".join(f"{n:>24}" for n in names))
    for layer in (*LAYERS, "host"):
        key = "host.unattributed_share" if layer == "host" else f"{layer}.self_share"
        cells = []
        for name in names:
            m = results[name]["metrics"]
            share = m[key]["value"]
            cells.append(f"{share * m['host.traced_us']['value']:>14.1f} ({share:6.1%})")
        print(f"{layer:<12}" + "".join(f"{c:>24}" for c in cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed phase per workload (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (bare --trace = 1)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--order", choices=("alternate",), default="alternate",
                        help="repeats alternate the workload order (the only order)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/16-size schedules (the self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    declared = PER_LAYER if args.trace else E2E
    shown = {**PER_LAYER, **RESOLVED} if args.trace else {**E2E, **EXTRA}
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for k in range(args.repeat):
        order = names[::-1] if k % 2 else names
        for name in order:
            result = run_child(name, args.seed, args.seconds, bool(args.trace),
                               args.smoke)
            runs[name].append(result)
            for problem in result["problems"]:
                print(f"{name} FAILED {problem}", file=sys.stderr)

    summary, last = {}, {}
    attempted = failed = 0
    for name in names:
        results = runs[name]
        attempted += sum(r["attempted"] for r in results)
        failed += sum(r["failed"] for r in results)
        summary[name] = {}
        for metric, unit in shown.items():
            values = [r["metrics"][metric]["value"] for r in results
                      if metric in r["metrics"]]
            if not values:
                continue
            stats = summarize(values)
            summary[name][metric] = {"unit": unit, **stats}
            line = f"{name} {metric} {stats['median']:.6g} {unit}"
            if args.repeat > 1:
                line += (f"  q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                         f" spread {stats['spread']:.2%}")
            print(line)
            if metric in declared:
                key = metric if len(names) == 1 else f"{name}.{metric}"
                last[key] = {"value": stats["median"], "unit": unit}
        frac = (sum(r["failed"] for r in results)
                / sum(r["attempted"] for r in results))
        summary[name]["failed_frac"] = {"unit": "fraction", "value": frac}
        print(f"{name} failed_frac {frac:.6g} fraction")
    if args.trace:
        print_layer_table({name: runs[name][0] for name in names})

    OUT.mkdir(parents=True, exist_ok=True)
    tag = ("-trace" if args.trace else "") + ("-smoke" if args.smoke else "")
    path = OUT / f"e2e-{args.workload}-seed{args.seed}{tag}.json"
    path.write_text(json.dumps({"environment": environment(args),
                                "summary": summary, "runs": runs}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": last}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
