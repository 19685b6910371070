"""Metric and workload tables shared by the runner, the workloads and the tracer.

The workloads and the declared metrics are read from ``BENCHMARK.json``
at the repository root; only the metrics it does not declare are listed
here.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json")
                   .read_text())

#: The five workloads, in run order, with why each exists.
WORKLOADS = {w["name"]: w["why"] for w in _SPEC["workloads"]}
#: Declared end-to-end metrics (``--trace 0``): name -> unit.
E2E = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
#: Declared per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: Reported next to the end-to-end metrics (text and JSON file) but not
#: declared. Absolute wall times move with the host: it has slow spells
#: in which interpreter code runs up to 1.6x slower while numpy slows by
#: about 1.1x, so the numpy floor ratio moves with them too. The rest are
#: defined on some workloads only.
EXTRA = {
    "floor_ratio": "x",
    "wall_ms_p50": "ms",
    "wall_rps": "req/s",
    "sim_latency_p50_us": "us",
    "sim_latency_p99_us": "us",
    "sim_capacity_rps": "req/s",
    "host.wall_ms_tail": "ms",
}

#: The layers of the per-layer metrics, named after ``src/repro``
#: modules. Layer self times are shares of the traced wall time, so a
#: layer that a workload never enters reads 0 rather than a time;
#: multiply by ``host.traced_us`` for microseconds per request.
LAYERS = ("session", "autotune", "executor", "memory", "kernels", "operators",
          "transfer", "mpi", "trace", "serve", "cluster")
KERNELS = ("chunk_reduce", "intermediate_scan", "scan_add", "descriptor_reset",
           "single_pass_scan")
PROPOSALS = ("sp", "sp-dlb", "mps", "mppc", "mn-mps", "pp")

#: Printed with the per-layer metrics but not declared: which proposal the
#: session served each call with has no better or worse direction.
RESOLVED = {f"session.resolved.{name}": "fraction" for name in PROPOSALS}
