"""Crossover sweep — three-kernel pipeline vs sp-dlb vs LightScan.

Sweeps N per (dtype, G) series and records where the decoupled-lookback
single pass overtakes the paper's three-kernel plan: ``sp-dlb`` pays fixed
protocol costs (descriptor reset + arming, polling stall) but streams ~2N
bytes against the pipeline's ~3N, so the pipeline wins small problems and
the lookback wins large ones. The frontier moves with dtype and G —
heavier rows fill the machine sooner, pulling the crossover down — which
is exactly the surface the autotuner memoises; every point also records
the :class:`~repro.core.autotune_cache.CachedTuner` choice so the sweep
*proves* the tuner tracks the measured minimum.

``baselines/lightscan.py`` rides along as the external reference point:
the published single-pass implementation whose measured per-call overhead
calibrated sp-dlb's protocol-arming cost. Every number is an analytic
estimate; ``benchmarks/bench_single_pass.py`` records the payload as
``BENCH_single_pass.json``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import LIGHTSCAN
from repro.core.autotune_cache import CachedTuner
from repro.core.params import ProblemConfig
from repro.core.single_gpu import ScanSP
from repro.core.single_pass import ScanSinglePassDLB
from repro.interconnect.topology import tsubame_kfc

__all__ = ["PARAMS", "measure", "bars"]

#: The committed experiment: one crossover per ``"<dtype>|G<g>"`` series.
PARAMS = {
    "n_log2": list(range(13, 27)),
    "series": ["int32|G1", "int32|G8", "int64|G1", "int64|G8"],
}


def measure(params: dict) -> dict:
    """Sweep the crossover surface; return the ``BENCH_single_pass.json`` payload.

    ``params`` holds the swept ``n_log2`` values and the ``series`` keys
    (a recorded payload's ``series`` mapping works as is).
    """
    machine = tsubame_kfc(1)
    tuner = CachedTuner(machine)
    gpu = machine.gpus[0]
    payload: dict = {
        "machine": machine.arch.name,
        "n_log2": list(params["n_log2"]),
        "series": {},
        "crossover_n_log2": {},
    }
    for key in params["series"]:
        dtype, g = key.split("|G")[0], int(key.split("|G")[1])
        points = []
        for n in params["n_log2"]:
            problem = ProblemConfig.from_sizes(N=1 << n, G=g, dtype=np.dtype(dtype))
            sp = ScanSP(gpu).estimate(problem).total_time_s
            dlb = ScanSinglePassDLB(gpu).estimate(problem).total_time_s
            light, light_mode = LIGHTSCAN.time_batch(problem.N, g, machine.arch)
            points.append({
                "n_log2": n,
                "sp_s": sp,
                "sp_dlb_s": dlb,
                "lightscan_s": light,
                "lightscan_mode": light_mode,
                "winner": "sp-dlb" if dlb < sp else "sp",
                "tuner_choice": tuner.best_single_gpu_variant(problem),
            })
        # Crossover: the first n after which sp-dlb keeps winning.
        crossover = None
        for i, point in enumerate(points):
            if all(p["winner"] == "sp-dlb" for p in points[i:]):
                crossover = point["n_log2"]
                break
        payload["series"][key] = points
        payload["crossover_n_log2"][key] = crossover
    return payload


def bars(payload: dict) -> list[tuple[bool, str]]:
    """The acceptance bars as ``(holds, failure message)`` facts.

    Every series has a genuine crossover inside the sweep, the tuner picks
    ``sp`` at its smallest N, ``sp-dlb`` at its largest and the measured
    winner everywhere, and batching pulls the frontier down (G=8 fills the
    GPU sooner than G=1).
    """
    facts = []
    frontier = payload["crossover_n_log2"]
    for key, points in payload["series"].items():
        crossover = frontier[key]
        facts.append((
            crossover is not None and crossover > points[0]["n_log2"],
            f"{key}: crossover {crossover} is not inside the sweep",
        ))
        facts.append((
            points[0]["tuner_choice"] == "sp"
            and points[-1]["tuner_choice"] == "sp-dlb",
            f"{key}: tuner does not pick sp at the smallest N and sp-dlb "
            "at the largest",
        ))
        missed = [p["n_log2"] for p in points
                  if p["tuner_choice"] != p["winner"]]
        facts.append((not missed,
                      f"{key}: tuner misses the winner at n_log2={missed}"))
    for dtype in ("int32", "int64"):
        g1, g8 = frontier[f"{dtype}|G1"], frontier[f"{dtype}|G8"]
        facts.append((
            g1 is not None and g8 is not None and g8 < g1,
            f"{dtype}: G=8 crossover {g8} is not below G=1's {g1}",
        ))
    return facts
