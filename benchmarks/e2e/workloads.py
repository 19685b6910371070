"""The five seeded workloads of the end-to-end benchmark.

``run.py`` runs each workload in its own process through this file:

    python3 benchmarks/e2e/workloads.py --workload scan_small --seed 0 --seconds 10

which prints one JSON object as its last line. Inputs come only from the
seed. Every output is compared bit-exactly with numpy
(``ufunc.accumulate``; exclusive = shifted with the identity) outside the
timed regions. Inputs are integer-valued with sums below 2^24, so float32
sums are exact in any order.

Two clocks are measured. Wall-clock metrics time what a Python caller
waits for. Simulated metrics read the cost model's time from the results,
so for one seed they repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from metrics import KERNELS, LAYERS, PER_LAYER, PROPOSALS, RESOLVED, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

from repro.cluster.router import ClusterRouter  # noqa: E402
from repro.core.autotune_cache import AutotuneCache  # noqa: E402
from repro.core.executor import ScanExecutor, proposal_specs  # noqa: E402
from repro.core.session import ScanSession  # noqa: E402
from repro.errors import BackpressureError  # noqa: E402
from repro.gpusim.metrics import buffer_pool_stats  # noqa: E402
from repro.interconnect.topology import tsubame_kfc  # noqa: E402
from repro.serve.service import ScanService  # noqa: E402

OUT = HERE / "out"

#: Cold starts per run, at least; ``setup_s`` is their median. One runs
#: after every timed window or replay, so that a short burst of host
#: noise lands on few of them; the rest run after the timed phase.
SETUP_STARTS = 11
#: Timed replays per open-loop run, at least.
MIN_REPLAYS = 3
#: Consecutive requests per wall-time block of an open-loop replay. The
#: service executes a batch inside some later request's ``submit``, so
#: single-request times are bimodal; a block spans a few batches.
BLOCK = 64
#: ``--smoke`` shrinks every schedule by this factor (the self-test).
SMOKE_SCALE = 1 / 16
#: ``--trace 1`` runs the workloads at a quarter of their size.
TRACE_SCALE = 1 / 4
#: Closed-loop throughput is taken per window of about this many seconds.
WINDOW_S = 1.0
#: Distinct seeded input arrays per closed-loop configuration.
POOL = 2
#: Length of the pure-Python yardstick scan (about 50 us).
PYREF_LEN = 1024

UFUNCS = {"add": np.add, "max": np.maximum, "min": np.minimum}
_PYREF_VALUES = list(range(PYREF_LEN))


def python_yardstick() -> list[int]:
    """A fixed pure-Python inclusive prefix sum, timed right after each call.

    On a shared host the interpreter's speed swings by up to 1.6x within
    seconds while numpy's C loops move by about 1.1x, and the program is
    mostly interpreter code. Divided by this, its wall time cancels the
    swing; divided by the numpy floor, it does not.
    """
    acc, out = 0, []
    for value in _PYREF_VALUES:
        acc += value
        out.append(acc)
    return out


# ------------------------------------------------------------------ reference


def identity(op: str, dtype) -> object:
    dtype = np.dtype(dtype)
    if op == "add":
        return dtype.type(0)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        return info.min if op == "max" else info.max
    return dtype.type(-np.inf if op == "max" else np.inf)


def shift_exclusive(inclusive: np.ndarray, op: str) -> np.ndarray:
    out = np.empty_like(inclusive)
    out[..., 0] = identity(op, inclusive.dtype)
    out[..., 1:] = inclusive[..., :-1]
    return out


def reference(data: np.ndarray, op: str, inclusive: bool) -> np.ndarray:
    acc = UFUNCS[op].accumulate(data, axis=-1, dtype=data.dtype)
    return acc if inclusive else shift_exclusive(acc, op)


def bit_equal(got, want: np.ndarray) -> bool:
    return (got is not None and got.shape == want.shape
            and got.dtype == want.dtype and got.tobytes() == want.tobytes())


# ------------------------------------------------------------------ workloads


@dataclass(frozen=True)
class ScanConfig:
    """One scan shape and placement; ``n``/``g`` are log2 of N and G."""

    n: int
    g: int
    dtype: str
    op: str
    inclusive: bool = True
    W: int = 1
    V: int | None = None
    M: int = 1
    proposal: str = "auto"

    def kwargs(self) -> dict:
        return {"proposal": self.proposal, "W": self.W, "V": self.V,
                "M": self.M, "operator": self.op,
                "inclusive": self.inclusive, "K": "tune"}

    @property
    def label(self) -> str:
        kind = "inc" if self.inclusive else "exc"
        return (f"{1 << self.g}x2^{self.n} {self.dtype} {self.op} {kind} "
                f"W{self.W}V{self.V or self.W}M{self.M} {self.proposal}")


@dataclass(frozen=True)
class ScanWorkload:
    """A closed loop: one caller, one warm session.

    The simulated-metric pass (which also warms the session) makes
    ``sim_calls`` calls, dealing the configurations like shuffled decks:
    each deck holds every configuration once, in an order drawn from the
    seed, and the last deck is cut short. The timed pass then cycles the
    configurations in order, so the wall metrics weigh every
    configuration equally whatever the seed.
    """

    nodes: int
    configs: tuple[ScanConfig, ...]
    sim_calls: int


SCANS = {
    # Every shape resolves to `sp`; host overhead outweighs kernel bodies.
    "scan_small": ScanWorkload(nodes=1, sim_calls=900, configs=(
        ScanConfig(10, 0, "int32", "add"),
        ScanConfig(11, 2, "int64", "max"),
        ScanConfig(12, 4, "float32", "add", inclusive=False),
        ScanConfig(13, 3, "int32", "min"),
        ScanConfig(10, 6, "int64", "add", inclusive=False),
        ScanConfig(11, 5, "int32", "max", inclusive=False),
        ScanConfig(12, 2, "float32", "min"),
        ScanConfig(13, 1, "int64", "add"),
    )),
    # Every shape resolves to `sp-dlb`; its lookback body dominates a call.
    "scan_large": ScanWorkload(nodes=1, sim_calls=30, configs=(
        ScanConfig(15, 4, "int64", "add"),
        ScanConfig(16, 4, "int32", "add"),
        ScanConfig(17, 3, "int32", "max"),
        ScanConfig(14, 6, "float32", "add", inclusive=False),
    )),
    # The paper's proposals: three-kernel bodies on 4-8 GPUs with
    # portioned upload/collect, P2P/host-staged copies and MPI.
    "scan_multigpu": ScanWorkload(nodes=2, sim_calls=222, configs=(
        ScanConfig(14, 4, "int32", "add", W=4, V=4),
        ScanConfig(14, 4, "int32", "add", W=8, V=4),
        ScanConfig(18, 0, "int32", "add", W=4, V=4, M=2),
        ScanConfig(14, 4, "int64", "add", W=8, V=4, M=2),
        ScanConfig(14, 4, "int32", "max", inclusive=False, W=4, proposal="pp"),
    )),
}


@dataclass(frozen=True)
class StreamWorkload:
    """An open loop: Poisson arrivals on the caller-advanced simulated clock.

    The caller advances the clock, so the generator is never late and
    each request's latency runs from its scheduled arrival.
    """

    requests: int
    rate: float
    lengths: tuple[int, int]
    ops: tuple[str, ...]
    exclusive_share: float


class Request(NamedTuple):
    at_s: float
    data: np.ndarray
    op: str
    inclusive: bool


#: Batches overlap freely (the service default), so latency reflects the
#: batching policy, not backlog.
SERVE = StreamWorkload(requests=4000, rate=5e5, lengths=(64, 2048),
                       ops=("add", "max"), exclusive_share=0.25)
SERVE_KNOBS = {"max_batch": 32, "max_wait_s": 5e-5}

#: Serialized executors (the router default) make tail latency respond to
#: load. Controllers stay off: their default high_rate (5e4 req/s) sits
#: below these rates. Pooled machines, like the default session's.
CLUSTER = StreamWorkload(requests=4000, rate=8e5, lengths=(200, 4096),
                         ops=("add", "max"), exclusive_share=0.0)
CLUSTER_KNOBS = {"replicas": 4, "policy": "managed", "max_batch": 16,
                 "max_wait_s": 1e-4, "recovery_s": 2e-4}
TENANTS = ("tenant-a", "tenant-b")
#: Fault-free capacity ladder (simulated time only).
LADDER = (4e5, 8e5, 1.2e6, 1.6e6, 2.4e6)
LADDER_REQUESTS = 3000
SLO_P99_S = 300e-6
BACKLOG_RATIO = 1.25


def stream(spec: StreamWorkload, seed: int, requests: int,
           rate: float | None = None) -> list[Request]:
    """A seeded Poisson schedule of 1-D int32 requests."""
    rng = np.random.default_rng(seed)
    at = np.cumsum(rng.exponential(1.0 / (rate or spec.rate), requests))
    lengths = rng.integers(spec.lengths[0], spec.lengths[1] + 1, requests)
    ops = rng.integers(len(spec.ops), size=requests)
    exclusive = rng.random(requests) < spec.exclusive_share
    return [Request(float(at[i]), rng.integers(0, 100, lengths[i]).astype(np.int32),
                    spec.ops[ops[i]], not bool(exclusive[i]))
            for i in range(requests)]


def queue_key_requests(spec: StreamWorkload, seed: int) -> list[Request]:
    """One request per queue key: padded length x operator x kind."""
    rng = np.random.default_rng(seed)
    kinds = (True, False) if spec.exclusive_share > 0 else (True,)
    lo = (spec.lengths[0] - 1).bit_length()
    hi = (spec.lengths[1] - 1).bit_length()
    return [Request(0.0, rng.integers(0, 100, 1 << n).astype(np.int32), op, inc)
            for n in range(lo, hi + 1) for op in spec.ops for inc in kinds]


def scan_pools(workload: ScanWorkload, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {cfg: [rng.integers(0, 100, (1 << cfg.g, 1 << cfg.n)).astype(cfg.dtype)
                  for _ in range(POOL)]
            for cfg in workload.configs}


# -------------------------------------------------------------------- helpers


class Tally:
    """Attempted and failed operations, with the first few failures named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


def median(values) -> float:
    return float(statistics.median(values))


def geomean(values) -> float:
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values) -> tuple[float, float]:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - q) / 100.0 >= 10:
            return pct(values, q), q
    return float(max(values)), 100.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class ColdStarts:
    """Cold starts spread over a run: each call times one ``start()``.

    A start clears the process-wide plan resolver; its plans and counters
    are put back afterwards, so the run's warm session stays warm. A full
    garbage collection runs before and after each start, outside its
    timing.
    """

    def __init__(self, start) -> None:
        self.start = start
        self.times: list[float] = []

    def __call__(self) -> None:
        resolver = ScanExecutor.resolver
        plans, counts = resolver.export(), (resolver.hits, resolver.misses)
        gc.collect()
        try:
            self.times.append(self.start())
        finally:
            resolver.clear()
            for plan in plans:
                resolver.prime(*plan)
            resolver.hits, resolver.misses = counts
            gc.collect()

    def fill(self, count: int) -> list[float]:
        """Run more starts until there are ``count``; every time so far."""
        while len(self.times) < count:
            self()
        return self.times


def proposal_names() -> dict[str, str]:
    """Result label -> registry name (``scan-mp-pc`` -> ``mppc``)."""
    return {spec.result_label: spec.name for spec in proposal_specs()}


def resolver_counts() -> tuple[int, int]:
    return ScanExecutor.resolver.hits, ScanExecutor.resolver.misses


# --------------------------------------------------------------- closed loops


def scan_session(workload: ScanWorkload) -> ScanSession:
    return ScanSession(tsubame_kfc(workload.nodes), pooling=True,
                       autotune_cache=AutotuneCache())


def scan_cold_start(workload: ScanWorkload, pools: dict, tally: Tally) -> float:
    """Fresh plan resolver, machine, session and tuner; one call per shape."""
    ScanExecutor.resolver.clear()
    start = time.perf_counter()
    session = scan_session(workload)
    results = [session.scan(pools[cfg][0], **cfg.kwargs())
               for cfg in workload.configs]
    elapsed = time.perf_counter() - start
    for cfg, result in zip(workload.configs, results):
        tally.check(bit_equal(result.output,
                              reference(pools[cfg][0], cfg.op, cfg.inclusive)),
                    f"cold start {cfg.label}")
    return elapsed


def scan_sim_pass(session, workload: ScanWorkload, pools: dict, seed: int,
                  calls: int, tally: Tally) -> dict:
    """The seeded deck-dealt pass: warms the session, yields sim metrics.

    Simulated time depends on the shape alone, so every call of a
    configuration must report the same ``total_time_s``.
    """
    rng = np.random.default_rng(seed + 1)
    configs = workload.configs
    decks = -(-calls // len(configs))
    order = np.concatenate([rng.permutation(len(configs)) for _ in range(decks)])
    labels = proposal_names()
    sims, elements, resolved, per_config = [], 0, {}, {}
    for c in order[:calls]:
        cfg = configs[int(c)]
        data = pools[cfg][int(rng.integers(POOL))]
        result = session.scan(data, **cfg.kwargs())
        first = per_config.setdefault(cfg, result.total_time_s)
        tally.check(bit_equal(result.output, reference(data, cfg.op, cfg.inclusive))
                    and result.total_time_s == first, f"sim pass {cfg.label}")
        sims.append(result.total_time_s)
        elements += data.size
        resolved[cfg.label] = labels.get(result.proposal, result.proposal)
    return {"sims": sims, "elements": elements, "resolved": resolved,
            "per_config": per_config}


def scan_timed_pass(session, workload: ScanWorkload, pools: dict,
                    seconds: float, tally: Tally, sim_s: dict,
                    tracer: Tracer | None = None, between=None) -> dict:
    """Cycle the configurations for ``seconds``, whole rotations only.

    One untimed rotation over every input array comes first. Each timed
    call is followed by the numpy floor on the same array, timed right
    after it, into a preallocated output, and then by the Python
    yardstick, timed on its own; the comparison with the floor and with
    the sim pass's simulated time (``sim_s``) runs outside all three
    timings. Calls are grouped into windows of about ``WINDOW_S``;
    ``between()`` runs after each window, outside the timed phase.
    """
    configs = workload.configs
    kwargs = [cfg.kwargs() for cfg in configs]
    floors = {cfg: np.empty_like(pools[cfg][0]) for cfg in configs}
    for cfg, k in zip(configs, kwargs):
        for data in pools[cfg]:
            result = session.scan(data, **k)
            tally.check(bit_equal(result.output,
                                  reference(data, cfg.op, cfg.inclusive)),
                        f"warm-up {cfg.label}")
    windows: list[dict] = []
    window = {cfg: [] for cfg in configs}
    gc.collect()
    start = window_start = time.perf_counter()
    i = 0
    while True:
        c = i % len(configs)
        cfg = configs[c]
        data = pools[cfg][(i // len(configs)) % POOL]
        out = floors[cfg]
        with tracer.root(i) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = session.scan(data, **kwargs[c])
            t1 = time.perf_counter()
        UFUNCS[cfg.op].accumulate(data, axis=-1, dtype=data.dtype, out=out)
        t2 = time.perf_counter()
        python_yardstick()
        t3 = time.perf_counter()
        want = out if cfg.inclusive else shift_exclusive(out, cfg.op)
        tally.check(bit_equal(result.output, want)
                    and result.total_time_s == sim_s[cfg], f"timed {cfg.label}")
        window[cfg].append((t1 - t0, t2 - t1, t3 - t2))
        i += 1
        if c < len(configs) - 1:
            continue
        now = time.perf_counter()
        done = now - start >= seconds
        if done or now - window_start >= WINDOW_S:
            windows.append(window)
            window = {cfg: [] for cfg in configs}
            if between is not None:
                between()
            window_start = time.perf_counter()
            start += window_start - now
        if done:
            return {"windows": windows, "calls": i}


def window_stats(window: dict) -> tuple[float, float]:
    """(wall p50 s, calls per second) of one closed-loop window; the p50 is
    the geometric mean over configurations of each one's median."""
    walls = [[w for w, _, _ in calls] for calls in window.values()]
    return (geomean([median(w) for w in walls]),
            sum(len(w) for w in walls) / sum(sum(w) for w in walls))


def call_ratio(windows: list[dict], column: int) -> float:
    """Wall time over the timing in ``column`` (1: numpy floor, 2: Python
    yardstick), per call: the geometric mean over configurations of each
    one's median over every call in ``windows``."""
    configs = windows[0]
    return geomean([median([call[0] / call[column] for window in windows
                            for call in window[cfg]])
                    for cfg in configs])


def run_scan(name: str, seed: int, seconds: float, scale: float,
             trace: bool, setup_starts: int) -> dict:
    workload = SCANS[name]
    tally = Tally()
    pools = scan_pools(workload, seed)
    calls = max(len(workload.configs), round(workload.sim_calls * scale))
    info: dict = {"configs": [cfg.label for cfg in workload.configs],
                  "sim_calls": calls}
    session = scan_session(workload)
    sim = scan_sim_pass(session, workload, pools, seed, calls, tally)
    info["resolved"] = sim["resolved"]
    if trace:
        def timed(tracer=None):
            return scan_timed_pass(session, workload, pools, seconds / 2,
                                   tally, sim["per_config"], tracer)

        metrics = trace_scan(name, seed, timed, session.topology)
        return {"metrics": metrics, "tally": tally, "info": info}

    setups = ColdStarts(lambda: scan_cold_start(workload, pools, tally))
    timed = scan_timed_pass(session, workload, pools, seconds, tally,
                            sim["per_config"], between=setups)
    starts = setups.fill(setup_starts)
    windows = timed["windows"]
    stats = [window_stats(w) for w in windows]
    walls = [w for window in windows for calls in window.values()
             for w, _, _ in calls]
    tail_s, tail_pct = tail(walls)
    sims = sim["sims"]
    metrics = {
        "setup_s": metric(median(starts), "s"),
        "pyref_ratio": metric(call_ratio(windows, 2), "x"),
        "wall_ms_p50": metric(median([p50 for p50, _ in stats]) * 1e3, "ms"),
        "wall_rps": metric(median([rps for _, rps in stats]), "req/s"),
        "floor_ratio": metric(call_ratio(windows, 1), "x"),
        "sim_gelem_per_s": metric(sim["elements"] / sum(sims) / 1e9, "Gelem/s"),
        "sim_latency_mean_us": metric(sum(sims) / len(sims) * 1e6, "us"),
        "host.wall_ms_tail": metric(tail_s * 1e3, "ms"),
    }
    info.update({
        "setup_starts_s": starts,
        "timed_calls": timed["calls"],
        "wall_tail_percentile": tail_pct,
        "windows": [{"wall_ms_p50": p50 * 1e3, "wall_rps": rps,
                     "floor_ratio": call_ratio([w], 1),
                     "pyref_ratio": call_ratio([w], 2)}
                    for (p50, rps), w in zip(stats, windows)],
    })
    return {"metrics": metrics, "tally": tally, "info": info}


# ----------------------------------------------------------------- open loops


class Pass(NamedTuple):
    """One replay of a schedule: its tickets and what it cost."""

    tickets: list
    #: Wall time spent inside calls into the program (submit and settle).
    wall_s: float
    #: Per block of BLOCK consecutive submits: the program's time, the
    #: numpy floor's (each request's ``ufunc.accumulate``, timed alone)
    #: and the Python yardstick's (one run per request, timed alone).
    blocks: list[tuple[float, float, float]]
    accs: list
    log: list
    sim_exec_s: float
    counts: dict


def drive(schedule: list[Request], offer, settle, tracer=None) -> tuple:
    """Offer each request in arrival order, then ``settle(tickets)``.

    Right after each offer the numpy floor for that request and then the
    Python yardstick run, each timed on its own, so they and the program
    see the same host conditions. Only the time inside ``offer`` and
    ``settle`` counts as the program's.
    """
    gc.collect()
    tickets, blocks, accs = [], [], []
    spent = block = floor = yard = 0.0
    for i, req in enumerate(schedule):
        with tracer.root(i) if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                ticket = offer(i, req)
            except BackpressureError:
                ticket = None
            t1 = time.perf_counter()
        accs.append(UFUNCS[req.op].accumulate(req.data, dtype=req.data.dtype))
        t2 = time.perf_counter()
        python_yardstick()
        t3 = time.perf_counter()
        tickets.append(ticket)
        spent += t1 - t0
        block += t1 - t0
        floor += t2 - t1
        yard += t3 - t2
        if (i + 1) % BLOCK == 0:
            blocks.append((block, floor, yard))
            block = floor = yard = 0.0
    with tracer.root(-1, name="drain") if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        settle(tickets)
        spent += time.perf_counter() - t0
    return tickets, spent, blocks, accs


def _pool_counts(topologies) -> tuple[int, int]:
    stats = [buffer_pool_stats(topology) for topology in topologies]
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def serve_pass(session, schedule: list[Request], tracer=None) -> Pass:
    service = ScanService(session=session, **SERVE_KNOBS)
    hits, misses = _pool_counts([session.topology])

    def offer(i: int, req: Request):
        return service.submit(req.data, operator=req.op,
                              inclusive=req.inclusive, at=req.at_s)

    tickets, wall, blocks, accs = drive(
        schedule, offer, lambda tickets: service.drain(), tracer)
    hits_after, misses_after = _pool_counts([session.topology])
    log = [(str(b.key), b.requests, b.g, b.flush_s, b.sim_time_s)
           for b in service.batches]
    return Pass(tickets, wall, blocks, accs, log,
                sum(b.sim_time_s for b in service.batches),
                {"pool_hits": hits_after - hits,
                 "pool_misses": misses_after - misses})


def _pooled_node(rid: int):
    topology = tsubame_kfc(1)
    topology.enable_buffer_pooling()
    return topology


def make_router() -> ClusterRouter:
    return ClusterRouter(topology_factory=_pooled_node, **CLUSTER_KNOBS)


def primed_router(snapshots: list) -> ClusterRouter:
    """A fresh router whose replicas start from the warm-up's snapshots."""
    router = make_router()
    for replica in router.replicas:
        for snapshot in snapshots:
            replica.service.session.apply_snapshot(snapshot)
    return router


def cluster_pass(router: ClusterRouter, schedule: list[Request],
                 fail_at: float | None, tracer=None) -> Pass:
    """Fail replica 0 at ``fail_at`` mid-stream; drain and walk recovery."""
    failed = fail_at is None
    parked = 0

    def offer(i: int, req: Request):
        nonlocal failed, parked
        if not failed and req.at_s >= fail_at:
            router.fail_replica(0, at=fail_at)
            failed = True
        ticket = router.submit(req.data, operator=req.op, inclusive=req.inclusive,
                               at=req.at_s, tenant=TENANTS[i % len(TENANTS)])
        if tracer is not None:
            parked = max(parked, router.parked)
        return ticket

    def settle(tickets):
        if not failed:
            router.fail_replica(0, at=fail_at)
        router.drain_queues()
        for _ in range(16):
            if all(t is None or t.terminal for t in tickets):
                break
            router.advance(router.recovery_s)
            router.drain_queues()
        for _ in range(16):
            if all(r.state == "active" for r in router.replicas):
                break
            router.advance(router.recovery_s)

    result = drive(schedule, offer, settle, tracer)
    hits, misses = _pool_counts(r.service.session.topology for r in router.replicas)
    return Pass(*result, list(router.batch_log),
                sum(entry[4] for entry in router.batch_log),
                {"rerouted": router.rerouted, "readmits": router.readmits,
                 "drains": router.drains, "parked": parked,
                 "pool_hits": hits, "pool_misses": misses})


def verify_pass(run: Pass, schedule: list[Request], tally: Tally,
                what: str) -> None:
    """Check every request's output against its numpy floor result."""
    for i, (req, acc, ticket) in enumerate(zip(schedule, run.accs, run.tickets)):
        want = acc if req.inclusive else shift_exclusive(acc, req.op)
        ok = (ticket is not None and ticket.status == "done"
              and bit_equal(ticket.result(), want))
        status = "rejected" if ticket is None else ticket.status
        tally.check(ok, f"{what} request {i}: {status}")


def signature(run: Pass) -> tuple:
    return (tuple(None if t is None else (t.status, t.latency_s)
                  for t in run.tickets), tuple(run.log))


def latencies(run: Pass) -> list[float]:
    """Simulated latency per request; failed, rejected or lost count as +inf."""
    return [t.latency_s if t is not None and t.status == "done" else math.inf
            for t in run.tickets]


def terminal(run: Pass) -> int:
    return sum(t is not None and t.status in ("done", "failed")
               for t in run.tickets)


def stream_cold_start(keys: list[Request], tally: Tally) -> float:
    """Fresh plan resolver, machine, session and service; one request per key."""
    ScanExecutor.resolver.clear()
    start = time.perf_counter()
    session = ScanSession(tsubame_kfc(1), pooling=True,
                          autotune_cache=AutotuneCache())
    service = ScanService(session=session, **SERVE_KNOBS)
    tickets = [service.submit(r.data, operator=r.op, inclusive=r.inclusive)
               for r in keys]
    service.drain()
    elapsed = time.perf_counter() - start
    for req, ticket in zip(keys, tickets):
        tally.check(ticket.done and bit_equal(ticket.result(), reference(
            req.data, req.op, req.inclusive)), "cold start request")
    return elapsed


def cluster_cold_start(keys: list[Request], tally: Tally) -> float:
    """Fresh plan resolver and router; one request per queue key.

    Replica sessions take their tuning cache from ``REPRO_CACHE_DIR``;
    with it unset they get a fresh in-memory one, as the other cold
    starts do, and write no files.
    """
    base = os.environ.pop("REPRO_CACHE_DIR", None)
    try:
        ScanExecutor.resolver.clear()
        start = time.perf_counter()
        router = make_router()
        tickets = [router.submit(r.data, operator=r.op, inclusive=r.inclusive,
                                 tenant=TENANTS[i % len(TENANTS)])
                   for i, r in enumerate(keys)]
        router.drain_queues()
        elapsed = time.perf_counter() - start
    finally:
        if base is not None:
            os.environ["REPRO_CACHE_DIR"] = base
    for req, ticket in zip(keys, tickets):
        tally.check(ticket.done and bit_equal(ticket.result(), reference(
            req.data, req.op, req.inclusive)), "cold start request")
    return elapsed


def capacity_ladder(snapshots: list, seed: int, scale: float,
                    tally: Tally) -> tuple[float, list[dict]]:
    """Highest fault-free rung with p99 within the SLO, nothing failed and
    no growing backlog (last third's mean latency within BACKLOG_RATIO of
    the first third's)."""
    count = max(3 * BLOCK, round(LADDER_REQUESTS * scale))
    capacity, rungs = 0.0, []
    for k, rate in enumerate(LADDER):
        schedule = stream(CLUSTER, seed + 10 + k, count, rate=rate)
        run = cluster_pass(primed_router(snapshots), schedule, None)
        verify_pass(run, schedule, tally, f"ladder {rate:g}")
        lat = latencies(run)
        third = len(lat) // 3
        first = sum(lat[:third]) / third
        last = sum(lat[-third:]) / third
        p99 = pct(lat, 99)
        ok = (p99 <= SLO_P99_S and math.isfinite(last)
              and last <= BACKLOG_RATIO * first)
        rungs.append({"rate": rate, "requests": count, "p99_us": p99 * 1e6,
                      "passed": ok,
                      "mean_first_third_us": first * 1e6,
                      "mean_last_third_us": last * 1e6})
        if ok:
            capacity = rate
    return capacity, rungs


def run_stream(name: str, seed: int, seconds: float, scale: float,
               trace: bool, setup_starts: int) -> dict:
    serve = name == "serve_poisson"
    spec = SERVE if serve else CLUSTER
    tally = Tally()
    count = max(2 * BLOCK, round(spec.requests * scale))
    schedule = stream(spec, seed, count)
    warm = stream(spec, seed + 1, count)
    info: dict = {"requests": count}
    if serve:
        session = ScanSession(tsubame_kfc(1), pooling=True,
                              autotune_cache=AutotuneCache())
        verify_pass(serve_pass(session, warm), warm, tally, "warm-up")

        def replay(tracer=None) -> Pass:
            return serve_pass(session, schedule, tracer)
    else:
        warm_router = make_router()
        verify_pass(cluster_pass(warm_router, warm, warm[len(warm) // 3].at_s),
                    warm, tally, "warm-up")
        snapshots = [r.service.session.snapshot() for r in warm_router.replicas]
        fail_at = schedule[len(schedule) // 3].at_s

        def replay(tracer=None) -> Pass:
            return cluster_pass(primed_router(snapshots), schedule, fail_at, tracer)

    if trace:
        metrics = trace_stream(name, seed, replay, schedule, seconds, tally)
        return {"metrics": metrics, "tally": tally, "info": info}

    keys = queue_key_requests(spec, seed + 2)
    setups = ColdStarts(lambda: (stream_cold_start if serve
                                 else cluster_cold_start)(keys, tally))
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_REPLAYS or time.perf_counter() - start < seconds:
        run = replay()
        verify_pass(run, schedule, tally, f"replay {len(runs)}")
        runs.append(run)
        paused = time.perf_counter()
        setups()
        start += time.perf_counter() - paused
    starts = setups.fill(setup_starts)
    first = signature(runs[0])
    for k, run in enumerate(runs[1:], 1):
        tally.check(signature(run) == first, f"replay {k} diverged from replay 0")
    lat = latencies(runs[0])
    served = sum(req.data.size for req, t in zip(schedule, runs[0].tickets)
                 if t is not None and t.status == "done")
    blocks = [b for run in runs for b in run.blocks]
    per_request = [wall / BLOCK for wall, _, _ in blocks]
    tail_s, tail_pct = tail(per_request)
    metrics = {
        "setup_s": metric(median(starts), "s"),
        "pyref_ratio": metric(median([wall / yard for wall, _, yard in blocks]),
                              "x"),
        "wall_ms_p50": metric(median(per_request) * 1e3, "ms"),
        "wall_rps": metric(median([terminal(run) / run.wall_s for run in runs]),
                           "req/s"),
        "floor_ratio": metric(median([wall / floor for wall, floor, _ in blocks]),
                              "x"),
        "sim_gelem_per_s": metric(served / runs[0].sim_exec_s / 1e9, "Gelem/s"),
        "sim_latency_mean_us": metric(sum(lat) / len(lat) * 1e6, "us"),
        "sim_latency_p50_us": metric(pct(lat, 50) * 1e6, "us"),
        "sim_latency_p99_us": metric(pct(lat, 99) * 1e6, "us"),
        "host.wall_ms_tail": metric(tail_s * 1e3, "ms"),
    }
    info.update(setup_starts_s=starts, queue_keys=len(keys), replays=len(runs),
                windows=[{"wall_s": run.wall_s,
                          "wall_ms_p50": median([w for w, _, _ in run.blocks]) / BLOCK * 1e3,
                          "floor_ratio": median([w / f for w, f, _ in run.blocks]),
                          "pyref_ratio": median([w / y for w, _, y in run.blocks])}
                         for run in runs],
                wall_tail_percentile=tail_pct,
                latency_samples=len(lat), batches=len(runs[0].log),
                **{k: v for k, v in runs[0].counts.items()
                   if not k.startswith("pool")})
    if not serve:
        capacity, rungs = capacity_ladder(snapshots, seed, scale, tally)
        metrics["sim_capacity_rps"] = metric(capacity, "req/s")
        info.update(ladder=rungs,
                    capacity_inside_ladder=LADDER[0] <= capacity < LADDER[-1])
    return {"metrics": metrics, "tally": tally, "info": info}


# ------------------------------------------------------------------- tracing


def trace_scan(name: str, seed: int, timed, topology) -> dict:
    """Untraced then traced halves of the timed pass; per-layer metrics."""
    def call_walls(timed_pass: dict) -> list[float]:
        return [w for window in timed_pass["windows"]
                for calls in window.values() for w, _, _ in calls]

    base = timed()
    walls = call_walls(base)
    tracer = Tracer()
    before = (resolver_counts(), _pool_counts([topology]))
    tracer.install()
    try:
        traced = timed(tracer)
    finally:
        tracer.uninstall()
    after = (resolver_counts(), _pool_counts([topology]))
    batches = [(1, r.problem.G, r.problem.G, r.elements, r.elements)
               for r in tracer.results]
    traced_walls = call_walls(traced)
    return layer_metrics(
        name, seed, tracer, requests=traced["calls"],
        overhead=(sum(traced_walls) / len(traced_walls))
        / (sum(walls) / len(walls)),
        tail_ms=tail(walls)[0] * 1e3,
        before=before, after=after, batches=batches,
        waits=(0.0, 0.0, 1.0), cluster=(0.0, 0.0, 0.0))


def trace_stream(name: str, seed: int, replay, schedule: list[Request],
                 seconds: float, tally: Tally) -> dict:
    """Untraced then traced replays, ``seconds / 2`` each (one at least)."""
    def replays(tracer=None) -> list[Pass]:
        runs, start = [], time.perf_counter()
        while not runs or time.perf_counter() - start < seconds / 2:
            runs.append(replay(tracer))
        return runs

    base = replays()
    for run in base:
        verify_pass(run, schedule, tally, "untraced replay")
    tracer = Tracer()
    tracer.request_ids = {id(req.data): i for i, req in enumerate(schedule)}
    resolver_before = resolver_counts()
    tracer.install()
    try:
        runs = replays(tracer)
    finally:
        tracer.uninstall()
    resolver_after = resolver_counts()
    for run in runs:
        verify_pass(run, schedule, tally, "traced replay")
    sizes = [req.data.size for req in schedule]
    batches = []
    for span, result in zip((s for s in tracer.spans if s[0] == "session.scan"),
                            tracer.results):
        ids = span[6]["requests"] if span[6] else []
        batches.append((len(ids), len(ids), result.problem.G,
                        sum(sizes[i] for i in ids if i >= 0), result.elements))
    queue = exec_wait = share = 0.0
    for run in runs:
        for ticket in run.tickets:
            if ticket is None or ticket.status != "done":
                continue
            inner = getattr(ticket, "inner", ticket)
            exec_wait += inner.exec_wait_s
            share += inner.exec_share_s
            queue += ticket.latency_s - inner.exec_wait_s - inner.exec_share_s
    total = queue + exec_wait + share
    blocks = [wall / BLOCK for run in base for wall, _, _ in run.blocks]
    n = len(runs)
    return layer_metrics(
        name, seed, tracer, requests=len(schedule) * n,
        overhead=median([run.wall_s for run in runs])
        / median([run.wall_s for run in base]),
        tail_ms=tail(blocks)[0] * 1e3,
        before=(resolver_before, (0, 0)),
        after=(resolver_after,
               (sum(r.counts["pool_hits"] for r in runs),
                sum(r.counts["pool_misses"] for r in runs))),
        batches=batches, waits=(queue / total, exec_wait / total, share / total),
        cluster=tuple(sum(r.counts.get(k, 0) for r in runs) / n
                      for k in ("rerouted", "parked", "readmits")))


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(name: str, seed: int, tracer: Tracer, *, requests: int,
                  overhead: float, tail_ms: float, before, after, batches,
                  waits, cluster) -> dict:
    """Per-layer metrics of one traced pass (see ``metrics.PER_LAYER``).

    ``overhead`` is traced over untraced wall time per request, each
    measured the same way around the calls into the program.
    ``before``/``after`` are (resolver hits, misses) and (pool hits,
    misses) around the pass. ``batches`` holds ``(requests, real rows,
    rows, useful elements, scanned elements)`` per session call; a closed
    loop call is one request whose rows are all real. ``waits`` are the
    simulated queue-wait, executor-wait and execution shares of request
    latency; ``cluster`` the reroutes, peak parked requests and re-admits
    per replay.
    """
    wall = tracer.wall()
    own = tracer.layer_self()
    seconds, calls = tracer.span_totals()
    per_us = 1e6 / requests

    def total(prefix: str, table) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    labels = proposal_names()
    resolved = [labels.get(r.proposal, r.proposal) for r in tracer.results]
    sim = compute = stall = comm = 0.0
    kernel_bytes = 0
    for result in tracer.results:
        profile = result.profile()
        sim += profile.total_time_s
        compute += profile.categories.get("compute", 0.0)
        stall += profile.categories.get("lookback_stall", 0.0)
        comm += profile.communication_share * profile.total_time_s
        kernel_bytes += sum(k.global_bytes_read + k.global_bytes_written
                            for k in result.trace.kernel_records())
    batch_requests, real_rows, rows, useful, scanned = (
        sum(column) for column in zip(*batches))
    values = {
        **{f"{layer}.self_share": own.get(layer, 0.0) / wall for layer in LAYERS},
        "host.unattributed_share": own.get("host", 0.0) / wall,
        "host.traced_us": wall * per_us,
        "host.trace_overhead": overhead,
        "host.wall_ms_tail": tail_ms,
        "executor.resolve_us": seconds["executor.resolve"] * per_us,
        "executor.resolve_hit_ratio": _ratio(after[0][0] - before[0][0],
                                             after[0][1] - before[0][1]),
        "memory.upload_us": seconds["memory.upload"] * per_us,
        "memory.collect_us": seconds["memory.collect"] * per_us,
        "memory.pool_hit_ratio": _ratio(after[1][0] - before[1][0],
                                        after[1][1] - before[1][1]),
        "kernels.body_us": seconds["kernels.body"] * per_us,
        "kernels.cost_model_us": seconds["kernels.cost_model"] * per_us,
        "kernels.launches": total("kernels.launch.", calls) / requests,
        **{f"kernels.{k}.share": seconds[f"kernels.launch.{k}"] / wall
           for k in KERNELS},
        "operators.accumulate_us": seconds["operators.accumulate"] * per_us,
        "operators.accumulate_calls": calls["operators.accumulate"] / requests,
        "operators.combine_calls": tracer.counts["operators.combine"] / requests,
        "trace.us": total("trace.", seconds) * per_us,
        "transfer.calls": total("transfer.", calls) / requests,
        "mpi.calls": total("mpi.", calls) / requests,
        **{f"session.resolved.{p}": resolved.count(p) / len(resolved)
           for p in PROPOSALS},
        "serve.pad_share": seconds["serve.pad"] / wall,
        "serve.mean_batch_size": batch_requests / len(batches),
        "serve.row_fill_ratio": real_rows / rows,
        "serve.elem_fill_ratio": useful / scanned,
        "cluster.respawn_share": seconds["cluster.respawn"] / wall,
        "cluster.rerouted": cluster[0],
        "cluster.parked": cluster[1],
        "cluster.readmits": cluster[2],
        "sim.compute_share": compute / sim,
        "sim.lookback_stall_share": stall / sim,
        "sim.comm_share": comm / sim,
        "sim.bytes_per_elem": kernel_bytes / scanned,
        "sim.queue_wait_share": waits[0],
        "sim.exec_wait_share": waits[1],
        "sim.batch_share": waits[2],
    }
    tracer.write_chrome_trace(OUT / f"trace-{name}-seed{seed}.json")
    units = {**PER_LAYER, **RESOLVED}
    return {key: metric(value, units[key]) for key, value in values.items()}


# ---------------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, trace: bool = False,
                 smoke: bool = False) -> dict:
    """Run one workload in this process; the child's JSON result."""
    scale = (SMOKE_SCALE if smoke else 1.0) * (TRACE_SCALE if trace else 1.0)
    starts = 2 if smoke else SETUP_STARTS
    runner = run_scan if name in SCANS else run_stream
    out = runner(name, seed, seconds, scale, trace, starts)
    tally = out["tally"]
    return {
        "workload": name,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": out["metrics"],
        "info": out["info"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one end-to-end benchmark workload in this process.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/16-size schedules and two cold starts")
    args = parser.parse_args(argv)

    from repro import obs
    from repro.obs import flight

    if obs.is_enabled() or flight.is_armed():
        raise SystemExit("observability must be off: unset REPRO_OBS and "
                         "REPRO_FLIGHT_DIR")
    result = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace), smoke=args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
