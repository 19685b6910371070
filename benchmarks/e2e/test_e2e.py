"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

    python3 -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tracer as tracing
import workloads as wl
from metrics import E2E, LAYERS, PER_LAYER, RESOLVED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_benchmark(*args: str) -> tuple[dict, dict]:
    """The last-line JSON and the printed ``workload metric value unit`` lines."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] in WORKLOADS:
            printed[fields[0], fields[1]] = (float(fields[2]), fields[3])
    return json.loads(lines[-1]), printed


@pytest.fixture(scope="module")
def untraced():
    return run_benchmark("--seed", "3")


@pytest.fixture(scope="module")
def traced():
    return run_benchmark("--seed", "3", "--trace")


def test_every_e2e_metric_emitted_with_its_unit(untraced):
    last, printed = untraced
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    want = {f"{w}.{m}": unit for w in WORKLOADS for m, unit in E2E.items()}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(v["value"] > 0 for v in last["metrics"].values())
    for w in WORKLOADS:
        for m, unit in E2E.items():
            assert printed[w, m][1] == unit
        assert printed[w, "failed_frac"] == (0.0, "fraction")


def test_every_per_layer_metric_emitted_and_self_times_add_up(traced):
    last, printed = traced
    assert last["correct"] and last["failed"] == 0
    want = {f"{w}.{m}": unit for w in WORKLOADS for m, unit in PER_LAYER.items()}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    for w in WORKLOADS:
        shares = [last["metrics"][f"{w}.{layer}.self_share"]["value"]
                  for layer in LAYERS]
        shares.append(last["metrics"][f"{w}.host.unattributed_share"]["value"])
        assert min(shares) >= 0
        assert sum(shares) == pytest.approx(1.0, rel=0.01)
        assert sum(printed[w, name][0] for name in RESOLVED) == pytest.approx(1.0)


def test_generators_deterministic_per_seed_and_differ_across_seeds():
    def fingerprint(seed):
        stream = wl.stream(wl.SERVE, seed, 50)
        pools = wl.scan_pools(wl.SCANS["scan_small"], seed)
        keys = wl.queue_key_requests(wl.CLUSTER, seed)
        return ([(r.at_s, r.data.tobytes(), r.op, r.inclusive) for r in stream],
                [a.tobytes() for arrays in pools.values() for a in arrays],
                [r.data.tobytes() for r in keys])

    assert fingerprint(5) == fingerprint(5)
    a, b = fingerprint(5), fingerprint(6)
    assert all(x != y for x, y in zip(a, b))


def test_cold_starts_put_the_warm_resolver_back():
    workload = wl.SCANS["scan_small"]
    pools = wl.scan_pools(workload, 2)
    session = wl.scan_session(workload)
    for cfg in workload.configs:
        session.scan(pools[cfg][0], **cfg.kwargs())
    resolver = wl.ScanExecutor.resolver
    before = (resolver.export(), resolver.hits, resolver.misses)
    tally = wl.Tally()
    setups = wl.ColdStarts(lambda: wl.scan_cold_start(workload, pools, tally))
    assert len(setups.fill(2)) == 2 and tally.failed == 0
    assert (resolver.export(), resolver.hits, resolver.misses) == before


def _targets():
    return [(owner, attr) for owner, attr, *_ in tracing.targets()] + \
           [(owner, attr) for owner, attr, _ in tracing.counted_targets()]


def test_tracer_leaves_outputs_and_simulated_time_alone_and_restores():
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in _targets()}
    workload = wl.SCANS["scan_multigpu"]
    pools = wl.scan_pools(workload, 1)
    session = wl.scan_session(workload)
    plain = [session.scan(pools[cfg][0], **cfg.kwargs()) for cfg in workload.configs]
    schedule = wl.stream(wl.SERVE, 1, 200)
    serve_session = wl.scan_session(wl.SCANS["scan_small"])
    serve_plain = wl.serve_pass(serve_session, schedule)

    tracer = tracing.Tracer()
    tracer.request_ids = {id(r.data): i for i, r in enumerate(schedule)}
    tracer.install()
    try:
        traced = []
        for i, cfg in enumerate(workload.configs):
            with tracer.root(i):
                traced.append(session.scan(pools[cfg][0], **cfg.kwargs()))
        serve_traced = wl.serve_pass(serve_session, schedule, tracer)
    finally:
        tracer.uninstall()

    for owner, attr in _targets():
        assert vars(owner)[attr] is originals[(owner, attr)], (owner, attr)
    for a, b in zip(plain, traced):
        assert a.output.tobytes() == b.output.tobytes()
        assert a.total_time_s == b.total_time_s
    assert wl.signature(serve_plain) == wl.signature(serve_traced)
    for x, y in zip(serve_plain.tickets, serve_traced.tickets):
        assert np.array_equal(x.result(), y.result())

    assert tracer.spans and tracer.counts["operators.combine"] > 0
    assert sum(tracer.layer_self().values()) == pytest.approx(tracer.wall(), rel=0.01)
    batches = [s[6]["requests"] for s in tracer.spans
               if s[0] == "session.scan" and s[6]]
    assert sorted(i for ids in batches for i in ids) == list(range(len(schedule)))
