"""Command-line interface: run scans and regenerate the paper's evaluation.

Usage (after ``pip install -e .``)::

    python -m repro info
    python -m repro table3 [--arch maxwell]
    python -m repro scan --n 20 --g 8 --proposal mps --w 4 --v 4 [--tune]
    python -m repro figure 12 [--chart] [--total 28]
    python -m repro breakdown [--total 28]

Everything runs on the simulated machine (default: TSUBAME-KFC-like nodes);
``scan`` executes functionally and verifies against numpy, the figure
commands use the analytic estimate path at full paper scale.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.bench.reporting import ascii_chart, format_breakdown_table, format_series_table
from repro.bench.runner import (
    figure9_series,
    figure10_series,
    figure11_series,
    figure12_series,
    figure13_combination_study,
    figure13_series,
    figure14_breakdown,
    mean_speedup,
)
from repro.cluster.policies import policy_names as cluster_policy_names
from repro.core.api import scan
from repro.core.executor import proposal_names, proposal_specs
from repro.core.occupancy_table import format_occupancy_table
from repro.core.premises import premise1_block_configuration
from repro.errors import ReproError
from repro.gpusim.arch import get_architecture
from repro.interconnect.topology import tsubame_kfc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Batch scan on a simulated multi-GPU system "
        "(reproduction of Dieguez et al., IPPS 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="describe the simulated machine and premises")

    t3 = sub.add_parser("table3", help="regenerate Table 3 (occupancy)")
    t3.add_argument("--arch", default="k80", help="architecture preset (k80/maxwell/pascal)")

    sub.add_parser(
        "proposals",
        help="list the registered scan proposals (the executor registry)",
    )

    sc = sub.add_parser("scan", help="run one batch scan functionally")
    sc.add_argument("--n", type=int, default=16, help="log2 problem size")
    sc.add_argument("--g", type=int, default=4, help="log2 batch size")
    sc.add_argument("--proposal", default="auto",
                    choices=["auto", *proposal_names()])
    sc.add_argument("--w", type=int, default=1, help="GPUs per node (W)")
    sc.add_argument("--v", type=int, default=None, help="GPUs per PCIe network (V)")
    sc.add_argument("--m", type=int, default=1, help="nodes (M)")
    sc.add_argument("--operator", default="add",
                    choices=["add", "mul", "max", "min", "or", "xor"])
    sc.add_argument("--exclusive", action="store_true")
    sc.add_argument("--tune", action="store_true", help="sweep K empirically")
    sc.add_argument("--timeline", action="store_true",
                    help="draw the lane/phase ASCII timeline")
    sc.add_argument("--metrics", action="store_true",
                    help="print derived kernel/communication metrics")
    sc.add_argument("--json", action="store_true",
                    help="emit a machine-readable JSON bundle instead of text")
    sc.add_argument("--trace-out", default=None, metavar="FILE",
                    help="write a Chrome/Perfetto trace-event JSON file")
    sc.add_argument("--profile", action="store_true",
                    help="print the time-attribution profile (category "
                    "table, critical path, device utilization)")
    sc.add_argument("--flame-out", default=None, metavar="FILE",
                    help="write a folded-stack flamegraph file "
                    "(FlameGraph/speedscope collapsed format)")
    sc.add_argument("--inject-fault", action="append", default=[],
                    metavar="SPEC",
                    help="inject an availability fault before running, e.g. "
                    "device:1@call=5, link:0.1@t=1e-4, link-hard:0.0@call=3, "
                    "slow:pcie0.1*2@call=2 (repeatable)")
    sc.add_argument("--snapshot", default=None, metavar="FILE",
                    help="serve through a session restored from this "
                    "snapshot file (see `repro snapshot save`)")
    sc.add_argument("--seed", type=int, default=0)

    sn = sub.add_parser(
        "snapshot",
        help="save/load session snapshots: warm plans, tuned K entries and "
        "buffer-pool hints persisted for zero-warmup restarts",
    )
    sn.add_argument("action", choices=["save", "load"],
                    help="save: warm a session and persist its snapshot; "
                    "load: inspect a snapshot file and report whether it "
                    "would restore onto this machine")
    sn.add_argument("file", nargs="?", default=None,
                    help="snapshot path (default: "
                    "$REPRO_CACHE_DIR/snapshot.json)")
    sn.add_argument("--n", type=int, default=14, help="log2 problem size")
    sn.add_argument("--g", type=int, default=3, help="log2 batch size")
    sn.add_argument("--proposal", default="auto",
                    choices=["auto", *proposal_names()])
    sn.add_argument("--w", type=int, default=1, help="GPUs per node (W)")
    sn.add_argument("--v", type=int, default=None, help="GPUs per PCIe network (V)")
    sn.add_argument("--m", type=int, default=1, help="nodes (M)")
    sn.add_argument("--tune", action="store_true",
                    help="sweep K empirically while warming")
    sn.add_argument("--seed", type=int, default=0)

    ob = sub.add_parser(
        "obs",
        help="run warm serving calls with observability on; print the "
        "session report and metrics exposition",
    )
    ob.add_argument("--n", type=int, default=14, help="log2 problem size")
    ob.add_argument("--g", type=int, default=3, help="log2 batch size")
    ob.add_argument("--proposal", default="mps",
                    choices=["auto", *proposal_names()])
    ob.add_argument("--w", type=int, default=4, help="GPUs per node (W)")
    ob.add_argument("--v", type=int, default=None, help="GPUs per PCIe network (V)")
    ob.add_argument("--m", type=int, default=1, help="nodes (M)")
    ob.add_argument("--calls", type=int, default=8,
                    help="number of scan() calls to drive through the session")
    ob.add_argument("--trace-out", default=None, metavar="FILE",
                    help="write a Chrome/Perfetto trace-event JSON file")
    ob.add_argument("--seed", type=int, default=0)

    fig = sub.add_parser("figure", help="regenerate an evaluation figure")
    fig.add_argument("number", type=int, choices=[9, 10, 11, 12, 13])
    fig.add_argument("--total", type=int, default=28,
                     help="log2 of the total payload (paper: 28)")
    fig.add_argument("--chart", action="store_true", help="also draw an ASCII chart")
    fig.add_argument("--csv", default=None, help="also write the series as CSV")

    bd = sub.add_parser("breakdown", help="regenerate Figure 14 (time breakdown)")
    bd.add_argument("--total", type=int, default=28)

    sub.add_parser(
        "selfcheck",
        help="quick functional cross-validation of every proposal vs numpy",
    )

    cp = sub.add_parser("compare",
                        help="rank every strategy at one (N, G) point")
    cp.add_argument("--n", type=int, default=16, help="log2 problem size")
    cp.add_argument("--g", type=int, default=6, help="log2 batch size")
    cp.add_argument("--nodes", type=int, default=1)
    cp.add_argument("--no-baselines", action="store_true")

    sv = sub.add_parser(
        "serve",
        help="replay a request stream through the coalescing scan service "
        "and report batches, latency percentiles and the speedup over "
        "one-request-at-a-time submission",
    )
    sv.add_argument("--requests", type=int, default=64,
                    help="number of requests to replay")
    sv.add_argument("--sizes", default="12",
                    help="comma-separated log2 request sizes the stream "
                    "cycles through, e.g. 10,12,13")
    sv.add_argument("--rate", type=float, default=0.0,
                    help="arrival rate in requests per simulated second "
                    "(0 = all arrive at t=0)")
    sv.add_argument("--max-batch", type=int, default=64,
                    help="flush a queue at this many coalesced requests")
    sv.add_argument("--max-wait", type=float, default=1e-3,
                    help="flush a queue once its oldest request waited "
                    "this many simulated seconds")
    sv.add_argument("--max-queue", type=int, default=1024,
                    help="admission bound; requests beyond it are rejected")
    sv.add_argument("--proposal", default="auto",
                    choices=["auto", *proposal_names()])
    sv.add_argument("--w", type=int, default=1, help="GPUs per node (W)")
    sv.add_argument("--v", type=int, default=None, help="GPUs per PCIe network (V)")
    sv.add_argument("--m", type=int, default=1, help="nodes (M)")
    sv.add_argument("--operator", default="add",
                    choices=["add", "mul", "max", "min", "or", "xor"])
    sv.add_argument("--snapshot", default=None, metavar="FILE",
                    help="restore the serving session from this snapshot "
                    "before replaying (zero-warmup start)")
    sv.add_argument("--no-solo", action="store_true",
                    help="skip the one-request-at-a-time baseline")
    sv.add_argument("--adaptive", action="store_true",
                    help="serve with the adaptive controller stack: "
                    "max_batch/max_wait track the observed arrival rate, "
                    "degraded health re-tunes, calibration drift evicts "
                    "stale plans (decisions printed, or in --json)")
    sv.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    sv.add_argument("--seed", type=int, default=0)

    hl = sub.add_parser(
        "health",
        help="serve calls (optionally under injected faults) and report "
        "the session health tracker: quarantined resources, retries, "
        "failovers",
    )
    hl.add_argument("--n", type=int, default=13, help="log2 problem size")
    hl.add_argument("--g", type=int, default=3, help="log2 batch size")
    hl.add_argument("--proposal", default="mps",
                    choices=["auto", *proposal_names()])
    hl.add_argument("--w", type=int, default=4, help="GPUs per node (W)")
    hl.add_argument("--v", type=int, default=None, help="GPUs per PCIe network (V)")
    hl.add_argument("--m", type=int, default=1, help="nodes (M)")
    hl.add_argument("--calls", type=int, default=4,
                    help="number of scan() calls to serve")
    hl.add_argument("--inject-fault", action="append", default=[],
                    metavar="SPEC",
                    help="availability fault spec (see `repro scan`); repeatable")
    hl.add_argument("--seed", type=int, default=0)

    cl = sub.add_parser(
        "cluster",
        help="replay a request stream through a router fronting N scan "
        "service replicas; report tail latency, per-replica load, tenant "
        "SLOs and (optionally) a mid-traffic drain/re-admit",
    )
    cl.add_argument("--replicas", type=int, default=2,
                    help="number of service replicas behind the router")
    cl.add_argument("--policy", default="least_depth",
                    choices=cluster_policy_names(),
                    help="dispatch policy")
    cl.add_argument("--requests", type=int, default=64,
                    help="number of requests to replay")
    cl.add_argument("--sizes", default="12",
                    help="comma-separated log2 request sizes the stream "
                    "cycles through, e.g. 10,12,13")
    cl.add_argument("--rate", type=float, default=2e5,
                    help="arrival rate in requests per simulated second "
                    "(0 = all arrive at t=0)")
    cl.add_argument("--max-batch", type=int, default=8,
                    help="per-replica flush threshold")
    cl.add_argument("--max-wait", type=float, default=1e-4,
                    help="per-replica max simulated queue wait")
    cl.add_argument("--tenants", default="default",
                    help="comma-separated tenant names to cycle requests "
                    "through (auto-registered with the standard SLO class)")
    cl.add_argument("--fail-replica-at", type=float, default=None,
                    metavar="T",
                    help="take a replica down at this simulated instant "
                    "(drain, re-route, re-admit from the leader snapshot)")
    cl.add_argument("--fail-replica-id", type=int, default=0)
    cl.add_argument("--recovery", type=float, default=5e-3,
                    help="simulated seconds a drained replica stays down")
    cl.add_argument("--drain-after", type=int, default=2,
                    help="consecutive exhausted failovers before a replica "
                    "is drained")
    cl.add_argument("--json", action="store_true",
                    help="emit the report as JSON")
    cl.add_argument("--seed", type=int, default=0)

    bc = sub.add_parser(
        "bench",
        help="benchmark tooling: `repro bench check` compares committed "
        "BENCH_*.json baselines against a deterministic re-run within "
        "tolerances (the CI drift gate)",
    )
    bc.add_argument("action", choices=["check"],
                    help="check: re-run the deterministic benchmark replays "
                    "and compare against the committed BENCH_*.json files")
    bc.add_argument("--repo-root", default=None, metavar="DIR",
                    help="directory holding the BENCH_*.json baselines "
                    "(default: the repository root)")
    bc.add_argument("--only", action="append", default=[],
                    choices=["serving", "single_pass", "serve", "obs_overhead",
                             "restart", "cluster", "adaptive"],
                    help="restrict the check to one suite (repeatable)")
    bc.add_argument("--json", action="store_true",
                    help="emit the check report as JSON")

    ct = sub.add_parser(
        "control",
        help="A/B the adaptive controller stack against a static service: "
        "replay a bursty + fault-injected workload (and a steady one) "
        "through both arms and report the p99 win and the decision log",
    )
    ct.add_argument("--requests", type=int, default=None,
                    help="override the committed experiment's request count")
    ct.add_argument("--seed", type=int, default=None,
                    help="override the committed experiment's seed")
    ct.add_argument("--repeats", type=int, default=2,
                    help="replays per cell; every repeat must be "
                    "bit-identical to the first")
    ct.add_argument("--json", action="store_true",
                    help="emit the full report (decision logs included) "
                    "as JSON")

    return parser


def _cmd_info() -> int:
    machine = tsubame_kfc()
    arch = machine.arch
    p1 = premise1_block_configuration(arch)
    print(f"simulated machine: {machine.num_nodes} node(s) x "
          f"{machine.networks_per_node} PCIe networks x "
          f"{machine.gpus_per_network} GPUs")
    print(f"GPU: {arch.name}, cc {arch.compute_capability[0]}.{arch.compute_capability[1]}, "
          f"{arch.sm_count} SMs, {arch.memory_bandwidth_gbs:.0f} GB/s peak, "
          f"{arch.global_memory_bytes / 2**30:.0f} GiB")
    print(f"Premise 1: {p1.warps_per_block} warps/block, "
          f"<= {p1.reg_budget_per_thread} regs/thread, "
          f"<= {p1.smem_budget_per_block} B smem "
          f"-> {p1.blocks_per_sm} blocks/SM @ {p1.warp_occupancy:.0%}")
    print("proposals: " + ", ".join(proposal_names())
          + "  (details: python -m repro proposals)")
    print()
    print(machine.describe())
    return 0


def _cmd_proposals() -> int:
    """The executor registry, printed: one row per registered proposal.

    The capability column makes the algorithmic trade-offs scannable:
    passes over device memory (3-pass pipeline vs 2-pass single-pass
    variants), whether one problem spreads over multiple GPUs, and whether
    the analytic ``estimate()`` path is available.
    """
    specs = proposal_specs()
    name_w = max(len(s.name) for s in specs)
    label_w = max(len(s.result_label) for s in specs)
    caps_w = len("3-pass multi-GPU estimate")
    for spec in specs:
        tunable = "K-tunable" if spec.tunable else "fixed-K  "
        caps = " ".join((
            f"{spec.memory_passes:g}-pass",
            "multi-GPU" if spec.multi_gpu else "1-GPU    ",
            "estimate" if spec.supports_estimate else "run-only",
        ))
        print(f"  {spec.name:<{name_w}}  {spec.result_label:<{label_w}}  "
              f"{tunable}  {caps:<{caps_w}}  {spec.summary}")
        if spec.paper_ref:
            print(f"  {'':<{name_w}}  {'':<{label_w}}  {'':<9}  "
                  f"{'':<{caps_w}}  [{spec.paper_ref}]")
    return 0


def _cmd_table3(arch_name: str) -> int:
    print(format_occupancy_table(get_architecture(arch_name)))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro import obs

    machine = tsubame_kfc(max(1, args.m))
    if args.inject_fault:
        from repro.gpusim.faults import FaultSchedule, parse_fault

        machine.install_faults(
            FaultSchedule([parse_fault(spec) for spec in args.inject_fault])
        )
    rng = np.random.default_rng(args.seed)
    data = rng.integers(0, 100, (1 << args.g, 1 << args.n)).astype(np.int32)
    if args.trace_out:
        obs.enable()
    t0 = time.perf_counter()
    scan_kwargs = dict(
        proposal=args.proposal,
        W=args.w,
        V=args.v,
        M=args.m,
        operator=args.operator,
        inclusive=not args.exclusive,
        K="tune" if args.tune else None,
    )
    if args.snapshot:
        from repro.core.session import ScanSession

        session = ScanSession.restore(args.snapshot, machine)
        info = session.restore_info or {}
        if not info.get("compatible"):
            print(f"snapshot not applicable ({info.get('reason', 'unknown')}); "
                  "serving cold", file=sys.stderr)
        result = session.scan(data, **scan_kwargs)
    else:
        result = scan(data, topology=machine, **scan_kwargs)
    wall = time.perf_counter() - t0
    verified = False
    reference = result.problem.operator.accumulate(data, axis=-1)
    if not args.exclusive:
        np.testing.assert_array_equal(result.output, reference)
        verified = True
    if args.trace_out:
        obs.write_chrome_trace(args.trace_out, result.trace, obs.finished_spans())
    if args.flame_out:
        from repro.obs.profile import write_folded

        write_folded(args.flame_out, result.trace, proposal=result.proposal)
    if args.json:
        import json

        from repro.gpusim.metrics import summarize

        bundle = {
            "proposal": result.proposal,
            "K": result.config.get("K"),
            "config": {
                k: v for k, v in result.config.items() if k != "gpu_ids"
            },
            "N": result.problem.N,
            "G": result.problem.G,
            "verified": verified,
            "breakdown_s": result.breakdown,
            "metrics": summarize(result.trace, machine.arch),
            "wall_s": wall,
        }
        if args.profile:
            bundle["profile"] = result.profile().to_dict()
        print(json.dumps(bundle, indent=2))
        return 0
    if verified:
        print("verified against numpy reference")
    print(result.summary())
    failover = result.config.get("failover")
    if failover:
        w, v, m = failover["degraded_node"]
        print(f"failover: completed on attempt {failover['attempts']} "
              f"(degraded to W={w} V={v} M={m}, "
              f"backoff {failover['backoff_s'] * 1e3:.3f} ms simulated)")
        for err in failover["errors"]:
            print(f"  failed attempt: {err}")
    print("breakdown:")
    for phase, seconds in result.breakdown.items():
        print(f"  {phase:>12}: {seconds * 1e6:10.1f} us")
    if args.timeline:
        from repro.gpusim.metrics import ascii_timeline

        print()
        print(ascii_timeline(result.trace))
    if args.metrics:
        from repro.gpusim.metrics import summarize

        print()
        for key, value in summarize(result.trace, machine.arch).items():
            print(f"  {key}: {value}")
    if args.profile:
        print()
        print(result.profile().format())
    if args.trace_out:
        print(f"chrome trace written to {args.trace_out}")
    if args.flame_out:
        print(f"folded-stack flamegraph written to {args.flame_out}")
    print(f"(simulation wall-clock: {wall:.3f} s)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.session import ScanSession

    machine = tsubame_kfc(max(1, args.m))
    rng = np.random.default_rng(args.seed)
    obs.enable()
    session = ScanSession(machine)
    last = None
    for _ in range(max(1, args.calls)):
        data = rng.integers(0, 100, (1 << args.g, 1 << args.n)).astype(np.int32)
        last = session.scan(
            data,
            proposal=args.proposal,
            W=args.w,
            V=args.v,
            M=args.m,
        )
    print(session.report().format())
    print()
    print(obs.render_prometheus(obs.registry()), end="")
    if args.trace_out and last is not None:
        obs.write_chrome_trace(args.trace_out, last.trace, obs.finished_spans())
        print(f"\nchrome trace written to {args.trace_out}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Persist or inspect a session snapshot (zero-warmup restarts)."""
    from repro.core.autotune_cache import cost_fingerprint
    from repro.core.session import ScanSession
    from repro.core.store import SessionSnapshot, default_snapshot_path

    machine = tsubame_kfc(max(1, args.m))
    if args.action == "save":
        session = ScanSession(machine)
        rng = np.random.default_rng(args.seed)
        data = rng.integers(0, 100, (1 << args.g, 1 << args.n)).astype(np.int32)
        session.scan(
            data, proposal=args.proposal, W=args.w, V=args.v, M=args.m,
            K="tune" if args.tune else None,
        )
        snap = session.snapshot()
        target = snap.save(args.file)
        counts = snap.counts
        print(f"snapshot written to {target}")
        print(f"  arch {snap.arch}, fingerprint {snap.fingerprint}")
        print(f"  {counts['plans']} plans, "
              f"{counts['autotune_entries']} autotune entries, "
              f"{counts['session_entries']} session entries, "
              f"{counts['pool_blocks']} warm pool blocks")
        return 0

    path = args.file or default_snapshot_path()
    snap = SessionSnapshot.load(path)
    counts = snap.counts
    print(f"snapshot {path}")
    print(f"  schema {snap.schema}, arch {snap.arch}, "
          f"fingerprint {snap.fingerprint}")
    if snap.topology:
        print(f"  machine: {snap.topology.get('num_nodes')} node(s) x "
              f"{snap.topology.get('networks_per_node')} networks x "
              f"{snap.topology.get('gpus_per_network')} GPUs")
    print(f"  {counts['plans']} plans, "
          f"{counts['autotune_entries']} autotune entries, "
          f"{counts['session_entries']} session entries, "
          f"{counts['pool_blocks']} warm pool blocks")
    ok, reason = snap.compatible_with(
        machine.arch.name, cost_fingerprint(machine)
    )
    if ok:
        print("  restores onto this machine: yes")
    else:
        print(f"  restores onto this machine: no ({reason})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Replay a request stream through the coalescing service."""
    from repro import obs
    from repro.core.session import ScanSession
    from repro.serve import poisson_workload, replay, solo_baseline

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        print(f"error: --sizes must be comma-separated integers, got {args.sizes!r}",
              file=sys.stderr)
        return 2
    machine = tsubame_kfc(max(1, args.m))
    obs.enable()
    session = ScanSession(machine, snapshot=args.snapshot)
    if args.snapshot:
        info = session.restore_info or {}
        if info.get("compatible"):
            print(f"restored snapshot: {info['plans']} plans, "
                  f"{info['tuner_entries']} tuned entries, "
                  f"{info['entries']} session entries, "
                  f"{info['pool_blocks']} pool blocks")
        else:
            print(f"snapshot not applicable "
                  f"({info.get('reason', 'unknown')}); serving cold",
                  file=sys.stderr)
    controller = None
    slo = None
    if args.adaptive:
        from repro.control import adaptive_controller
        from repro.obs.slo import slo_class

        controller = adaptive_controller()
        slo = slo_class("standard")
    service = session.service(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait,
        max_queue=args.max_queue,
        proposal=args.proposal,
        W=args.w,
        V=args.v,
        M=args.m,
        controller=controller,
        slo=slo,
    )
    workload = poisson_workload(
        args.requests, sizes_log2=sizes, rate=args.rate,
        operator=args.operator, seed=args.seed,
    )
    report = replay(service, workload)
    if controller is not None:
        report["decisions"] = controller.decision_log()
    speedup = None
    if not args.no_solo:
        solo = solo_baseline(ScanSession(tsubame_kfc(max(1, args.m))), workload)
        report["solo_sim_s"] = solo["solo_sim_s"]
        if report["coalesced_sim_s"] > 0:
            speedup = solo["solo_sim_s"] / report["coalesced_sim_s"]
            report["coalesce_speedup"] = speedup
    if args.json:
        import json

        print(json.dumps(report, indent=2))
        return 0
    lat = report["latency"]
    print(f"replayed {report['requests']} requests "
          f"(sizes 2^{{{args.sizes}}}, rate "
          f"{'burst' if args.rate <= 0 else f'{args.rate:g}/s'}): "
          f"{report['verified']} verified against numpy, "
          f"{report['request_failures']} failed, "
          f"{report['rejected_by_backpressure']} rejected")
    print(f"batches: {report['batches']}  "
          f"mean size {report['mean_batch_size']:.2f}  "
          f"splits {report['splits']}  padded rows {report['padded_rows']}")
    print(f"simulated executor time: {report['coalesced_sim_s'] * 1e3:.3f} ms "
          f"(queue wait total {report['total_queue_wait_s'] * 1e3:.3f} ms)")
    print(f"latency (simulated): p50 {lat['p50'] * 1e6:.1f} us  "
          f"p95 {lat['p95'] * 1e6:.1f} us  p99 {lat['p99'] * 1e6:.1f} us")
    if speedup is not None:
        print(f"one-at-a-time baseline: {report['solo_sim_s'] * 1e3:.3f} ms "
              f"-> coalescing speedup {speedup:.2f}x")
    if controller is not None:
        decisions = report["decisions"]
        print(f"adaptive: {len(decisions)} control decision(s), final "
              f"max_batch {service.max_batch}, "
              f"max_wait {service.max_wait_s * 1e6:g} us")
        for d in decisions:
            print(f"  {_format_decision(d)}")
    return 0


def _format_decision(d: dict) -> str:
    return (f"t={d['at_s'] * 1e3:.3f}ms {d['controller']}: {d['action']} "
            f"({d['reason']})")


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Replay a request stream through the sharded cluster router."""
    from repro.cluster import ClusterRouter, cluster_replay
    from repro.serve import poisson_workload

    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
    except ValueError:
        print(f"error: --sizes must be comma-separated integers, got {args.sizes!r}",
              file=sys.stderr)
        return 2
    tenants = tuple(t.strip() for t in args.tenants.split(",") if t.strip())
    if not tenants:
        print("error: --tenants must name at least one tenant", file=sys.stderr)
        return 2
    router = ClusterRouter(
        replicas=args.replicas,
        policy=args.policy,
        drain_after=args.drain_after,
        recovery_s=args.recovery,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait,
    )
    workload = poisson_workload(
        args.requests, sizes_log2=sizes, rate=args.rate, seed=args.seed,
    )
    summary = cluster_replay(
        router, workload, tenants=tenants,
        fail_replica_at=args.fail_replica_at,
        fail_replica_id=args.fail_replica_id,
    )
    stats = router.stats()
    if args.json:
        import json

        print(json.dumps({"summary": summary, "stats": stats}, indent=2))
        return 0
    print(f"replayed {summary['requests']} requests across "
          f"{summary['replicas']} replicas (policy {args.policy}, rate "
          f"{'burst' if args.rate <= 0 else f'{args.rate:g}/s'}): "
          f"{summary['verified']} verified against numpy, "
          f"{summary['request_failures']} failed, "
          f"{summary['rejected']} rejected")
    print(f"failover: {summary['rerouted']} rerouted, "
          f"{summary['drains']} drain(s), {summary['readmits']} readmit(s)")
    print(f"latency (simulated): p50 {summary['latency_p50_s'] * 1e6:.1f} us  "
          f"p95 {summary['latency_p95_s'] * 1e6:.1f} us  "
          f"p99 {summary['latency_p99_s'] * 1e6:.1f} us  "
          f"throughput {summary['throughput_rps'] / 1e3:.1f}k req/s")
    for row in stats["per_replica"]:
        print(f"  replica {row['id']}: {row['state']:>6}  "
              f"served {row['served']:>4}  failed {row['failed']}  "
              f"strikes {row['strikes']}")
    for name, slo in sorted(stats["tenants"].items()):
        worst = max(
            (rates["short"] for rates in slo["burn_rates"].values()),
            default=0.0,
        )
        print(f"  tenant {name}: worst SLO burn rate {worst:.2f}")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    """Serve a few calls (under optional injected faults), report health."""
    from repro import obs
    from repro.core.session import ScanSession
    from repro.errors import FailoverExhaustedError
    from repro.gpusim.faults import FaultSchedule, parse_fault

    machine = tsubame_kfc(max(1, args.m))
    obs.enable()
    session = ScanSession(machine)
    if args.inject_fault:
        schedule = FaultSchedule(
            [parse_fault(spec) for spec in args.inject_fault]
        )
        machine.install_faults(schedule)
        print("armed faults: " + ", ".join(schedule.describe()))
    rng = np.random.default_rng(args.seed)
    data = rng.integers(0, 100, (1 << args.g, 1 << args.n)).astype(np.int32)
    reference = np.cumsum(data, axis=1)
    for call in range(max(1, args.calls)):
        try:
            result = session.scan(
                data, proposal=args.proposal, W=args.w, V=args.v, M=args.m,
            )
        except FailoverExhaustedError as exc:
            print(f"call {call}: EXHAUSTED after {len(exc.attempts)} attempts")
            for a in exc.attempts:
                print(f"  attempt {a.attempt} ({a.proposal}, W={a.node[0]} "
                      f"V={a.node[1]} M={a.node[2]}): {a.error_type}: {a.error}")
            break
        np.testing.assert_array_equal(result.output, reference)
        failover = result.config.get("failover")
        note = ""
        if failover:
            w, v, m = failover["degraded_node"]
            note = (f"  [failover: attempt {failover['attempts']}, "
                    f"degraded to W={w} V={v} M={m}]")
        print(f"call {call}: ok {result.proposal} "
              f"{result.total_time_s * 1e3:.3f} ms{note}")
    print()
    snap = session.health.snapshot()
    print(f"healthy GPUs: {snap['healthy_gpus']}/{snap['total_gpus']}")
    print(f"offline: {snap['offline'] or '-'}")
    print(f"degraded networks: {snap['degraded_networks'] or '-'}")
    print(f"dead networks: {snap['dead_networks'] or '-'}")
    print(f"lane slowdown: {snap['lane_slowdown'] or '-'}")
    print(f"pending faults: {snap['pending_faults']}")
    print(f"health epoch: {snap['epoch']}  retries: {snap['retries']}  "
          f"failovers: {snap['failovers']}  "
          f"device losses: {snap['device_losses']}  "
          f"link failures: {snap['link_failures']}")
    policy = snap["policy"]
    print(f"retry policy: max {policy['max_attempts']} attempts, "
          f"backoff {policy['backoff_base_s']}s x{policy['backoff_factor']}")
    return 0


def _cmd_selfcheck() -> int:
    """Functional cross-validation battery: every proposal, several shapes."""
    from repro.core.chained import ScanChained
    from repro.core.ragged import scan_ragged

    machine = tsubame_kfc(2)
    rng = np.random.default_rng(123)
    checks = 0
    for g, n in ((1, 1 << 12), (8, 1 << 13), (32, 1 << 10)):
        data = rng.integers(-500, 500, (g, n)).astype(np.int64)
        expected = np.cumsum(data, axis=1)
        for proposal, kwargs in (
            ("sp", {}),
            ("pp", {"W": 4}),
            ("mps", {"W": 4, "V": 4}),
            ("mppc", {"W": 8, "V": 4}),
            ("mn-mps", {"W": 4, "V": 4, "M": 2}),
            ("sp-dlb", {}),
        ):
            result = scan(data, topology=machine, proposal=proposal, **kwargs)
            np.testing.assert_array_equal(result.output, expected)
            checks += 1
            print(f"  ok {proposal:>7} G={g:<3} N={n:<6} "
                  f"{result.total_time_s * 1e3:8.3f} ms")
    data = rng.integers(0, 100, (4, 1 << 12)).astype(np.int32)
    chained = ScanChained(machine.gpus[0]).run(data)
    np.testing.assert_array_equal(chained.output,
                                  np.cumsum(data, axis=1, dtype=np.int32))
    checks += 1
    print(f"  ok chained scan ({chained.total_time_s * 1e3:.3f} ms)")
    arrays = [rng.integers(0, 9, s).astype(np.int32) for s in (7, 100, 1000)]
    ragged, _ = scan_ragged(arrays, machine)
    for out, array in zip(ragged, arrays, strict=True):
        np.testing.assert_array_equal(out, np.cumsum(array, dtype=np.int32))
    checks += 1
    print("  ok ragged batch")
    print(f"selfcheck passed ({checks} checks, all verified against numpy)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.compare import compare_proposals, format_comparison
    from repro.core.params import ProblemConfig

    machine = tsubame_kfc(max(1, args.nodes))
    problem = ProblemConfig.from_sizes(N=1 << args.n, G=1 << args.g)
    rows = compare_proposals(
        machine, problem, include_baselines=not args.no_baselines
    )
    print(f"comparison at N=2^{args.n}, G=2^{args.g} "
          f"({problem.total_bytes / 2**20:.0f} MiB payload):")
    print(format_comparison(rows))
    return 0


def _cmd_figure(number: int, total: int, chart: bool, csv_path: str | None) -> int:
    machine = tsubame_kfc()
    if number == 9:
        series = figure9_series(machine, total_log2=total)
        title = f"Figure 9: Scan-MPS (Gelem/s), G = 2^{total}/N"
    elif number == 10:
        series = figure10_series(machine, total_log2=total)
        title = f"Figure 10: Scan-MP-PC (Gelem/s), G = 2^{total}/N"
    elif number == 11:
        series = figure11_series(machine, n_max=total)
        title = "Figure 11: G=1 comparison (Gelem/s)"
    elif number == 12:
        series = figure12_series(machine, total_log2=total)
        title = f"Figure 12: batch comparison (Gelem/s), G = 2^{total}/N"
    else:
        cluster = tsubame_kfc(2)
        series = figure13_series(cluster, total_log2=total)
        title = f"Figure 13: multi-node comparison (Gelem/s), G = 2^{total}/N"
        study = figure13_combination_study(tsubame_kfc(8), total_log2=total)
        print(format_series_table(title, series))
        print("\nM x W combination study (ms):")
        for (m, w), times in sorted(study.items()):
            row = "  ".join(f"n={n}: {t * 1e3:9.3f}" for n, t in sorted(times.items()))
            print(f"  M={m} W={w}: {row}")
        if chart:
            print()
            print(ascii_chart(title, series, log_y=True))
        if csv_path:
            from repro.bench.reporting import series_to_csv

            with open(csv_path, "w") as fh:
                fh.write(series_to_csv(series))
            print(f"\nCSV written to {csv_path}")
        return 0

    print(format_series_table(title, series))
    if number in (11, 12, 13):
        ours = series[0]
        print()
        for s in series[2:]:
            print(f"mean speedup vs {s.label:>10}: {mean_speedup(ours, s):7.2f}x")
    if chart:
        print()
        print(ascii_chart(title, series, log_y=number in (11, 12)))
    if csv_path:
        from repro.bench.reporting import series_to_csv

        with open(csv_path, "w") as fh:
            fh.write(series_to_csv(series))
        print(f"\nCSV written to {csv_path}")
    return 0


def _cmd_breakdown(total: int) -> int:
    cluster = tsubame_kfc(2)
    breakdowns = figure14_breakdown(cluster, total_log2=total)
    print(format_breakdown_table(
        f"Figure 14: per-phase time (ms), M=2 W=4, G = 2^{total}/N", breakdowns
    ))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Tolerance-gated benchmark regression check (`repro bench check`)."""
    from repro.bench.regression import format_report, run_checks

    report = run_checks(repo_root=args.repo_root, only=args.only or None)
    if args.json:
        import json

        print(json.dumps(report, indent=2))
    else:
        print(format_report(report))
    return 0 if report["ok"] else 1


def _cmd_control(args: argparse.Namespace) -> int:
    """Adaptive-vs-static A/B replay (`repro control`)."""
    from repro.control import DEFAULT_AB_PARAMS, run_ab
    from repro.control.ab import summarize

    params = dict(DEFAULT_AB_PARAMS)
    if args.requests is not None:
        params["requests"] = args.requests
    if args.seed is not None:
        params["seed"] = args.seed
    report = run_ab(params, repeats=args.repeats)
    if args.json:
        import json

        print(json.dumps(report, indent=2))
        return 0 if report["deterministic"] else 1
    print(summarize(report))
    decisions = report["bursty"]["adaptive"]["decision_log"]
    print(f"decision log (bursty/adaptive, {len(decisions)} decisions):")
    for d in decisions:
        print(f"  {_format_decision(d)}")
    return 0 if report["deterministic"] else 1


def main(argv: list[str] | None = None) -> int:
    """Run one command; a :class:`~repro.errors.ReproError` (a rejected
    configuration, a failed snapshot, ...) prints ``error: <message>`` on
    stderr and returns 1. Any other exception propagates."""
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "info":
        return _cmd_info()
    if args.command == "proposals":
        return _cmd_proposals()
    if args.command == "table3":
        return _cmd_table3(args.arch)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "figure":
        return _cmd_figure(args.number, args.total, args.chart, args.csv)
    if args.command == "breakdown":
        return _cmd_breakdown(args.total)
    if args.command == "selfcheck":
        return _cmd_selfcheck()
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "health":
        return _cmd_health(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "control":
        return _cmd_control(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
