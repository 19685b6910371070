"""Side-by-side comparison of every applicable proposal (and the baselines).

``compare_proposals`` evaluates one (N, G) point across every feasible
execution strategy on a machine — the programmatic answer to "which one
should I use here, and what would the libraries do?" — using the exact
analytic estimate path throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import ALL_BASELINES
from repro.errors import ReproError
from repro.interconnect.topology import SystemTopology
from repro.core.api import recommend_proposal
from repro.core.executor import build_executor
from repro.core.params import NodeConfig, ProblemConfig


@dataclass(frozen=True)
class ComparisonRow:
    """One strategy's outcome at the compared point."""

    name: str
    kind: str  # "proposal" | "baseline" | "extension"
    time_s: float
    throughput_gelems: float
    config: str
    recommended: bool = False


def compare_proposals(
    topology: SystemTopology,
    problem: ProblemConfig,
    include_baselines: bool = True,
) -> list[ComparisonRow]:
    """Evaluate every feasible strategy at ``problem``; fastest first."""
    rows: list[ComparisonRow] = []

    full_node = NodeConfig.from_counts(
        W=topology.gpus_per_node,
        V=topology.gpus_per_network,
        M=1,
    )
    recommendation = recommend_proposal(topology, full_node, problem)

    # (row name, kind, registry proposal, placement, config); each is
    # built where a served request would be, on the healthy GPUs.
    one_gpu = NodeConfig.from_counts(W=1, V=1)
    candidates: list[tuple[str, str, str, NodeConfig, str]] = [
        ("scan-sp", "proposal", "sp", one_gpu, "W=1"),
        ("scan-chained", "extension", "chained", one_gpu, "W=1 single-pass"),
        ("scan-sp-dlb", "extension", "sp-dlb", one_gpu,
         "W=1 single-pass lookback"),
    ]
    for w in (2, 4, 8):
        if w > topology.gpus_per_node:
            continue
        v = min(w, topology.gpus_per_network)
        node = NodeConfig.from_counts(W=w, V=v)
        candidates.append((f"scan-mps W={w}", "proposal", "mps", node, f"W={w} V={v}"))
        if w > topology.gpus_per_network or node.Y > 1:
            candidates.append(
                (f"scan-mp-pc W={w}", "proposal", "mppc", node, f"W={w} V={v}")
            )
    if topology.num_nodes > 1:
        node = NodeConfig.from_counts(
            W=topology.gpus_per_network, V=topology.gpus_per_network,
            M=min(2, topology.num_nodes),
        )
        candidates.append(
            ("scan-mn-mps", "proposal", "mn-mps", node, f"M={node.M} W={node.W}")
        )

    recommended_name = {
        "sp": "scan-sp",
        "mps": f"scan-mps W={full_node.W}",
        "mppc": f"scan-mp-pc W={full_node.W}",
        "mn-mps": "scan-mn-mps",
    }.get(recommendation, "")

    for name, kind, proposal, node, config in candidates:
        try:
            result = build_executor(proposal, topology, node).estimate(problem)
        except ReproError:
            continue  # no placement on this machine, or infeasible here
        rows.append(
            ComparisonRow(
                name=name,
                kind=kind,
                time_s=result.total_time_s,
                throughput_gelems=result.throughput_gelems,
                config=config,
                recommended=(name == recommended_name),
            )
        )

    if include_baselines:
        for lib in ALL_BASELINES:
            time_s, mode = lib.time_batch(problem.N, problem.G, topology.arch)
            rows.append(
                ComparisonRow(
                    name=lib.name,
                    kind="baseline",
                    time_s=time_s,
                    throughput_gelems=problem.total_elements / time_s / 1e9,
                    config=mode,
                )
            )
    return sorted(rows, key=lambda r: r.time_s)


def format_comparison(rows: list[ComparisonRow]) -> str:
    """Render comparison rows as an aligned table (fastest first)."""
    lines = [
        f"{'strategy':>18} {'kind':>10} {'time (ms)':>11} "
        f"{'Gelem/s':>9}  config"
    ]
    for row in rows:
        mark = " *" if row.recommended else "  "
        lines.append(
            f"{row.name:>18} {row.kind:>10} {row.time_s * 1e3:>11.4f} "
            f"{row.throughput_gelems:>9.2f}{mark}{row.config}"
        )
    lines.append("(* = Premise-4 recommendation)")
    return "\n".join(lines)
