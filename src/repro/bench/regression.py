"""Benchmark regression sentry: gate committed ``BENCH_*.json`` baselines.

Every benchmark artifact this repo commits is (at least partly) a record
of **deterministic simulated time** — the cost model is a closed form of
the plan geometry, so the same code must reproduce the same numbers to
the last bit. That makes the artifacts double as golden references: a
cost-model tweak, a plan change, or a hook leaking simulated cost into
the healthy path all show up as a drifted field. One command replays
them all::

    repro bench check            # all suites
    repro bench check --only serving --only serve

Each suite's experiment is defined once, as a ``measure(params)`` next to
its acceptance bars: :mod:`repro.bench.serving`, ``single_pass``,
``serve``, ``restart`` and ``cluster``, and :mod:`repro.control.ab` for
``adaptive``. The bench script that writes a baseline and this gate call
the same ``measure``: the gate passes it the recorded payload (it reads
only the parameter fields) and diffs the result against the file field
by field. Every field is compared exactly (ratio 1.0) except the
suite's wall-clock fields, which measure the host, not the code, and are
skipped; ``single_pass``'s analytic times keep a 1e-9 relative
tolerance. The suite's acceptance bars are then checked against the
recorded payload, so the wall-clock bars (``serving``'s warm speedup,
``restart``'s first-request speedup) gate the recorded measurement
rather than this host's. ``obs_overhead`` is budget-only: nothing is
re-timed, its recorded ratios are checked against their recorded
budgets. A suite whose baseline file is absent is skipped.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.bench import cluster, restart, serve, serving, single_pass
from repro.control import ab

__all__ = ["run_checks", "format_report", "enforce", "SUITES"]

Facts = list[tuple[bool, str]]


class _Suite:
    """Accumulates pass/fail facts for one baseline file."""

    def __init__(self, name: str, path: Path):
        self.name = name
        self.path = path
        self.checked = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(f"{self.name} {message}")

    def expect_ratio(self, actual: float, recorded: float, what: str,
                     rel_tol: float = 0.0) -> None:
        """Compare a replayed value against the baseline.

        ``rel_tol=0.0`` demands bit-exact reproduction (simulated time);
        a positive tolerance admits benign re-association drift.
        """
        if recorded == 0.0:
            self.expect(actual == 0.0, f"{what}: {actual!r} != recorded 0.0")
            return
        ratio = actual / recorded
        self.expect(
            abs(ratio - 1.0) <= rel_tol,
            f"{what}: ratio {ratio!r} off 1.0 "
            f"(replayed {actual!r}, recorded {recorded!r}, tol {rel_tol:g})",
        )

    def diff(self, replayed, recorded, where: str, gate: _Gate) -> None:
        """One fact per recorded leaf, skipping the gate's wall-clock keys."""
        if isinstance(recorded, dict) and isinstance(replayed, dict):
            for key in [*recorded, *(k for k in replayed if k not in recorded)]:
                if key in gate.wall_clock:
                    continue
                at = f"{where}.{key}" if where else key
                if key in recorded and key in replayed:
                    self.diff(replayed[key], recorded[key], at, gate)
                else:
                    side = "baseline" if key in recorded else "replay"
                    self.expect(False, f"{at}: only in the {side}")
        elif (isinstance(recorded, list) and isinstance(replayed, list)
              and len(recorded) == len(replayed)):
            for i, (now, then) in enumerate(zip(replayed, recorded)):
                self.diff(now, then, f"{where}[{i}]", gate)
        elif isinstance(recorded, float) and isinstance(replayed, float):
            key = where.rsplit(".", 1)[-1]
            self.expect_ratio(replayed, recorded, where,
                              gate.tolerances.get(key, 0.0))
        else:
            self.expect(replayed == recorded,
                        f"{where}: replayed {replayed!r} != recorded "
                        f"{recorded!r}")

    def report(self) -> dict:
        return {
            "baseline": str(self.path),
            "checked": self.checked,
            "ok": not self.failures,
            "failures": list(self.failures),
        }


def _load(path: Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def enforce(facts: Facts) -> None:
    """Raise ``AssertionError`` naming every acceptance bar that fails."""
    failed = [message for ok, message in facts if not ok]
    if failed:
        raise AssertionError("; ".join(failed))


# ----------------------------------------------------------------- suites


def _obs_budgets(recorded: dict) -> Facts:
    budgets = [("enabled_ratio", "max_enabled_ratio")]
    if recorded.get("profile_ratio") is not None:
        budgets.append(("profile_ratio", "max_profile_ratio"))
    return [(math.isfinite(recorded[key]) and recorded[key] <= recorded[cap],
             f"{key} {recorded[key]!r} exceeds budget {recorded[cap]!r}")
            for key, cap in budgets]


@dataclass(frozen=True)
class _Gate:
    """How one suite is replayed: its baseline file, its ``measure`` (fed
    the recorded payload; ``None`` for a budget-only suite), the
    wall-clock keys the diff skips, per-key relative tolerances and the
    acceptance bars checked against the recorded payload."""

    filename: str
    measure: Callable[[dict], dict] | None
    bars: Callable[[dict], Facts]
    wall_clock: tuple[str, ...] = ()
    tolerances: dict[str, float] = field(default_factory=dict)


_GATES = {
    "serving": _Gate(
        "BENCH_serving.json", serving.measure, serving.bars,
        wall_clock=("cold_s_median", "warm_s_median", "cold_calls_per_sec",
                    "warm_calls_per_sec", "warm_speedup",
                    "geomean_warm_speedup"),
    ),
    "single_pass": _Gate(
        "BENCH_single_pass.json", single_pass.measure, single_pass.bars,
        tolerances={"sp_s": 1e-9, "sp_dlb_s": 1e-9, "lightscan_s": 1e-9},
    ),
    "serve": _Gate("BENCH_serve.json", serve.measure, serve.bars),
    "obs_overhead": _Gate("BENCH_obs_overhead.json", None, _obs_budgets),
    "restart": _Gate(
        "BENCH_restart.json", restart.measure, restart.bars,
        wall_clock=("cold_first_request_s", "restored_first_request_s",
                    "cold_total_wall_s", "restored_total_wall_s",
                    "first_request_speedup"),
    ),
    "cluster": _Gate("BENCH_cluster.json", cluster.measure, cluster.bars),
    "adaptive": _Gate("BENCH_adaptive.json",
                      lambda recorded: ab.measure(recorded["params"]),
                      ab.bars),
}
SUITES = tuple(_GATES)


def _check(suite: _Suite, gate: _Gate, recorded: dict) -> None:
    if gate.measure is not None:
        try:
            replayed = gate.measure(recorded)
        except AssertionError as exc:
            suite.expect(False, f"replay failed its own checks: {exc}")
            return
        # Through JSON, as the bench writes it: tuples become lists.
        suite.diff(json.loads(json.dumps(replayed)), recorded, "", gate)
    for ok, message in gate.bars(recorded):
        suite.expect(ok, message)


# ------------------------------------------------------------------ driver


def run_checks(repo_root: str | os.PathLike | None = None,
               only: list[str] | tuple[str, ...] | None = None) -> dict:
    """Run the drift gates; returns a JSON-friendly report.

    ``repo_root`` is the directory holding the ``BENCH_*.json`` baselines
    (default: the current working directory). ``only`` restricts to a
    subset of :data:`SUITES`. A missing baseline file marks its suite
    ``"skipped"`` — absent history is not drift.
    """
    root = Path(repo_root) if repo_root is not None else Path.cwd()
    names = tuple(only) if only else SUITES
    for name in names:
        if name not in _GATES:
            raise ValueError(f"unknown bench suite {name!r}; "
                             f"known: {', '.join(SUITES)}")
    suites: dict[str, dict] = {}
    for name in names:
        gate = _GATES[name]
        path = root / gate.filename
        recorded = _load(path)
        if recorded is None:
            suites[name] = {"baseline": str(path), "skipped": True,
                            "checked": 0, "ok": True, "failures": []}
            continue
        suite = _Suite(name, path)
        _check(suite, gate, recorded)
        suites[name] = suite.report()
    return {
        "ok": all(s["ok"] for s in suites.values()),
        "root": str(root),
        "suites": suites,
    }


def format_report(report: dict) -> str:
    lines = [f"bench check against baselines in {report['root']}:"]
    for name, suite in report["suites"].items():
        if suite.get("skipped"):
            lines.append(f"  {name:>12}: skipped (no "
                         f"{Path(suite['baseline']).name})")
            continue
        verdict = "ok" if suite["ok"] else "DRIFTED"
        lines.append(f"  {name:>12}: {verdict} ({suite['checked']} checks)")
        for failure in suite["failures"]:
            lines.append(f"    ! {failure}")
    lines.append("bench check: " + ("PASS" if report["ok"] else "FAIL"))
    return "\n".join(lines)
