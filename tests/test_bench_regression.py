"""Benchmark drift sentry: ``repro bench check`` against BENCH baselines.

The committed artifacts' non-wall-clock fields are deterministic, so the
sentry must (a) pass against the repo's own baselines, (b) flag a
tampered baseline as drift with a failure that names the field, (c) treat
a missing baseline as skipped rather than failed, and (d) reject unknown
suite names loudly. Every suite replays its bench's own ``measure`` in a
few seconds at most, so all seven run here.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench.regression import SUITES, format_report, run_checks

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestDriver:
    def test_unknown_suite_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_checks(repo_root=tmp_path, only=["serving", "nope"])

    def test_missing_baselines_are_skipped_not_failed(self, tmp_path):
        report = run_checks(repo_root=tmp_path)
        assert report["ok"]
        assert set(report["suites"]) == set(SUITES)
        for suite in report["suites"].values():
            assert suite["skipped"] and suite["checked"] == 0
        assert "skipped" in format_report(report)

    def test_only_restricts_suites(self, tmp_path):
        report = run_checks(repo_root=tmp_path, only=["obs_overhead"])
        assert list(report["suites"]) == ["obs_overhead"]


class TestAgainstCommittedBaselines:
    def test_obs_overhead_passes(self):
        report = run_checks(repo_root=REPO_ROOT, only=["obs_overhead"])
        assert report["ok"], format_report(report)
        assert report["suites"]["obs_overhead"]["checked"] >= 2

    def test_single_pass_sweep_passes(self):
        report = run_checks(repo_root=REPO_ROOT, only=["single_pass"])
        assert report["ok"], format_report(report)
        assert report["suites"]["single_pass"]["checked"] > 100
        assert "PASS" in format_report(report)

    def test_every_suite_passes(self):
        report = run_checks(repo_root=REPO_ROOT)
        assert report["ok"], format_report(report)
        for name, suite in report["suites"].items():
            assert not suite.get("skipped"), name
            assert suite["checked"] >= 2, name


def tampered(tmp_path: Path, filename: str, mutate) -> Path:
    """Copy one committed baseline into tmp_path with a field perturbed."""
    src = REPO_ROOT / filename
    payload = json.loads(src.read_text())
    mutate(payload)
    (tmp_path / filename).write_text(json.dumps(payload))
    return tmp_path


#: One perturbed field per suite: (suite, path into its baseline, change).
#: The serving, single_pass, serve, restart and cluster fields are outputs
#: no acceptance bar reads, so only the field-by-field diff can catch them.
TAMPERS = [
    ("serving", ("proposals", "sp", "session_hits"), lambda v: v + 1),
    ("single_pass", ("series", "int32|G1", 0, "tuner_choice"),
     lambda v: "sp-dlb"),
    ("serve", ("cells", "sp/burst", "coalesce_speedup"), lambda v: v * 1.01),
    ("obs_overhead", ("enabled_ratio",), lambda v: v * 100),
    ("restart", ("latency_p99_s",), lambda v: v * 1.01),
    ("cluster", ("policies", "round_robin", "latency_p99_s"),
     lambda v: v * 1.01),
    ("adaptive", ("bursty", "adaptive", "decision_digest"),
     lambda v: "0" * len(v)),
]


class TestTamperDetection:
    def test_blown_overhead_budget_is_drift(self, tmp_path):
        def mutate(payload):
            payload["enabled_ratio"] = payload["max_enabled_ratio"] * 2
        root = tampered(tmp_path, "BENCH_obs_overhead.json", mutate)
        report = run_checks(repo_root=root, only=["obs_overhead"])
        assert not report["ok"]
        assert "exceeds budget" in report["suites"]["obs_overhead"]["failures"][0]
        assert "DRIFTED" in format_report(report) and "FAIL" in format_report(report)

    def test_blown_profile_budget_is_drift(self, tmp_path):
        def mutate(payload):
            payload["profile_ratio"] = payload["max_profile_ratio"] + 1.0
        root = tampered(tmp_path, "BENCH_obs_overhead.json", mutate)
        report = run_checks(repo_root=root, only=["obs_overhead"])
        assert not report["ok"]
        assert "profile_ratio" in report["suites"]["obs_overhead"]["failures"][0]

    def test_perturbed_analytic_time_is_drift(self, tmp_path):
        def mutate(payload):
            series = next(iter(payload["series"].values()))
            series[0]["sp_s"] *= 1.01          # 1% >> the 1e-9 tolerance
        root = tampered(tmp_path, "BENCH_single_pass.json", mutate)
        report = run_checks(repo_root=root, only=["single_pass"])
        assert not report["ok"]
        assert any("sp_s" in failure
                   for failure in report["suites"]["single_pass"]["failures"])

    def test_perturbed_crossover_frontier_is_drift(self, tmp_path):
        def mutate(payload):
            key = next(iter(payload["crossover_n_log2"]))
            payload["crossover_n_log2"][key] = 5
        root = tampered(tmp_path, "BENCH_single_pass.json", mutate)
        report = run_checks(repo_root=root, only=["single_pass"])
        assert not report["ok"]
        assert any("crossover" in failure
                   for failure in report["suites"]["single_pass"]["failures"])

    @pytest.mark.parametrize("suite,path,change", TAMPERS,
                             ids=[t[0] for t in TAMPERS])
    def test_tampered_field_is_named(self, tmp_path, suite, path, change):
        def mutate(payload):
            *parents, leaf = path
            for key in parents:
                payload = payload[key]
            payload[leaf] = change(payload[leaf])
        root = tampered(tmp_path, f"BENCH_{suite}.json", mutate)
        report = run_checks(repo_root=root, only=[suite])
        assert not report["ok"]
        label = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                        for k in path).lstrip(".")
        failures = report["suites"][suite]["failures"]
        assert any(f.startswith(f"{suite} {label}") for f in failures), failures

    def test_untouched_copy_still_passes(self, tmp_path):
        shutil.copy(REPO_ROOT / "BENCH_single_pass.json",
                    tmp_path / "BENCH_single_pass.json")
        report = run_checks(repo_root=tmp_path, only=["single_pass"])
        assert report["ok"]
