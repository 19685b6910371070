"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Premise 1" in out
        assert "Tesla K80" in out


class TestTable3:
    def test_default_arch(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "7168" in out and "Premise 1" in out

    def test_other_arch(self, capsys):
        assert main(["table3", "--arch", "maxwell"]) == 0
        assert "GM200" in capsys.readouterr().out


class TestScan:
    def test_basic(self, capsys):
        assert main(["scan", "--n", "12", "--g", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified against numpy reference" in out
        assert "throughput" in out

    def test_multi_gpu(self, capsys):
        assert main(["scan", "--n", "13", "--g", "3",
                     "--proposal", "mppc", "--w", "8", "--v", "4"]) == 0
        assert "scan-mp-pc" in capsys.readouterr().out

    def test_multi_node(self, capsys):
        assert main(["scan", "--n", "13", "--g", "2", "--proposal", "mn-mps",
                     "--w", "4", "--v", "4", "--m", "2"]) == 0
        assert "mpi_gather" in capsys.readouterr().out

    def test_exclusive_and_operator(self, capsys):
        assert main(["scan", "--n", "10", "--g", "1",
                     "--operator", "max", "--exclusive"]) == 0

    def test_tune(self, capsys):
        assert main(["scan", "--n", "13", "--g", "3", "--tune"]) == 0

    def test_bad_proposal_rejected(self):
        with pytest.raises(SystemExit):
            main(["scan", "--proposal", "warp-drive"])

    def test_rejected_configuration_prints_one_error_line(self, capsys):
        assert main(["scan", "--w", "9"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "W" in lines[0]
        assert "Traceback" not in captured.out + captured.err

    def test_json_bundle(self, capsys):
        import json

        assert main(["scan", "--n", "12", "--g", "3",
                     "--proposal", "mps", "--w", "4", "--json"]) == 0
        out = capsys.readouterr().out
        bundle = json.loads(out)  # nothing but the JSON on stdout
        assert bundle["proposal"] == "scan-mps"
        assert bundle["verified"] is True
        assert bundle["N"] == 1 << 12 and bundle["G"] == 1 << 3
        assert isinstance(bundle["K"], int)
        assert set(bundle["breakdown_s"]) >= {"stage1", "stage2", "stage3"}
        assert bundle["metrics"]["kernel_count"] > 0

    def test_trace_out(self, tmp_path, capsys):
        import json

        from repro import obs

        path = tmp_path / "trace.json"
        try:
            assert main(["scan", "--n", "12", "--g", "2",
                         "--trace-out", str(path)]) == 0
        finally:
            obs.disable()
            obs.reset()
        payload = json.loads(path.read_text())
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"stage1", "stage2", "stage3"} <= names


class TestServe:
    def _run(self, argv):
        from repro import obs

        try:
            return main(argv)
        finally:
            obs.disable()
            obs.reset()

    def test_replay_with_baseline(self, capsys):
        assert self._run(["serve", "--requests", "16", "--sizes", "12"]) == 0
        out = capsys.readouterr().out
        assert "replayed 16 requests" in out
        assert "16 verified against numpy" in out
        assert "0 rejected" in out
        assert "coalescing speedup" in out

    def test_json_report(self, capsys):
        import json

        assert self._run(["serve", "--requests", "24", "--sizes", "10,11",
                          "--max-batch", "8", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["requests"] == 24
        assert report["verified"] == 24
        assert report["request_failures"] == 0
        assert report["batches"] >= 2  # two size keys cannot share a batch
        assert report["coalesce_speedup"] > 1.0
        assert report["latency"]["p95"] >= report["latency"]["p50"]

    def test_backpressure_is_reported(self, capsys):
        assert self._run(["serve", "--requests", "12", "--sizes", "10",
                          "--max-batch", "16", "--max-queue", "8"]) == 0
        assert "4 rejected" in capsys.readouterr().out

    def test_bad_sizes_rejected(self, capsys):
        assert self._run(["serve", "--sizes", "12,banana"]) == 2
        assert "--sizes" in capsys.readouterr().err

    def test_adaptive_flag_reports_decisions(self, capsys):
        assert self._run(["serve", "--requests", "16", "--sizes", "12",
                          "--max-batch", "4", "--adaptive"]) == 0
        out = capsys.readouterr().out
        assert "16 verified against numpy" in out
        assert "control decision(s)" in out
        assert "final max_batch" in out

    def test_adaptive_json_carries_decision_log(self, capsys):
        import json

        assert self._run(["serve", "--requests", "16", "--sizes", "12",
                          "--max-batch", "4", "--adaptive", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verified"] == 16
        assert isinstance(report["decisions"], list)
        for decision in report["decisions"]:
            assert {"at_s", "controller", "action", "reason",
                    "before", "after"} <= set(decision)


class TestObsCommand:
    def test_report_and_exposition(self, capsys, tmp_path):
        from repro import obs

        path = tmp_path / "obs_trace.json"
        try:
            assert main(["obs", "--n", "12", "--g", "3", "--calls", "3",
                         "--trace-out", str(path)]) == 0
        finally:
            obs.disable()
            obs.reset()
        out = capsys.readouterr().out
        assert "calls: 3 (2 warm, 1 cold)" in out
        assert "p95" in out
        assert "# TYPE scan_calls counter" in out
        assert 'scan_calls{proposal="mps"} 3' in out
        assert path.exists()


class TestFigures:
    @pytest.mark.parametrize("number", ["9", "10", "11", "12"])
    def test_single_node_figures(self, capsys, number):
        assert main(["figure", number, "--total", "18"]) == 0
        out = capsys.readouterr().out
        assert f"Figure {number}" in out

    def test_figure13_with_study(self, capsys):
        assert main(["figure", "13", "--total", "18"]) == 0
        out = capsys.readouterr().out
        assert "combination study" in out

    def test_chart(self, capsys):
        assert main(["figure", "12", "--total", "18", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "--total", "18"]) == 0
        out = capsys.readouterr().out
        assert "mpi_gather" in out and "stage3" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "7"])

    def test_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        assert main(["figure", "12", "--total", "16", "--csv", str(csv_path)]) == 0
        content = csv_path.read_text()
        assert content.startswith("n,")
        assert "Scan-MP-PC" in content
        assert len(content.splitlines()) == 1 + (16 - 13 + 1)

    def test_selfcheck(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "selfcheck passed" in out
        assert "chained scan" in out

    @pytest.mark.parametrize("target", ["chained", "ragged"])
    def test_selfcheck_fails_on_a_wrong_output(self, monkeypatch, target):
        """Every output selfcheck reports is compared against numpy."""
        from repro.core import ragged
        from repro.core.chained import ScanChained

        if target == "chained":
            execute = ScanChained.execute

            def off_by_one(self, request):
                result = execute(self, request)
                if result.output is not None:
                    result.output += 1  # a fresh array the caller owns
                return result
            monkeypatch.setattr(ScanChained, "execute", off_by_one)
        else:
            scan_ragged = ragged.scan_ragged

            def off_by_one(*args, **kwargs):
                outputs, results = scan_ragged(*args, **kwargs)
                return [out + 1 for out in outputs], results
            monkeypatch.setattr(ragged, "scan_ragged", off_by_one)
        with pytest.raises(AssertionError):
            main(["selfcheck"])


class TestAsciiChart:
    def test_renders_all_series(self):
        from repro.bench.reporting import ascii_chart
        from repro.bench.runner import FigureSeries

        series = [
            FigureSeries("ours", [(13, 10.0), (14, 20.0), (15, 40.0)]),
            FigureSeries("lib", [(13, 1.0), (14, 2.0), (15, 4.0)]),
        ]
        text = ascii_chart("T", series)
        assert "o" in text and "x" in text and "legend:" in text

    def test_log_scale(self):
        from repro.bench.reporting import ascii_chart
        from repro.bench.runner import FigureSeries

        series = [FigureSeries("s", [(1, 0.001), (2, 1000.0)])]
        text = ascii_chart("T", series, log_y=True)
        assert "legend:" in text

    def test_empty(self):
        from repro.bench.reporting import ascii_chart

        assert ascii_chart("T", []) == "T"


class TestScanProfile:
    def test_profile_prints_attribution(self, capsys):
        assert main(["scan", "--n", "12", "--g", "3",
                     "--proposal", "mps", "--w", "4", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "attribution" in out and "critical path" in out

    def test_profile_rides_in_json_bundle(self, capsys):
        import json

        assert main(["scan", "--n", "12", "--g", "3", "--proposal", "mps",
                     "--w", "4", "--json", "--profile"]) == 0
        bundle = json.loads(capsys.readouterr().out)
        profile = bundle["profile"]
        assert profile["total_time_s"] > 0
        assert sum(profile["categories"].values()) == profile["total_time_s"]

    def test_flame_out_writes_folded_stacks(self, tmp_path, capsys):
        path = tmp_path / "scan.folded"
        assert main(["scan", "--n", "12", "--g", "2",
                     "--flame-out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines and all(" " in line and ";" in line for line in lines)
        assert "flamegraph written" in capsys.readouterr().out


class TestBenchCheck:
    REPO_ROOT = None  # set lazily; tests may not run from the repo root

    def _root(self):
        from pathlib import Path

        return str(Path(__file__).resolve().parent.parent)

    def test_check_passes_against_committed_baseline(self, capsys):
        assert main(["bench", "check", "--repo-root", self._root(),
                     "--only", "obs_overhead"]) == 0
        out = capsys.readouterr().out
        assert "bench check: PASS" in out

    def test_check_json_report(self, capsys):
        import json

        assert main(["bench", "check", "--repo-root", self._root(),
                     "--only", "obs_overhead", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and "obs_overhead" in report["suites"]

    def test_missing_baselines_skip_and_pass(self, tmp_path, capsys):
        assert main(["bench", "check", "--repo-root", str(tmp_path)]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "check", "--only", "warp-drive"])

    def test_restart_suite_registered(self, capsys):
        assert main(["bench", "check", "--repo-root", self._root(),
                     "--only", "restart"]) == 0
        out = capsys.readouterr().out
        assert "restart: ok" in out and "bench check: PASS" in out


class TestControl:
    def test_ab_report(self, capsys):
        assert main(["control", "--requests", "48"]) == 0
        out = capsys.readouterr().out
        assert "adaptive vs static (A/B replay)" in out
        assert "burst p99 improvement" in out
        assert "deterministic: yes" in out
        assert "decision log (bursty/adaptive" in out

    def test_json_report_is_replay_complete(self, capsys):
        import json

        assert main(["control", "--requests", "48", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deterministic"] is True
        for workload in ("bursty", "steady"):
            for arm in ("static", "adaptive"):
                cell = report[workload][arm]
                assert cell["verified"] == cell["served"]
                assert cell["repeat_identical"]
        assert report["bursty"]["adaptive"]["decisions"] > 0
        assert report["bursty"]["p99_improvement"] > 0
        assert report["params"]["requests"] == 48


class TestSnapshotCommand:
    def test_save_then_load(self, capsys, tmp_path):
        path = str(tmp_path / "snap.json")
        assert main(["snapshot", "save", path, "--n", "12", "--g", "2"]) == 0
        out = capsys.readouterr().out
        assert "snapshot written to" in out and "plans" in out

        assert main(["snapshot", "load", path]) == 0
        out = capsys.readouterr().out
        assert "restores onto this machine: yes" in out

    def test_load_missing_file_fails(self, capsys, tmp_path):
        assert main(["snapshot", "load", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_save_defaults_to_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["snapshot", "save", "--n", "12", "--g", "2"]) == 0
        assert (tmp_path / "snapshot.json").exists()

    def test_scan_with_snapshot(self, capsys, tmp_path):
        path = str(tmp_path / "snap.json")
        assert main(["snapshot", "save", path, "--n", "12", "--g", "2"]) == 0
        capsys.readouterr()
        assert main(["scan", "--n", "12", "--g", "2",
                     "--snapshot", path]) == 0
        captured = capsys.readouterr()
        assert "verified against numpy reference" in captured.out
        assert "not applicable" not in captured.err

    def test_serve_with_snapshot(self, capsys, tmp_path):
        path = str(tmp_path / "snap.json")
        assert main(["snapshot", "save", path, "--n", "12", "--g", "2"]) == 0
        capsys.readouterr()
        assert main(["serve", "--requests", "8", "--sizes", "12",
                     "--snapshot", path]) == 0
        assert "restored snapshot:" in capsys.readouterr().out
