"""Tests for the proposal-comparison utility."""


from repro.core.compare import compare_proposals, format_comparison
from repro.core.params import ProblemConfig
from repro.core.single_gpu import ScanSP


class TestCompare:
    def test_sorted_fastest_first(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 16, G=1 << 10)
        rows = compare_proposals(machine, problem)
        times = [r.time_s for r in rows]
        assert times == sorted(times)

    def test_batch_winner_is_mppc(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 16, G=1 << 12)
        rows = compare_proposals(machine, problem)
        assert rows[0].name == "scan-mp-pc W=8"

    def test_recommendation_marked(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 16, G=1 << 12)
        rows = compare_proposals(machine, problem)
        recommended = [r for r in rows if r.recommended]
        assert len(recommended) == 1
        assert recommended[0].name == "scan-mp-pc W=8"

    def test_recommendation_is_near_optimal(self, machine):
        """Premise 4's pick lands within 25% of the best proposal, across a
        spread of shapes."""
        for n, g in ((13, 15), (20, 8), (24, 2), (28, 0)):
            problem = ProblemConfig.from_sizes(N=1 << n, G=1 << g)
            rows = compare_proposals(machine, problem, include_baselines=False)
            proposals = [r for r in rows if r.kind == "proposal"]
            best = proposals[0]
            recommended = next(r for r in proposals if r.recommended)
            assert recommended.time_s <= best.time_s * 1.25, (n, g)

    def test_baselines_included_and_excludable(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 14, G=4)
        with_libs = compare_proposals(machine, problem)
        without = compare_proposals(machine, problem, include_baselines=False)
        assert {r.name for r in with_libs} - {r.name for r in without} == {
            "cudpp", "thrust", "moderngpu", "cub", "lightscan",
        }

    def test_multi_node_candidate_on_clusters(self, cluster):
        problem = ProblemConfig.from_sizes(N=1 << 16, G=4)
        rows = compare_proposals(cluster, problem, include_baselines=False)
        assert any(r.name == "scan-mn-mps" for r in rows)

    def test_chained_extension_listed(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 16, G=4)
        rows = compare_proposals(machine, problem, include_baselines=False)
        chained = next(r for r in rows if r.name == "scan-chained")
        assert chained.kind == "extension"

    def test_degraded_machine(self, machine):
        """With GPU 0 offline the one-GPU candidates run on GPU 1, and a
        placement the survivors cannot hold is left out like an
        infeasible shape."""
        problem = ProblemConfig.from_sizes(N=1 << 16, G=16)
        healthy = {r.name: r for r in
                   compare_proposals(machine, problem, include_baselines=False)}
        machine.mark_offline(0)
        rows = compare_proposals(machine, problem, include_baselines=False)
        names = {r.name for r in rows}
        assert {"scan-sp", "scan-chained", "scan-sp-dlb"} <= names
        assert "scan-mps W=8" in healthy and "scan-mps W=8" not in names
        sp = next(r for r in rows if r.name == "scan-sp")
        assert sp.time_s == ScanSP(machine.gpus[1]).estimate(problem).total_time_s
        assert sp.time_s == healthy["scan-sp"].time_s

    def test_format(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 14, G=16)
        text = format_comparison(compare_proposals(machine, problem))
        assert "strategy" in text and "Premise-4" in text
        assert "*" in text


class TestCompareCLI:
    def test_cli_compare(self, capsys):
        from repro.cli import main

        assert main(["compare", "--n", "14", "--g", "6"]) == 0
        out = capsys.readouterr().out
        assert "comparison at N=2^14" in out
        assert "scan-mp-pc" in out

    def test_cli_compare_no_baselines(self, capsys):
        from repro.cli import main

        assert main(["compare", "--n", "13", "--g", "4", "--no-baselines"]) == 0
        out = capsys.readouterr().out
        assert "cudpp" not in out
