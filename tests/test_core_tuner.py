"""Tests for the empirical K tuner."""

import numpy as np
import pytest

from repro.errors import TuningError
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.single_gpu import ScanSP
from repro.core.tuner import PremiseTuner, tune_k


class TestTuneK:
    def test_picks_minimum_time(self, machine, rng):
        data = rng.integers(0, 100, (4, 1 << 14)).astype(np.int32)
        gpu = machine.gpus[0]
        outcome = tune_k(
            lambda k: ScanSP(gpu, K=k).run(data, collect=False),
            [1, 2, 4, 8],
        )
        assert outcome.best.K in (1, 2, 4, 8)
        assert outcome.best.time_s == min(c.time_s for c in outcome.candidates)
        assert len(outcome.candidates) == 4

    def test_empty_space_rejected(self):
        with pytest.raises(TuningError):
            tune_k(lambda k: None, [])


class TestPremiseTuner:
    def test_search_space_shapes(self, machine):
        tuner = PremiseTuner(machine)
        problem = ProblemConfig.from_sizes(N=1 << 18, G=16)
        sp_space = tuner.search_space(problem, "sp")
        node = NodeConfig.from_counts(W=8, V=4)
        mps_space = tuner.search_space(problem, "mps", node)
        assert set(mps_space) <= set(sp_space)

    def test_tune_sp(self, machine, rng):
        data = rng.integers(0, 100, (8, 1 << 13)).astype(np.int32)
        outcome = PremiseTuner(machine).tune_sp(data)
        assert outcome.proposal == "sp"
        assert outcome.best_k >= 1

    def test_tune_mps(self, machine, rng):
        data = rng.integers(0, 100, (8, 1 << 13)).astype(np.int32)
        node = NodeConfig.from_counts(W=4, V=4)
        outcome = PremiseTuner(machine).tune_mps(node, data)
        # Eq. 2 bound: every candidate leaves >= W chunks.
        for cand in outcome.candidates:
            assert (1 << 13) // (cand.K * 1024) >= 4

    def test_tune_mppc(self, machine, rng):
        data = rng.integers(0, 100, (8, 1 << 13)).astype(np.int32)
        node = NodeConfig.from_counts(W=8, V=4)
        outcome = PremiseTuner(machine).tune_mppc(node, data)
        assert outcome.best_k >= 1

    def test_tune_multi_node(self, cluster, rng):
        data = rng.integers(0, 100, (4, 1 << 14)).astype(np.int32)
        node = NodeConfig.from_counts(W=4, V=4, M=2)
        outcome = PremiseTuner(cluster).tune_mps(node, data)
        assert outcome.proposal == "mn-mps"

    def test_best_k_is_genuinely_best(self, machine, rng):
        """Re-running with the tuned K reproduces the winning time."""
        data = rng.integers(0, 100, (16, 1 << 13)).astype(np.int32)
        tuner = PremiseTuner(machine)
        outcome = tuner.tune_sp(data)
        rerun = ScanSP(machine.gpus[0], K=outcome.best_k).run(data, collect=False)
        assert rerun.total_time_s == pytest.approx(outcome.best.time_s, rel=1e-9)

    def test_variant_tuning_reuses_its_executors(self, machine, monkeypatch):
        """A second variant tuning on one GPU builds no program and gives
        the outcome fresh executors give."""
        from repro.core.executor import ScanExecutor
        from repro.core.single_pass import ScanSinglePassDLB

        builds = []
        real = ScanExecutor._held_program

        def counted(self, problem):
            before = self._held.get(problem) if self._held else None
            program = real(self, problem)
            if before is None or before[2] is not program:
                builds.append(self.proposal)
            return program

        monkeypatch.setattr(ScanExecutor, "_held_program", counted)
        tuner = PremiseTuner(machine)
        problem = ProblemConfig.from_sizes(N=1 << 14, G=4, dtype=np.float32)
        first = tuner.tune_single_gpu_variant(problem)
        assert sorted(builds) == ["sp", "sp-dlb"]
        builds.clear()
        again = tuner.tune_single_gpu_variant(problem)
        assert builds == []
        gpu = machine.first_healthy_gpu()
        fresh = tuple(
            (executor.proposal, executor.estimate(problem).total_time_s)
            for executor in (ScanSP(gpu), ScanSinglePassDLB(gpu))
        )
        for outcome in (first, again):
            assert tuple((c.proposal, c.time_s)
                         for c in outcome.candidates) == fresh
        assert again == first

    def test_variant_executors_follow_the_first_healthy_gpu(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 12, G=4)
        tuner = PremiseTuner(machine)
        tuner.tune_single_gpu_variant(problem)
        machine.mark_offline(0)
        outcome = tuner.tune_single_gpu_variant(problem)
        assert set(tuner._variants) == {machine.gpus[0], machine.gpus[1]}
        gpu = machine.gpus[1]
        assert outcome.candidates[0].time_s == (
            ScanSP(gpu).estimate(problem).total_time_s)
