"""Tests for the Table-2 parameter model and its constraints."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.core.params import (
    ExecutionPlan,
    KernelParams,
    NodeConfig,
    ProblemConfig,
    StagePlan,
)
from repro.primitives.operators import ADD, MAX


class TestProblemConfig:
    def test_from_sizes(self):
        p = ProblemConfig.from_sizes(N=4096, G=16)
        assert p.n == 12 and p.g == 4
        assert p.N == 4096 and p.G == 16
        assert p.total_elements == 4096 * 16
        assert p.total_bytes == 4096 * 16 * 4

    def test_defaults(self):
        p = ProblemConfig.from_sizes(N=8)
        assert p.G == 1 and p.dtype == np.int32
        assert p.operator is ADD and p.inclusive

    def test_operator_by_name(self):
        p = ProblemConfig.from_sizes(N=8, operator="max")
        assert p.operator is MAX

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            ProblemConfig.from_sizes(N=100)
        with pytest.raises(ConfigurationError):
            ProblemConfig.from_sizes(N=8, G=3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            ProblemConfig(n=-1)

    @pytest.mark.parametrize("dtype,operator,inclusive", [
        (np.int32, "add", True), (np.float32, "max", False),
        (np.bool_, "add", True), (np.uint8, "min", False),
    ])
    def test_hash_is_kept_and_matches_a_fresh_config(self, dtype, operator,
                                                     inclusive):
        p = ProblemConfig.from_sizes(N=1024, G=4, dtype=dtype,
                                     operator=operator, inclusive=inclusive)
        fresh = ProblemConfig.from_sizes(N=1024, G=4, dtype=dtype,
                                         operator=operator, inclusive=inclusive)
        fields = (p.n, p.g, p.dtype, p.operator, p.inclusive)
        assert hash(p) == hash(fields) == hash(fresh)
        assert hash(p) == hash(p)  # the kept value
        assert p == fresh and {p: 1}[fresh] == 1
        assert p != ProblemConfig.from_sizes(N=1024, G=8, dtype=dtype,
                                             operator=operator,
                                             inclusive=inclusive)

    def test_pickle_carries_no_cached_hash(self):
        import copy
        import pickle

        p = ProblemConfig.from_sizes(N=1024, G=4, dtype=np.float32,
                                     operator="max", inclusive=False)
        hash(p)
        assert "_hash" in vars(p)
        state = p.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert "_hash" not in state
        restored = pickle.loads(pickle.dumps(p))
        assert "_hash" not in vars(restored)
        assert restored == p and hash(restored) == hash(p)
        assert "_hash" not in vars(copy.deepcopy(p))


class TestKernelParams:
    def test_paper_tuple(self):
        """Section 3.2's derived values: l=7, p=3, s<=5 for cc 3.7."""
        kp = KernelParams(s=2, p=3, l=7, lx=7, ly=0, K=4)
        assert kp.L == 128 and kp.P == 8 and kp.S == 4
        assert kp.elements_per_iteration == 1024
        assert kp.chunk_size == 4096  # K * P * Lx

    def test_l_split_must_match(self):
        with pytest.raises(ConfigurationError, match="lx"):
            KernelParams(s=2, p=3, l=7, lx=5, ly=1)

    def test_s_bound_with_shuffles(self):
        """Section 3.1: thanks to shuffle instructions, s <= 5."""
        with pytest.raises(ConfigurationError, match="s <= 5"):
            KernelParams(s=6, p=3, l=10, lx=10, ly=0)
        # Without shuffles larger s is allowed (up to S <= P*L).
        KernelParams(s=6, p=3, l=10, lx=10, ly=0, use_shuffle=False)

    def test_table2_s_leq_pl(self):
        with pytest.raises(ConfigurationError, match="S <= P"):
            KernelParams(s=5, p=0, l=2, lx=2, ly=0, use_shuffle=False)

    def test_k_power_of_two(self):
        with pytest.raises(ConfigurationError, match="power of two"):
            KernelParams(s=2, p=3, l=7, lx=7, ly=0, K=3)

    def test_smem_bytes(self):
        kp = KernelParams(s=2, p=3, l=7, lx=7, ly=0)
        assert kp.smem_bytes(4) == 16

    def test_with_k(self):
        kp = KernelParams(s=2, p=3, l=7, lx=7, ly=0, K=1)
        assert kp.with_k(8).K == 8 and kp.K == 1

    def test_register_estimate_includes_overhead(self):
        kp = KernelParams(s=2, p=3, l=7, lx=7, ly=0)
        assert kp.estimated_regs_per_thread() == 8 + 24


class TestNodeConfig:
    def test_w_equals_y_times_v(self):
        node = NodeConfig.from_counts(W=8, V=4)
        assert node.W == 8 and node.V == 4 and node.Y == 2
        assert node.w == node.y + node.v  # Table 2: w = y + v

    def test_paper_examples(self):
        """Section 2.1's worked examples."""
        n1 = NodeConfig.from_counts(W=4, V=2, M=1)
        assert n1.Y == 2
        n2 = NodeConfig.from_counts(W=2, V=1, M=1)
        assert n2.Y == 2
        n3 = NodeConfig.from_counts(W=4, V=2, M=2)
        assert n3.M == 2 and n3.total_gpus == 8

    def test_v_cannot_exceed_w(self):
        with pytest.raises(ConfigurationError):
            NodeConfig.from_counts(W=2, V=4)

    def test_power_of_two_enforced(self):
        with pytest.raises(ConfigurationError):
            NodeConfig.from_counts(W=6, V=2)


class TestExecutionPlan:
    @staticmethod
    def make_plan(**overrides):
        problem = ProblemConfig.from_sizes(N=4096, G=4)
        kp1 = KernelParams(s=2, p=3, l=7, lx=7, ly=0, K=2)
        kp2 = KernelParams(s=2, p=3, l=7, lx=6, ly=1, K=1)
        fields = dict(
            problem=problem,
            stage1=StagePlan(params=kp1, bx=2, by=4),
            stage2=StagePlan(params=kp2, bx=1, by=2),
            stage3=StagePlan(params=kp1, bx=2, by=4),
            n_local=4096,
            chunks_total=2,
            gpus_sharing_problem=1,
        )
        fields.update(overrides)
        return ExecutionPlan(**fields)

    def test_valid_plan(self):
        plan = self.make_plan()
        assert plan.chunk_size == 4096 // 2
        assert plan.chunks_per_gpu == 2

    def test_bx1_equals_bx3(self):
        kp1 = KernelParams(s=2, p=3, l=7, lx=7, ly=0, K=2)
        with pytest.raises(ConfigurationError, match="B_x"):
            self.make_plan(stage3=StagePlan(params=kp1, bx=4, by=4))

    def test_k2_must_be_one(self):
        kp2_bad = KernelParams(s=2, p=3, l=7, lx=6, ly=1, K=2)
        with pytest.raises(ConfigurationError, match="K\\^2"):
            self.make_plan(stage2=StagePlan(params=kp2_bad, bx=1, by=2))

    def test_stage13_ly_must_be_one(self):
        kp_bad = KernelParams(s=2, p=3, l=7, lx=6, ly=1, K=2)
        with pytest.raises(ConfigurationError, match="L_y"):
            self.make_plan(
                stage1=StagePlan(params=kp_bad, bx=2, by=4),
                stage3=StagePlan(params=kp_bad, bx=2, by=4),
            )

    def test_bx2_must_be_one(self):
        kp2 = KernelParams(s=2, p=3, l=7, lx=6, ly=1, K=1)
        with pytest.raises(ConfigurationError, match="B_x\\^2"):
            self.make_plan(stage2=StagePlan(params=kp2, bx=2, by=2))

    def test_chunking_must_tile(self):
        with pytest.raises(ConfigurationError, match="tile"):
            self.make_plan(n_local=2048)

    def test_chunks_total_consistency(self):
        with pytest.raises(ConfigurationError, match="chunks_total"):
            self.make_plan(chunks_total=7)
