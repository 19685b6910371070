"""Estimate-path exactness: the analytic dry-run must produce the same trace
timing as the functional run, for every proposal. This is the invariant
that lets the benchmark harness run at the paper's 2^28 scale."""

import pytest

from repro.core.multi_gpu import ScanMPS
from repro.core.multi_node import ScanMultiNodeMPS
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.prioritized import ScanMPPC
from repro.core.single_gpu import ScanSP


def batch_for(problem, rng):
    return rng.integers(0, 100, (problem.G, problem.N)).astype(problem.dtype)


def records_signature(trace):
    return [
        (type(r).__name__, r.phase, r.lane, round(r.time_s, 15))
        for r in trace.records
    ]


class TestEstimateExactness:
    @pytest.mark.parametrize("n,g", [(1 << 12, 1), (1 << 14, 8), (1 << 16, 4)])
    def test_sp(self, machine, rng, n, g):
        problem = ProblemConfig.from_sizes(N=n, G=g)
        executor = ScanSP(machine.gpus[0])
        functional = executor.run(batch_for(problem, rng), collect=False)
        estimated = executor.estimate(problem)
        assert records_signature(functional.trace) == records_signature(estimated.trace)

    @pytest.mark.parametrize("w,v", [(4, 4), (8, 4)])
    def test_mps(self, machine, rng, w, v):
        problem = ProblemConfig.from_sizes(N=1 << 14, G=8)
        executor = ScanMPS(machine, NodeConfig.from_counts(W=w, V=v))
        functional = executor.run(batch_for(problem, rng), collect=False)
        estimated = executor.estimate(problem)
        assert records_signature(functional.trace) == records_signature(estimated.trace)

    def test_mppc(self, machine, rng):
        problem = ProblemConfig.from_sizes(N=1 << 14, G=8)
        executor = ScanMPPC(machine, NodeConfig.from_counts(W=8, V=4))
        functional = executor.run(batch_for(problem, rng), collect=False)
        estimated = executor.estimate(problem)
        assert records_signature(functional.trace) == records_signature(estimated.trace)

    def test_multi_node(self, cluster, rng):
        problem = ProblemConfig.from_sizes(N=1 << 14, G=4)
        executor = ScanMultiNodeMPS(cluster, NodeConfig.from_counts(W=4, V=4, M=2))
        functional = executor.run(batch_for(problem, rng), collect=False)
        estimated = executor.estimate(problem)
        assert records_signature(functional.trace) == records_signature(estimated.trace)


class TestEstimateScale:
    def test_paper_scale_without_allocation(self, machine):
        """2^28 elements (1 GiB payload) estimated without real memory."""
        problem = ProblemConfig.from_sizes(N=1 << 28, G=1)
        result = ScanSP(machine.gpus[0]).estimate(problem)
        assert result.total_time_s > 0
        assert result.config["estimated"]
        assert machine.gpus[0].pool.used == 0  # everything released

    def test_batch_paper_scale(self, machine):
        problem = ProblemConfig.from_sizes(N=1 << 13, G=1 << 15)
        result = ScanMPPC(machine, NodeConfig.from_counts(W=8, V=4)).estimate(problem)
        assert result.elements == 1 << 28
        assert result.throughput_gelems > 1.0

    def test_memory_capacity_still_enforced(self, machine):
        """Virtual buffers still account bytes: a problem too large for one
        GPU's 12 GB must fail on SP — the paper's Case 2 motivation."""
        from repro.errors import AllocationError

        problem = ProblemConfig.from_sizes(N=1 << 32, G=1)  # 16 GiB
        with pytest.raises(AllocationError):
            ScanSP(machine.gpus[0]).estimate(problem)

    def test_case2_fits_when_scattered(self, machine):
        """The same over-sized problem fits when split across 4 GPUs."""
        problem = ProblemConfig.from_sizes(N=1 << 32, G=1)
        result = ScanMPS(machine, NodeConfig.from_counts(W=4, V=4)).estimate(problem)
        assert result.total_time_s > 0


#: Every registered proposal on the placements it is built for.
PLACEMENTS = [
    ("sp", 1, (1, 1, 1)),
    ("sp-dlb", 1, (1, 1, 1)),
    ("chained", 1, (1, 1, 1)),
    ("pp", 1, (4, 4, 1)),
    ("pp", 1, (8, 4, 1)),
    ("mps", 1, (4, 4, 1)),
    ("mps", 1, (8, 4, 1)),
    ("mppc", 1, (8, 4, 1)),
    ("mppc", 1, (4, 2, 1)),
    ("mn-mps", 2, (4, 4, 2)),
    ("mn-mps", 2, (8, 4, 2)),
]

DTYPES = ("int8", "int32", "int64", "uint32", "bool", "float16", "float32",
          "float64", "complex64")


def _valid_kinds(dtype):
    """Every (operator, inclusive) the dtype can be scanned with."""
    from repro.core.params import require_scannable
    from repro.errors import ConfigurationError

    kinds = []
    for op in ("add", "mul", "max", "min", "or", "xor"):
        try:
            require_scannable(dtype, op)
        except ConfigurationError:
            continue
        kinds += [(op, True), (op, False)]
    return kinds


class TestOperatorInvariance:
    """The cost model prices no operator or output kind: ``estimate()``
    gives the same ``total_time_s`` and trace records for every valid
    operator x inclusive/exclusive of a geometry. This is what lets the
    plan resolver derive one plan per geometry and the tuner key its
    sweeps without the operator.

    Each estimate runs on a fresh machine and plan resolver, so no priced
    record or plan is shared between the operators compared."""

    def test_every_proposal_covered(self):
        from repro.core.executor import proposal_names

        assert {name for name, _, _ in PLACEMENTS} == set(proposal_names())

    @pytest.mark.parametrize("name,nodes,wvm", PLACEMENTS,
                             ids=[f"{p[0]}-W{p[2][0]}V{p[2][1]}M{p[2][2]}"
                                  for p in PLACEMENTS])
    @pytest.mark.parametrize("K", [None, 2])
    def test_estimates_ignore_operator_and_kind(self, name, nodes, wvm, K):
        import numpy as np

        from repro.core.executor import PlanResolver, ScanExecutor, build_executor
        from repro.interconnect.topology import tsubame_kfc

        w, v, m = wvm
        original = ScanExecutor.resolver
        try:
            for dtype in DTYPES:
                dtype = np.dtype(dtype)
                seen = {}
                for op, inclusive in _valid_kinds(dtype):
                    ScanExecutor.resolver = PlanResolver()
                    executor = build_executor(
                        name, tsubame_kfc(nodes),
                        NodeConfig.from_counts(W=w, V=v, M=m), K)
                    result = executor.estimate(ProblemConfig.from_sizes(
                        N=1 << 15, G=4, dtype=dtype, operator=op,
                        inclusive=inclusive))
                    seen[op, inclusive] = (result.total_time_s,
                                           tuple(result.trace.records))
                reference = seen["add", True]
                for kind, got in seen.items():
                    assert got == reference, (dtype, kind)
        finally:
            ScanExecutor.resolver = original
