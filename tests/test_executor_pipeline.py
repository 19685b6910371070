"""The unified executor pipeline: run/estimate equivalence, registry,
shared plan resolver, the problem-parallel activation fix, and the
upload slots' tiling of the result array.

The tentpole guarantee of the ``repro.core.executor`` refactor is that the
analytic path is *the same code* as the functional path (one template
method, ``functional=False`` + virtual buffers), so ``estimate(problem)``
must reproduce ``run(data)`` record for record — for every proposal. The
old per-executor estimate copies never had this guard.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chained import ScanChained
from repro.core.executor import (
    LaunchProgram,
    PlanResolver,
    ScanExecutor,
    Slot,
    build_executor,
    get_proposal,
    proposal_names,
    proposal_specs,
)
from repro.core.multi_gpu import ScanMPS, ScanProblemParallel
from repro.core.multi_node import ScanMultiNodeMPS
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.prioritized import ScanMPPC
from repro.core.session import ScanSession
from repro.core.single_gpu import ScanSP
from repro.core.single_pass import ScanSinglePassDLB
from repro.errors import ConfigurationError, ReproError
from repro.gpusim.device import GPU

N = 1 << 13
G = 8


def records_signature(trace):
    return [
        (type(r).__name__, r.phase, r.lane, r.time_s) for r in trace.records
    ]


def executor_cases(machine, cluster):
    """One representative executor per registered proposal."""
    return {
        "sp": ScanSP(machine.gpus[0]),
        "pp": ScanProblemParallel(machine, NodeConfig.from_counts(W=4, V=4)),
        "mps": ScanMPS(machine, NodeConfig.from_counts(W=4, V=4)),
        "mppc": ScanMPPC(machine, NodeConfig.from_counts(W=8, V=4)),
        "mn-mps": ScanMultiNodeMPS(
            cluster, NodeConfig.from_counts(W=4, V=4, M=2)
        ),
        "chained": ScanChained(machine.gpus[0]),
        "sp-dlb": ScanSinglePassDLB(machine.gpus[0]),
    }


class TestRunEstimateEquivalence:
    """For every proposal: estimate == run, to the last trace record."""

    @pytest.mark.parametrize(
        "name", ["sp", "pp", "mps", "mppc", "mn-mps", "chained", "sp-dlb"]
    )
    def test_estimate_matches_run_exactly(self, name, machine, cluster, rng):
        executor = executor_cases(machine, cluster)[name]
        data = rng.integers(-1000, 1000, (G, N)).astype(np.int64)
        problem = ProblemConfig.from_sizes(N=N, G=G, dtype=np.int64)

        run = executor.run(data)
        est = executor.estimate(problem)

        assert est.total_time_s == run.total_time_s
        assert est.breakdown == run.breakdown
        assert records_signature(est.trace) == records_signature(run.trace)
        assert est.plan is run.plan  # one resolver entry serves both
        assert est.output is None
        assert est.config["estimated"] is True
        run_config = dict(run.config)
        est_config = dict(est.config)
        est_config.pop("estimated")
        assert est_config == run_config
        # The functional result actually scanned.
        np.testing.assert_array_equal(
            run.output, np.cumsum(data, axis=1)
        )

    def test_pp_estimate_through_session(self, machine, rng):
        """The satellite: problem parallelism now estimates, via the session."""
        session = ScanSession(machine)
        data = rng.integers(0, 100, (G, N)).astype(np.int64)
        problem = ProblemConfig.from_sizes(N=N, G=G, dtype=np.int64)

        run = session.scan(data, proposal="pp", W=4)
        est = session.estimate(problem, proposal="pp", W=4)

        assert est.total_time_s == run.total_time_s
        assert est.breakdown == run.breakdown
        assert est.proposal == "scan-pp"
        assert est.config["W"] == 4
        # Same cache entry serves both paths: the estimate was a hit.
        assert session.cached_configurations == 1
        assert session.hits == 1

    def test_api_estimate_facade(self, machine):
        from repro.core.api import estimate

        problem = ProblemConfig.from_sizes(N=N, G=G)
        result = estimate(problem, topology=machine, proposal="mps", W=4)
        assert result.proposal == "scan-mps"
        assert result.config["estimated"] is True
        assert result.total_time_s > 0

    def test_session_estimate_validates_like_scan(self, machine):
        session = ScanSession(machine)
        problem = ProblemConfig.from_sizes(N=N, G=G)
        with pytest.raises(ConfigurationError, match="unknown proposal 'tree'; use auto/"):
            session.estimate(problem, proposal="tree")
        with pytest.raises(ConfigurationError, match="K must be an int"):
            session.estimate(problem, K=1.5)


class TestProposalRegistry:
    def test_registry_lists_every_proposal(self):
        assert proposal_names() == (
            "sp", "pp", "mps", "mppc", "mn-mps", "chained", "sp-dlb"
        )

    def test_specs_carry_identity_and_capabilities(self):
        by_name = {s.name: s for s in proposal_specs()}
        assert by_name["sp"].result_label == "scan-sp"
        assert by_name["mppc"].result_label == "scan-mp-pc"
        assert by_name["sp-dlb"].result_label == "scan-sp-dlb"
        assert by_name["sp"].tunable and by_name["mps"].tunable
        assert not by_name["pp"].tunable and not by_name["chained"].tunable
        assert not by_name["sp-dlb"].tunable
        for spec in by_name.values():
            assert spec.summary

    def test_specs_carry_capability_flags(self):
        """The satellite: passes over memory / multi-GPU / estimate are
        queryable per proposal, making sp-dlb's single-pass nature visible."""
        by_name = {s.name: s for s in proposal_specs()}
        assert by_name["sp"].memory_passes == 3.0
        assert by_name["sp-dlb"].memory_passes == 2.0
        assert by_name["chained"].memory_passes == 2.0
        for single_gpu in ("sp", "chained", "sp-dlb"):
            assert not by_name[single_gpu].multi_gpu
        for multi in ("pp", "mps", "mppc", "mn-mps"):
            assert by_name[multi].multi_gpu
        for spec in by_name.values():
            assert spec.supports_estimate

    def test_build_executor_constructs_the_right_class(self, machine, cluster):
        node = NodeConfig.from_counts(W=4, V=4)
        assert isinstance(build_executor("sp", machine, node), ScanSP)
        assert isinstance(build_executor("pp", machine, node), ScanProblemParallel)
        assert isinstance(build_executor("mps", machine, node), ScanMPS)
        assert isinstance(build_executor("chained", machine, node), ScanChained)
        assert isinstance(
            build_executor("sp-dlb", machine, node), ScanSinglePassDLB
        )
        mn = build_executor(
            "mn-mps", cluster, NodeConfig.from_counts(W=4, V=4, M=2), K=2
        )
        assert isinstance(mn, ScanMultiNodeMPS)
        assert mn.K == 2

    def test_unknown_name_raises_the_canonical_error(self, machine):
        with pytest.raises(ConfigurationError, match="unknown proposal 'tree'; use auto/"):
            get_proposal("tree")

    def test_executor_classes_declare_their_registry_name(self, machine, cluster):
        for name, executor in executor_cases(machine, cluster).items():
            assert executor.proposal == name
            assert executor.result_label == get_proposal(name).result_label

    def test_session_serves_registry_proposals(self, machine, rng):
        """The chained extension is schedulable through the session now."""
        session = ScanSession(machine)
        data = rng.integers(0, 100, (4, 1 << 11)).astype(np.int32)
        result = session.scan(data, proposal="chained")
        assert result.proposal == "scan-chained"
        np.testing.assert_array_equal(result.output, np.cumsum(data, axis=1))
        # Untunable: K="tune" degrades to the proposal's own default.
        tuned = session.scan(data, proposal="chained", K="tune")
        assert tuned.total_time_s == result.total_time_s


class TestPlanResolver:
    def test_executors_share_one_cache(self, machine):
        resolver = PlanResolver()
        problem = ProblemConfig.from_sizes(N=N, G=G)
        a, b = ScanSP(machine.gpus[0]), ScanSP(machine.gpus[1])
        a.resolver = resolver
        b.resolver = resolver
        plan_a = a.plan_for(problem)
        assert (resolver.misses, resolver.hits) == (1, 0)
        plan_b = b.plan_for(problem)
        assert (resolver.misses, resolver.hits) == (1, 1)
        assert plan_b is plan_a
        assert len(resolver) == 1

    def test_distinct_specs_do_not_collide(self, machine):
        """sp and chained share (arch, problem) but pick K differently."""
        resolver = PlanResolver()
        problem = ProblemConfig.from_sizes(N=1 << 24, G=G)
        sp, chained = ScanSP(machine.gpus[0]), ScanChained(machine.gpus[0])
        sp.resolver = resolver
        chained.resolver = resolver
        plan_sp = sp.plan_for(problem)
        plan_chained = chained.plan_for(problem)
        assert resolver.misses == 2
        assert len(resolver) == 2
        assert plan_sp.stage1.params.K > plan_chained.stage1.params.K

    def test_no_private_plan_caches_remain(self, machine, cluster):
        for executor in executor_cases(machine, cluster).values():
            assert not hasattr(executor, "_plan_cache")
            assert executor.resolver is ScanExecutor.resolver

    def test_mppc_plan_for_accepts_explicit_groups_used(self, machine):
        executor = ScanMPPC(machine, NodeConfig.from_counts(W=8, V=4))
        problem = ProblemConfig.from_sizes(N=N, G=G)
        narrow = executor.plan_for(problem, groups_used=1)
        wide = executor.plan_for(problem, groups_used=2)
        assert narrow.stage1.by == G
        assert wide.stage1.by == G // 2


def _twins(n=N, g=G, dtype=np.int32):
    """One geometry as every add/max x inclusive/exclusive problem."""
    return [ProblemConfig.from_sizes(N=n, G=g, dtype=dtype, operator=op,
                                     inclusive=inclusive)
            for op in ("add", "max") for inclusive in (True, False)]


def _count_derivations(monkeypatch) -> dict:
    """Count the resolver's calls of each derivation step."""
    from repro.core import executor

    calls = {}
    for name in ("derive_stage_kernel_params", "k_search_space",
                 "build_execution_plan"):
        real = getattr(executor, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(executor, name, spy)
    return calls


class TestGeometryPlans:
    """A plan is derived once per geometry (the spec with its problem
    reduced to (n, g, dtype)); operator and output-kind twins get it
    relabelled with their own problem."""

    def test_twins_share_one_derivation(self, machine, monkeypatch):
        resolver = PlanResolver()
        sp = ScanSP(machine.gpus[0])
        sp.resolver = resolver
        first, *twins = _twins()
        derived = sp.plan_for(first)
        from_scratch = [PlanResolver().resolve(sp._arch(), sp._plan_spec(p))
                        for p in twins]
        calls = _count_derivations(monkeypatch)
        for problem, expected in zip(twins, from_scratch):
            plan = sp.plan_for(problem)
            assert plan == expected and plan.problem == problem
            assert (plan.stage1, plan.stage2, plan.stage3) == (
                derived.stage1, derived.stage2, derived.stage3)
        assert calls == {}
        assert (resolver.misses, resolver.hits, len(resolver)) == (1, 3, 4)
        # Per-problem entries: a twin's second resolve is a plain hit.
        assert sp.plan_for(twins[0]) is sp.plan_for(twins[0])

    def test_every_other_spec_field_still_splits(self, machine):
        resolver = PlanResolver()
        sp, chained = ScanSP(machine.gpus[0]), ScanChained(machine.gpus[0])
        sp.resolver = chained.resolver = resolver
        for problem in (ProblemConfig.from_sizes(N=N, G=G),
                        ProblemConfig.from_sizes(N=N, G=G, dtype=np.int64),
                        ProblemConfig.from_sizes(N=N * 2, G=G),
                        ProblemConfig.from_sizes(N=N, G=G * 2)):
            sp.plan_for(problem)
            chained.plan_for(problem)
        assert resolver.misses == 8

    def test_clear_and_a_swapped_resolver_derive_again(self, machine):
        resolver = PlanResolver()
        sp = ScanSP(machine.gpus[0])
        sp.resolver = resolver
        add, max_exc = _twins()[0], _twins()[3]
        sp.plan_for(add)
        resolver.clear()
        sp.plan_for(max_exc)
        assert (resolver.misses, resolver.hits) == (1, 0)
        sp.resolver = PlanResolver()
        sp.plan_for(add)
        assert (sp.resolver.misses, sp.resolver.hits) == (1, 0)

    def test_a_primed_plan_serves_its_twins(self, machine):
        source = PlanResolver()
        sp = ScanSP(machine.gpus[0])
        sp.resolver = source
        first, *twins = _twins()
        sp.plan_for(first)
        restored = PlanResolver()
        for entry in source.export():
            assert restored.prime(*entry)
        sp.resolver = restored
        for problem in twins:
            assert sp.plan_for(problem).problem == problem
        assert (restored.misses, restored.hits, len(restored)) == (0, 3, 4)

    def test_a_session_serving_twins_plans_and_decides_once(
        self, fresh_resolver, monkeypatch
    ):
        """One shape served as add/max x inc/exc: one plan per executor
        kind (the variant comparison's sp and sp-dlb), one sp/sp-dlb
        decision, and a program per problem plus one per variant."""
        from repro.core.tuner import PremiseTuner
        from repro.interconnect.topology import tsubame_kfc

        decisions = []
        real_decide = PremiseTuner.tune_single_gpu_variant
        monkeypatch.setattr(
            PremiseTuner, "tune_single_gpu_variant",
            lambda self, problem: decisions.append(problem)
            or real_decide(self, problem))
        programs = []
        real_init = LaunchProgram.__init__

        def counting_init(self, *args, **kwargs):
            programs.append(args[0])
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(LaunchProgram, "__init__", counting_init)
        service = ScanSession(tsubame_kfc(1)).service(max_batch=4)
        data = np.arange(1 << 10, dtype=np.int32) % 13
        tickets = [service.submit(data, operator=problem.operator.name,
                                  inclusive=problem.inclusive)
                   for problem in _twins(n=1 << 10, g=1)]
        service.drain()
        ufuncs = {"add": np.add, "max": np.maximum}
        for problem, ticket in zip(_twins(n=1 << 10, g=1), tickets):
            expected = ufuncs[problem.operator.name].accumulate(data)
            if not problem.inclusive:
                expected = np.concatenate((
                    [problem.operator.identity(data.dtype)], expected[:-1]))
            np.testing.assert_array_equal(ticket.result(), expected)
        assert len(decisions) == 1
        assert fresh_resolver.misses == 2
        assert len(programs) == 4 + 2


class TestActivationSafety:
    def test_pp_failure_mid_flow_restores_bandwidth_scale(
        self, machine, rng, monkeypatch
    ):
        """The satellite fix: an exception inside the worker loop must not
        leave GPUs activated (dual-die throttled)."""
        executor = ScanProblemParallel(machine, NodeConfig.from_counts(W=4, V=4))
        data = rng.integers(0, 100, (G, N)).astype(np.int64)
        before = {g.id: g.bandwidth_scale for g in machine.gpus}

        calls = {"n": 0}
        original = GPU.launch

        def failing(self, *args, **kwargs):
            calls["n"] += 1
            # Die mid-loop: the third worker's first launch, after two
            # workers' three launches each succeeded.
            if calls["n"] == 7:
                raise ReproError("injected fault")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(GPU, "launch", failing)
        with pytest.raises(ReproError, match="injected fault"):
            executor.run(data)
        after = {g.id: g.bandwidth_scale for g in machine.gpus}
        assert after == before

    def test_pp_leaves_no_allocations_behind_on_failure(
        self, machine, rng, monkeypatch
    ):
        executor = ScanProblemParallel(machine, NodeConfig.from_counts(W=4, V=4))
        data = rng.integers(0, 100, (G, N)).astype(np.int64)

        def failing(self, *args, **kwargs):
            raise ReproError("injected fault")

        monkeypatch.setattr(GPU, "launch", failing)
        with pytest.raises(ReproError):
            executor.run(data)
        for gpu in machine.gpus:
            assert gpu.pool.used == 0


class TestUploadTiling:
    """A program's upload slots must tile the ``(G, N)`` batch exactly
    once, checked when the program is built: the result array is
    allocated uninitialised and only the uploads write it before the
    kernels run."""

    PROBLEM = ProblemConfig.from_sizes(N=64, G=4, dtype=np.int32)

    def program(self, gpu, *sources, shapes=None):
        full = {0: 4, 1: 64}
        slots = []
        for i, source in enumerate(sources):
            if shapes is None:
                index = source + (slice(None),) * (2 - len(source))
                shape = tuple(len(range(*part.indices(full[axis])))
                              for axis, part in enumerate(index))
            else:
                shape = shapes[i]
            slots.append(Slot(gpu, shape, np.dtype(np.int32), source=source))
        slots.append(Slot(gpu, (4, 2), np.dtype(np.int32)))  # an aux slot
        return LaunchProgram(self.PROBLEM, None, slots, ())

    @pytest.mark.parametrize("sources", [
        [(slice(None),)],
        [(slice(0, 2),), (slice(2, 4),)],
        [(slice(None), slice(0, 32)), (slice(None), slice(32, 64))],
        [(slice(0, 2), slice(0, 16)), (slice(0, 2), slice(16, 64)),
         (slice(2, 4), slice(0, 48)), (slice(2, 4), slice(48, 64))],
    ], ids=["whole", "row-slabs", "column-blocks", "grid"])
    def test_exact_tilings_build(self, machine, sources):
        program = self.program(machine.gpus[0], *sources)
        assert len(program.slots) == len(sources) + 1

    @pytest.mark.parametrize("sources,match", [
        ([(slice(0, 3),)], "cover 192 of the batch's 256"),
        ([(slice(None), slice(0, 32)), (slice(None), slice(40, 64))],
         "cover 224"),
        ([(slice(0, 2),), (slice(1, 3),)], "overlap"),
        ([(slice(None), slice(0, 40)), (slice(None), slice(32, 64)),
          (slice(0, 1), slice(0, 8))], "overlap"),
        ([(slice(0, 4, 2),), (slice(1, 4, 2),)], "unit steps"),
        ([(0,)], "tuple of slices"),
    ], ids=["row-gap", "column-gap", "row-overlap", "column-overlap",
            "strided", "integer-index"])
    def test_gaps_and_overlaps_rejected(self, machine, sources, match):
        with pytest.raises(ConfigurationError, match=match):
            self.program(machine.gpus[0], *sources,
                         shapes=[(2, 64)] * len(sources)
                         if match in ("unit steps", "tuple of slices") else None)

    def test_slot_shape_must_match_its_source(self, machine):
        with pytest.raises(ConfigurationError, match="does not match"):
            self.program(machine.gpus[0], (slice(None),), shapes=[(4, 32)])
