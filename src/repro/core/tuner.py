"""Empirical tuning of the cascade parameter K over the premise search space.

The paper: "once the (s, p, l) is determined using previous premises, all
possible K values that meet Eq. 1 are tested ... For each tuple (W, V, M)
possible in the system, all K values from the corresponding search space
are empirically tested, choosing the one which maximizes the global
performance." (Sections 3.2 and 4.2 — the automatic search is listed as
future work there; here it is implemented.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import TuningError
from repro.interconnect.topology import SystemTopology
from repro.core.executor import get_proposal
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.premises import derive_stage_kernel_params, k_search_space
from repro.core.results import ScanResult
from repro.core.single_gpu import ScanSP, shrink_template_to_fit
from repro.core.single_pass import ScanSinglePassDLB
from repro.util.logging import get_logger

_log = get_logger("core.tuner")


@dataclass(frozen=True)
class KCandidate:
    """One evaluated point of the search space."""

    K: int
    time_s: float
    throughput_gelems: float


@dataclass(frozen=True)
class TuningOutcome:
    """Result of an exhaustive K sweep."""

    best: KCandidate
    candidates: tuple[KCandidate, ...]
    proposal: str

    @property
    def best_k(self) -> int:
        return self.best.K


def tune_k(
    run_with_k: Callable[[int], ScanResult],
    k_values: list[int],
    proposal: str = "sp",
) -> TuningOutcome:
    """Evaluate every K candidate and keep the fastest."""
    if not k_values:
        raise TuningError("empty K search space")
    candidates: list[KCandidate] = []
    for k in k_values:
        result = run_with_k(k)
        candidates.append(
            KCandidate(K=k, time_s=result.total_time_s,
                       throughput_gelems=result.throughput_gelems)
        )
    best = min(candidates, key=lambda c: c.time_s)
    _log.debug(
        "tune_k[%s]: %d candidates, best K=%d (%.3f ms)",
        proposal, len(candidates), best.K, best.time_s * 1e3,
    )
    return TuningOutcome(best=best, candidates=tuple(candidates), proposal=proposal)


@dataclass(frozen=True)
class VariantCandidate:
    """One algorithm variant evaluated for a single-GPU problem."""

    proposal: str
    time_s: float


@dataclass(frozen=True)
class VariantOutcome:
    """Result of the three-kernel vs decoupled-lookback comparison."""

    best: VariantCandidate
    candidates: tuple[VariantCandidate, ...]

    @property
    def best_proposal(self) -> str:
        return self.best.proposal


class PremiseTuner:
    """Premise-driven tuner bound to one machine.

    Derives (s, p, l) analytically (Premises 1-2), enumerates K from
    Eq. 1-3 (Premises 3-4) and resolves the winner by running the
    simulator — one sweep per (proposal, W, V, M, N, G) point, as the
    paper does per data point of its evaluation.
    """

    def __init__(self, topology: SystemTopology):
        self.topology = topology
        #: ``gpu -> (sp, sp-dlb)`` executors the variant comparison reuses
        #: (:meth:`tune_single_gpu_variant`), so their held programs serve
        #: every problem tuned on that GPU.
        self._variants: dict = {}

    def search_space(
        self,
        problem: ProblemConfig,
        proposal: str = "sp",
        node: NodeConfig | None = None,
    ) -> list[int]:
        gpus_sharing = 1
        if proposal == "mps" and node is not None:
            gpus_sharing = node.M * node.W
        elif proposal == "mppc" and node is not None:
            gpus_sharing = node.V
        template = derive_stage_kernel_params(self.topology.arch, problem.dtype)
        template = shrink_template_to_fit(template, problem.N // gpus_sharing)
        return k_search_space(
            problem, template, template, self.topology.arch,
            node=node, proposal=proposal,
        )

    # ------------------------------------------------------------- proposals

    def sweep(
        self,
        proposal: str,
        problem: ProblemConfig,
        node: NodeConfig | None = None,
        data: np.ndarray | None = None,
    ) -> TuningOutcome:
        """Time every K of ``proposal``'s premise search space at ``problem``.

        Each candidate is built through the proposal registry, so it is
        placed as a served request would be (``sp`` on the first healthy
        GPU). With a ``data`` batch each candidate runs it; without one
        each estimates ``problem``, which prices the same launches and
        copies (and ticks the same fault schedules) without allocating a
        batch, so it picks the same K. Scattering sweeps ``mps`` on one
        node and ``mn-mps`` over more, whichever of the two is named, in
        the ``mps`` search space (Premise 4 bounds scattering over all
        M*W GPUs either way).
        """
        scattering = proposal in ("mps", "mn-mps")
        space = self.search_space(problem, "mps" if scattering else proposal, node)
        if scattering:
            proposal = "mn-mps" if node.M > 1 else "mps"
        spec = get_proposal(proposal)

        def run(k: int) -> ScanResult:
            executor = spec.build(self.topology, node, k)
            if data is None:
                return executor.estimate(problem)
            return executor.run(data, operator=problem.operator, collect=False)

        return tune_k(run, space, proposal=proposal)

    def tune_sp(self, data: np.ndarray, operator="add") -> TuningOutcome:
        return self.sweep("sp", _batch_problem(data, operator), data=data)

    def tune_mps(self, node: NodeConfig, data: np.ndarray, operator="add") -> TuningOutcome:
        return self.sweep("mps", _batch_problem(data, operator), node, data)

    def tune_single_gpu_variant(self, problem: ProblemConfig) -> VariantOutcome:
        """Three-kernel pipeline vs decoupled lookback for one problem.

        Compares analytic estimates — exact by the run/estimate
        equivalence guarantee of the executor pipeline, and
        data-independent, so no synthetic batch is needed. The ordering is
        a genuine crossover: the lookback variant pays fixed protocol
        costs (descriptor reset, arming, polling stall) but saves a full
        pass over memory, so ``sp`` wins small problems and ``sp-dlb``
        large ones, with the frontier shifting in (N, G, dtype).
        """
        gpu = self.topology.first_healthy_gpu()
        executors = self._variants.get(gpu)
        if executors is None:
            executors = self._variants[gpu] = (ScanSP(gpu), ScanSinglePassDLB(gpu))
        candidates = tuple(
            VariantCandidate(proposal=executor.proposal,
                             time_s=executor.estimate(problem).total_time_s)
            for executor in executors
        )
        best = min(candidates, key=lambda c: c.time_s)
        _log.debug(
            "tune_single_gpu_variant: n=%d g=%d %s -> %s",
            problem.n, problem.g,
            {c.proposal: round(c.time_s * 1e6, 1) for c in candidates},
            best.proposal,
        )
        return VariantOutcome(best=best, candidates=candidates)

    def tune_mppc(self, node: NodeConfig, data: np.ndarray, operator="add") -> TuningOutcome:
        return self.sweep("mppc", _batch_problem(data, operator), node, data)


def _batch_problem(data: np.ndarray, operator) -> ProblemConfig:
    """The problem a host batch poses (inclusive, as a sweep runs it)."""
    batch = np.atleast_2d(np.asarray(data))
    return ProblemConfig.from_sizes(
        N=batch.shape[1], G=batch.shape[0], dtype=batch.dtype, operator=operator
    )
