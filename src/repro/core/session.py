"""Warm-path serving: plan, tuning and executor reuse across scan calls.

The paper's evaluation times one scan of one (N, G) point; a deployed
scan *service* solves the same shapes over and over. Everything that is a
pure function of the configuration — the Premise-4 proposal choice, the
premise-derived kernel geometry, the empirically tuned K, the executor
objects with their GPU groups — can be computed once and replayed. A
:class:`ScanSession` owns one machine and memoises all of it keyed by the
full problem/placement configuration, so a repeated call pays only for
uploads, kernel bodies and transfers. On top of that, each call
signature is validated and resolved once: a repeated ``scan`` with the
same input type, shape, dtype and arguments reuses that decision (see
:class:`_Binding`) instead of re-validating its input.

Combined with the per-GPU :class:`~repro.gpusim.memory.BufferPool` (stage
buffers recycled instead of reallocated) this is the simulated analogue of
a CUDA serving stack that keeps its plans, graphs and memory pools warm
between requests. None of it changes *simulated* time: the cost model is a
closed form of the plan geometry, so a session-served scan reports exactly
the trace a cold scan would — only the host-side (wall-clock) overhead
drops.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs import flight
from repro.errors import (
    ConfigurationError,
    FailoverExhaustedError,
    SnapshotError,
    TopologyError,
)
from repro.obs.registry import Histogram
from repro.gpusim.events import TransferRecord
from repro.interconnect.topology import SystemTopology, tsubame_kfc
from repro.core.autotune_cache import (
    AutotuneCache,
    CachedTuner,
    cost_fingerprint,
    default_autotune_cache,
)
from repro.core.executor import (
    ScanRequest,
    coerce_batch,
    get_proposal,
    native_rows,
)
from repro.core.health import (
    AttemptRecord,
    HealthTracker,
    RetryPolicy,
    degraded_candidates,
)
from repro.core.params import NodeConfig, ProblemConfig, require_scannable
from repro.core.results import ScanResult

#: Memoised default machines, keyed by node count. ``scan(data)`` without
#: a topology used to build a fresh 8-GPU machine per call; every
#: topology-less call with the same M now shares one (with buffer pooling
#: on, since nothing else can reference its GPUs).
_DEFAULT_TOPOLOGIES: dict[int, SystemTopology] = {}


def default_topology(M: int = 1) -> SystemTopology:
    """The shared default machine (paper's platform) for ``M`` nodes."""
    m = max(1, M)
    topo = _DEFAULT_TOPOLOGIES.get(m)
    if topo is None:
        topo = tsubame_kfc(m)
        topo.enable_buffer_pooling()
        _DEFAULT_TOPOLOGIES[m] = topo
    return topo


class _SessionEntry:
    """One memoised configuration: its executor and resolved K.

    ``epoch`` is the health epoch the executor was planned under; the
    session rebuilds a stale entry (epoch moved = the machine lost a GPU
    or link since) before running it. ``node`` is the placement actually
    in use — the requested shape normally, the degraded fallback after a
    failover.
    """

    __slots__ = ("executor", "k_value", "proposal", "calls", "epoch", "node")

    def __init__(self, executor, k_value, proposal, epoch=0, node=None):
        self.executor = executor
        self.k_value = k_value
        self.proposal = proposal
        self.calls = 0
        self.epoch = epoch
        self.node = node


#: Bound on the call signatures one session keeps bound; a full map is
#: dropped and refilled by later calls.
_BINDING_CAP = 256


def _call_signature(data, operator, inclusive, proposal, W, V, M, K,
                    collect, include_distribution) -> tuple | None:
    """What decides a :meth:`ScanSession.scan` call's validation and plan.

    The input's exact type, shape and dtype (byte order included) and
    every argument with its exact type, so ``W=4`` and ``W=4.0`` (or
    ``True`` and ``1``) never share a decision. ``None`` for input that
    is not an ndarray: such calls are always decided afresh.
    """
    if not isinstance(data, np.ndarray):
        return None
    return (
        type(data), data.shape, data.dtype,
        type(operator), operator, type(inclusive), inclusive,
        type(proposal), proposal, type(W), W, type(V), V, type(M), M,
        type(K), K, type(collect), collect,
        type(include_distribution), include_distribution,
    )


class _Binding:
    """One call signature's decision: validated problem, placement, entry.

    ``problem``, ``node`` and ``proposal`` (``auto``'s sp/sp-dlb variant
    included) are what the signature's first call validated and resolved;
    ``entry`` is the executor entry it was served from, under the session
    key ``key``. The decision stands while ``entry`` is still the
    session's entry for ``key``, the health epoch is still ``epoch`` and
    the cost fingerprint is still ``fingerprint``.
    """

    __slots__ = ("problem", "node", "proposal", "key", "entry", "epoch",
                 "fingerprint", "gpus")

    def __init__(self, request: ScanRequest, entry: _SessionEntry,
                 epoch: int, fingerprint: str):
        self.problem = request.problem
        self.node = request.node
        self.proposal = request.proposal
        self.key = request.cache_key
        self.entry = entry
        self.epoch = epoch
        self.fingerprint = fingerprint
        #: The entry's placement, which :meth:`ScanSession._can_fail_over`
        #: checks.
        self.gpus = tuple(entry.executor.gpus)

    def request(self, data: np.ndarray, K, collect) -> ScanRequest:
        """The call's request: its input as a native ``(G, N)`` batch."""
        return ScanRequest(
            problem=self.problem, batch=native_rows(np.asarray(data)),
            node=self.node, proposal=self.proposal, K=K, collect=collect,
        )


def _check_k(K) -> None:
    """K is a (non-bool) int, ``None`` or ``"tune"``."""
    if K is None or (isinstance(K, str) and K == "tune"):
        return
    if isinstance(K, bool) or not isinstance(K, int):
        raise ConfigurationError(f"K must be an int, None or 'tune', got {K!r}")


class ScanSession:
    """A reusable scan service bound to one simulated machine.

    Parameters
    ----------
    topology:
        The machine to serve on. ``None`` uses the memoised default
        machine for ``M`` nodes (buffer pooling enabled).
    M:
        Node count of the default machine when ``topology`` is ``None``.
    pooling:
        ``True``/``False`` force buffer pooling on/off on the machine;
        ``None`` (default) leaves an explicit topology exactly as given.
    poison:
        Fill recycled buffers with the poison sentinel (debug mode; only
        meaningful when pooling is enabled here).
    autotune_cache:
        Optional persistent :class:`~repro.core.autotune_cache.AutotuneCache`
        so ``K="tune"`` survives process restarts. ``None`` consults
        ``REPRO_CACHE_DIR``: when set, the cache persists to
        ``$REPRO_CACHE_DIR/autotune.json``; otherwise it is in-memory.
    snapshot:
        Optional :class:`~repro.core.store.SessionSnapshot` (or a path to
        one) applied at construction — see :meth:`restore`. A snapshot
        whose schema, architecture or cost fingerprint does not match
        this machine is refused gracefully (``restore_info`` says why)
        and the session starts cold.

    Cache keys cover everything that decides a plan: ``(N, G, dtype,
    operator, inclusive)`` via :class:`ProblemConfig`, ``(W, V, M)`` via
    :class:`NodeConfig`, the resolved proposal and the K request. Anything
    that would change plans *behind* those keys — swapping the topology's
    engine, cost params or architecture in place — requires :meth:`reset`.
    Bound call signatures are re-decided by themselves when the health
    epoch or the cost fingerprint moves.
    """

    def __init__(
        self,
        topology: SystemTopology | None = None,
        M: int = 1,
        pooling: bool | None = None,
        poison: bool = False,
        autotune_cache: AutotuneCache | None = None,
        retry_policy: RetryPolicy | None = None,
        snapshot=None,
    ):
        self.topology = topology if topology is not None else default_topology(M)
        if pooling is True:
            self.topology.enable_buffer_pooling(poison=poison)
        elif pooling is False:
            self.topology.disable_buffer_pooling()
        if autotune_cache is None:
            autotune_cache = default_autotune_cache()
        self.tuner = CachedTuner(self.topology, cache=autotune_cache)
        #: Failure classification + retry/replanning state (pure
        #: bookkeeping until a retryable failure actually occurs).
        self.health = HealthTracker(self.topology, policy=retry_policy)
        self._entries: dict[tuple, _SessionEntry] = {}
        self._bindings: dict[tuple, _Binding] = {}
        self.hits = 0
        self.misses = 0
        self.calls = 0
        #: Streaming host-latency / simulated-time distributions of served
        #: calls. The histograms always exist (``stats()`` and session
        #: reports read them) but are only observed into while
        #: :func:`repro.obs.is_enabled` — the default-off path pays one
        #: boolean check per call.
        self.latency = Histogram("session.latency_s")
        self.sim_time = Histogram("session.sim_time_s")
        #: How the last :meth:`apply_snapshot` went (``None`` = never tried).
        self.restore_info: dict | None = None
        if snapshot is not None:
            self.apply_snapshot(snapshot)

    # ---------------------------------------------------- snapshot / restore

    def snapshot(self):
        """Freeze this session's warm state to a serialisable snapshot.

        Captures the resolved execution plans (the resolver entries for
        this machine's architecture, keyed by the PR-4 cost fingerprint),
        the tuned K / single-GPU-variant entries, the memoised session
        entries and the buffer pools' warm size-class hints. The snapshot
        is pure data — save it with
        :meth:`~repro.core.store.SessionSnapshot.save` and hand it to
        :meth:`restore` (or ``ScanService(snapshot=...)``) so a freshly
        spawned replica serves warm from request one.
        """
        from repro.core.store import build_session_snapshot

        return build_session_snapshot(self)

    def apply_snapshot(self, snapshot) -> dict:
        """Prime this session from a snapshot; returns ``restore_info``.

        Accepts a :class:`~repro.core.store.SessionSnapshot`, a payload
        dict, or a path to a snapshot file. Incompatibility (wrong schema
        version, different architecture, mismatched cost fingerprint) or
        an unreadable file never raises: the session simply stays cold
        and ``restore_info`` records the reason — restored state is an
        optimisation, not a correctness dependency.
        """
        from repro.core.store import (
            SessionSnapshot,
            node_from_dict,
            prime_resolver_plans,
            problem_from_dict,
        )
        from repro.core.autotune_cache import CacheEntry
        from repro.core.executor import ScanExecutor

        if isinstance(snapshot, (str, Path)):
            try:
                snapshot = SessionSnapshot.load(snapshot)
            except SnapshotError as exc:
                self.restore_info = {"compatible": False, "reason": str(exc)}
                return self.restore_info
        elif isinstance(snapshot, dict):
            try:
                snapshot = SessionSnapshot.from_payload(snapshot)
            except SnapshotError as exc:
                self.restore_info = {"compatible": False, "reason": str(exc)}
                return self.restore_info

        fingerprint = cost_fingerprint(self.topology)
        ok, reason = snapshot.compatible_with(self.topology.arch.name, fingerprint)
        if not ok:
            self.restore_info = {"compatible": False, "reason": reason}
            return self.restore_info

        plans = prime_resolver_plans(
            ScanExecutor.resolver, self.topology.arch, snapshot.plans,
            fingerprint,
        )

        restored: dict[str, CacheEntry] = {}
        for key, entry in snapshot.autotune.items():
            try:
                restored[key] = CacheEntry.from_dict(entry)
            except (KeyError, TypeError, ValueError):
                continue
        tuner_entries = self.tuner.cache.merge(restored)

        entries = 0
        skipped = 0
        for record in snapshot.entries:
            try:
                problem = problem_from_dict(record["problem"])
                node = node_from_dict(record["node"])
                entry_node = node_from_dict(record["entry_node"]) or node
                proposal = str(record["proposal"])
                k_request = record["k_request"]
                k_value = record["k_value"]
                executor = get_proposal(proposal).build(
                    self.topology, entry_node, k_value
                )
            except Exception:  # noqa: BLE001 - a stale entry means "re-plan"
                skipped += 1
                continue
            key = ScanRequest(
                problem=problem, node=node, proposal=proposal, K=k_request,
            ).cache_key
            if key in self._entries:
                continue
            self._entries[key] = _SessionEntry(
                executor, k_value, proposal,
                epoch=self.health.epoch, node=entry_node,
            )
            entries += 1

        pool_blocks = 0
        for record in snapshot.pools:
            try:
                gpu = self.topology.gpus[int(record["gpu"])]
            except (IndexError, KeyError, TypeError, ValueError):
                continue
            pool = getattr(gpu, "buffer_pool", None)
            if pool is None:
                continue
            for class_bytes, dtype_str, count in record.get("blocks", ()):
                pool_blocks += pool.preload(class_bytes, dtype_str, count)

        self.restore_info = {
            "compatible": True,
            "plans": plans,
            "tuner_entries": tuner_entries,
            "entries": entries,
            "skipped_entries": skipped,
            "pool_blocks": pool_blocks,
            "fingerprint": fingerprint,
        }
        if obs.is_enabled():
            obs.counter("session.snapshot.restores").inc()
        return self.restore_info

    @classmethod
    def restore(cls, snapshot, topology: SystemTopology | None = None,
                **kwargs) -> "ScanSession":
        """A session primed from ``snapshot`` — zero-warmup start.

        Equivalent to ``ScanSession(topology, snapshot=snapshot, ...)``:
        on a machine matching the snapshot's architecture and cost
        fingerprint, the first request replays the differential suite
        bit-identically with zero plan-resolver misses and zero tuner
        sweeps; on anything else the session starts cold (see
        ``restore_info``).
        """
        return cls(topology, snapshot=snapshot, **kwargs)

    # -------------------------------------------------------------- serving

    def scan(
        self,
        data: np.ndarray,
        proposal: str = "auto",
        W: int = 1,
        V: int | None = None,
        M: int = 1,
        operator="add",
        inclusive: bool = True,
        K: int | str | None = None,
        collect: bool = True,
        include_distribution: bool = False,
    ) -> ScanResult:
        """Scan a host batch, reusing every cached decision for its shape.

        Same contract as :func:`repro.core.api.scan` minus the
        ``topology`` argument (the session owns the machine). The first
        call of each call signature (input type, shape and dtype plus
        every argument, exact types included) is validated and resolved
        in full; later calls of that signature reuse the decision while
        it stands (see :class:`_Binding`).

        A standing decision on a placement that cannot fail over, with
        observability off, runs straight through its executor: there is
        no span to build and no attempt to record.
        """
        signature = _call_signature(
            data, operator, inclusive, proposal, W, V, M, K,
            collect, include_distribution,
        )
        binding = self._standing(signature)
        enabled = obs.is_enabled()
        if (binding is not None and not enabled
                and not self._can_fail_over(binding)):
            request = self._reuse(binding, data, K, collect, None)
            self._count_call(binding.entry)
            result = binding.entry.executor.execute(request)
            if include_distribution:
                self._distribute(result)
            return result
        t0 = time.perf_counter() if enabled else 0.0
        with obs.span("scan") as root:
            attempts: list[AttemptRecord] = []
            while True:
                try:
                    request, entry = self._plan(
                        signature, binding, data, proposal, W, V, M,
                        operator, inclusive, K, collect,
                    )
                    break
                except HealthTracker.RETRYABLE as exc:
                    # A fault can fire while deciding: auto's variant
                    # tuner ticks the fault schedule through its
                    # estimates. It fails over like one in execute, and
                    # the next decision is taken on the degraded machine.
                    v = V if V is not None else min(
                        W, self.topology.gpus_per_network)
                    self._record_attempt(attempts, exc, proposal, (W, v, M))
                    binding = None
            proposal = request.proposal
            self._count_call(entry)

            result = self._run_with_failover(entry, request, attempts)
            if include_distribution:
                self._distribute(result)
            root.set("proposal", proposal)
            root.set("N", request.problem.N)
            root.set("G", request.problem.G)
            root.annotate_trace(result.trace)
        if enabled:
            wall = time.perf_counter() - t0
            sim = result.total_time_s
            self.latency.observe(wall)
            self.sim_time.observe(sim)
            obs.counter("scan.calls", proposal=proposal).inc()
            obs.histogram("scan.latency_s", proposal=proposal).observe(wall)
            obs.histogram("scan.sim_time_s", proposal=proposal).observe(sim)
        return result

    def _plan(
        self, signature, binding: _Binding | None, data, proposal, W, V, M,
        operator, inclusive, K, collect,
    ) -> tuple[ScanRequest, _SessionEntry]:
        """The request and entry of one call: ``binding`` (the standing
        decision of ``signature``, if any) or a fresh one, then bound."""
        with obs.span("plan") as plan_span:
            if binding is not None:
                request = self._reuse(binding, data, K, collect, plan_span)
            else:
                request, binding = self._decide(
                    data, proposal, W, V, M, operator, inclusive, K,
                    collect, plan_span,
                )
                self._bind(signature, binding)
            plan_span.set("proposal", request.proposal)
        return request, binding.entry

    def _decide(
        self, data, proposal, W, V, M, operator, inclusive, K, collect,
        plan_span,
    ) -> tuple[ScanRequest, _Binding]:
        """Validate and resolve one call in full: its request and binding.

        The epoch and cost fingerprint are read before anything is
        decided, so a change mid-decision can only invalidate the binding.
        """
        epoch = self.health.epoch
        fingerprint = cost_fingerprint(self.topology)
        batch = coerce_batch(data)
        problem = ProblemConfig.for_batch(batch, operator, inclusive)
        node, proposal = self._resolve(problem, proposal, W, V, M, K)
        request = ScanRequest(
            problem=problem, batch=batch, node=node,
            proposal=proposal, K=K, collect=collect,
        )
        entry = self._entry_for(request, plan_span)
        return request, _Binding(request, entry, epoch, fingerprint)

    def _resolve(
        self, problem: ProblemConfig, proposal: str, W: int, V: int | None,
        M: int, K,
    ) -> tuple[NodeConfig, str]:
        """The node and concrete proposal of one call; checks ``K``.

        ``auto`` resolves through Premise 4, and single-GPU problems then
        pick the winning algorithm (three-kernel vs decoupled lookback)
        from the memoised crossover — transparently, so callers and the
        service get sp-dlb at large N for free. With no healthy GPU left
        there is nothing to estimate the crossover on: ``auto`` stays
        ``sp``, whose placement then fails over like an explicit one.
        """
        from repro.core.api import recommend_proposal

        if V is None:
            V = min(W, self.topology.gpus_per_network)
        node = NodeConfig.from_counts(W=W, V=V, M=M)
        if proposal == "auto":
            proposal = recommend_proposal(self.topology, node, problem)
            if proposal == "sp" and self.topology.healthy_gpus():
                proposal = self.tuner.best_single_gpu_variant(problem)
        _check_k(K)
        return node, proposal

    def _reuse(self, binding: _Binding, data, K, collect,
               plan_span) -> ScanRequest:
        """The request of a call that reuses ``binding``: a cache hit."""
        self._count_hit(plan_span)
        return binding.request(data, K, collect)

    def _count_call(self, entry: _SessionEntry) -> None:
        entry.calls += 1
        self.calls += 1

    def _distribute(self, result: ScanResult) -> None:
        from repro.core.api import add_distribution_records

        with obs.span("distribute"):
            add_distribution_records(result, self.topology)

    def _standing(self, signature) -> _Binding | None:
        """The decision bound to ``signature``, if one stands."""
        try:
            binding = self._bindings.get(signature)
        except TypeError:  # an unhashable argument: decide afresh
            return None
        if binding is not None and self._stands(binding):
            return binding
        return None

    def _bind(self, signature, binding: _Binding) -> None:
        if signature is None:
            return
        try:
            hash(signature)
        except TypeError:  # an unhashable argument: never bound
            return
        if len(self._bindings) >= _BINDING_CAP:
            self._bindings.clear()
        self._bindings[signature] = binding

    def _stands(self, binding: _Binding) -> bool:
        """Whether a bound decision still holds (see :class:`_Binding`)."""
        return (
            binding.epoch == self.health.epoch
            and self._entries.get(binding.key) is binding.entry
            and binding.fingerprint == cost_fingerprint(self.topology)
        )

    def _can_fail_over(self, binding: _Binding) -> bool:
        """Whether a call on ``binding``'s placement could fail over: the
        machine tracks health or has a fault schedule, or one of the
        placement's GPUs is offline or has one."""
        topology = self.topology
        if topology.health is not None or topology.fault_schedule is not None:
            return True
        for gpu in binding.gpus:
            if gpu.offline or gpu.fault_schedule is not None:
                return True
        return False

    def estimate(
        self,
        problem: ProblemConfig,
        proposal: str = "auto",
        W: int = 1,
        V: int | None = None,
        M: int = 1,
        K: int | str | None = None,
    ) -> ScanResult:
        """Analytic serving: the memoised executor run with virtual arrays.

        Same contract and caching as :meth:`scan`, but the batch never
        exists — the executor replays the identical pipeline with virtual
        buffers and closed-form kernel statistics, so the returned trace
        and timing match a functional run exactly (at any scale, including
        the paper's 2^28-element problems).
        """
        require_scannable(problem.dtype, problem.operator)
        with obs.span("estimate") as root:
            with obs.span("plan") as plan_span:
                node, proposal = self._resolve(problem, proposal, W, V, M, K)
                request = ScanRequest.analytic(
                    problem, node=node, proposal=proposal, K=K
                )
                entry = self._entry_for(request, plan_span)
                plan_span.set("proposal", proposal)
            self._count_call(entry)
            with obs.span("execute", proposal=proposal) as exec_span:
                result = entry.executor.estimate(problem)
                exec_span.annotate_trace(result.trace)
            root.set("proposal", proposal)
            root.set("N", problem.N)
            root.set("G", problem.G)
            root.annotate_trace(result.trace)
        return result

    # ------------------------------------------------------------- failover

    def _run_with_failover(
        self, entry: _SessionEntry, request: ScanRequest,
        attempts: list[AttemptRecord],
    ) -> ScanResult:
        """Run the entry's executor, retrying on availability failures.

        The healthy path is one straight-through ``executor.execute`` of
        the validated ``request`` — no extra records, no extra simulated
        time. On a :class:`~repro.errors.DeviceLostError` /
        :class:`~repro.errors.LinkDownError` the failed resource is
        quarantined, a backoff is charged (exponential, simulated
        seconds), and the request is *replanned* on the degraded machine
        via :func:`repro.core.health.degraded_candidates`; attempts are
        bounded by the session's :class:`~repro.core.health.RetryPolicy`
        and exhaustion raises
        :class:`~repro.errors.FailoverExhaustedError` carrying the
        attempt trace. ``attempts`` holds the attempts that already
        failed while the call was being decided.
        """
        while True:
            try:
                with obs.span("execute", proposal=entry.proposal) as exec_span:
                    result = entry.executor.execute(request)
                    exec_span.annotate_trace(result.trace)
                break
            except HealthTracker.RETRYABLE as exc:
                node = entry.node or request.node
                self._record_attempt(attempts, exc, entry.proposal,
                                     (node.W, node.V, node.M))
                with obs.span("failover", proposal=entry.proposal,
                              attempt=len(attempts), error=type(exc).__name__):
                    entry = self._degraded_entry(request, attempts)
        if attempts:
            # Success after failover: charge the accumulated backoff into
            # the trace so end-to-end simulated latency includes the
            # waiting, and stamp the result with what happened.
            backoff_total = sum(a.backoff_s for a in attempts)
            result.trace.prepend([TransferRecord(
                phase="failover",
                lane="health",
                time_s=backoff_total,
                src_gpu=-1,
                dst_gpu=-1,
                nbytes=0,
                kind="backoff",
                messages=len(attempts),
            )])
            result.config["failover"] = {
                "attempts": len(attempts) + 1,
                "backoff_s": backoff_total,
                "degraded_node": (entry.node.W, entry.node.V, entry.node.M),
                "errors": [f"{a.error_type}: {a.error}" for a in attempts],
            }
            self.health.failovers += 1
            if obs.is_enabled():
                obs.counter("scan.failovers", proposal=entry.proposal).inc()
        if obs.is_enabled():
            obs.histogram("scan.attempts").observe(len(attempts) + 1)
        return result

    def _record_attempt(self, attempts: list[AttemptRecord],
                        exc: BaseException, proposal: str, node) -> None:
        """Quarantine what ``exc`` blames and log one failed attempt.

        Raises :class:`~repro.errors.FailoverExhaustedError` once the
        retry policy's attempts are spent.
        """
        policy = self.health.policy
        attempt_no = len(attempts) + 1
        kind = self.health.record_failure(exc)
        attempts.append(AttemptRecord(
            attempt=attempt_no,
            proposal=proposal,
            node=node,
            error_type=type(exc).__name__,
            error=str(exc),
            backoff_s=policy.backoff_s(attempt_no),
        ))
        self.health.last_attempts = list(attempts)
        if obs.is_enabled():
            obs.counter("scan.retries", proposal=proposal, kind=kind).inc()
        if attempt_no >= policy.max_attempts:
            if obs.is_enabled():
                obs.histogram("scan.attempts").observe(attempt_no)
            error = FailoverExhaustedError(
                f"scan failed after {attempt_no} attempts "
                f"(last: {exc})", attempts,
            )
            self._flight_dump(error)
            raise error from exc

    def _degraded_entry(
        self, request: ScanRequest, attempts: list[AttemptRecord]
    ) -> _SessionEntry:
        """Replan a failed request on the surviving machine.

        Walks the degraded candidate shapes (same shape on different
        GPUs first, then smaller V / W / M) and caches the first one
        whose placement builds, *replacing* the stale entry under the
        original cache key — later calls for this request serve from the
        degraded plan without re-entering the failover path. The resolved
        K is dropped (``None`` = premise default): a depth tuned for the
        old width does not transfer, and re-tuning mid-failover would
        multiply the outage.
        """
        spec = get_proposal(request.proposal)
        for node in degraded_candidates(self.topology, request.node):
            try:
                executor = spec.build(self.topology, node, None)
            except (TopologyError, ConfigurationError):
                continue
            entry = _SessionEntry(
                executor, None, request.proposal,
                epoch=self.health.epoch, node=node,
            )
            self._entries[request.cache_key] = entry
            return entry
        error = FailoverExhaustedError(
            f"no degraded placement left for {request.proposal} "
            f"(W={request.node.W}, V={request.node.V}, M={request.node.M}) "
            f"on {len(self.topology.healthy_gpus())} healthy GPUs", attempts,
        )
        self._flight_dump(error)
        raise error

    def _flight_dump(self, error: FailoverExhaustedError) -> None:
        """Leave a postmortem bundle behind when failover gives up.

        No-op unless the flight recorder is armed (``REPRO_FLIGHT_DIR``
        or :func:`repro.obs.flight.arm`); the error still raises either
        way — the bundle is a side artifact, never control flow.
        """
        if not flight.is_armed():
            return
        flight.note("failover_exhausted", error=str(error),
                    attempts=len(error.attempts))
        flight.dump_postmortem(
            error,
            registry=obs.registry(),
            health=self.health.snapshot(),
        )

    # ----------------------------------------------------------- internals

    def _entry_for(self, request: ScanRequest, plan_span=None) -> _SessionEntry:
        """The memoised executor entry for a validated request.

        Keyed by :attr:`ScanRequest.cache_key`; a miss resolves K and
        builds the executor through the proposal registry. A hit whose
        health epoch is stale (the machine degraded since it was planned)
        is rebuilt as if it were a miss.
        """
        spec = get_proposal(request.proposal)
        entry = self._entries.get(request.cache_key)
        if entry is not None and entry.epoch != self.health.epoch:
            entry = None
        if entry is None:
            self.misses += 1
            obs.counter("session.plan_cache.misses").inc()
            k_value = self._resolve_k(request, spec)
            try:
                executor = spec.build(self.topology, request.node, k_value)
            except (TopologyError, ConfigurationError):
                # The requested shape no longer fits the (degraded)
                # machine; plan straight onto the survivors.
                if self.topology.health is None:
                    raise
                return self._degraded_entry(request, [])
            entry = _SessionEntry(
                executor, k_value, request.proposal,
                epoch=self.health.epoch, node=request.node,
            )
            self._entries[request.cache_key] = entry
            if plan_span is not None:
                plan_span.set("cache", "miss")
        else:
            self._count_hit(plan_span)
        return entry

    def _count_hit(self, plan_span) -> None:
        self.hits += 1
        obs.counter("session.plan_cache.hits").inc()
        if plan_span is not None:
            plan_span.set("cache", "hit")

    def _resolve_k(self, request: ScanRequest, spec) -> int | None:
        """Turn the K request into a concrete cascade depth (or None).

        ``"tune"`` sweeps the premise search space through the session's
        :class:`CachedTuner`, so the sweep is paid once per configuration
        (the cost model is data-independent, hence the winner is too).
        """
        if request.K != "tune":
            return request.K
        if not spec.tunable:
            # Problem parallelism tunes per-GPU sub-batches; the chained
            # scan pins K at the bottom of the space by design.
            return None
        return self._tuned_k(request.problem, request.proposal, request.node,
                             request.batch)

    def _tuned_k(self, problem: ProblemConfig, proposal: str, node: NodeConfig,
                 data=None) -> int:
        """The tuner's K for ``proposal`` placed on ``node``: swept over
        ``data`` when given, estimated otherwise. ``sp`` sweeps on the
        first healthy GPU, so its placement is not part of the decision."""
        return self.tuner.best_k(
            problem, proposal=proposal,
            node=None if proposal == "sp" else node, data=data,
        )

    # -------------------------------------------------------------- service

    def service(self, **kwargs):
        """A request-coalescing front door over this session.

        Returns a :class:`repro.serve.ScanService` dispatching through
        this session (same machine, plan cache, failover and metrics);
        keyword arguments are the service knobs (``max_batch``,
        ``max_wait_s``, ``max_queue``, placement overrides).
        """
        from repro.serve.service import ScanService

        return ScanService(session=self, **kwargs)

    # -------------------------------------------------------- introspection

    def reset(self) -> None:
        """Drop every cached executor/plan/K, bound call and hit counter.

        Required after mutating the machine in place (engine mode, cost
        parameters); cached plans would otherwise describe the old one.
        """
        self._entries.clear()
        self._bindings.clear()
        self.hits = 0
        self.misses = 0
        self.calls = 0
        self.latency = Histogram("session.latency_s")
        self.sim_time = Histogram("session.sim_time_s")

    @property
    def cached_configurations(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        """Counter snapshot: session cache, latency percentiles, buffer pools.

        The ``latency``/``sim_time`` summaries (count, p50/p95/p99, mean)
        only accumulate while observability is on (``repro.obs.enable()``
        or ``REPRO_OBS=1``); they report zero counts otherwise.
        """
        from repro.gpusim.metrics import buffer_pool_stats

        return {
            "calls": self.calls,
            "hits": self.hits,
            "misses": self.misses,
            "cached_configurations": len(self._entries),
            "tuner_hits": self.tuner.cache.hits,
            "tuner_misses": self.tuner.cache.misses,
            "latency": self.latency.summary(),
            "sim_time": self.sim_time.summary(),
            "buffer_pools": buffer_pool_stats(self.topology),
        }

    def report(self):
        """The condensed serving report (:class:`repro.obs.SessionReport`)."""
        from repro.obs.report import session_report

        return session_report(self)


def session_for(topology: SystemTopology) -> ScanSession:
    """The session serving an explicit machine (created on first use).

    Stored on the topology object itself, so the session (and its cached
    plans) lives exactly as long as the machine and the whole group is
    garbage-collectable together — no global registry pinning machines.
    """
    session = getattr(topology, "_scan_session", None)
    if session is None:
        session = ScanSession(topology)
        topology._scan_session = session
    return session


def default_session(M: int = 1) -> ScanSession:
    """The module-level session behind topology-less :func:`scan` calls."""
    return session_for(default_topology(M))
