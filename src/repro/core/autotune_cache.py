"""Persistent autotuning cache for the empirical K sweeps.

Real autotuned libraries (FFTW's wisdom, cuDNN's heuristics cache,
clBLAS's kernel DBs) persist tuning outcomes keyed by the problem and the
machine; the paper's strategy — "all K values from the corresponding
search space are empirically tested" per (W, V, M, N, G) point — begs for
the same. The cache is a small JSON file keyed by everything that affects
the winner: architecture, dtype, proposal, (N, G) and (W, V, M), plus the
machine's cost fingerprint. The operator and the output kind are not in
the key: the cost model prices every operator and both kinds identically,
so one sweep serves them all.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.gpusim.arch import GPUArchitecture
from repro.interconnect.topology import SystemTopology
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.store import PlanStore, default_autotune_path
from repro.core.tuner import PremiseTuner, TuningOutcome, VariantOutcome
from repro.util.logging import get_logger

_log = get_logger("core.autotune_cache")

#: Pseudo-proposal under which the single-GPU algorithm choice (three-kernel
#: ``sp`` vs decoupled-lookback ``sp-dlb``) is memoised. A distinct key
#: space from the per-proposal K sweeps: the variant decision is *which*
#: algorithm, not which K.
VARIANT_PSEUDO_PROPOSAL = "sp-variant"

#: The algorithms the single-GPU variant choice may resolve to.
SINGLE_GPU_VARIANTS = ("sp", "sp-dlb")


def cost_fingerprint(topology: SystemTopology) -> str:
    """A short digest of everything the cost model prices a K sweep with.

    Covers the kernel cost-model parameters, the machine's transfer cost
    parameters (engine defaults when no override is installed) and the
    current availability state. Two machines with identical (W, V, M) but
    different interconnect pricing — or one of them degraded — therefore
    get distinct autotune keys instead of silently sharing a stale best-K.

    The digest is kept on the topology (``fingerprint_memo``) and reused
    while the cost params and transfer params are the same (frozen)
    objects and the health snapshot is unchanged.
    """
    cost = topology.gpus[0].cost_model.params
    transfer = topology.transfer_params
    health = topology.health.snapshot() if topology.health is not None else ()
    memo = topology.fingerprint_memo
    if (memo is not None and memo[0] is cost and memo[1] is transfer
            and memo[2] == health):
        return memo[3]
    from repro.interconnect.transfer import TransferCostParams

    blob = repr((
        sorted(asdict(cost).items()),
        sorted(asdict(transfer or TransferCostParams()).items()),
        health,
    ))
    digest = hashlib.sha1(blob.encode()).hexdigest()[:12]
    topology.fingerprint_memo = (cost, transfer, health, digest)
    return digest


def cache_key(
    arch: GPUArchitecture,
    problem: ProblemConfig,
    proposal: str,
    node: NodeConfig | None,
    fingerprint: str = "",
) -> str:
    """A stable string key capturing everything that decides the best K.

    ``arch|dtype|proposal|n<n>g<g>|W<W>V<V>M<M>``, then ``|fingerprint``
    when given: the architecture, dtype, proposal, (N, G) and (W, V, M) of
    the module docstring. ``fingerprint`` is the :func:`cost_fingerprint`
    of the machine the sweep priced against; without it, two topologies
    with identical shapes but different transfer/cost constants would
    collide. The problem's operator and output kind are left out, as the
    winner does not depend on them.
    """
    node_part = (
        f"W{node.W}V{node.V}M{node.M}" if node is not None else "W1V1M1"
    )
    parts = [
        arch.name,
        str(np.dtype(problem.dtype)),
        proposal,
        f"n{problem.n}g{problem.g}",
        node_part,
    ]
    if fingerprint:
        parts.append(fingerprint)
    return "|".join(parts)


_SIZES = re.compile(r"n\d+g\d+")


def operator_free_key(key: str) -> str:
    """``key`` in the :func:`cache_key` format.

    Keys written before the operator left the key read
    ``arch|dtype|operator|proposal|n<n>g<g>|...``: their operator segment
    is dropped. Any other key is returned as is.
    """
    parts = key.split("|")
    if len(parts) > 4 and _SIZES.fullmatch(parts[4]):
        del parts[2]
        return "|".join(parts)
    return key


@dataclass
class CacheEntry:
    best_k: int
    best_time_s: float
    candidates: int
    #: Winning algorithm for variant-selection entries (empty for K sweeps).
    variant: str = ""

    @classmethod
    def from_dict(cls, record) -> "CacheEntry":
        """An entry from its persisted dict (a cache file or a snapshot).

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` on a
        malformed record; callers skip it.
        """
        return cls(
            best_k=int(record["best_k"]),
            best_time_s=float(record["best_time_s"]),
            candidates=int(record["candidates"]),
            variant=str(record.get("variant", "")),
        )

    def to_dict(self) -> dict:
        """The persisted record (:meth:`from_dict` reads it back)."""
        return {
            "best_k": self.best_k,
            "best_time_s": self.best_time_s,
            "candidates": self.candidates,
            "variant": self.variant,
        }


def _parse_section(section: dict) -> dict[str, CacheEntry]:
    """A persisted ``autotune`` section as entries under current keys.

    A malformed record is skipped with a warning: one mangled record is
    stale tuning state, not a reason to drop the rest of the wisdom.
    """
    entries: dict[str, CacheEntry] = {}
    for key, record in section.items():
        try:
            entry = CacheEntry.from_dict(record)
        except (KeyError, TypeError, ValueError):
            _log.warning("skipping malformed autotune entry %r", key)
            continue
        entries.setdefault(operator_free_key(key), entry)
    return entries


class AutotuneCache:
    """Store-backed memo of tuning outcomes.

    The cache never *replaces* the premise bounds — a hit is validated
    against the current search space, so stale entries (e.g. after a
    premise change) fall back to a fresh sweep.

    Persistence sits on a :class:`~repro.core.store.PlanStore` (the
    ``autotune`` section), which supplies the durability contract: atomic
    tmp+rename saves, schema-version checks, and quarantine of corrupt
    files to ``<path>.corrupt`` — a damaged cache logs a warning and the
    session starts fresh instead of crashing. Pass ``store`` to share one
    backend with other persistence clients (resolved plans live in the
    same file's ``plans`` section).
    """

    SECTION = "autotune"

    def __init__(self, path: str | Path | None = None,
                 store: PlanStore | None = None):
        self.store = store if store is not None else PlanStore(path)
        self.path = self.store.path
        self.hits = 0
        self.misses = 0
        if self.store.quarantined_reason:
            _log.warning(
                "autotune cache %s was corrupt (%s); quarantined and "
                "starting fresh", self.path, self.store.quarantined_reason,
            )
        self._entries = _parse_section(self.store.section(self.SECTION))

    def save(self) -> None:
        """Persist through the plan store (atomic; no-op when memory-only).

        Other caches may save to the same file (every session under
        ``REPRO_CACHE_DIR`` has its own), so the section on disk is merged
        in first (read as a load reads it) and this cache's entries win
        for their own keys.
        """
        entries = _parse_section(PlanStore(self.path).section(self.SECTION))
        entries.update(self._entries)
        self.store.sections[self.SECTION] = {
            key: entry.to_dict() for key, entry in entries.items()
        }
        self.store.save()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> CacheEntry | None:
        return self._entries.get(key)

    def entries(self) -> dict[str, CacheEntry]:
        """The live entry mapping (snapshot/restore reads it verbatim)."""
        return self._entries

    def merge(self, entries: dict[str, CacheEntry]) -> int:
        """Adopt entries (e.g. from a snapshot) without clobbering newer ones.

        Keys of the earlier format are mapped by :func:`operator_free_key`.
        """
        added = 0
        for key, entry in entries.items():
            key = operator_free_key(key)
            if key not in self._entries:
                self._entries[key] = entry
                added += 1
        return added

    def put(self, key: str, outcome: TuningOutcome) -> None:
        self._entries[key] = CacheEntry(
            best_k=outcome.best_k,
            best_time_s=outcome.best.time_s,
            candidates=len(outcome.candidates),
        )

    def put_variant(self, key: str, outcome: VariantOutcome) -> None:
        """Memoise a single-GPU algorithm choice (``best_k`` is meaningless)."""
        self._entries[key] = CacheEntry(
            best_k=0,
            best_time_s=outcome.best.time_s,
            candidates=len(outcome.candidates),
            variant=outcome.best_proposal,
        )


def default_autotune_cache() -> AutotuneCache | None:
    """The environment-selected persistent cache, or ``None`` (in-memory).

    When ``REPRO_CACHE_DIR`` is set, sessions without an explicit cache
    persist their tuning wisdom to ``$REPRO_CACHE_DIR/autotune.json`` —
    one variable turns on persistence for the session, the service and
    the CLI alike. Unset, behaviour is unchanged: purely in-memory.
    """
    if os.environ.get("REPRO_CACHE_DIR"):
        return AutotuneCache(default_autotune_path())
    return None


class CachedTuner:
    """A :class:`PremiseTuner` front-end that memoises best-K per config."""

    def __init__(self, topology: SystemTopology, cache: AutotuneCache | None = None):
        self.topology = topology
        self.tuner = PremiseTuner(topology)
        # `is None` check, not truthiness: an empty cache has len() == 0
        # and must still be used (it carries the persistence path).
        self.cache = cache if cache is not None else AutotuneCache()

    def best_k(
        self,
        problem: ProblemConfig,
        proposal: str = "sp",
        node: NodeConfig | None = None,
        data: np.ndarray | None = None,
    ) -> int:
        """The tuned K for a configuration, from cache when valid.

        A cached K outside the *current* premise search space is treated
        as stale and re-tuned (the premises may have changed since the
        cache was written). A sweep runs ``data`` when given and
        estimates ``problem`` otherwise (:meth:`PremiseTuner.sweep`).
        """
        key = cache_key(
            self.topology.arch, problem, proposal, node,
            fingerprint=cost_fingerprint(self.topology),
        )
        # mn-mps sweeps the mps search space (Premise 4 bounds scattering
        # over all M*W GPUs either way).
        space_proposal = "mps" if proposal == "mn-mps" else proposal
        space = self.tuner.search_space(problem, space_proposal, node)
        hit = self.cache.get(key)
        if hit is not None and hit.best_k in space:
            self.cache.hits += 1
            return hit.best_k
        self.cache.misses += 1
        outcome = self.tuner.sweep(proposal, problem, node, data)
        self.cache.put(key, outcome)
        self.cache.save()
        return outcome.best_k

    def best_single_gpu_variant(self, problem: ProblemConfig) -> str:
        """The winning single-GPU algorithm (``sp`` or ``sp-dlb``), memoised.

        Keyed like the K sweeps — architecture, problem geometry, cost
        fingerprint — under the :data:`VARIANT_PSEUDO_PROPOSAL` name, so a
        repriced cost model, changed transfer constants or a health change
        (a GPU marked offline) invalidates the cached choice exactly as it
        invalidates a cached K. A cached variant outside
        :data:`SINGLE_GPU_VARIANTS` is stale (e.g. a renamed proposal) and
        re-tuned.
        """
        key = cache_key(
            self.topology.arch, problem, VARIANT_PSEUDO_PROPOSAL, None,
            fingerprint=cost_fingerprint(self.topology),
        )
        hit = self.cache.get(key)
        if hit is not None and hit.variant in SINGLE_GPU_VARIANTS:
            self.cache.hits += 1
            return hit.variant
        self.cache.misses += 1
        outcome = self.tuner.tune_single_gpu_variant(problem)
        self.cache.put_variant(key, outcome)
        self.cache.save()
        return outcome.best_proposal
