"""Persistent planning state: versioned stores, plan codecs, session snapshots.

The paper's tuning strategy is empirical — every K of the premise search
space is swept per (W, V, M, N, G) point — and the serving layer memoises
the outcome (plans, tuned K, the sp/sp-dlb variant choice) for a 3-4x warm
speedup. All of that used to die with the process. This module makes the
tuned state a first-class, durable artifact, FFTW-wisdom style:

- **Codecs** turn every planning value object (:class:`ProblemConfig`,
  :class:`NodeConfig`, :class:`KernelParams`, :class:`ExecutionPlan`,
  :class:`PlanSpec`) into plain JSON dicts and back. Round-tripping
  reconstructs objects *equal* to the originals, so a restored
  :class:`~repro.core.executor.PlanResolver` key hits exactly where the
  original would.
- :class:`PlanStore` is the shared file backend: one versioned JSON
  document with named sections (``autotune`` for the K/variant memo,
  ``plans`` for resolved execution plans). Writes are atomic
  (tmp + rename); unreadable or wrong-schema files are **quarantined** to
  ``<path>.corrupt`` and the store starts fresh — a damaged cache must
  never take a session down.
- :class:`SessionSnapshot` captures a warm :class:`ScanSession` — resolved
  plans, tuned K entries, single-GPU variant choices, memoised session
  entries and buffer-pool warm hints — keyed by the architecture and the
  PR-4 **cost fingerprint**. Restoring onto a matching machine yields a
  session that serves warm from request one with bit-identical traces;
  a schema or fingerprint mismatch falls back to cold planning instead of
  serving a stale plan.

Default locations honor the single ``REPRO_CACHE_DIR`` environment
variable across the session, the service and the CLI.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import SnapshotError
from repro.util.logging import get_logger

_log = get_logger("core.store")

#: Version of the persisted JSON schema. Any structural change to the
#: store document or the snapshot payload must bump this; readers treat a
#: mismatched version as incompatible (quarantine for stores, cold
#: fallback for snapshots) rather than guessing.
SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "PlanStore",
    "SessionSnapshot",
    "cache_dir",
    "default_autotune_path",
    "default_snapshot_path",
    "plan_key",
    "plan_spec_to_dict",
    "plan_spec_from_dict",
    "execution_plan_to_dict",
    "execution_plan_from_dict",
    "spawn_replica_session",
]


# ------------------------------------------------------------------ locations


def cache_dir() -> Path:
    """The directory persistent planning state defaults to.

    ``REPRO_CACHE_DIR`` wins when set (the session, the service and the
    CLI all resolve through here, so one variable moves everything);
    otherwise ``~/.cache/repro``. The directory is *not* created — only
    writers create it, so read-only consumers never touch the filesystem.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def default_autotune_path() -> Path:
    """Where the autotune cache persists by default (under :func:`cache_dir`)."""
    return cache_dir() / "autotune.json"


def default_snapshot_path() -> Path:
    """Where session snapshots go by default (under :func:`cache_dir`)."""
    return cache_dir() / "snapshot.json"


# -------------------------------------------------------------------- codecs
#
# Every codec pair round-trips to an object *equal* to the original (the
# planning dataclasses are frozen with value equality), which is what lets
# a primed PlanResolver hit on restored keys. Operators serialise by name
# (resolve_operator returns the canonical singleton), dtypes by numpy name.


def problem_to_dict(problem) -> dict:
    return {
        "n": problem.n,
        "g": problem.g,
        "dtype": problem.dtype.name,
        "operator": problem.operator.name,
        "inclusive": bool(problem.inclusive),
    }


def problem_from_dict(d: dict):
    from repro.core.params import ProblemConfig

    return ProblemConfig(
        n=int(d["n"]),
        g=int(d["g"]),
        dtype=np.dtype(str(d["dtype"])),
        operator=str(d["operator"]),
        inclusive=bool(d["inclusive"]),
    )


def node_to_dict(node) -> dict | None:
    if node is None:
        return None
    return {"w": node.w, "v": node.v, "m": node.m}


def node_from_dict(d: dict | None):
    from repro.core.params import NodeConfig

    if d is None:
        return None
    return NodeConfig(w=int(d["w"]), v=int(d["v"]), m=int(d["m"]))


def kernel_params_to_dict(params) -> dict:
    return {
        "s": params.s,
        "p": params.p,
        "l": params.l,
        "lx": params.lx,
        "ly": params.ly,
        "K": params.K,
        "use_shuffle": bool(params.use_shuffle),
    }


def kernel_params_from_dict(d: dict):
    from repro.core.params import KernelParams

    return KernelParams(
        s=int(d["s"]),
        p=int(d["p"]),
        l=int(d["l"]),
        lx=int(d["lx"]),
        ly=int(d["ly"]),
        K=int(d["K"]),
        use_shuffle=bool(d.get("use_shuffle", True)),
    )


def _stage_to_dict(stage) -> dict:
    return {"params": kernel_params_to_dict(stage.params),
            "bx": stage.bx, "by": stage.by}


def _stage_from_dict(d: dict):
    from repro.core.params import StagePlan

    return StagePlan(params=kernel_params_from_dict(d["params"]),
                     bx=int(d["bx"]), by=int(d["by"]))


def execution_plan_to_dict(plan) -> dict:
    """Serialise an :class:`~repro.core.params.ExecutionPlan` to plain JSON."""
    return {
        "problem": problem_to_dict(plan.problem),
        "stage1": _stage_to_dict(plan.stage1),
        "stage2": _stage_to_dict(plan.stage2),
        "stage3": _stage_to_dict(plan.stage3),
        "n_local": plan.n_local,
        "chunks_total": plan.chunks_total,
        "gpus_sharing_problem": plan.gpus_sharing_problem,
    }


def execution_plan_from_dict(d: dict):
    """Rebuild an :class:`~repro.core.params.ExecutionPlan`.

    The dataclass ``__post_init__`` re-validates every Section-3.1
    invariant, so a tampered or bit-rotted record raises instead of
    producing a silently wrong plan.
    """
    from repro.core.params import ExecutionPlan

    return ExecutionPlan(
        problem=problem_from_dict(d["problem"]),
        stage1=_stage_from_dict(d["stage1"]),
        stage2=_stage_from_dict(d["stage2"]),
        stage3=_stage_from_dict(d["stage3"]),
        n_local=int(d["n_local"]),
        chunks_total=int(d["chunks_total"]),
        gpus_sharing_problem=int(d["gpus_sharing_problem"]),
    )


def plan_spec_to_dict(spec) -> dict:
    """Serialise a :class:`~repro.core.executor.PlanSpec` to plain JSON."""
    return {
        "problem": problem_to_dict(spec.problem),
        "parts": spec.parts,
        "g_local": spec.g_local,
        "K": spec.K,
        "template": (kernel_params_to_dict(spec.template)
                     if spec.template is not None else None),
        "k_space": spec.k_space,
        "node": node_to_dict(spec.node),
        "k_pick": spec.k_pick,
        "clamp_chunks": bool(spec.clamp_chunks),
    }


def plan_spec_from_dict(d: dict):
    """Rebuild a :class:`~repro.core.executor.PlanSpec` equal to the original."""
    from repro.core.executor import PlanSpec

    return PlanSpec(
        problem=problem_from_dict(d["problem"]),
        parts=int(d["parts"]),
        g_local=None if d["g_local"] is None else int(d["g_local"]),
        K=None if d["K"] is None else int(d["K"]),
        template=(kernel_params_from_dict(d["template"])
                  if d["template"] is not None else None),
        k_space=str(d["k_space"]),
        node=node_from_dict(d["node"]),
        k_pick=str(d["k_pick"]),
        clamp_chunks=bool(d["clamp_chunks"]),
    )


def plan_key(arch_name: str, spec_dict: dict, fingerprint: str) -> str:
    """The stable string key one persisted plan files under.

    Follows the autotune ``cache_key`` convention: everything that decides
    the value is in the key, including the PR-4 **cost fingerprint** —
    two machines with identical shapes but different pricing (or one of
    them degraded) never share a persisted plan.
    """
    import hashlib

    blob = json.dumps(spec_dict, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha1(blob.encode()).hexdigest()[:16]
    return f"{arch_name}|{digest}|{fingerprint}"


# ----------------------------------------------------------------- atomic io


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON via tmp + rename (never a torn file).

    A crash mid-write leaves either the old file or the complete new one;
    readers can therefore treat any parse failure as corruption rather
    than a benign race.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, path)


def _quarantine(path: Path, reason: str) -> None:
    """Move a damaged store/snapshot aside and log it; never raise."""
    quarantined = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, quarantined)
    except OSError:  # pragma: no cover - racing deletion; nothing to save
        return
    _log.warning("quarantined %s to %s (%s); starting fresh",
                 path, quarantined.name, reason)


# -------------------------------------------------------------------- store


class PlanStore:
    """Versioned, sectioned JSON document backing every persistence client.

    One store file carries named sections — ``autotune`` (the
    K-sweep/variant memo of :class:`~repro.core.autotune_cache.AutotuneCache`)
    and ``plans`` (serialised :class:`~repro.core.executor.PlanResolver`
    entries) — so the tuner and the resolver share one durable backend.

    Robustness contract:

    - :meth:`save` is atomic (tmp + rename);
    - an unparseable file, a non-document payload or a mismatched
      ``schema`` version is quarantined to ``<path>.corrupt`` with a
      warning and the store starts fresh (the quarantined file is kept
      for inspection, never silently destroyed);
    - a legacy flat autotune file (the pre-store format: a bare
      ``{cache_key: entry}`` mapping) is migrated in place into the
      ``autotune`` section instead of quarantined.

    ``path=None`` makes an in-memory store: same API, :meth:`save` is a
    no-op.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.sections: dict[str, dict] = {}
        #: Why the on-disk file was discarded, if it was ("" = loaded fine).
        self.quarantined_reason = ""
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self.quarantined_reason = f"unreadable: {exc}"
            _quarantine(self.path, self.quarantined_reason)
            return
        if not isinstance(raw, dict):
            self.quarantined_reason = f"not a JSON object: {type(raw).__name__}"
            _quarantine(self.path, self.quarantined_reason)
            return
        if "schema" not in raw:
            if self._migrate_legacy_autotune(raw):
                return
            self.quarantined_reason = "no schema field and not a legacy cache"
            _quarantine(self.path, self.quarantined_reason)
            return
        if raw.get("schema") != SCHEMA_VERSION:
            self.quarantined_reason = (
                f"schema {raw.get('schema')!r} != supported {SCHEMA_VERSION}"
            )
            _quarantine(self.path, self.quarantined_reason)
            return
        sections = raw.get("sections")
        if not isinstance(sections, dict) or not all(
            isinstance(v, dict) for v in sections.values()
        ):
            self.quarantined_reason = "malformed sections"
            _quarantine(self.path, self.quarantined_reason)
            return
        self.sections = sections

    def _migrate_legacy_autotune(self, raw: dict) -> bool:
        """Adopt a pre-store flat autotune file as the ``autotune`` section."""
        if raw and all(
            isinstance(v, dict) and "best_k" in v for v in raw.values()
        ):
            _log.info("migrating legacy autotune cache %s into the plan store",
                      self.path)
            self.sections = {"autotune": raw}
            return True
        return False

    def section(self, name: str) -> dict:
        """The named section's mutable mapping (created empty on first use)."""
        return self.sections.setdefault(name, {})

    def save(self) -> None:
        """Persist every section atomically; no-op for in-memory stores."""
        if self.path is None:
            return
        _atomic_write_json(self.path, {
            "schema": SCHEMA_VERSION,
            "sections": self.sections,
        })

    def __len__(self) -> int:
        return sum(len(section) for section in self.sections.values())


# ---------------------------------------------------------- resolver bridge


def export_resolver_plans(resolver, arch, fingerprint: str) -> dict[str, dict]:
    """Serialise a resolver's plans for ``arch`` under ``fingerprint`` keys."""
    out: dict[str, dict] = {}
    for entry_arch, spec, plan in resolver.export():
        if entry_arch is not arch and entry_arch != arch:
            continue
        spec_dict = plan_spec_to_dict(spec)
        out[plan_key(arch.name, spec_dict, fingerprint)] = {
            "spec": spec_dict,
            "plan": execution_plan_to_dict(plan),
        }
    return out


def prime_resolver_plans(resolver, arch, records: dict, fingerprint: str) -> int:
    """Load persisted plans into ``resolver`` keyed against ``arch``.

    Only records whose key carries the matching cost fingerprint are
    primed; malformed records are skipped (a persisted plan is a cache,
    the resolver can always rebuild it). Returns the primed count.
    Priming counts as neither a hit nor a miss.
    """
    primed = 0
    for key, record in records.items():
        if not str(key).endswith(f"|{fingerprint}"):
            continue
        try:
            spec = plan_spec_from_dict(record["spec"])
            plan = execution_plan_from_dict(record["plan"])
        except Exception:  # noqa: BLE001 - any damage means "re-plan"
            _log.warning("skipping malformed persisted plan %s", key)
            continue
        if resolver.prime(arch, spec, plan):
            primed += 1
    return primed


# ----------------------------------------------------------------- snapshot


@dataclass
class SessionSnapshot:
    """A warm :class:`~repro.core.session.ScanSession`, frozen to JSON.

    Everything a freshly spawned replica needs to serve warm from request
    one: the resolved execution plans, the tuned K / variant entries, the
    memoised session entries (proposal, placement, resolved K per request
    key) and the buffer pools' warm size-class hints. ``arch`` and
    ``fingerprint`` gate restore: a snapshot only applies to a machine
    with the same architecture and the same PR-4 cost fingerprint —
    anything else falls back to cold planning.
    """

    arch: str
    fingerprint: str
    schema: int = SCHEMA_VERSION
    topology: dict = field(default_factory=dict)
    plans: dict = field(default_factory=dict)
    autotune: dict = field(default_factory=dict)
    entries: list = field(default_factory=list)
    pools: list = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "schema": self.schema,
            "kind": "repro-session-snapshot",
            "arch": self.arch,
            "fingerprint": self.fingerprint,
            "topology": self.topology,
            "plans": self.plans,
            "autotune": self.autotune,
            "entries": self.entries,
            "pools": self.pools,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SessionSnapshot":
        if not isinstance(payload, dict):
            raise SnapshotError(
                f"snapshot payload must be a JSON object, got {type(payload).__name__}"
            )
        return cls(
            arch=str(payload.get("arch", "")),
            fingerprint=str(payload.get("fingerprint", "")),
            schema=payload.get("schema", -1),
            topology=payload.get("topology", {}) or {},
            plans=payload.get("plans", {}) or {},
            autotune=payload.get("autotune", {}) or {},
            entries=payload.get("entries", []) or [],
            pools=payload.get("pools", []) or [],
        )

    # -------------------------------------------------------------- file io

    def save(self, path: str | Path | None = None) -> Path:
        """Write the snapshot atomically; default under :func:`cache_dir`."""
        target = Path(path) if path is not None else default_snapshot_path()
        _atomic_write_json(target, self.to_payload())
        return target

    @classmethod
    def load(cls, path: str | Path) -> "SessionSnapshot":
        """Read a snapshot file; :class:`SnapshotError` if unreadable.

        A *parseable* snapshot with a wrong schema version still loads
        (restore then refuses it gracefully and re-plans); only an
        unreadable/garbage file raises.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SnapshotError(f"unreadable snapshot {path}: {exc}") from exc
        return cls.from_payload(payload)

    # ------------------------------------------------------- compatibility

    def compatible_with(self, arch_name: str, fingerprint: str) -> tuple[bool, str]:
        """Whether this snapshot may prime a machine; (ok, reason-if-not).

        The checks are the forward-compat contract: a wrong schema
        version or a mismatched architecture/cost fingerprint means the
        persisted plans may be stale for the target machine, so restore
        must fall back to re-planning instead of serving them.
        """
        if self.schema != SCHEMA_VERSION:
            return False, (f"snapshot schema {self.schema!r} != "
                           f"supported {SCHEMA_VERSION}")
        if self.arch != arch_name:
            return False, f"snapshot arch {self.arch!r} != machine {arch_name!r}"
        if self.fingerprint != fingerprint:
            return False, ("snapshot cost fingerprint "
                           f"{self.fingerprint!r} != machine {fingerprint!r}")
        return True, ""

    @property
    def counts(self) -> dict:
        return {
            "plans": len(self.plans),
            "autotune_entries": len(self.autotune),
            "session_entries": len(self.entries),
            "pool_blocks": sum(
                int(count) for pool in self.pools
                for _, _, count in pool.get("blocks", [])
            ),
        }


def build_session_snapshot(session) -> SessionSnapshot:
    """Capture one session's warm state (see :class:`SessionSnapshot`).

    Resolved plans come from the resolver the executors actually use
    (``ScanExecutor.resolver`` — shared process-wide by default), filtered
    to the session machine's architecture; the autotune section is the
    session tuner's memo verbatim (its keys already embed the cost
    fingerprint); session entries record how to rebuild each memoised
    executor; pool hints record the parked size classes per GPU.
    """
    from repro.core.autotune_cache import cost_fingerprint
    from repro.core.executor import ScanExecutor

    topology = session.topology
    fingerprint = cost_fingerprint(topology)
    arch = topology.arch
    plans = export_resolver_plans(ScanExecutor.resolver, arch, fingerprint)

    autotune = {
        key: e.to_dict() for key, e in session.tuner.cache.entries().items()
    }

    entries = []
    for (problem, node, proposal, k_request), entry in session._entries.items():
        entries.append({
            "problem": problem_to_dict(problem),
            "node": node_to_dict(node),
            "proposal": proposal,
            "k_request": k_request,
            "k_value": entry.k_value,
            "entry_node": node_to_dict(entry.node),
        })

    pools = []
    for index, gpu in enumerate(topology.gpus):
        pool = getattr(gpu, "buffer_pool", None)
        if pool is None:
            continue
        hints = pool.warm_hints()
        if hints:
            pools.append({"gpu": index,
                          "blocks": [list(hint) for hint in hints]})

    return SessionSnapshot(
        arch=arch.name,
        fingerprint=fingerprint,
        topology={
            "num_nodes": topology.num_nodes,
            "networks_per_node": topology.networks_per_node,
            "gpus_per_network": topology.gpus_per_network,
        },
        plans=plans,
        autotune=autotune,
        entries=entries,
        pools=pools,
    )


def spawn_replica_session(snapshot, topology=None, **session_kwargs):
    """Spawn a fresh :class:`~repro.core.session.ScanSession` replica
    primed from a leader's snapshot.

    The cluster re-admit path: a drained replica comes back by building a
    brand-new session on its own topology shard and applying the leader's
    :class:`SessionSnapshot`, so it answers its first request with warm
    plans and tuned K instead of re-running every sweep mid-traffic.
    ``snapshot`` may be ``None`` (cold spawn — e.g. no replica was
    healthy enough to lead), a :class:`SessionSnapshot`, a payload dict
    or a path; incompatible snapshots degrade to a cold start (see
    ``session.restore_info``), never an error.
    """
    from repro.core.session import ScanSession

    return ScanSession(topology, snapshot=snapshot, **session_kwargs)
