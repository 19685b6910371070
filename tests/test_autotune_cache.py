"""Tests for the persistent autotuning cache."""

import json

import numpy as np
import pytest

from repro.core import autotune_cache
from repro.core.session import ScanSession
from repro.errors import TuningError
from repro.core.autotune_cache import (
    VARIANT_PSEUDO_PROPOSAL,
    AutotuneCache,
    CachedTuner,
    cache_key,
    cost_fingerprint,
)
from repro.core.params import NodeConfig, ProblemConfig
from repro.core.tuner import PremiseTuner
from repro.gpusim.arch import KEPLER_K80, MAXWELL_GM200
from repro.gpusim.device import GPU
from repro.interconnect.topology import tsubame_kfc
from repro.interconnect.transfer import TransferCostParams


def _autotune_entries(path):
    """The persisted autotune section (the store's on-disk document)."""
    return json.loads(path.read_text())["sections"]["autotune"]


def _mutate_autotune(path, mutate):
    """Edit the persisted autotune entries in place (corruption tests)."""
    doc = json.loads(path.read_text())
    mutate(doc["sections"]["autotune"])
    path.write_text(json.dumps(doc))


class TestCacheKey:
    def test_distinguishes_everything(self):
        """Every field that prices a sweep splits the key; the operator
        and the output kind do not, as no estimate depends on them."""
        p1 = ProblemConfig.from_sizes(N=1 << 14, G=8)
        node = NodeConfig.from_counts(W=4, V=4)
        keys = {
            cache_key(KEPLER_K80, p1, "sp", None),
            cache_key(KEPLER_K80, ProblemConfig.from_sizes(N=1 << 15, G=8),
                      "sp", None),
            cache_key(KEPLER_K80, ProblemConfig.from_sizes(N=1 << 14, G=16),
                      "sp", None),
            cache_key(KEPLER_K80, ProblemConfig.from_sizes(
                N=1 << 14, G=8, dtype=np.float32), "sp", None),
            cache_key(KEPLER_K80, p1, "mps", node),
            cache_key(KEPLER_K80, p1, "mps", NodeConfig.from_counts(W=8, V=4)),
            cache_key(MAXWELL_GM200, p1, "sp", None),
            cache_key(KEPLER_K80, p1, "sp", None, fingerprint="f"),
        }
        assert len(keys) == 8
        twins = {
            cache_key(KEPLER_K80, ProblemConfig.from_sizes(
                N=1 << 14, G=8, operator=op, inclusive=inclusive), "sp", None)
            for op in ("add", "max", "min", "mul")
            for inclusive in (True, False)
        }
        assert twins == {cache_key(KEPLER_K80, p1, "sp", None)}

    def test_stable(self):
        p = ProblemConfig.from_sizes(N=1 << 14, G=8)
        assert cache_key(KEPLER_K80, p, "sp", None) == cache_key(KEPLER_K80, p, "sp", None)

    def test_fingerprint_appended(self):
        p = ProblemConfig.from_sizes(N=1 << 14, G=8)
        bare = cache_key(KEPLER_K80, p, "sp", None)
        printed = cache_key(KEPLER_K80, p, "sp", None, fingerprint="abc123")
        assert printed == bare + "|abc123"


class TestCostFingerprint:
    def test_stable_across_identical_machines(self):
        assert cost_fingerprint(tsubame_kfc(1)) == cost_fingerprint(tsubame_kfc(1))

    def test_transfer_params_change_fingerprint(self):
        """Regression: two machines with identical (W, V, M) shapes but
        different interconnect pricing must not share an autotune entry."""
        baseline = tsubame_kfc(1)
        repriced = tsubame_kfc(1)
        repriced.transfer_params = TransferCostParams(p2p_bandwidth_gbs=25.0)
        assert cost_fingerprint(baseline) != cost_fingerprint(repriced)

        p = ProblemConfig.from_sizes(N=1 << 14, G=8)
        k1 = cache_key(KEPLER_K80, p, "sp", None,
                       fingerprint=cost_fingerprint(baseline))
        k2 = cache_key(KEPLER_K80, p, "sp", None,
                       fingerprint=cost_fingerprint(repriced))
        assert k1 != k2

        # The same machine, repriced after its digest was taken (and kept).
        machine = tsubame_kfc(1)
        before = cost_fingerprint(machine)
        machine.transfer_params = TransferCostParams(p2p_bandwidth_gbs=25.0)
        assert cost_fingerprint(machine) == cost_fingerprint(repriced) != before

    def test_degraded_health_changes_fingerprint(self):
        """A degraded machine prices transfers differently; its best-K must
        not be read back on (or written for) the healthy machine."""
        healthy = tsubame_kfc(1)
        degraded = tsubame_kfc(1)
        degraded.ensure_health()
        before = cost_fingerprint(degraded)
        degraded.mark_offline(0)
        assert cost_fingerprint(degraded) != before
        assert cost_fingerprint(degraded) != cost_fingerprint(healthy)

    def test_warm_auto_call_computes_no_digest(self, monkeypatch):
        """A warm ``auto`` call at W=1 looks its variant up under the cost
        fingerprint; the digest is reused, not recomputed."""
        session = ScanSession(tsubame_kfc(1))
        data = np.arange(1 << 12, dtype=np.int32)
        session.scan(data)
        digested = []
        real = autotune_cache.asdict
        monkeypatch.setattr(autotune_cache, "asdict",
                            lambda obj: digested.append(obj) or real(obj))
        session.scan(data)
        assert digested == []

    def test_armed_but_clean_health_state_is_distinct_key_space(self):
        # ensure_health() alone creates an empty HealthState; the fingerprint
        # may differ from the health-less one, but it must be stable.
        armed = tsubame_kfc(1)
        armed.ensure_health()
        assert cost_fingerprint(armed) == cost_fingerprint(armed)


class TestCachedTuner:
    def test_memoises(self, machine, rng):
        tuner = CachedTuner(machine)
        problem = ProblemConfig.from_sizes(N=1 << 14, G=16)
        k1 = tuner.best_k(problem, "sp")
        k2 = tuner.best_k(problem, "sp")
        assert k1 == k2
        assert tuner.cache.misses == 1 and tuner.cache.hits == 1

    def test_persists_roundtrip(self, machine, tmp_path):
        path = tmp_path / "wisdom.json"
        problem = ProblemConfig.from_sizes(N=1 << 14, G=16)
        first = CachedTuner(machine, AutotuneCache(path))
        k = first.best_k(problem, "sp")
        assert path.exists()

        second = CachedTuner(machine, AutotuneCache(path))
        assert second.best_k(problem, "sp") == k
        assert second.cache.hits == 1 and second.cache.misses == 0

    def test_multi_gpu_proposals(self, machine):
        tuner = CachedTuner(machine)
        problem = ProblemConfig.from_sizes(N=1 << 15, G=16)
        node = NodeConfig.from_counts(W=8, V=4)
        k_mps = tuner.best_k(problem, "mps", node)
        k_mppc = tuner.best_k(problem, "mppc", node)
        assert k_mps >= 1 and k_mppc >= 1

    def test_stale_entry_retuned(self, machine, tmp_path):
        """A cached K outside the current search space triggers a re-tune."""
        path = tmp_path / "wisdom.json"
        problem = ProblemConfig.from_sizes(N=1 << 14, G=16)
        tuner = CachedTuner(machine, AutotuneCache(path))
        tuner.best_k(problem, "sp")
        # Corrupt the stored K to an inadmissible value.
        def bump(entries):
            for entry in entries.values():
                entry["best_k"] = 1 << 20
        _mutate_autotune(path, bump)

        fresh = CachedTuner(machine, AutotuneCache(path))
        k = fresh.best_k(problem, "sp")
        assert k != 1 << 20
        assert fresh.cache.misses == 1

    def test_repriced_machine_is_a_cache_miss(self, machine):
        """Regression: changing the transfer pricing between calls must make
        the tuner re-sweep instead of reading the stale best-K back."""
        tuner = CachedTuner(machine)
        problem = ProblemConfig.from_sizes(N=1 << 14, G=16)
        tuner.best_k(problem, "sp")
        machine.transfer_params = TransferCostParams(p2p_bandwidth_gbs=25.0)
        tuner.best_k(problem, "sp")
        assert tuner.cache.misses == 2 and tuner.cache.hits == 0

    def test_unreadable_cache_quarantined_not_fatal(self, tmp_path):
        """Satellite regression: a corrupt cache file used to crash session
        construction with TuningError. It must instead be quarantined to
        ``<path>.corrupt`` (kept for inspection) and the cache start fresh."""
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        cache = AutotuneCache(path)
        assert len(cache) == 0
        assert "unreadable" in cache.store.quarantined_reason
        quarantined = tmp_path / "bad.json.corrupt"
        assert quarantined.read_text() == "{not json"
        assert not path.exists()
        # The quarantined path is reusable: a save writes a valid store.
        cache.save()
        assert json.loads(path.read_text())["schema"] >= 1

    def test_wrong_schema_version_quarantined(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": 999, "sections": {}}))
        cache = AutotuneCache(path)
        assert len(cache) == 0
        assert "schema" in cache.store.quarantined_reason
        assert (tmp_path / "future.json.corrupt").exists()

    def test_save_is_atomic_document(self, machine, tmp_path):
        """Saves go through tmp+rename and produce the versioned document
        (no flat legacy writes, no stray tmp files left behind)."""
        path = tmp_path / "wisdom.json"
        tuner = CachedTuner(machine, AutotuneCache(path))
        tuner.best_k(ProblemConfig.from_sizes(N=1 << 14, G=16), "sp")
        doc = json.loads(path.read_text())
        assert set(doc) == {"schema", "sections"}
        assert doc["sections"]["autotune"]
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_malformed_entry_skipped_rest_served(self, machine, tmp_path):
        """One mangled record must not drop the rest of the wisdom."""
        path = tmp_path / "wisdom.json"
        problem = ProblemConfig.from_sizes(N=1 << 14, G=16)
        writer = CachedTuner(machine, AutotuneCache(path))
        k = writer.best_k(problem, "sp")

        def mangle(entries):
            entries["garbage-key"] = {"best_k": "not-an-int"}
        _mutate_autotune(path, mangle)

        reader = CachedTuner(machine, AutotuneCache(path))
        assert reader.best_k(problem, "sp") == k
        assert reader.cache.hits == 1 and reader.cache.misses == 0

    def test_unknown_proposal(self, machine):
        tuner = CachedTuner(machine)
        with pytest.raises(TuningError):
            tuner.best_k(ProblemConfig.from_sizes(N=1 << 14), "teleport")


class TestSweepWithoutBatch:
    """A K sweep with no batch (an estimate's, a controller's re-tune)
    estimates its candidates: nothing is uploaded, and every candidate
    is timed as a functional sweep times it."""

    @pytest.mark.parametrize("proposal,placement,nodes", [
        ("sp", {}, 1),
        ("mps", {"W": 4, "V": 4}, 1),
        ("mppc", {"W": 8, "V": 4}, 1),
        ("mn-mps", {"W": 4, "V": 4, "M": 2}, 2),
    ])
    def test_estimate_uploads_nothing_and_picks_the_functional_k(
        self, monkeypatch, proposal, placement, nodes
    ):
        uploads = []
        real = GPU.upload

        def counted(self, host, out=None):
            uploads.append(np.shape(host))
            return real(self, host, out=out)

        monkeypatch.setattr(GPU, "upload", counted)
        problem = ProblemConfig.from_sizes(N=1 << 16, G=4)
        session = ScanSession(tsubame_kfc(nodes), autotune_cache=AutotuneCache())
        estimate = session.estimate(problem, proposal=proposal, K="tune",
                                    **placement)
        assert uploads == []

        data = np.random.default_rng(0).integers(
            0, 100, (problem.G, problem.N)).astype(problem.dtype)
        functional = ScanSession(tsubame_kfc(nodes),
                                 autotune_cache=AutotuneCache())
        ran = functional.scan(data, proposal=proposal, K="tune", **placement)
        assert estimate.config["K"] == ran.config["K"]
        node = NodeConfig.from_counts(**placement) if placement else None
        tuner = PremiseTuner(tsubame_kfc(nodes))
        assert (tuner.sweep(proposal, problem, node)
                == tuner.sweep(proposal, problem, node, data))


class TestVariantSelection:
    """The sp vs sp-dlb algorithm choice: its own key space, memoised,
    persisted, and invalidated by the PR-4 cost fingerprint."""

    def test_variant_key_space_is_distinct_from_k_sweeps(self):
        """The cache key distinguishes three-kernel plans, lookback plans
        and the variant decision itself — no aliasing between them."""
        p = ProblemConfig.from_sizes(N=1 << 20, G=1)
        keys = {
            cache_key(KEPLER_K80, p, "sp", None, fingerprint="f"),
            cache_key(KEPLER_K80, p, "sp-dlb", None, fingerprint="f"),
            cache_key(KEPLER_K80, p, VARIANT_PSEUDO_PROPOSAL, None,
                      fingerprint="f"),
        }
        assert len(keys) == 3

    def test_memoises(self, machine):
        tuner = CachedTuner(machine)
        problem = ProblemConfig.from_sizes(N=1 << 24, G=1)
        first = tuner.best_single_gpu_variant(problem)
        second = tuner.best_single_gpu_variant(problem)
        assert first == second == "sp-dlb"
        assert tuner.cache.misses == 1 and tuner.cache.hits == 1

    def test_crossover_is_cached_per_problem(self, machine):
        tuner = CachedTuner(machine)
        assert tuner.best_single_gpu_variant(
            ProblemConfig.from_sizes(N=1 << 13, G=1)
        ) == "sp"
        assert tuner.best_single_gpu_variant(
            ProblemConfig.from_sizes(N=1 << 24, G=1)
        ) == "sp-dlb"
        assert tuner.cache.misses == 2  # distinct keys, no aliasing

    def test_persists_roundtrip(self, machine, tmp_path):
        path = tmp_path / "wisdom.json"
        problem = ProblemConfig.from_sizes(N=1 << 24, G=1)
        first = CachedTuner(machine, AutotuneCache(path))
        choice = first.best_single_gpu_variant(problem)
        assert any(e.get("variant") == choice
                   for e in _autotune_entries(path).values())

        second = CachedTuner(machine, AutotuneCache(path))
        assert second.best_single_gpu_variant(problem) == choice
        assert second.cache.hits == 1 and second.cache.misses == 0

    def test_forced_health_change_invalidates_the_variant(self, machine):
        """The satellite regression: marking a GPU offline changes the
        PR-4 cost fingerprint, so the cached algorithm choice is not read
        back — the decision is re-tuned against the degraded machine."""
        tuner = CachedTuner(machine)
        problem = ProblemConfig.from_sizes(N=1 << 24, G=1)
        tuner.best_single_gpu_variant(problem)
        assert tuner.cache.misses == 1

        machine.ensure_health()
        machine.mark_offline(0)
        tuner.best_single_gpu_variant(problem)
        assert tuner.cache.misses == 2 and tuner.cache.hits == 0

    def test_stale_variant_name_is_retuned(self, machine, tmp_path):
        """An on-disk entry naming an unknown algorithm (e.g. from a
        renamed proposal) must not be trusted."""
        path = tmp_path / "wisdom.json"
        problem = ProblemConfig.from_sizes(N=1 << 24, G=1)
        tuner = CachedTuner(machine, AutotuneCache(path))
        tuner.best_single_gpu_variant(problem)

        def rename(entries):
            for entry in entries.values():
                entry["variant"] = "sp-dlb-v0"
        _mutate_autotune(path, rename)

        fresh = CachedTuner(machine, AutotuneCache(path))
        assert fresh.best_single_gpu_variant(problem) in ("sp", "sp-dlb")
        assert fresh.cache.misses == 1 and fresh.cache.hits == 0

    def test_legacy_flat_cache_migrates(self, machine, tmp_path):
        """Caches written before the plan store were a flat ``{key: entry}``
        mapping (some also predate the variant field). They must migrate
        into the versioned document and keep serving their K entries."""
        path = tmp_path / "wisdom.json"
        problem = ProblemConfig.from_sizes(N=1 << 14, G=16)
        writer = CachedTuner(machine, AutotuneCache(path))
        k = writer.best_k(problem, "sp")
        legacy = _autotune_entries(path)
        for entry in legacy.values():
            entry.pop("variant", None)
        path.write_text(json.dumps(legacy))  # the old flat format

        reader = CachedTuner(machine, AutotuneCache(path))
        assert reader.best_k(problem, "sp") == k
        assert reader.cache.hits == 1
        # Not quarantined — adopted; the next save upgrades the file.
        assert reader.cache.store.quarantined_reason == ""
        reader.cache.save()
        assert json.loads(path.read_text())["schema"] >= 1


def _earlier_key(key: str, operator: str) -> str:
    """``key`` as written before the operator left it:
    ``arch|dtype|operator|proposal|n<n>g<g>|...``."""
    parts = key.split("|")
    return "|".join(parts[:2] + [operator] + parts[2:])


class TestSharedFile:
    """Caches saving to one file merge with what is on disk."""

    def test_two_caches_keep_each_others_entries(self, machine, tmp_path):
        path = tmp_path / "autotune.json"
        p1 = ProblemConfig.from_sizes(N=1 << 14, G=16)
        p2 = ProblemConfig.from_sizes(N=1 << 15, G=16)
        first = CachedTuner(machine, AutotuneCache(path))
        second = CachedTuner(machine, AutotuneCache(path))
        first.best_k(p1, "sp")
        second.best_k(p2, "sp")
        fp = cost_fingerprint(machine)
        assert set(_autotune_entries(path)) == {
            cache_key(machine.arch, p, "sp", None, fingerprint=fp)
            for p in (p1, p2)
        }
        reader = CachedTuner(machine, AutotuneCache(path))
        reader.best_k(p1, "sp")
        reader.best_k(p2, "sp")
        assert (reader.cache.hits, reader.cache.misses) == (2, 0)

    def test_own_entries_win_for_their_keys(self, machine, tmp_path):
        path = tmp_path / "autotune.json"
        problem = ProblemConfig.from_sizes(N=1 << 14, G=16)
        first = CachedTuner(machine, AutotuneCache(path))
        second = CachedTuner(machine, AutotuneCache(path))
        first.best_k(problem, "sp")

        def stamp(entries):
            for entry in entries.values():
                entry["best_time_s"] = 123.0
        _mutate_autotune(path, stamp)
        second.best_k(problem, "sp")
        (entry,) = _autotune_entries(path).values()
        assert entry["best_time_s"] != 123.0

    def test_sessions_under_the_cache_dir_share_the_file(
        self, tmp_path, monkeypatch
    ):
        """Each session under ``REPRO_CACHE_DIR`` (a router's replicas)
        has its own cache object; none loses another's wisdom."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        replicas = [ScanSession(tsubame_kfc(1)) for _ in range(2)]
        for n, session in zip((12, 13), replicas):
            session.scan(np.ones((4, 1 << n), np.int32), K="tune")
        variants = [key for key, e in
                    _autotune_entries(tmp_path / "autotune.json").items()
                    if e["variant"]]
        assert len(variants) == 2


class TestEarlierKeys:
    """Files and snapshots keyed with the operator segment migrate to the
    operator-free key: their tuning is kept, and nothing is quarantined."""

    def test_operator_free_key(self):
        p = ProblemConfig.from_sizes(N=1 << 14, G=8, operator="max")
        node = NodeConfig.from_counts(W=4, V=4)
        for key in (cache_key(KEPLER_K80, p, "sp", None),
                    cache_key(KEPLER_K80, p, "mps", node, fingerprint="f"),
                    cache_key(KEPLER_K80, p, VARIANT_PSEUDO_PROPOSAL, None,
                              fingerprint="f")):
            assert autotune_cache.operator_free_key(key) == key
            assert autotune_cache.operator_free_key(
                _earlier_key(key, "max")) == key
        assert autotune_cache.operator_free_key("garbage-key") == "garbage-key"

    def test_an_earlier_file_serves_without_a_sweep(
        self, machine, tmp_path, monkeypatch
    ):
        fp = cost_fingerprint(machine)
        arch = machine.arch.name
        path = tmp_path / "autotune.json"
        path.write_text(json.dumps({"schema": 1, "sections": {"autotune": {
            f"{arch}|int32|add|sp-variant|n14g4|W1V1M1|{fp}": {
                "best_k": 0, "best_time_s": 4.6e-05, "candidates": 2,
                "variant": "sp"},
            f"{arch}|int32|add|sp|n14g4|W1V1M1|{fp}": {
                "best_k": 1, "best_time_s": 4.6e-05, "candidates": 1,
                "variant": ""},
        }}}))
        sweeps = []
        monkeypatch.setattr(PremiseTuner, "sweep",
                            lambda *args: sweeps.append(args))
        monkeypatch.setattr(PremiseTuner, "tune_single_gpu_variant",
                            lambda *args: sweeps.append(args))
        cache = AutotuneCache(path)
        assert cache.store.quarantined_reason == ""
        session = ScanSession(machine, autotune_cache=cache)
        data = np.ones((16, 1 << 14), np.int32)
        result = session.scan(data, operator="max", inclusive=False, K="tune")
        assert result.config["K"] == 1
        assert sweeps == [] and cache.misses == 0 and cache.hits == 2
        assert not list(tmp_path.glob("*.corrupt"))
        cache.save()
        assert set(_autotune_entries(path)) == {
            f"{arch}|int32|sp-variant|n14g4|W1V1M1|{fp}",
            f"{arch}|int32|sp|n14g4|W1V1M1|{fp}",
        }

    def test_an_earlier_snapshot_serves_without_a_sweep(self, monkeypatch):
        writer = ScanSession(tsubame_kfc(1))
        data = np.ones((16, 1 << 14), np.int32)
        writer.scan(data, K="tune")
        payload = writer.snapshot().to_payload()
        assert len(payload["autotune"]) == 2
        payload["autotune"] = {_earlier_key(key, "add"): entry
                               for key, entry in payload["autotune"].items()}

        sweeps = []
        monkeypatch.setattr(PremiseTuner, "sweep",
                            lambda *args: sweeps.append(args))
        monkeypatch.setattr(PremiseTuner, "tune_single_gpu_variant",
                            lambda *args: sweeps.append(args))
        restored = ScanSession(tsubame_kfc(1), snapshot=payload)
        assert restored.restore_info["tuner_entries"] == 2
        result = restored.scan(data, operator="max", inclusive=False,
                               K="tune")
        np.testing.assert_array_equal(
            result.output[:, 1:], np.maximum.accumulate(data, axis=1)[:, :-1])
        assert sweeps == [] and restored.tuner.cache.misses == 0
        assert set(restored.tuner.cache.entries()) == set(
            writer.tuner.cache.entries())
