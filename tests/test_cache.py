"""Content-addressed result cache tests.

Covers the canonical fingerprint (canonicalisation rules, determinism,
what is and is not in the key), the crash-safe atomic writers, the
:class:`~repro.cache.ResultCache` store (round trips, corruption
handling, LRU eviction, operational counters) and its in-process hot
tier (memory hits equal disk hits; the disk decides validity).
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.cache import (CacheStats, ResultCache, atomic_write_bytes,
                         atomic_write_npz, atomic_write_text,
                         canonical_fingerprint, canonicalize,
                         fingerprint_key, library_version)
from repro.errors import ReproError


class TestCanonicalize:
    def test_scalars_pass_through(self):
        for value in (None, True, False, 0, -7, 1.5, "text"):
            assert canonicalize(value) == value

    def test_float_repr_roundtrip(self):
        value = 0.1 + 0.2  # not 0.3: canonical form must keep all bits
        assert canonicalize(value) == value
        assert json.loads(json.dumps(canonicalize(value))) == value

    def test_numpy_scalars_become_native(self):
        assert canonicalize(np.int64(5)) == 5
        assert isinstance(canonicalize(np.int64(5)), int)
        assert canonicalize(np.float64(2.5)) == 2.5

    def test_arrays_become_digests(self):
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        digest = canonicalize(data)
        assert digest.startswith("sha256:")
        assert "[2, 3]" in digest
        # Stable across identical content, distinct across dtype.
        assert canonicalize(data.copy()) == digest
        assert canonicalize(data.astype(np.float32)) != digest
        assert canonicalize(data + 1) != digest

    def test_dataclasses_and_mappings(self):
        @dataclasses.dataclass
        class Config:
            n: int
            seed: int

        assert canonicalize(Config(n=3, seed=1)) == {"n": 3, "seed": 1}
        assert canonicalize({"b": (1, 2), "a": {3, 1}}) == \
            {"b": [1, 2], "a": [1, 3]}

    def test_mapping_keys_must_be_strings(self):
        with pytest.raises(TypeError, match="string"):
            canonicalize({1: "one"})

    def test_describe_fallback(self):
        class Described:
            def describe(self):
                return "described!"

        assert canonicalize(Described()) == "described!"

    def test_opaque_values_rejected(self):
        with pytest.raises(TypeError, match="canonical"):
            canonicalize(lambda: None)


class TestCanonicalFingerprint:
    def test_deterministic_and_compact(self):
        config = {"z": 1, "a": [2.0, 3]}
        first = canonical_fingerprint("unit", config, evaluator="e")
        second = canonical_fingerprint("unit", dict(config), evaluator="e")
        assert first == second
        assert " " not in first  # compact separators
        payload = json.loads(first)
        assert payload["kind"] == "unit"
        assert payload["evaluator"] == "e"
        assert payload["version"] == library_version()

    def test_kind_and_evaluator_distinguish(self):
        config = {"n": 8}
        base = canonical_fingerprint("a", config)
        assert canonical_fingerprint("b", config) != base
        assert canonical_fingerprint("a", config, evaluator="x") != base

    def test_version_salt(self, monkeypatch):
        import repro
        before = canonical_fingerprint("unit", {"n": 1})
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        after = canonical_fingerprint("unit", {"n": 1})
        assert before != after
        assert json.loads(after)["version"] == "999.0.0"

    def test_key_is_sha256_hex(self):
        fingerprint = canonical_fingerprint("unit", {"n": 1})
        key = fingerprint_key(fingerprint)
        assert len(key) == 64
        assert int(key, 16) >= 0  # hex
        assert fingerprint_key(fingerprint) == key


class TestAtomicWriters:
    def test_bytes_and_text_roundtrip(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"
        atomic_write_text(path, "résultat")
        assert path.read_text(encoding="utf-8") == "résultat"

    def test_npz_roundtrip(self, tmp_path):
        path = tmp_path / "out.npz"
        arrays = {"a": np.arange(5), "b": np.eye(2)}
        atomic_write_npz(path, arrays)
        with np.load(path) as data:
            np.testing.assert_array_equal(data["a"], arrays["a"])
            np.testing.assert_array_equal(data["b"], arrays["b"])

    def test_failed_write_preserves_previous_content(self, tmp_path,
                                                     monkeypatch):
        # A writer that dies mid-stream must leave the previous file
        # intact and no temp debris behind.
        path = tmp_path / "ckpt.npz"
        atomic_write_npz(path, {"a": np.arange(3)})
        before = path.read_bytes()

        def exploding_savez(handle, **arrays):
            handle.write(b"partial garbage")
            raise OSError("disk gone")

        monkeypatch.setattr(np, "savez_compressed", exploding_savez)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_npz(path, {"a": np.arange(99)})
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert list(tmp_path.glob(".*.tmp")) == []

    def test_concurrent_writers_get_distinct_temp_names(self, tmp_path):
        # The temp-name scheme is (pid, counter): two writes of the same
        # path in one process never share a temp file.
        from repro.cache.store import _tmp_path
        path = tmp_path / "same.npz"
        assert _tmp_path(path) != _tmp_path(path)
        assert _tmp_path(path).parent == path.parent


class TestResultCache:
    def fingerprint(self, n=1):
        return canonical_fingerprint("test-unit", {"n": n})

    def test_roundtrip_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        arrays = {"values": np.linspace(0.0, 1.0, 7),
                  "counts": np.array([3, 9], dtype=np.int64)}
        meta = {"describe": "seven values", "percent": 42.5}
        fingerprint = self.fingerprint()
        cache.put(fingerprint, arrays, meta)
        hit = cache.get(fingerprint)
        assert hit is not None
        assert hit.meta == meta
        assert set(hit.arrays) == {"values", "counts"}
        for name in arrays:
            np.testing.assert_array_equal(hit.arrays[name], arrays[name])
            assert hit.arrays[name].dtype == arrays[name].dtype
        assert fingerprint in cache
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_on_absent_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(self.fingerprint()) is None
        assert cache.stats.misses == 1
        assert self.fingerprint() not in cache

    def test_persists_across_instances(self, tmp_path):
        fingerprint = self.fingerprint()
        ResultCache(tmp_path).put(fingerprint, {"a": np.arange(3)})
        hit = ResultCache(tmp_path).get(fingerprint)
        assert hit is not None
        np.testing.assert_array_equal(hit.arrays["a"], np.arange(3))

    def test_corrupt_entry_dropped_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fingerprint = self.fingerprint()
        cache.put(fingerprint, {"a": np.arange(3)})
        npz = tmp_path / f"{fingerprint_key(fingerprint)}.npz"
        npz.write_bytes(b"not an npz at all")
        assert cache.get(fingerprint) is None
        assert cache.stats.misses == 1
        assert not npz.exists()  # dropped, not left to fail again

    def test_fingerprint_mismatch_never_served(self, tmp_path):
        # Defence in depth: even if an entry lands under the wrong key
        # (digest collision, manual tampering), the embedded fingerprint
        # text must veto it.
        cache = ResultCache(tmp_path)
        fingerprint = self.fingerprint(1)
        cache.put(fingerprint, {"a": np.arange(3)})
        other = self.fingerprint(2)
        key_path = tmp_path / f"{fingerprint_key(other)}.npz"
        (tmp_path / f"{fingerprint_key(fingerprint)}.npz").rename(key_path)
        assert cache.get(other) is None

    def test_reserved_array_names_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="reserved"):
            ResultCache(tmp_path).put(self.fingerprint(),
                                      {"__fingerprint__": np.arange(2)})

    def test_lru_eviction_by_entry_count(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        prints = [self.fingerprint(n) for n in range(3)]
        for index, fingerprint in enumerate(prints):
            cache.put(fingerprint, {"a": np.arange(4)})
            os.utime(tmp_path / f"{fingerprint_key(fingerprint)}.npz",
                     (index, index))  # deterministic LRU order
        cache.put(self.fingerprint(99), {"a": np.arange(4)})
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        # Oldest entries went first; the newest stored one survives.
        assert cache.get(prints[0]) is None
        assert cache.get(self.fingerprint(99)) is not None

    def test_hit_refreshes_lru_position(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        old, young = self.fingerprint(1), self.fingerprint(2)
        for index, fingerprint in enumerate((old, young)):
            cache.put(fingerprint, {"a": np.arange(4)})
            os.utime(tmp_path / f"{fingerprint_key(fingerprint)}.npz",
                     (index, index))
        cache.get(old)  # refresh: now the *younger* entry is LRU
        cache.put(self.fingerprint(3), {"a": np.arange(4)})
        assert cache.get(old) is not None
        assert cache.get(young) is None

    def test_byte_budget_eviction(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        first, second = self.fingerprint(1), self.fingerprint(2)
        cache.put(first, {"a": np.arange(100)})
        os.utime(tmp_path / f"{fingerprint_key(first)}.npz", (1, 1))
        cache.put(second, {"a": np.arange(100)})
        # Budget of one byte: only the just-stored (protected) entry stays.
        assert cache.keys() == [fingerprint_key(second)]
        assert cache.stats.evictions == 1

    def test_maintenance_helpers(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in range(3):
            cache.put(self.fingerprint(n), {"a": np.arange(4)})
        assert len(cache) == 3
        assert cache.total_bytes() > 0
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_validation(self, tmp_path):
        with pytest.raises(ReproError):
            ResultCache(tmp_path, max_bytes=0)
        with pytest.raises(ReproError):
            ResultCache(tmp_path, max_entries=0)

    def test_stats_describe(self):
        stats = CacheStats(hits=3, misses=1, stores=2, evictions=0)
        assert stats.requests == 4
        assert stats.hit_rate == pytest.approx(0.75)
        assert "75.0%" in stats.describe()
        assert CacheStats().hit_rate == 0.0

    def test_concurrent_access_exact_counters(self, tmp_path):
        # Regression: one ResultCache is shared across JobQueue worker
        # threads, but stats updates and LRU eviction used to run
        # unlocked -- concurrent hits could drop increments and racing
        # evictions could double-count.  With the internal lock, N
        # threads hammering the same instance must produce exact totals.
        import threading

        cache = ResultCache(tmp_path)
        workers, rounds = 8, 25
        prints = [self.fingerprint(n) for n in range(4)]
        for fingerprint in prints:
            cache.put(fingerprint, {"a": np.arange(8)})
        start = threading.Barrier(workers)
        errors = []

        def hammer(index):
            try:
                start.wait(timeout=10)
                for round_ in range(rounds):
                    hit = cache.get(prints[(index + round_) % len(prints)])
                    assert hit is not None
                    cache.get(self.fingerprint(1000 + index))  # miss
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert cache.stats.hits == workers * rounds
        assert cache.stats.misses == workers * rounds
        assert cache.stats.stores == len(prints)

    def test_concurrent_puts_with_eviction(self, tmp_path):
        # Eviction under contention: every put may evict; the store must
        # never crash on a concurrently-removed entry and the budget
        # must hold afterwards.
        import threading

        cache = ResultCache(tmp_path, max_entries=3)
        workers, rounds = 6, 15
        start = threading.Barrier(workers)
        errors = []

        def hammer(index):
            try:
                start.wait(timeout=10)
                for round_ in range(rounds):
                    cache.put(self.fingerprint(index * rounds + round_),
                              {"a": np.arange(16)})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(cache) <= 3
        assert cache.stats.stores == workers * rounds


def _bits_equal(a, b):
    """Same names, and per name the same dtype, shape and bytes."""
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].shape == b[name].shape, name
        assert a[name].tobytes() == b[name].tobytes(), name


class TestHotTier:
    """The in-process hot tier serves only what the disk still vouches
    for, and a hit from memory equals a hit from disk bit for bit."""

    DESIGN = {"w1": 3e-05, "l1": 1e-06, "w2": 6e-05, "l2": 1e-06,
              "w3": 1e-05, "l3": 2e-06, "w4": 2e-05, "l4": 2e-06}

    def fingerprint(self, n=1):
        return canonical_fingerprint("test-unit", {"n": n})

    @pytest.mark.parametrize("request_dict", [
        {"kind": "estimate", "n_samples": 64, "chunk_lanes": 32},
        {"kind": "corners", "corners": "tm,ws", "vdds": "3.3",
         "temps": "27"},
        {"kind": "surrogate", "n_train": 32, "surrogate_kind": "linear"},
        {"kind": "lint", "netlist": "V1 in 0 1\nR1 in 0 1k\n.end\n"},
    ], ids=lambda request: request["kind"])
    def test_memory_hit_equals_disk_hit_and_fresh_run(self, tmp_path,
                                                      request_dict):
        from repro.service import workload_from_request

        if request_dict["kind"] != "lint":
            request_dict = dict(request_dict, design=self.DESIGN)

        def workload():
            return workload_from_request(dict(request_dict))

        fresh = workload().run()
        cache = ResultCache(tmp_path)
        cold = workload().run_cached(cache)
        memory = workload().run_cached(cache)
        disk_cache = ResultCache(tmp_path)
        disk = workload().run_cached(disk_cache)
        assert not cold.cache_hit and memory.cache_hit and disk.cache_hit
        assert cache.stats.memory_hits == 1
        assert disk_cache.stats.memory_hits == 0
        assert disk_cache.stats.hits == 1
        for hit in (memory, disk):
            _bits_equal(hit.arrays, fresh.arrays)
            assert hit.fingerprint == fresh.fingerprint
        assert memory.meta == disk.meta
        assert list(memory.meta) == list(disk.meta)
        assert disk.meta == json.loads(json.dumps(fresh.meta))
        if request_dict["kind"] == "estimate":
            assert memory.value[0] == disk.value[0] == fresh.value[0]

    def test_mutating_a_hit_does_not_change_the_next(self, tmp_path):
        cache = ResultCache(tmp_path)
        fingerprint = self.fingerprint()
        arrays = {"a": np.arange(4.0)}
        cache.put(fingerprint, arrays, {"names": ["x"], "n": 1})
        arrays["a"][:] = 7.0  # the caller's own arrays after the store
        for _ in range(2):
            hit = cache.get(fingerprint)
            np.testing.assert_array_equal(hit.arrays["a"], np.arange(4.0))
            assert hit.meta == {"names": ["x"], "n": 1}
            hit.arrays["a"][:] = -1.0
            hit.meta["names"].append("y")
            hit.meta["n"] = 2
        assert cache.stats.memory_hits == 2
        # A disk hit's copy is independent of the one kept in memory.
        reader = ResultCache(tmp_path)
        reader.get(fingerprint).arrays["a"][:] = -1.0
        np.testing.assert_array_equal(reader.get(fingerprint).arrays["a"],
                                      np.arange(4.0))
        assert reader.stats.memory_hits == 1

    def test_rewrite_by_another_instance_is_not_served_from_memory(
            self, tmp_path):
        cache, other = ResultCache(tmp_path), ResultCache(tmp_path)
        fingerprint = self.fingerprint()
        cache.put(fingerprint, {"a": np.arange(3)}, {"v": 1})
        other.put(fingerprint, {"a": np.arange(300)}, {"v": 2})
        hit = cache.get(fingerprint)
        np.testing.assert_array_equal(hit.arrays["a"], np.arange(300))
        assert hit.meta == {"v": 2}
        assert cache.stats.memory_hits == 0
        # Re-read from disk, the new entry is served from memory next.
        assert cache.get(fingerprint).meta == {"v": 2}
        assert cache.stats.memory_hits == 1

    def test_moved_mtime_sends_lookup_to_disk(self, tmp_path):
        # Another process touching the entry moves its mtime (set
        # explicitly here: a kernel-chosen time may repeat on a coarse
        # clock, and an unchanged file may well stay served from memory).
        cache = ResultCache(tmp_path)
        fingerprint = self.fingerprint()
        cache.put(fingerprint, {"a": np.arange(3)})
        os.utime(tmp_path / f"{fingerprint_key(fingerprint)}.npz",
                 ns=(1, 1))
        assert cache.get(fingerprint) is not None
        assert cache.stats.memory_hits == 0
        assert cache.get(fingerprint) is not None
        assert cache.stats.memory_hits == 1
        # A repeat hit records the mtime its own touch stored.
        assert cache.get(fingerprint) is not None
        assert cache.stats.memory_hits == 2

    def test_touch_by_another_instance_keeps_hits_correct(self, tmp_path):
        cache, other = ResultCache(tmp_path), ResultCache(tmp_path)
        fingerprint = self.fingerprint()
        cache.put(fingerprint, {"a": np.arange(3)}, {"v": 1})
        for _ in range(3):
            for reader in (other, cache):
                hit = reader.get(fingerprint)
                np.testing.assert_array_equal(hit.arrays["a"], np.arange(3))
                assert hit.meta == {"v": 1}
        assert other.stats.hits == cache.stats.hits == 3

    def test_clear_by_another_instance_is_a_miss(self, tmp_path):
        cache, other = ResultCache(tmp_path), ResultCache(tmp_path)
        fingerprint = self.fingerprint()
        cache.put(fingerprint, {"a": np.arange(3)})
        assert other.clear() == 1
        assert cache.get(fingerprint) is None
        assert cache.stats.misses == 1 and cache.stats.memory_hits == 0

    def test_own_clear_and_eviction_drop_memory_copies(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1)
        first, second = self.fingerprint(1), self.fingerprint(2)
        cache.put(first, {"a": np.arange(3)})
        cache.put(second, {"a": np.arange(3)})  # evicts ``first``
        assert list(cache._hot) == [fingerprint_key(second)]
        assert cache._hot_bytes == cache._hot[fingerprint_key(second)].nbytes
        assert cache.get(first) is None
        cache.clear()
        assert not cache._hot and cache._hot_bytes == 0
        assert cache.get(second) is None
        assert cache.stats.memory_hits == 0

    def test_byte_bound_holds(self, tmp_path, monkeypatch):
        from repro.cache import store

        entry = {"a": np.zeros(1000)}  # 8000 decoded bytes
        monkeypatch.setattr(store, "HOT_MAX_BYTES", 20_000)
        cache = ResultCache(tmp_path)
        prints = [self.fingerprint(n) for n in range(5)]
        for fingerprint in prints:
            cache.put(fingerprint, entry)
            assert cache._hot_bytes <= 20_000
        # Only the two most recent entries fit; older ones come from disk.
        for fingerprint in prints[3:]:
            assert cache.get(fingerprint) is not None
        assert cache.stats.memory_hits == 2
        assert cache.get(prints[0]) is not None
        assert cache.stats.memory_hits == 2
        assert cache._hot_bytes <= 20_000
        # An entry larger than the whole bound is never kept in memory.
        big = self.fingerprint(99)
        cache.put(big, {"a": np.zeros(5000)})
        cache.get(big)
        assert cache.stats.memory_hits == 2
        assert cache._hot_bytes <= 20_000

    def test_object_arrays_not_served_from_memory(self, tmp_path):
        # The disk refuses object arrays (no pickles), so memory must too.
        cache = ResultCache(tmp_path)
        fingerprint = self.fingerprint()
        cache.put(fingerprint, {"a": np.array([{"x": 1}], dtype=object)})
        assert cache.get(fingerprint) is None
        assert cache.stats.memory_hits == 0

    def test_concurrent_hits_under_eviction_pressure(self, tmp_path,
                                                     monkeypatch):
        # More threads than cores share one instance while stores evict
        # hot copies: every hit stays correct, and neither the counters
        # nor the tier's byte total lose an update.
        import sys
        import threading

        from repro.cache import store

        monkeypatch.setattr(store, "HOT_MAX_BYTES", 3 * 8200)
        cache = ResultCache(tmp_path)
        prints = [self.fingerprint(n) for n in range(6)]
        for n, fingerprint in enumerate(prints):
            cache.put(fingerprint, {"a": np.full(1000, float(n))})
        workers, rounds = 8, 40
        start = threading.Barrier(workers)
        errors = []

        def hammer(index):
            try:
                start.wait(timeout=10)
                for round_ in range(rounds):
                    n = (index + round_) % len(prints)
                    hit = cache.get(prints[n])
                    assert hit is not None
                    assert np.all(hit.arrays["a"] == n)
                    hit.arrays["a"][:] = -1.0
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache.stats.hits == workers * rounds
        assert cache.stats.memory_hits <= cache.stats.hits
        assert cache._hot_bytes == sum(entry.nbytes
                                       for entry in cache._hot.values())
        assert cache._hot_bytes <= 3 * 8200


class TestStorePath:
    """A store lists the cache directory only when the running totals
    exceed a budget."""

    def fingerprint(self, n=1):
        return canonical_fingerprint("test-store", {"n": n})

    @staticmethod
    def _listings(monkeypatch, cache):
        calls = []
        entries = cache._entries

        def spy():
            calls.append(1)
            return entries()

        monkeypatch.setattr(cache, "_entries", spy)
        return calls

    def _put(self, cache, n, mtime):
        cache.put(self.fingerprint(n), {"a": np.arange(4)})
        path = cache._npz(fingerprint_key(self.fingerprint(n)))
        os.utime(path, (mtime, mtime))  # deterministic LRU order

    def test_no_listing_below_budget(self, tmp_path, monkeypatch):
        for cache in (ResultCache(tmp_path / "bytes"),
                      ResultCache(tmp_path / "count", max_entries=50)):
            listings = self._listings(monkeypatch, cache)
            for n in range(20):
                cache.put(self.fingerprint(n), {"a": np.arange(n)})
            assert not listings
            assert cache._usage == (cache.total_bytes(), 20)

    def test_over_budget_lists_and_evicts_lru(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path, max_entries=3)
        listings = self._listings(monkeypatch, cache)
        for n in range(3):
            self._put(cache, n, n)
        assert not listings
        self._put(cache, 3, 3)
        assert len(listings) == 1 and cache.stats.evictions == 1
        assert cache.get(self.fingerprint(0)) is None
        assert cache._usage == (cache.total_bytes(), 3)

    def test_other_writer_counted_at_next_listing(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        other = ResultCache(tmp_path, max_bytes=None)
        for n in range(2):
            self._put(cache, n, n)
        for n in range(2, 5):
            self._put(other, n, n)
        # Within its own totals (3 of 3): no listing, 6 entries stay.
        self._put(cache, 5, 5)
        assert cache.stats.evictions == 0 and len(cache) == 6
        # Over them: the listing sees the other writer's entries too.
        cache.put(self.fingerprint(6), {"a": np.arange(4)})
        assert cache.stats.evictions == 4
        assert sorted(cache.keys()) == sorted(
            fingerprint_key(self.fingerprint(n)) for n in (4, 5, 6))
        assert cache._usage == (cache.total_bytes(), 3)

    def test_clear_resets_totals(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        for n in range(2):
            cache.put(self.fingerprint(n), {"a": np.arange(4)})
        cache.clear()
        assert cache._usage == (0, 0)
