"""Tests for the two-pool compartmentalized store (repro.serve.twopool)."""

import pytest

from repro.apps.kvstore import ObliviousKVStore
from repro.config import small_config
from repro.engine.registry import build_variant
from repro.serve.bulk import BulkStore
from repro.serve.twopool import PromotionPolicy, TwoPoolStore


def _twopool(**policy_kwargs):
    policy_kwargs.setdefault("promote_after", 3)
    policy_kwargs.setdefault("hot_capacity", 4)
    hot = ObliviousKVStore(
        build_variant("ps", small_config(height=6, seed=11)),
        directory_buckets=16,
    )
    return TwoPoolStore(hot, BulkStore(), PromotionPolicy(**policy_kwargs))


class TestRouting:
    def test_sensitive_prefix_pinned_hot(self):
        store = _twopool()
        store.put("secret:password", b"hunter2")
        assert store.is_hot("secret:password")
        assert store.get("secret:password") == b"hunter2"
        assert len(store.bulk) == 0  # never touched the leaky pool

    def test_plain_keys_start_in_bulk(self):
        store = _twopool()
        store.put("blob", b"payload")
        assert not store.is_hot("blob")
        assert "blob" in store.bulk
        assert store.get("blob") == b"payload"

    def test_missing_key_raises(self):
        store = _twopool()
        with pytest.raises(KeyError):
            store.get("ghost")

    def test_bulk_pool_leaks_pattern_hot_pool_does_not(self):
        # The compartmentalization trade made explicit: bulk accesses
        # append to an observable trace, ORAM-pool accesses do not.
        store = _twopool()
        store.put("blob", b"x")
        store.get("blob")
        assert len(store.bulk.access_log) == 2
        before = len(store.bulk.access_log)
        store.put("secret:k", b"y")
        store.get("secret:k")
        assert len(store.bulk.access_log) == before


class TestPromotion:
    def test_hot_after_threshold_touches(self):
        store = _twopool(promote_after=3)
        store.put("warm", b"value")
        store.get("warm")
        assert not store.is_hot("warm")
        store.get("warm")  # third touch within the window
        assert store.is_hot("warm")
        assert store.stats.promotions == 1
        # Value migrated, not copied: gone from bulk, served from hot.
        assert "warm" not in store.bulk
        assert store.get("warm") == b"value"

    def test_cold_keys_never_promote(self):
        store = _twopool(promote_after=3)
        for i in range(10):
            store.put(f"key-{i}", bytes([i]))
        assert store.stats.promotions == 0
        assert all(not store.is_hot(f"key-{i}") for i in range(10))


class TestDemotion:
    def test_lru_demoted_over_capacity(self):
        store = _twopool(promote_after=2, hot_capacity=2)
        for name in ("a", "b", "c"):
            store.put(name, name.encode())
            store.get(name)  # second touch -> promoted
        assert store.stats.promotions == 3
        assert store.stats.demotions >= 1
        hot_count = sum(store.is_hot(k) for k in ("a", "b", "c"))
        assert hot_count == 2
        # LRU choice: "a" was promoted (touched) first, so it went back.
        assert not store.is_hot("a")
        assert store.get("a") == b"a"  # value survived the migration

    def test_pinned_keys_never_demoted(self):
        store = _twopool(promote_after=2, hot_capacity=1)
        for i in range(4):
            store.put(f"secret:{i}", bytes([i]))
        assert all(store.is_hot(f"secret:{i}") for i in range(4))
        assert store.stats.demotions == 0


class TestDelete:
    def test_delete_from_either_pool(self):
        store = _twopool()
        store.put("secret:gone", b"1")
        store.put("bulk-gone", b"2")
        store.delete("secret:gone")
        store.delete("bulk-gone")
        for key in ("secret:gone", "bulk-gone"):
            with pytest.raises(KeyError):
                store.get(key)

    def test_status_snapshot(self):
        store = _twopool()
        store.put("secret:a", b"1")
        store.put("blob", b"2")
        status = store.status()
        assert status["pinned"] == 1
        assert status["bulk_entries"] == 1
        assert status["hot_ops"] == 1 and status["bulk_ops"] == 1
