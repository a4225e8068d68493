"""Unit tests: cache models."""

import pytest

from repro.arch.cache import Cache, CacheConfig, CacheHierarchy


def small_cache(ways=2, sets=4):
    return Cache(CacheConfig("t", sets * ways * 64, 64, ways))


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig("L1", 4096, 64, 2)
        assert cfg.num_sets == 32
        assert cfg.num_lines == 64

    def test_bad_line_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 4096, 48, 2)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 1000, 64, 2)

    def test_nonpow2_sets_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheConfig("x", 3 * 64 * 2, 64, 2))


class TestCacheBehaviour:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.access_line(10) is False
        assert c.access_line(10) is True
        assert (c.hits, c.misses) == (1, 1)

    def test_different_sets_do_not_conflict(self):
        c = small_cache(ways=1, sets=4)
        assert c.access_line(0) is False
        assert c.access_line(1) is False
        assert c.access_line(0) is True  # still resident

    def test_conflict_eviction_lru(self):
        c = small_cache(ways=2, sets=4)
        # Lines 0, 4, 8 all map to set 0 in a 4-set cache.
        c.access_line(0)
        c.access_line(4)
        c.access_line(8)  # evicts 0 (LRU)
        assert c.access_line(4) is True
        assert c.access_line(8) is True
        assert c.access_line(0) is False

    def test_lru_updated_on_hit(self):
        c = small_cache(ways=2, sets=4)
        c.access_line(0)
        c.access_line(4)
        c.access_line(0)  # 0 becomes MRU; 4 is now LRU
        c.access_line(8)  # evicts 4
        assert c.access_line(0) is True
        assert c.access_line(4) is False

    def test_set_index_masks_low_bits(self):
        c = small_cache(ways=2, sets=4)
        assert c.set_index(5) == 1
        assert c.set_index(9) == 1

    def test_probe_does_not_modify(self):
        c = small_cache()
        assert c.probe_line(3) is False
        assert c.misses == 0

    def test_flush_preserves_stats(self):
        c = small_cache()
        c.access_line(1)
        c.flush()
        assert c.misses == 1
        assert c.access_line(1) is False

    def test_capacity_bounded(self):
        c = small_cache(ways=2, sets=4)
        for line in range(100):
            c.access_line(line)
        assert len(c.resident_lines()) <= 8


class TestHierarchy:
    """Latencies are given in cycles; accesses return centicycles."""

    def _hierarchy(self):
        return CacheHierarchy(
            l1i=CacheConfig("L1I", 2 * 64 * 2, 64, 2),
            l1d=CacheConfig("L1D", 2 * 64 * 2, 64, 2),
            l2=CacheConfig("L2", 8 * 64 * 4, 64, 4),
            lat_l2=10.0,
            lat_mem=100.0,
        )

    def test_cold_miss_costs_memory(self):
        h = self._hierarchy()
        assert h.access_data(7) == 10000.0

    def test_l2_hit_after_l1_eviction(self):
        h = self._hierarchy()
        h.access_data(0)
        h.access_data(4)
        h.access_data(8)  # evicts 0 from L1 (set 0), still in L2
        assert h.access_data(0) == 1000.0

    def test_l1_hit_is_free(self):
        h = self._hierarchy()
        h.access_data(3)
        assert h.access_data(3) == 0.0

    def test_instruction_and_data_share_l2(self):
        h = self._hierarchy()
        h.access_instruction(5)  # brings line 5 into L2
        # Evict 5 from L1I by filling its set (set 1 of 2-set L1).
        h.access_instruction(3)
        h.access_instruction(7)
        # A *data* access to line 5 misses L1D but hits the shared L2.
        assert h.access_data(5) == 1000.0

    def test_no_l2_means_flat_latency(self):
        h = CacheHierarchy(
            l1i=CacheConfig("L1I", 2 * 64 * 2, 64, 2),
            l1d=CacheConfig("L1D", 2 * 64 * 2, 64, 2),
            l2=None,
            lat_l2=10.0,
            lat_mem=100.0,
        )
        assert h.access_data(1) == 1000.0  # "perfect L2"
        assert h.access_data(1) == 0.0
