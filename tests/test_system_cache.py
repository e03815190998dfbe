"""Metadata cache: hit/miss behaviour, LRU, line grouping."""

import pytest

from repro.common.errors import ConfigError
from repro.system.cache import MetadataCache


class TestBasics:
    def test_first_access_misses(self):
        cache = MetadataCache(1024)
        assert cache.lookup(5) is False
        assert cache.misses == 1

    def test_second_access_hits(self):
        cache = MetadataCache(1024)
        cache.lookup(5)
        assert cache.lookup(5) is True
        assert cache.hits == 1

    def test_entries_share_lines(self):
        # 4-byte entries: 16 per 64 B line; adjacent keys hit together.
        cache = MetadataCache(1024, entry_bytes=4)
        cache.lookup(0)
        assert cache.lookup(15) is True  # same line
        assert cache.lookup(16) is False  # next line

    def test_entry_bytes_8(self):
        cache = MetadataCache(1024, entry_bytes=8)
        assert cache.entries_per_line == 8

    def test_miss_rate(self):
        cache = MetadataCache(1024)
        cache.lookup(0)
        cache.lookup(0)
        assert (cache.misses, cache.hits) == (1, 1)

    def test_contains_does_not_mutate(self):
        cache = MetadataCache(1024)
        assert cache.contains(0) is False
        assert cache.misses == 0
        cache.lookup(0)
        assert cache.contains(0) is True


class TestEviction:
    def test_lru_eviction_within_set(self):
        # One set, 2 ways: the least recently used line leaves.
        cache = MetadataCache(128, entry_bytes=64, associativity=2)
        assert cache.sets == 1
        cache.lookup(0)
        cache.lookup(1)
        cache.lookup(0)  # 0 is now MRU
        cache.lookup(2)  # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)
        assert cache.contains(2)

    def test_capacity_respected(self):
        cache = MetadataCache(2048, entry_bytes=64, associativity=4)
        lines = cache.sets * cache.associativity
        for key in range(lines * 3):
            cache.lookup(key)
        resident = sum(1 for key in range(lines * 3) if cache.contains(key))
        assert resident <= lines


class TestSizing:
    def test_paper_cache_sizes_construct(self):
        for kib in (16, 32, 64):
            cache = MetadataCache(kib * 1024)
            assert cache.effective_bytes <= kib * 1024
            assert cache.effective_bytes >= kib * 1024 // 2

    def test_rejects_sub_line_capacity(self):
        with pytest.raises(ConfigError):
            MetadataCache(32)

    def test_rejects_oversized_entry(self):
        with pytest.raises(ConfigError):
            MetadataCache(1024, entry_bytes=128)
