"""Set-associative cache model (repro.mem.cache)."""

import pytest

from repro.common.config import CacheConfig
from repro.common.errors import SimulationError
from repro.mem.cache import SetAssocCache


def make_cache(size=512, ways=2):
    return SetAssocCache(CacheConfig(size_bytes=size, ways=ways),
                         name="test")


def test_miss_then_hit():
    cache = make_cache()
    assert cache.lookup(0x100) is None
    cache.insert(0x100)
    line = cache.lookup(0x100)
    assert line is not None
    assert line.block == 0x100


def test_lookup_is_line_granular():
    cache = make_cache()
    cache.insert(0x100)
    assert cache.lookup(0x13F) is not None   # same 64 B line
    assert cache.lookup(0x140) is None       # next line


def test_double_insert_raises():
    cache = make_cache()
    cache.insert(0x100)
    with pytest.raises(SimulationError):
        cache.insert(0x100)


def test_lru_eviction_order():
    cache = make_cache(size=512, ways=2)  # 4 sets
    set_stride = 4 * 64  # same set every 256 bytes
    a, b, c = 0, set_stride, 2 * set_stride
    cache.insert(a)
    cache.insert(b)
    cache.lookup(a)          # touch a; b becomes LRU
    victim = cache.insert(c)
    assert victim.block == b
    assert cache.contains(a)
    assert not cache.contains(b)


def test_contains_does_not_perturb_lru():
    cache = make_cache(size=512, ways=2)
    set_stride = 4 * 64
    a, b, c = 0, set_stride, 2 * set_stride
    cache.insert(a)
    cache.insert(b)
    cache.contains(a)        # must NOT refresh a
    victim = cache.insert(c)
    assert victim.block == a


def test_invalidate_returns_line():
    cache = make_cache()
    cache.insert(0x40, dirty=True)
    line = cache.invalidate(0x40)
    assert line.dirty
    assert cache.invalidate(0x40) is None


def test_occupancy_and_resident_blocks():
    cache = make_cache()
    cache.insert(0)
    cache.insert(64)
    assert cache.occupancy == 2
    assert sorted(cache.resident_blocks()) == [0, 64]


def test_dirty_lines_filter():
    cache = make_cache()
    cache.insert(0, dirty=True)
    cache.insert(64)
    dirty = cache.dirty_lines()
    assert [line.block for line in dirty] == [0]


def test_invalidate_all():
    cache = make_cache()
    cache.insert(0)
    cache.insert(64)
    removed = cache.invalidate_all()
    assert len(removed) == 2
    assert cache.occupancy == 0


def test_occupancy_never_exceeds_capacity():
    cache = make_cache(size=512, ways=2)  # 8 lines max
    for i in range(32):
        if not cache.contains(i * 64):
            cache.insert(i * 64)
    assert cache.occupancy <= 8


def test_line_fields_roundtrip():
    cache = make_cache()
    cache.insert(0, dirty=True, state="W", lease=500, paddr=0x1000)
    line = cache.lookup(0)
    assert line.state == "W"
    assert line.lease == 500
    assert line.paddr == 0x1000


def test_multi_eviction_follows_insertion_order():
    # With no intervening touches, victims leave in insertion order.
    cache = make_cache(size=512, ways=2)
    set_stride = 4 * 64
    a, b, c, d = (i * set_stride for i in range(4))
    cache.insert(a)
    cache.insert(b)
    assert cache.insert(c).block == a
    assert cache.insert(d).block == b
    assert cache.contains(c) and cache.contains(d)


def test_untouched_lookup_does_not_perturb_lru():
    cache = make_cache(size=512, ways=2)
    set_stride = 4 * 64
    a, b, c = 0, set_stride, 2 * set_stride
    cache.insert(a)
    cache.insert(b)
    cache.lookup(a, touch=False)   # protocol probe: must not refresh a
    assert cache.insert(c).block == a


def test_reinsert_after_invalidate_is_legal():
    cache = make_cache()
    cache.insert(0x100, dirty=True)
    removed = cache.invalidate(0x100)
    assert removed.dirty
    cache.insert(0x100)            # no SimulationError
    assert not cache.lookup(0x100).dirty


def test_incremental_occupancy_matches_recount():
    """The O(1) occupancy counter must equal a recomputed sum across
    every mutation path: insert (with and without eviction),
    invalidate (hit and no-op), and invalidate_all."""
    cache = make_cache(size=512, ways=2)  # 4 sets, 8 lines
    set_stride = 4 * 64

    def recount():
        return sum(len(s) for s in cache._sets)

    assert cache.occupancy == recount() == 0
    for i in range(6):                       # plain inserts
        cache.insert(i * set_stride + (i % 4) * 64)
        assert cache.occupancy == recount()
    for i in range(6, 12):                   # inserts that evict
        cache.insert(i * set_stride)
        assert cache.occupancy == recount()
    cache.invalidate(6 * set_stride)         # removing hit
    assert cache.occupancy == recount()
    cache.invalidate(0x7F00)                 # absent block: no-op
    assert cache.occupancy == recount()
    cache.insert(6 * set_stride)             # re-insert after invalidate
    assert cache.occupancy == recount()
    cache.invalidate_all()
    assert cache.occupancy == recount() == 0


def test_install_returns_line_and_victim():
    cache = make_cache(size=512, ways=2)
    set_stride = 4 * 64
    line, victim = cache.install(0, state="W")
    assert line.block == 0 and line.state == "W"
    assert victim is None
    cache.install(set_stride)
    _, victim = cache.install(2 * set_stride)
    assert victim.block == 0
    assert cache.lookup(0, touch=False) is None


def test_double_insert_reports_cache_name_and_block():
    cache = make_cache()
    cache.insert(0x1C0)
    with pytest.raises(SimulationError, match=r"test: double insert "
                                              r"of block 0x1c0"):
        cache.insert(0x1C0)
