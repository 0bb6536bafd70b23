"""Generic set-associative cache model.

One class serves every cache in the hierarchy — host L1, host L2 data
array, accelerator L0X and shared L1X.  Coherence protocols layer their
state on top of :class:`CacheLine` fields (``state`` for MESI,
``lease``/``gtime`` for ACC) rather than subclassing, keeping the
mechanical parts (indexing, LRU, eviction) in one tested place.

This sits on the per-access hot path of every simulation, so the
mechanics are deliberately low-level: :class:`CacheLine` is a
``__slots__`` class (no dataclass machinery), and the line mask / set
shift are precomputed at construction so :meth:`lookup` does two integer
ops and one dict probe instead of chasing ``config`` attributes (the
``num_sets`` *property* re-divides on every call).
"""

from ..common.errors import SimulationError


class CacheLine:
    """One cache line's bookkeeping state.

    Attributes:
        block: line-aligned address (the tag).
        dirty: set by stores under write-back policy.
        pid: process id tag (the tile caches are virtually indexed and
            PID-tagged so accelerators from different processes co-exist).
        state: MESI/MEI state character for protocol-managed caches.
        lease: ACC local timestamp (LTIME) — the line is valid until this
            time; ``None`` for non-ACC caches.
        gtime: ACC global timestamp (GTIME, L1X only) — the time by which
            every L0X will have self-invalidated the line.
        write_epoch_end: end of an ACC write epoch; the line is locked
            until then (L1X only).
        paddr: physical line address backing a virtually-indexed line
            (L1X only; ``None`` for physically-indexed caches).
    """

    __slots__ = ("block", "dirty", "pid", "state", "lease", "gtime",
                 "write_epoch_end", "paddr", "last_use")

    def __init__(self, block, dirty=False, pid=0, state="V", lease=None,
                 gtime=None, write_epoch_end=None, paddr=None, last_use=0):
        self.block = block
        self.dirty = dirty
        self.pid = pid
        self.state = state
        self.lease = lease
        self.gtime = gtime
        self.write_epoch_end = write_epoch_end
        self.paddr = paddr
        self.last_use = last_use

    def __repr__(self):
        return ("CacheLine(block={:#x}, dirty={}, pid={}, state={!r}, "
                "lease={}, gtime={}, write_epoch_end={}, paddr={}, "
                "last_use={})").format(
                    self.block, self.dirty, self.pid, self.state,
                    self.lease, self.gtime, self.write_epoch_end,
                    self.paddr, self.last_use)


class SetAssocCache:
    """A set-associative cache with true-LRU replacement.

    The cache is a pure state container: it does not know about latency,
    energy or coherence.  Systems compose it with the energy models and
    protocol engines.
    """

    def __init__(self, config, name="cache"):
        self.config = config
        self.name = name
        self._sets = [dict() for _ in range(config.num_sets)]
        # Flat residency index over all sets: the block address already
        # determines the set, so `lookup` (by far the hottest query) can
        # do ONE dict probe with no set-index arithmetic.  The per-set
        # dicts remain the source of truth for ways limits and LRU
        # victim selection; every mutation maintains both.
        self._lines = {}
        self._use_clock = 0
        # Incremental resident-line count: maintained by insert/evict/
        # invalidate so `occupancy` (read on stats paths) never rescans
        # the sets.
        self._occupancy = 0
        # Hot-path constants (line size and set count are powers of two,
        # enforced by CacheConfig validation).
        self._block_mask = ~(config.line_size - 1)
        self._set_shift = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._ways = config.ways

    # -- indexing ---------------------------------------------------------

    def _set_for(self, addr):
        return self._sets[(addr >> self._set_shift) & self._set_mask]

    def _tick(self):
        self._use_clock += 1
        return self._use_clock

    # -- queries ----------------------------------------------------------

    def lookup(self, addr, touch=True):
        """Return the resident :class:`CacheLine` for ``addr`` or ``None``.

        ``touch`` updates LRU state; pass ``False`` for protocol probes
        that must not perturb replacement (e.g. forwarded-request checks).
        """
        line = self._lines.get(addr & self._block_mask)
        if line is not None and touch:
            self._use_clock = clock = self._use_clock + 1
            line.last_use = clock
        return line

    def contains(self, addr):
        """Return whether ``addr``'s line is resident (no LRU update)."""
        return self.lookup(addr, touch=False) is not None

    def resident_blocks(self):
        """Return a list of all resident line addresses."""
        return [block for cache_set in self._sets for block in cache_set]

    def lines(self):
        """Iterate over all resident :class:`CacheLine` objects."""
        for cache_set in self._sets:
            yield from cache_set.values()

    @property
    def occupancy(self):
        return self._occupancy

    # -- mutation ---------------------------------------------------------

    def insert(self, addr, **line_fields):
        """Insert a line for ``addr``, returning the evicted line or None.

        Raises if the line is already resident — callers must use
        :meth:`lookup` first; double-insertion indicates a protocol bug.
        """
        return self.install(addr, **line_fields)[1]

    def install(self, addr, **line_fields):
        """Like :meth:`insert` but returns ``(line, victim)``.

        Protocol code that needs the just-installed line (e.g. the ACC
        miss path recording a store into it) uses this to skip a
        redundant post-insert lookup.
        """
        block = addr & self._block_mask
        cache_set = self._sets[(addr >> self._set_shift) & self._set_mask]
        if block in cache_set:
            raise SimulationError(
                "{}: double insert of block {:#x}".format(self.name, block))
        victim = None
        if len(cache_set) >= self._ways:
            victim = self._evict_lru(cache_set)
        self._use_clock = clock = self._use_clock + 1
        cache_set[block] = line = CacheLine(block=block, last_use=clock,
                                            **line_fields)
        self._lines[block] = line
        self._occupancy += 1
        return line, victim

    def _evict_lru(self, cache_set):
        lru_block = min(cache_set, key=lambda b: cache_set[b].last_use)
        del self._lines[lru_block]
        self._occupancy -= 1
        return cache_set.pop(lru_block)

    def invalidate(self, addr):
        """Remove ``addr``'s line, returning it (or ``None`` if absent)."""
        block = addr & self._block_mask
        line = self._set_for(addr).pop(block, None)
        if line is not None:
            del self._lines[block]
            self._occupancy -= 1
        return line

    def invalidate_all(self):
        """Flush every line, returning the list of removed lines."""
        removed = []
        for cache_set in self._sets:
            removed.extend(cache_set.values())
            cache_set.clear()
        self._lines.clear()
        self._occupancy = 0
        return removed

    def dirty_lines(self):
        """Return all resident dirty lines."""
        return [line for line in self.lines() if line.dirty]

    def __repr__(self):
        return "SetAssocCache({}, {}B, {}-way, {}/{} lines)".format(
            self.name, self.config.size_bytes, self.config.ways,
            self.occupancy, self.config.num_lines)
