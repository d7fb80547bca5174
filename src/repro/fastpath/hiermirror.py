"""Specialized closures of the MemoryHierarchy hot path.

``MemoryHierarchy.access`` and ``issue_prefetch`` do their cache-set work
inline on the caches' set lists.  These factories build closures of the
same shape, statement for statement, over one hierarchy's internals — set
lists, masks, latencies, the in-flight and prefetched-unused dicts, the
stats objects — bound once instead of loaded per call, and with the
telemetry and ledger branches left out.  They are therefore exact for the
configuration they are built for:

* telemetry disabled (no sampling countdowns to advance), and
* no prefetch lifecycle ledger attached.

Every counter increment, LRU promotion, eviction classification and
per-stream attribution happens in the reference order against the same
underlying objects, so the hierarchy state after N operations is
bit-identical to N reference calls — the property ``check_fastpath_identity``,
``tests/test_fastpath_equiv.py`` and the oracle's ``diff_hierarchy`` fuzzing
pin.  When the configuration is not eligible (telemetry on, ledger
attached, subclassed or wrapped hierarchy),
:class:`~repro.fastpath.kernel.FastCtx` binds the reference bound methods
instead and nothing here runs.

The closures intentionally duplicate reference logic instead of calling
into it; any change to ``repro.machine.hierarchy`` must be mirrored here
(the differential suite fails loudly if the two drift apart).
"""

from __future__ import annotations

from repro.machine.hierarchy import StreamPrefetchStats


def mirror_eligible(hier) -> bool:
    """Whether the closures below are exact for this hierarchy *right now*."""
    from repro.machine.cache import Cache
    from repro.machine.hierarchy import MemoryHierarchy

    return (
        type(hier) is MemoryHierarchy
        and type(hier.l1) is Cache
        and type(hier.l2) is Cache
        and getattr(hier.access, "__func__", None) is MemoryHierarchy.access
        and getattr(hier.issue_prefetch, "__func__", None)
        is MemoryHierarchy.issue_prefetch
        and not hier.telemetry.enabled
        and hier.ledger is None
    )


def make_fast_access(hier):
    """Closure equivalent to ``MemoryHierarchy.access`` (telemetry off, no ledger)."""
    l1 = hier.l1
    l2 = hier.l2
    l1_sets = l1._sets
    l1_mask = l1._set_mask
    l1_assoc = l1.geometry.associativity
    l2_sets = l2._sets
    l2_mask = l2._set_mask
    l2_assoc = l2.geometry.associativity
    shift = hier._block_shift
    inflight = hier._inflight
    pf_unused = hier._prefetched_unused
    prefetch = hier.prefetch
    stream_of = hier._stream_of
    stream_stats = hier.stream_stats
    l2_lat = hier.config.l2_latency
    mem_lat = hier.config.memory_latency

    def note(block: int, outcome: str) -> None:
        # _note_outcome: credit a classified prefetch to its issuing stream.
        key = stream_of.pop(block, None)
        if key is None:
            return
        stats = stream_stats.get(key)
        if stats is None:
            stats = stream_stats[key] = StreamPrefetchStats()
        setattr(stats, outcome, getattr(stats, outcome) + 1)

    def fast_access(addr: int, now: int) -> int:
        hier.demand_accesses += 1
        block = addr >> shift
        stall = 0
        if block in inflight:
            ready = inflight.pop(block)
            if ready > now:
                stall = ready - now
                prefetch.late += 1
                if stream_of:
                    note(block, "late")
                pf_unused.pop(block, None)
            # on-time arrivals are counted below when the L1 lookup hits
        way = l1_sets[block & l1_mask]
        if block in way:
            # L1 hit: promote to MRU
            l1.hits += 1
            if way[-1] != block:
                way.remove(block)
                way.append(block)
            if block in pf_unused:
                del pf_unused[block]
                prefetch.useful += 1
                if stream_of:
                    note(block, "useful")
            return stall
        l1.misses += 1
        way2 = l2_sets[block & l2_mask]
        if block in way2:
            l2.hits += 1
            if way2[-1] != block:
                way2.remove(block)
                way2.append(block)
            stall += l2_lat
            if block in pf_unused:
                del pf_unused[block]
                prefetch.useful += 1
                if stream_of:
                    note(block, "useful")
        else:
            l2.misses += 1
            stall += mem_lat
            # L2 fill.  Inclusion: an L2 victim also leaves L1, and an
            # unused prefetched victim is wasted.
            if len(way2) >= l2_assoc:
                victim = way2.pop(0)
                l2.evictions += 1
                wv = l1_sets[victim & l1_mask]
                if victim in wv:
                    wv.remove(victim)
                if victim in pf_unused:
                    del pf_unused[victim]
                    inflight.pop(victim, None)
                    prefetch.wasted += 1
                    if stream_of:
                        note(victim, "wasted")
            way2.append(block)
        # L1 fill (the block missed L1, so it is not resident)
        if len(way) >= l1_assoc:
            victim = way.pop(0)
            l1.evictions += 1
            if victim in pf_unused and victim not in l2_sets[victim & l2_mask]:
                del pf_unused[victim]
                inflight.pop(victim, None)
                prefetch.wasted += 1
                if stream_of:
                    note(victim, "wasted")
        way.append(block)
        return stall

    return fast_access


def make_fast_issue_prefetch(hier):
    """Closure equivalent to ``MemoryHierarchy.issue_prefetch`` (same terms)."""
    l1 = hier.l1
    l2 = hier.l2
    l1_sets = l1._sets
    l1_mask = l1._set_mask
    l1_assoc = l1.geometry.associativity
    l2_sets = l2._sets
    l2_mask = l2._set_mask
    l2_assoc = l2.geometry.associativity
    shift = hier._block_shift
    inflight = hier._inflight
    pf_unused = hier._prefetched_unused
    prefetch = hier.prefetch
    stream_of = hier._stream_of
    stream_stats = hier.stream_stats
    l2_lat = hier.config.l2_latency
    mem_lat = hier.config.memory_latency

    def note(block: int, outcome: str) -> None:
        key = stream_of.pop(block, None)
        if key is None:
            return
        stats = stream_stats.get(key)
        if stats is None:
            stats = stream_stats[key] = StreamPrefetchStats()
        setattr(stats, outcome, getattr(stats, outcome) + 1)

    def fast_issue_prefetch(addr: int, now: int, source: str = "sw") -> None:
        prefetch.issued += 1
        by_source = prefetch.by_source
        by_source[source] = by_source.get(source, 0) + 1
        block = addr >> shift
        # _stream_map is swapped by the optimizer at every install; re-read.
        smap = hier._stream_map
        skey = smap.get(block) if smap is not None else None
        if skey is not None:
            sstats = stream_stats.get(skey)
            if sstats is None:
                sstats = stream_stats[skey] = StreamPrefetchStats()
            sstats.issued += 1
        if block in l1_sets[block & l1_mask] or block in inflight:
            prefetch.redundant += 1
            if skey is not None:
                sstats.redundant += 1
            return
        if block in l2_sets[block & l2_mask]:
            # L2-resident: promote to L1 quickly.
            inflight[block] = now + l2_lat
        else:
            inflight[block] = now + mem_lat
            # L2 fill with inclusion, as in fast_access()
            way2 = l2_sets[block & l2_mask]
            if len(way2) >= l2_assoc:
                victim = way2.pop(0)
                l2.evictions += 1
                wv = l1_sets[victim & l1_mask]
                if victim in wv:
                    wv.remove(victim)
                if victim in pf_unused:
                    del pf_unused[victim]
                    inflight.pop(victim, None)
                    prefetch.wasted += 1
                    if stream_of:
                        note(victim, "wasted")
            way2.append(block)
        # L1 fill (the block is not L1-resident: checked above)
        way = l1_sets[block & l1_mask]
        if len(way) >= l1_assoc:
            victim = way.pop(0)
            l1.evictions += 1
            if victim in pf_unused and victim not in l2_sets[victim & l2_mask]:
                del pf_unused[victim]
                inflight.pop(victim, None)
                prefetch.wasted += 1
                if stream_of:
                    note(victim, "wasted")
        way.append(block)
        pf_unused[block] = now
        if skey is not None:
            stream_of[block] = skey

    return fast_issue_prefetch
