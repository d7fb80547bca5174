"""Two-level memory hierarchy with software-prefetch modelling.

This is the component that makes prefetching *mean something* in a Python
reproduction of the paper: every simulated load/store is charged stall cycles
according to where its block is found, and a ``prefetcht0``-style prefetch
installs the block into both levels immediately (so a wrong prefetch pollutes
the cache, the effect that sinks the Seq-pref baseline in Figure 12) with a
*ready cycle*; a demand access that arrives before the ready cycle pays only
the residual latency (the timeliness effect Section 1 calls out).

The hierarchy also keeps the counters the evaluation needs: per-level
hits/misses and the accuracy/timeliness/pollution breakdown of prefetches.
When the optimizer installs a block -> stream attribution map
(:meth:`MemoryHierarchy.set_stream_attribution`), the same classification
points additionally credit each outcome to the hot data stream whose handler
issued the prefetch (``stream_stats``) — the input of the resilience
watchdog's per-stream scoreboard.  Attribution is bookkeeping only and never
changes stall accounting.

Telemetry: the hierarchy emits :class:`~repro.telemetry.events.PrefetchIssued`,
``PrefetchUsed`` (with the issue-to-use lead distance), ``PrefetchEvicted``
(pollution), ``CacheMiss`` and ``CacheFlushed`` events into the bus assigned
to :attr:`MemoryHierarchy.telemetry`.  The high-rate kinds (misses and the
prefetch life cycle) are *sampled* — one event per ``miss_sample_every`` /
``prefetch_sample_every`` occurrences, deterministic counters, so a run's
event log is reproducible and ``emitted == occurrences // period`` exactly;
set the periods to 1 for exhaustive logs.  Exact totals always come from the
:class:`PrefetchStats`/cache counters, which the telemetry session reconciles
into its metrics registry.  Emission never changes stall accounting — runs
are cycle-identical with telemetry on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.cache import Cache
from repro.machine.config import MachineConfig
from repro.telemetry.events import (
    CacheFlushed,
    CacheMiss,
    PrefetchEvicted,
    PrefetchIssued,
    PrefetchUsed,
)
from repro.telemetry.sinks import NULL_SINK


@dataclass
class PrefetchStats:
    """Outcome counters for issued prefetches."""

    issued: int = 0
    #: prefetched block was already cache-resident (no-op prefetch)
    redundant: int = 0
    #: a demand access hit a prefetched block after its data arrived
    useful: int = 0
    #: a demand access hit a prefetched block before arrival (partial stall)
    late: int = 0
    #: prefetched block evicted (or never touched) without a demand hit
    wasted: int = 0
    #: issued prefetches per issuer tag ("sw"/"static"/"stride"/"markov"),
    #: so Figure 12's Seq-pref/Dyn-pref bars are attributable by source
    by_source: dict[str, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        """Fraction of non-redundant prefetches that served a demand access."""
        used = self.useful + self.late
        total = used + self.wasted
        return used / total if total else 0.0

    @property
    def timeliness(self) -> float:
        """Fraction of *used* prefetches whose data arrived in time."""
        used = self.useful + self.late
        return self.useful / used if used else 0.0

    @property
    def pollution(self) -> float:
        """Fraction of non-redundant prefetches that only displaced data."""
        total = self.useful + self.late + self.wasted
        return self.wasted / total if total else 0.0

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view (sorted ``by_source`` for stable diffs)."""
        return {
            "issued": self.issued,
            "redundant": self.redundant,
            "useful": self.useful,
            "late": self.late,
            "wasted": self.wasted,
            "by_source": {k: self.by_source[k] for k in sorted(self.by_source)},
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "PrefetchStats":
        """Inverse of :meth:`to_dict`."""
        by_source = data.get("by_source", {}) or {}
        return cls(
            issued=int(data["issued"]),
            redundant=int(data["redundant"]),
            useful=int(data["useful"]),
            late=int(data["late"]),
            wasted=int(data["wasted"]),
            by_source={str(k): int(v) for k, v in sorted(by_source.items())},
        )


@dataclass
class StreamPrefetchStats:
    """Per-stream slice of :class:`PrefetchStats` (watchdog scoreboard input).

    Attribution is pure bookkeeping: these counters are updated at the same
    classification points as the aggregate stats and never influence stall
    accounting, so runs are cycle-identical with attribution on or off.
    """

    issued: int = 0
    redundant: int = 0
    useful: int = 0
    late: int = 0
    wasted: int = 0

    @property
    def classified(self) -> int:
        """Non-redundant prefetches that have met their fate."""
        return self.useful + self.late + self.wasted

    @property
    def accuracy(self) -> float:
        """Fraction of classified prefetches that served a demand access."""
        used = self.useful + self.late
        total = used + self.wasted
        return used / total if total else 0.0

    def to_dict(self) -> dict[str, int]:
        """JSON-serializable view."""
        return {
            "issued": self.issued,
            "redundant": self.redundant,
            "useful": self.useful,
            "late": self.late,
            "wasted": self.wasted,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "StreamPrefetchStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**{k: int(data[k]) for k in ("issued", "redundant", "useful", "late", "wasted")})


@dataclass
class CacheLevelStats:
    """Frozen counter view of one :class:`~repro.machine.cache.Cache` level.

    Duck-types the counter surface of the live cache (``hits``/``misses``/
    ``evictions``/``accesses``) so consumers of a deserialized
    :class:`HierarchyStats` read the same attributes as on a live run.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "CacheLevelStats":
        return cls(hits=int(data["hits"]), misses=int(data["misses"]), evictions=int(data["evictions"]))


@dataclass
class HierarchyStats:
    """Serializable statistics snapshot of a finished hierarchy.

    Carries everything the bench/oracle layers read off a finished run's
    :class:`MemoryHierarchy` — per-level counters, the prefetch
    classification and the per-stream attribution — without the live cache
    state, so a :class:`~repro.engine.result.RunResult` can round-trip
    through the result cache bit-identically.  Stream attribution keys are
    the human-readable stream names (live hierarchies key by opaque stream
    identity objects; the snapshot resolves them through ``stream_names``).
    """

    l1: CacheLevelStats = field(default_factory=CacheLevelStats)
    l2: CacheLevelStats = field(default_factory=CacheLevelStats)
    demand_accesses: int = 0
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)
    stream_stats: dict[str, StreamPrefetchStats] = field(default_factory=dict)
    stream_names: dict[str, str] = field(default_factory=dict)

    @property
    def l1_miss_rate(self) -> float:
        """L1 miss rate over all demand accesses (mirrors the live property)."""
        return self.l1.misses / self.l1.accesses if self.l1.accesses else 0.0

    def stats_snapshot(self) -> "HierarchyStats":
        """A snapshot of a snapshot is itself (mirrors the live method)."""
        return self

    @classmethod
    def capture(cls, hierarchy: "MemoryHierarchy") -> "HierarchyStats":
        """Freeze the counters of a live (finalized) hierarchy."""
        def name_of(key: object) -> str:
            return hierarchy.stream_names.get(key, str(key))

        return cls(
            l1=CacheLevelStats(hierarchy.l1.hits, hierarchy.l1.misses, hierarchy.l1.evictions),
            l2=CacheLevelStats(hierarchy.l2.hits, hierarchy.l2.misses, hierarchy.l2.evictions),
            demand_accesses=hierarchy.demand_accesses,
            prefetch=PrefetchStats.from_dict(hierarchy.prefetch.to_dict()),
            stream_stats={
                name_of(key): StreamPrefetchStats.from_dict(stats.to_dict())
                for key, stats in sorted(
                    hierarchy.stream_stats.items(), key=lambda kv: name_of(kv[0])
                )
            },
            stream_names={
                name_of(key): name_of(key) for key in sorted(hierarchy.stream_names, key=name_of)
            },
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view; inverse of :meth:`from_dict`."""
        return {
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "demand_accesses": self.demand_accesses,
            "prefetch": self.prefetch.to_dict(),
            "stream_stats": {name: s.to_dict() for name, s in sorted(self.stream_stats.items())},
            "stream_names": {k: self.stream_names[k] for k in sorted(self.stream_names)},
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "HierarchyStats":
        """Inverse of :meth:`to_dict`."""
        return cls(
            l1=CacheLevelStats.from_dict(data["l1"]),
            l2=CacheLevelStats.from_dict(data["l2"]),
            demand_accesses=int(data["demand_accesses"]),
            prefetch=PrefetchStats.from_dict(data["prefetch"]),
            stream_stats={
                str(name): StreamPrefetchStats.from_dict(s)
                for name, s in sorted(data.get("stream_stats", {}).items())
            },
            stream_names={str(k): str(v) for k, v in sorted(data.get("stream_names", {}).items())},
        )


class MemoryHierarchy:
    """L1 + L2 + DRAM with LRU fill, demand misses and software prefetch."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1 = Cache(config.l1, "L1")
        self.l2 = Cache(config.l2, "L2")
        self._block_shift = config.block_bytes.bit_length() - 1
        #: block -> cycle at which its in-flight prefetch completes
        self._inflight: dict[int, int] = {}
        #: blocks brought in by prefetch and not yet used by a demand access,
        #: mapped to their issue cycle (for lead-time telemetry)
        self._prefetched_unused: dict[int, int] = {}
        self.prefetch = PrefetchStats()
        self.demand_accesses = 0
        #: telemetry bus (``.enabled``/``.emit``); NULL_SINK = off
        self.telemetry = NULL_SINK
        #: emit one CacheMiss event per this many demand misses
        self.miss_sample_every = 64
        #: emit one PrefetchIssued/Used/Evicted event per this many occurrences
        self.prefetch_sample_every = 32
        self._misses_since_sample = 0
        self._issued_since_sample = 0
        self._used_since_sample = 0
        self._evicted_since_sample = 0
        #: block -> stream key for prefetch targets of the *current* install
        #: (None = attribution off; the watchdog-enabled optimizer sets it)
        self._stream_map: dict[int, object] | None = None
        #: in-flight attribution: prefetched-but-unclassified block -> stream
        self._stream_of: dict[int, object] = {}
        #: cumulative per-stream outcome counters (never reset mid-run)
        self.stream_stats: dict[object, StreamPrefetchStats] = {}
        #: stream key -> human-readable identity, filled by the optimizer at
        #: install time so scorecards can render attribution keys
        self.stream_names: dict[object, str] = {}
        #: per-prefetch lifecycle ledger (duck-typed ``on_*`` hooks; None =
        #: off).  Recording is bookkeeping only and never changes stalls.
        self.ledger = None

    def block_of(self, addr: int) -> int:
        """Block number containing byte address ``addr``."""
        return addr >> self._block_shift

    # --------------------------------------------------- per-stream attribution

    def set_stream_attribution(self, mapping: dict[int, object] | None) -> None:
        """Install (or clear) the block -> stream-key map for issued prefetches.

        The optimizer rebuilds this map at every install from the handlers'
        prefetch targets.  Prefetches already in flight keep the attribution
        they were issued under; ``stream_stats`` accumulates across installs.
        Attribution never changes hit/miss/stall behaviour — only the
        watchdog's scoreboard reads it.
        """
        self._stream_map = mapping

    def _note_outcome(self, block: int, outcome: str) -> None:
        """Credit a classified prefetch to its issuing stream, if attributed."""
        key = self._stream_of.pop(block, None)
        if key is None:
            return
        stats = self.stream_stats.get(key)
        if stats is None:
            stats = self.stream_stats[key] = StreamPrefetchStats()
        setattr(stats, outcome, getattr(stats, outcome) + 1)

    def access(self, addr: int, now: int) -> int:
        """Perform a demand access at cycle ``now``; return stall cycles.

        The set work (LRU promotion, fill, inclusion) is done inline on the
        caches' set lists with :class:`Cache`'s own counter updates: a
        method call per cache operation costs more than the operation.
        """
        self.demand_accesses += 1
        block = addr >> self._block_shift
        stall = 0
        telem = self.telemetry
        inflight = self._inflight
        pf_unused = self._prefetched_unused
        if block in inflight:
            ready = inflight.pop(block)
            if ready > now:
                stall = ready - now
                self.prefetch.late += 1
                if self._stream_of:
                    self._note_outcome(block, "late")
                issued_at = pf_unused.pop(block, now)
                if self.ledger is not None:
                    self.ledger.on_use(block, now, True, now - issued_at, stall)
                if telem.enabled:
                    # Sampling countdown is inlined at the hot sites: a helper
                    # call per occurrence alone costs measurable wall-clock.
                    n = self._used_since_sample + 1
                    if n >= self.prefetch_sample_every:
                        n = 0
                        telem.emit(PrefetchUsed(now, block, True, now - issued_at))
                    self._used_since_sample = n
            # on-time arrivals are counted below when the L1 lookup hits
        l1 = self.l1
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        way = l1_sets[block & l1_mask]
        if block in way:
            # L1 hit: promote to MRU
            l1.hits += 1
            if way[-1] != block:
                way.remove(block)
                way.append(block)
            if block in pf_unused:
                issued_at = pf_unused.pop(block)
                self.prefetch.useful += 1
                if self._stream_of:
                    self._note_outcome(block, "useful")
                if self.ledger is not None:
                    self.ledger.on_use(block, now, False, now - issued_at)
                if telem.enabled:
                    n = self._used_since_sample + 1
                    if n >= self.prefetch_sample_every:
                        n = 0
                        telem.emit(PrefetchUsed(now, block, False, now - issued_at))
                    self._used_since_sample = n
            return stall
        l1.misses += 1
        l2 = self.l2
        way2 = l2._sets[block & l2._set_mask]
        if block in way2:
            l2.hits += 1
            if way2[-1] != block:
                way2.remove(block)
                way2.append(block)
            stall += self.config.l2_latency
            if block in pf_unused:
                issued_at = pf_unused.pop(block)
                self.prefetch.useful += 1
                if self._stream_of:
                    self._note_outcome(block, "useful")
                if self.ledger is not None:
                    self.ledger.on_use(block, now, False, now - issued_at)
                if telem.enabled:
                    n = self._used_since_sample + 1
                    if n >= self.prefetch_sample_every:
                        n = 0
                        telem.emit(PrefetchUsed(now, block, False, now - issued_at))
                    self._used_since_sample = n
            level = "L1"
        else:
            l2.misses += 1
            stall += self.config.memory_latency
            # L2 fill.  Inclusion: an L2 victim also leaves L1.
            if len(way2) >= l2.geometry.associativity:
                victim = way2.pop(0)
                l2.evictions += 1
                victim_way = l1_sets[victim & l1_mask]
                if victim in victim_way:
                    victim_way.remove(victim)
                if victim in pf_unused:
                    self._account_eviction(victim, l1_only=False, now=now)
            way2.append(block)
            level = "L2"
        if telem.enabled:
            self._misses_since_sample += 1
            if self._misses_since_sample >= self.miss_sample_every:
                self._misses_since_sample = 0
                telem.emit(CacheMiss(now, level, block, stall))
        # L1 fill (the block missed L1, so it is not resident)
        if len(way) >= l1.geometry.associativity:
            victim = way.pop(0)
            l1.evictions += 1
            if victim in pf_unused:
                self._account_eviction(victim, l1_only=True, now=now)
        way.append(block)
        return stall

    def issue_prefetch(self, addr: int, now: int, source: str = "sw") -> None:
        """Issue a ``prefetcht0``-style prefetch for the block of ``addr``.

        The block is installed in both cache levels right away (it occupies a
        frame and can evict useful data — pollution) and becomes *ready* after
        the fetch latency; demand accesses before then pay the residual.
        ``source`` tags the telemetry event ("sw" for injected handlers,
        "stride"/"markov" for the hardware baselines).  The set work is
        inline, as in :meth:`access`.
        """
        self.prefetch.issued += 1
        by_source = self.prefetch.by_source
        by_source[source] = by_source.get(source, 0) + 1
        block = addr >> self._block_shift
        telem = self.telemetry
        ledger = self.ledger
        smap = self._stream_map
        skey = smap.get(block) if smap is not None else None
        if skey is not None:
            sstats = self.stream_stats.get(skey)
            if sstats is None:
                sstats = self.stream_stats[skey] = StreamPrefetchStats()
            sstats.issued += 1
        l1 = self.l1
        l1_sets = l1._sets
        l1_mask = l1._set_mask
        way = l1_sets[block & l1_mask]
        inflight = self._inflight
        if block in way or block in inflight:
            self.prefetch.redundant += 1
            if skey is not None:
                sstats.redundant += 1
            if ledger is not None:
                ledger.on_issue(block, now, source, skey, True)
            if telem.enabled:
                n = self._issued_since_sample + 1
                if n >= self.prefetch_sample_every:
                    n = 0
                    telem.emit(PrefetchIssued(now, block, source, True))
                self._issued_since_sample = n
            return
        if ledger is not None:
            ledger.on_issue(block, now, source, skey, False)
        if telem.enabled:
            n = self._issued_since_sample + 1
            if n >= self.prefetch_sample_every:
                n = 0
                telem.emit(PrefetchIssued(now, block, source, False))
            self._issued_since_sample = n
        pf_unused = self._prefetched_unused
        l2 = self.l2
        way2 = l2._sets[block & l2._set_mask]
        if block in way2:
            # L2-resident: promote to L1 quickly.
            inflight[block] = now + self.config.l2_latency
        else:
            inflight[block] = now + self.config.memory_latency
            # L2 fill with inclusion, as in access()
            if len(way2) >= l2.geometry.associativity:
                victim = way2.pop(0)
                l2.evictions += 1
                victim_way = l1_sets[victim & l1_mask]
                if victim in victim_way:
                    victim_way.remove(victim)
                if victim in pf_unused:
                    self._account_eviction(victim, l1_only=False, now=now)
            way2.append(block)
        # L1 fill (the block is not L1-resident: checked above)
        if len(way) >= l1.geometry.associativity:
            victim = way.pop(0)
            l1.evictions += 1
            if victim in pf_unused:
                self._account_eviction(victim, l1_only=True, now=now)
        way.append(block)
        pf_unused[block] = now
        if skey is not None:
            self._stream_of[block] = skey

    # ------------------------------------------------- sampled event emission
    # The issued/used countdowns are inlined at their hot call sites in
    # ``access``/``issue_prefetch``; only the colder eviction path keeps a
    # helper.

    def _emit_evicted(self, telem, now: int, block: int, at_finalize: bool) -> None:
        self._evicted_since_sample += 1
        if self._evicted_since_sample >= self.prefetch_sample_every:
            self._evicted_since_sample = 0
            telem.emit(PrefetchEvicted(now, block, at_finalize))

    def _account_eviction(self, victim: int, l1_only: bool, now: int) -> None:
        """Classify an evicted, still-unused prefetched block (the callers
        check ``victim in _prefetched_unused`` first)."""
        # A prefetched block that falls out of L2 (or out of L1 while absent
        # from L2) without being used was pure pollution.
        if not l1_only or not self.l2.contains(victim):
            del self._prefetched_unused[victim]
            self._inflight.pop(victim, None)
            self.prefetch.wasted += 1
            if self._stream_of:
                self._note_outcome(victim, "wasted")
            if self.ledger is not None:
                self.ledger.on_evict(victim, now)
            if self.telemetry.enabled:
                self._emit_evicted(self.telemetry, now, victim, False)

    def finalize(self, now: int = 0) -> None:
        """Classify still-unused prefetched blocks as wasted (end of run)."""
        telem = self.telemetry
        if telem.enabled:
            for block in self._prefetched_unused:
                self._emit_evicted(telem, now, block, True)
        if self._stream_of:
            for block in self._prefetched_unused:
                self._note_outcome(block, "wasted")
        if self.ledger is not None:
            for block in self._prefetched_unused:
                self.ledger.on_expire(block, now)
        self.prefetch.wasted += len(self._prefetched_unused)
        self._prefetched_unused.clear()
        self._inflight.clear()

    def flush(self, now: int = 0) -> None:
        """Empty both cache levels and forget in-flight prefetches.

        Hit/miss/eviction counters and prefetch statistics are preserved (the
        same guarantee :meth:`Cache.flush` documents); prefetched blocks that
        never served a demand access are classified as wasted, so the
        ``issued == redundant + useful + late + wasted`` invariant survives a
        mid-run flush followed by :meth:`finalize`.
        """
        telem = self.telemetry
        if telem.enabled:
            for block in self._prefetched_unused:
                self._emit_evicted(telem, now, block, False)
        if self._stream_of:
            for block in self._prefetched_unused:
                self._note_outcome(block, "wasted")
        if self.ledger is not None:
            for block in self._prefetched_unused:
                self.ledger.on_expire(block, now)
        self.prefetch.wasted += len(self._prefetched_unused)
        if telem.enabled:
            telem.emit(
                CacheFlushed(
                    now,
                    len(self.l1.resident_blocks()),
                    len(self.l2.resident_blocks()),
                )
            )
        self.l1.flush()
        self.l2.flush()
        self._inflight.clear()
        self._prefetched_unused.clear()

    @property
    def l1_miss_rate(self) -> float:
        """L1 miss rate over all demand accesses."""
        return self.l1.misses / self.l1.accesses if self.l1.accesses else 0.0

    def stats_snapshot(self) -> HierarchyStats:
        """Freeze this hierarchy's counters into a serializable snapshot."""
        return HierarchyStats.capture(self)
