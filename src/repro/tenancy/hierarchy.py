"""A shared memory hierarchy serving several interleaved tenants.

:class:`TenantHierarchy` mirrors :class:`~repro.machine.hierarchy.MemoryHierarchy`
operation for operation — same lookup order, same stall arithmetic, same
prefetch life cycle — and adds the tenancy bookkeeping the single-tenant
class never needs:

* **address-space disjointness** — every tenant's byte addresses are
  translated into a private block range (tenant id in the high block bits,
  a multiple of every power-of-two set count), so two tenants referencing
  the same virtual address contend for cache *capacity* without ever
  aliasing each other's data;
* **tenant-scoped stats** — per-tenant demand counts,
  :class:`~repro.machine.hierarchy.PrefetchStats`, per-level hit/miss/
  eviction counters (evictions are charged to the tenant that *caused*
  them) and per-stream attribution, all updated at exactly the same
  classification points as the aggregate counters;
* **per-tenant telemetry routing** — each tenant wires its own bus/ledger
  (via the same ``hierarchy.telemetry = ...`` surface
  :meth:`~repro.telemetry.session.TelemetrySession.wire` uses); lifecycle
  events for a block are routed to its owner, so one tenant's event log
  never absorbs another's prefetch outcomes;
* **the cross-tenant pollution matrix** — ``counts[(issuer, victim_owner)]``
  increments whenever a prefetch-triggered install evicts a line from a
  *shared* level, and reconciles exactly: the matrix total equals the
  prefetch-caused share of the shared caches' own eviction counters
  (:meth:`TenantHierarchy.check_reconciliation`).

Sharing modes: ``"shared"`` (one L1 + one L2) and ``"private-l1"``
(per-tenant L1s over a shared, inclusive L2).  With a single tenant, every
per-tenant counter coincides with its aggregate and the whole class is
observationally identical to ``MemoryHierarchy`` — the oracle pins that as
the N=1 equivalence invariant.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.machine.cache import Cache
from repro.machine.config import MachineConfig
from repro.machine.hierarchy import (
    CacheLevelStats,
    HierarchyStats,
    PrefetchStats,
    StreamPrefetchStats,
)
from repro.telemetry.events import (
    CacheFlushed,
    CacheMiss,
    PrefetchEvicted,
    PrefetchIssued,
    PrefetchUsed,
)
from repro.telemetry.sinks import NULL_SINK

#: Block-number bits reserved per tenant address space.  The per-tenant block
#: offset is ``tid << _TENANT_SHIFT`` — a multiple of every power-of-two set
#: count, so translation preserves each address's set index while giving every
#: tenant distinct tags (capacity/conflict sharing without false hits).
_TENANT_SHIFT = 40


class _TenantLane:
    """Per-tenant bookkeeping: counters, attribution, telemetry wiring."""

    __slots__ = (
        "l1", "stats_l1", "stats_l2", "demand", "prefetch",
        "stream_map", "stream_stats", "stream_names", "bus", "ledger",
        "miss_sample_every", "prefetch_sample_every",
        "misses_since", "issued_since", "used_since", "evicted_since",
    )

    def __init__(self, l1: Cache) -> None:
        self.l1 = l1
        self.stats_l1 = CacheLevelStats()
        self.stats_l2 = CacheLevelStats()
        self.demand = 0
        self.prefetch = PrefetchStats()
        self.stream_map: dict[int, object] | None = None
        self.stream_stats: dict[object, StreamPrefetchStats] = {}
        self.stream_names: dict[object, str] = {}
        self.bus = NULL_SINK
        self.ledger = None
        self.miss_sample_every = 64
        self.prefetch_sample_every = 32
        self.misses_since = 0
        self.issued_since = 0
        self.used_since = 0
        self.evicted_since = 0


class TenantView:
    """One tenant's slice of a finished hierarchy, duck-typing the counter
    surface of :class:`~repro.machine.hierarchy.MemoryHierarchy` (``l1``/
    ``l2``/``demand_accesses``/``prefetch``/``stream_stats``/
    ``stream_names``/``l1_miss_rate``/``stats_snapshot``)."""

    def __init__(self, lane: _TenantLane) -> None:
        self.l1 = lane.stats_l1
        self.l2 = lane.stats_l2
        self.demand_accesses = lane.demand
        self.prefetch = lane.prefetch
        self.stream_stats = lane.stream_stats
        self.stream_names = lane.stream_names

    @property
    def l1_miss_rate(self) -> float:
        return self.l1.misses / self.l1.accesses if self.l1.accesses else 0.0

    def stats_snapshot(self) -> HierarchyStats:
        return HierarchyStats.capture(self)


class TenantHierarchy:
    """Shared L2 (and optionally L1) among N interleaved tenants."""

    def __init__(self, config: MachineConfig, tenants: int, sharing: str = "private-l1") -> None:
        if tenants < 1:
            raise ConfigError("TenantHierarchy needs at least one tenant")
        if sharing not in ("shared", "private-l1"):
            raise ConfigError(f"unknown sharing mode {sharing!r}")
        self.config = config
        self.sharing = sharing
        self.num_tenants = tenants
        self.l2 = Cache(config.l2, "L2")
        self._block_shift = config.block_bytes.bit_length() - 1
        if sharing == "shared":
            shared_l1 = Cache(config.l1, "L1")
            self._lanes = [_TenantLane(shared_l1) for _ in range(tenants)]
            self._l1_caches = [shared_l1]
        else:
            self._lanes = [_TenantLane(Cache(config.l1, f"L1[t{t}]")) for t in range(tenants)]
            self._l1_caches = [lane.l1 for lane in self._lanes]
        #: block -> cycle at which its in-flight prefetch completes
        self._inflight: dict[int, int] = {}
        #: prefetched-and-unused block -> issue cycle (owner = high block bits)
        self._prefetched_unused: dict[int, int] = {}
        #: prefetched-but-unclassified block -> (owner tenant, stream key)
        self._stream_of: dict[int, tuple[int, object]] = {}
        #: aggregate counters across all tenants (per-tenant slices must sum
        #: to these exactly; the oracle checks it)
        self.prefetch = PrefetchStats()
        self.demand_accesses = 0
        #: evictions in *shared* levels, split by the cause of the install
        self.demand_shared_evictions = 0
        self.prefetch_shared_evictions = 0
        #: (issuer tenant, victim-owner tenant) -> prefetch-caused evictions
        self.pollution_counts: dict[tuple[int, int], int] = {}
        self._active = 0
        self._lane = self._lanes[0]
        self.l1 = self._lane.l1
        self._offset = 0

    # ------------------------------------------------------------- scheduling

    def activate(self, tenant_id: int) -> None:
        """Make ``tenant_id`` the tenant whose accesses/prefetches follow."""
        self._active = tenant_id
        lane = self._lanes[tenant_id]
        self._lane = lane
        self.l1 = lane.l1
        self._offset = tenant_id << _TENANT_SHIFT

    @property
    def active_tenant(self) -> int:
        return self._active

    def owner_of(self, block: int) -> int:
        """The tenant whose address space a (translated) block belongs to."""
        return block >> _TENANT_SHIFT

    def block_of(self, addr: int) -> int:
        """Translated block number for the *active* tenant's byte address."""
        return (addr >> self._block_shift) + self._offset

    def view(self, tenant_id: int) -> TenantView:
        """Freeze one tenant's counter slice (after the co-run finishes)."""
        return TenantView(self._lanes[tenant_id])

    def shared_eviction_total(self) -> int:
        """Total evictions counted by the shared cache levels themselves."""
        total = self.l2.evictions
        if self.sharing == "shared":
            total += self._l1_caches[0].evictions
        return total

    def check_reconciliation(self) -> list[str]:
        """Exact accounting identities; returns human-readable violations.

        * matrix total == prefetch-caused shared evictions,
        * cause split sums to the shared caches' own eviction counters,
        * per-tenant slices sum to the aggregates.
        """
        problems: list[str] = []
        matrix_total = sum(self.pollution_counts.values())
        if matrix_total != self.prefetch_shared_evictions:
            problems.append(
                f"pollution matrix total {matrix_total} != "
                f"prefetch-caused shared evictions {self.prefetch_shared_evictions}"
            )
        cause_total = self.demand_shared_evictions + self.prefetch_shared_evictions
        if cause_total != self.shared_eviction_total():
            problems.append(
                f"cause split {cause_total} != shared cache evictions "
                f"{self.shared_eviction_total()}"
            )
        if sum(lane.demand for lane in self._lanes) != self.demand_accesses:
            problems.append("per-tenant demand counts do not sum to the aggregate")
        for field in ("issued", "redundant", "useful", "late", "wasted"):
            lanes = sum(getattr(lane.prefetch, field) for lane in self._lanes)
            if lanes != getattr(self.prefetch, field):
                problems.append(
                    f"per-tenant prefetch.{field} sums to {lanes}, "
                    f"aggregate says {getattr(self.prefetch, field)}"
                )
        if sum(lane.stats_l2.evictions for lane in self._lanes) != self.l2.evictions:
            problems.append("per-tenant L2 eviction charges do not sum to L2's counter")
        return problems

    # ----------------------------------------------- telemetry wiring surface
    # The same assignment surface TelemetrySession.wire uses on a plain
    # hierarchy, routed to whichever tenant is active at wiring time.

    @property
    def telemetry(self):
        return self._lane.bus

    @telemetry.setter
    def telemetry(self, bus) -> None:
        self._lane.bus = bus

    @property
    def ledger(self):
        return self._lane.ledger

    @ledger.setter
    def ledger(self, ledger) -> None:
        self._lane.ledger = ledger

    @property
    def miss_sample_every(self) -> int:
        return self._lane.miss_sample_every

    @miss_sample_every.setter
    def miss_sample_every(self, period: int) -> None:
        self._lane.miss_sample_every = period

    @property
    def prefetch_sample_every(self) -> int:
        return self._lane.prefetch_sample_every

    @prefetch_sample_every.setter
    def prefetch_sample_every(self, period: int) -> None:
        self._lane.prefetch_sample_every = period

    # --------------------------------------------------- per-stream attribution

    @property
    def stream_stats(self) -> dict[object, StreamPrefetchStats]:
        """The *active* tenant's per-stream scoreboard (watchdog input)."""
        return self._lane.stream_stats

    @property
    def stream_names(self) -> dict[object, str]:
        return self._lane.stream_names

    def set_stream_attribution(self, mapping: dict[int, object] | None) -> None:
        """Install the active tenant's block -> stream-key map.

        The optimizer builds the map from *its own* (untranslated) block
        numbers; :meth:`issue_prefetch` therefore consults it pre-translation.
        """
        self._lane.stream_map = mapping

    def _note_outcome(self, block: int, outcome: str) -> None:
        entry = self._stream_of.pop(block, None)
        if entry is None:
            return
        owner, key = entry
        lane = self._lanes[owner]
        stats = lane.stream_stats.get(key)
        if stats is None:
            stats = lane.stream_stats[key] = StreamPrefetchStats()
        setattr(stats, outcome, getattr(stats, outcome) + 1)

    # ------------------------------------------------------------ demand path

    def access(self, addr: int, now: int) -> int:
        """Demand access by the active tenant; returns stall cycles.

        Stall arithmetic and the inline set work are the single-tenant
        hierarchy's, verbatim; only which counters are credited differs.
        """
        lane = self._lane
        lane.demand += 1
        self.demand_accesses += 1
        block = (addr >> self._block_shift) + self._offset
        stall = 0
        telem = lane.bus
        inflight = self._inflight
        pf_unused = self._prefetched_unused
        if block in inflight:
            ready = inflight.pop(block)
            if ready > now:
                stall = ready - now
                self.prefetch.late += 1
                lane.prefetch.late += 1
                if self._stream_of:
                    self._note_outcome(block, "late")
                issued_at = pf_unused.pop(block, now)
                if lane.ledger is not None:
                    lane.ledger.on_use(block, now, True, now - issued_at, stall)
                if telem.enabled:
                    n = lane.used_since + 1
                    if n >= lane.prefetch_sample_every:
                        n = 0
                        telem.emit(PrefetchUsed(now, block, True, now - issued_at))
                    lane.used_since = n
        l1 = lane.l1
        way = l1._sets[block & l1._set_mask]
        if block in way:
            # L1 hit: promote to MRU
            l1.hits += 1
            if way[-1] != block:
                way.remove(block)
                way.append(block)
            lane.stats_l1.hits += 1
            if block in pf_unused:
                issued_at = pf_unused.pop(block)
                self.prefetch.useful += 1
                lane.prefetch.useful += 1
                if self._stream_of:
                    self._note_outcome(block, "useful")
                if lane.ledger is not None:
                    lane.ledger.on_use(block, now, False, now - issued_at)
                if telem.enabled:
                    n = lane.used_since + 1
                    if n >= lane.prefetch_sample_every:
                        n = 0
                        telem.emit(PrefetchUsed(now, block, False, now - issued_at))
                    lane.used_since = n
            return stall
        l1.misses += 1
        lane.stats_l1.misses += 1
        l2 = self.l2
        way2 = l2._sets[block & l2._set_mask]
        if block in way2:
            l2.hits += 1
            if way2[-1] != block:
                way2.remove(block)
                way2.append(block)
            lane.stats_l2.hits += 1
            stall += self.config.l2_latency
            if block in pf_unused:
                issued_at = pf_unused.pop(block)
                self.prefetch.useful += 1
                lane.prefetch.useful += 1
                if self._stream_of:
                    self._note_outcome(block, "useful")
                if lane.ledger is not None:
                    lane.ledger.on_use(block, now, False, now - issued_at)
                if telem.enabled:
                    n = lane.used_since + 1
                    if n >= lane.prefetch_sample_every:
                        n = 0
                        telem.emit(PrefetchUsed(now, block, False, now - issued_at))
                    lane.used_since = n
            level = "L1"
        else:
            l2.misses += 1
            lane.stats_l2.misses += 1
            stall += self.config.memory_latency
            # L2 fill, charged to the active tenant as a demand eviction.
            if len(way2) >= l2.geometry.associativity:
                victim = way2.pop(0)
                l2.evictions += 1
                # Inclusion: a translated block can only be in its owner's L1.
                owner_l1 = self._lanes[victim >> _TENANT_SHIFT].l1
                victim_way = owner_l1._sets[victim & owner_l1._set_mask]
                if victim in victim_way:
                    victim_way.remove(victim)
                lane.stats_l2.evictions += 1
                self.demand_shared_evictions += 1
                if victim in pf_unused:
                    self._account_eviction(victim, l1_only=False, now=now)
            way2.append(block)
            level = "L2"
        if telem.enabled:
            lane.misses_since += 1
            if lane.misses_since >= lane.miss_sample_every:
                lane.misses_since = 0
                telem.emit(CacheMiss(now, level, block, stall))
        # L1 fill (the block missed L1, so it is not resident)
        if len(way) >= l1.geometry.associativity:
            victim = way.pop(0)
            l1.evictions += 1
            lane.stats_l1.evictions += 1
            if self.sharing == "shared":
                self.demand_shared_evictions += 1
            if victim in pf_unused:
                self._account_eviction(victim, l1_only=True, now=now)
        way.append(block)
        return stall

    # ---------------------------------------------------------- prefetch path

    def issue_prefetch(self, addr: int, now: int, source: str = "sw") -> None:
        """Prefetch by the active tenant (credited to it as issuer).

        Every eviction from a shared level is entered in the pollution
        matrix under (active tenant, victim's owner).
        """
        lane = self._lane
        self.prefetch.issued += 1
        lane.prefetch.issued += 1
        by_source = self.prefetch.by_source
        by_source[source] = by_source.get(source, 0) + 1
        lane_by_source = lane.prefetch.by_source
        lane_by_source[source] = lane_by_source.get(source, 0) + 1
        raw = addr >> self._block_shift
        block = raw + self._offset
        telem = lane.bus
        ledger = lane.ledger
        smap = lane.stream_map
        skey = smap.get(raw) if smap is not None else None
        if skey is not None:
            sstats = lane.stream_stats.get(skey)
            if sstats is None:
                sstats = lane.stream_stats[skey] = StreamPrefetchStats()
            sstats.issued += 1
        l1 = lane.l1
        way = l1._sets[block & l1._set_mask]
        inflight = self._inflight
        if block in way or block in inflight:
            self.prefetch.redundant += 1
            lane.prefetch.redundant += 1
            if skey is not None:
                sstats.redundant += 1
            if ledger is not None:
                ledger.on_issue(block, now, source, skey, True)
            if telem.enabled:
                n = lane.issued_since + 1
                if n >= lane.prefetch_sample_every:
                    n = 0
                    telem.emit(PrefetchIssued(now, block, source, True))
                lane.issued_since = n
            return
        if ledger is not None:
            ledger.on_issue(block, now, source, skey, False)
        if telem.enabled:
            n = lane.issued_since + 1
            if n >= lane.prefetch_sample_every:
                n = 0
                telem.emit(PrefetchIssued(now, block, source, False))
            lane.issued_since = n
        pf_unused = self._prefetched_unused
        pollution = self.pollution_counts
        l2 = self.l2
        way2 = l2._sets[block & l2._set_mask]
        if block in way2:
            inflight[block] = now + self.config.l2_latency
        else:
            inflight[block] = now + self.config.memory_latency
            # L2 fill with owner-only inclusion, as in access()
            if len(way2) >= l2.geometry.associativity:
                victim = way2.pop(0)
                l2.evictions += 1
                owner = victim >> _TENANT_SHIFT
                owner_l1 = self._lanes[owner].l1
                victim_way = owner_l1._sets[victim & owner_l1._set_mask]
                if victim in victim_way:
                    victim_way.remove(victim)
                lane.stats_l2.evictions += 1
                self.prefetch_shared_evictions += 1
                key = (self._active, owner)
                pollution[key] = pollution.get(key, 0) + 1
                if victim in pf_unused:
                    self._account_eviction(victim, l1_only=False, now=now)
            way2.append(block)
        # L1 fill (the block is not L1-resident: checked above)
        if len(way) >= l1.geometry.associativity:
            victim = way.pop(0)
            l1.evictions += 1
            lane.stats_l1.evictions += 1
            if self.sharing == "shared":
                self.prefetch_shared_evictions += 1
                key = (self._active, victim >> _TENANT_SHIFT)
                pollution[key] = pollution.get(key, 0) + 1
            if victim in pf_unused:
                self._account_eviction(victim, l1_only=True, now=now)
        way.append(block)
        pf_unused[block] = now
        if skey is not None:
            self._stream_of[block] = (self._active, skey)

    # ------------------------------------------------------------- evictions

    def _emit_evicted(self, lane: _TenantLane, now: int, block: int, at_finalize: bool) -> None:
        lane.evicted_since += 1
        if lane.evicted_since >= lane.prefetch_sample_every:
            lane.evicted_since = 0
            lane.bus.emit(PrefetchEvicted(now, block, at_finalize))

    def _account_eviction(self, victim: int, l1_only: bool, now: int) -> None:
        """Classify an evicted, still-unused prefetched block for its owner
        (the callers check ``victim in _prefetched_unused`` first)."""
        if not l1_only or not self.l2.contains(victim):
            del self._prefetched_unused[victim]
            self._inflight.pop(victim, None)
            owner = self._lanes[victim >> _TENANT_SHIFT]
            self.prefetch.wasted += 1
            owner.prefetch.wasted += 1
            if self._stream_of:
                self._note_outcome(victim, "wasted")
            if owner.ledger is not None:
                owner.ledger.on_evict(victim, now)
            if owner.bus.enabled:
                self._emit_evicted(owner, now, victim, False)

    # ------------------------------------------------------------ end of run

    def finalize(self, now: int = 0) -> None:
        """Classify still-unused prefetched blocks as wasted, per owner."""
        for block in self._prefetched_unused:
            owner = self._lanes[block >> _TENANT_SHIFT]
            if owner.bus.enabled:
                self._emit_evicted(owner, now, block, True)
        if self._stream_of:
            for block in self._prefetched_unused:
                self._note_outcome(block, "wasted")
        for block in self._prefetched_unused:
            owner = self._lanes[block >> _TENANT_SHIFT]
            if owner.ledger is not None:
                owner.ledger.on_expire(block, now)
            owner.prefetch.wasted += 1
        self.prefetch.wasted += len(self._prefetched_unused)
        self._prefetched_unused.clear()
        self._inflight.clear()

    def flush(self, now: int = 0) -> None:
        """Empty every cache level (a ``cache_flush`` fault hits everyone).

        Flushing the shared L2 necessarily clears all tenants' working sets
        (inclusion); counters are preserved, pending prefetches classify as
        wasted for their owners — the same invariants the single-tenant
        flush documents.
        """
        for block in self._prefetched_unused:
            owner = self._lanes[block >> _TENANT_SHIFT]
            if owner.bus.enabled:
                self._emit_evicted(owner, now, block, False)
        if self._stream_of:
            for block in self._prefetched_unused:
                self._note_outcome(block, "wasted")
        for block in self._prefetched_unused:
            owner = self._lanes[block >> _TENANT_SHIFT]
            if owner.ledger is not None:
                owner.ledger.on_expire(block, now)
            owner.prefetch.wasted += 1
        self.prefetch.wasted += len(self._prefetched_unused)
        telem = self._lane.bus
        if telem.enabled:
            telem.emit(
                CacheFlushed(
                    now,
                    len(self._lane.l1.resident_blocks()),
                    len(self.l2.resident_blocks()),
                )
            )
        for l1 in self._l1_caches:
            l1.flush()
        self.l2.flush()
        self._inflight.clear()
        self._prefetched_unused.clear()

    @property
    def l1_miss_rate(self) -> float:
        """Aggregate L1 miss rate over all tenants' demand accesses."""
        misses = sum(lane.stats_l1.misses for lane in self._lanes)
        accesses = sum(lane.stats_l1.accesses for lane in self._lanes)
        return misses / accesses if accesses else 0.0
