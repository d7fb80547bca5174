"""TenantHierarchy: isolation, attribution, pollution reconciliation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import CacheGeometry, MachineConfig
from repro.machine.hierarchy import MemoryHierarchy
from repro.tenancy import TenantHierarchy, TenantPlan, TenantSpec, run_tenant_plan

TINY = MachineConfig(
    l1=CacheGeometry(512, 2),
    l2=CacheGeometry(4096, 4),
    l2_latency=10,
    memory_latency=100,
)


class TestAddressIsolation:
    @pytest.mark.parametrize("sharing", ["shared", "private-l1"])
    def test_same_address_never_aliases_across_tenants(self, sharing):
        hier = TenantHierarchy(TINY, tenants=2, sharing=sharing)
        hier.activate(0)
        hier.access(0x1000, now=0)
        # Tenant 1 touching the same byte address must miss both levels:
        # the block translation gives it distinct tags.
        hier.activate(1)
        stall = hier.access(0x1000, now=500)
        assert stall == TINY.memory_latency
        assert hier.view(1).l1.hits == 0
        assert hier.view(1).l2.hits == 0

    def test_translation_preserves_set_index(self):
        hier = TenantHierarchy(TINY, tenants=2)
        shift = TINY.block_bytes.bit_length() - 1
        raw = 0x1234
        blocks = []
        for tid in (0, 1):
            hier.activate(tid)
            block = hier.block_of(raw)
            assert hier.owner_of(block) == tid
            # Low block bits (the set index at any power-of-two set count)
            # are untouched by the tenant offset.
            assert block % (1 << 20) == (raw >> shift) % (1 << 20)
            blocks.append(block)
        assert blocks[0] == raw >> shift
        assert blocks[1] == (raw >> shift) + (1 << 40)


class TestSingleTenantMirrors:
    def test_n1_counters_match_plain_hierarchy(self):
        plain = MemoryHierarchy(TINY)
        tenant = TenantHierarchy(TINY, tenants=1, sharing="private-l1")
        now = 0
        for i in range(400):
            addr = (i * 712) % 32768
            s1 = plain.access(addr, now)
            s2 = tenant.access(addr, now)
            assert s1 == s2
            if i % 7 == 0:
                plain.issue_prefetch(addr + 64, now)
                tenant.issue_prefetch(addr + 64, now)
            now += 1 + s1
        plain.finalize(now)
        tenant.finalize(now)
        view = tenant.view(0)
        assert (plain.l1.hits, plain.l1.misses, plain.l1.evictions) == (
            view.l1.hits, view.l1.misses, view.l1.evictions
        )
        assert (plain.l2.hits, plain.l2.misses, plain.l2.evictions) == (
            view.l2.hits, view.l2.misses, view.l2.evictions
        )
        assert plain.prefetch.to_dict() == view.prefetch.to_dict()
        assert plain.demand_accesses == view.demand_accesses


class TestPollutionAccounting:
    @pytest.mark.parametrize("sharing", ["shared", "private-l1"])
    def test_matrix_reconciles_on_real_corun(self, sharing):
        plan = TenantPlan(
            tenants=(
                TenantSpec("vortex", "dyn", passes=1),
                TenantSpec("vpr", "dyn", passes=1),
            ),
            quantum=1024,
            sharing=sharing,
            machine=TINY,
        )
        result = run_tenant_plan(plan)
        assert result.pollution.total() == result.prefetch_shared_evictions
        assert (
            result.demand_shared_evictions + result.prefetch_shared_evictions
            == result.shared_cache_evictions
        )
        # Non-vacuous: this co-run really does pollute across tenants.
        assert result.prefetch_shared_evictions > 0
        assert result.pollution.suffered_by(0) + result.pollution.suffered_by(1) > 0
        # Per-tenant slices sum to the aggregate hierarchy snapshot counts.
        assert sum(t.hierarchy.demand_accesses for t in result.tenants) == sum(
            t.stats.memory_refs for t in result.tenants
        )

    def test_matrix_helpers(self):
        from repro.tenancy import PollutionMatrix

        matrix = PollutionMatrix({(0, 0): 5, (0, 1): 3, (1, 0): 2})
        assert matrix.total() == 10
        assert matrix.self_inflicted(0) == 5
        assert matrix.inflicted_by(0) == 3
        assert matrix.suffered_by(0) == 2
        assert matrix.get(1, 1) == 0


class TestFlush:
    def test_flush_empties_every_tenant_working_set(self):
        hier = TenantHierarchy(TINY, tenants=2, sharing="private-l1")
        for tid in (0, 1):
            hier.activate(tid)
            for i in range(8):
                hier.access(i * 64, now=i)
        hier.flush(now=100)
        for tid in (0, 1):
            hier.activate(tid)
            stall = hier.access(0, now=200)
            assert stall == TINY.memory_latency


#: 4-block L1s over a 16-block L2 (2-way each), so that shared-L2 evictions
#: of a block still in some tenant's L1 happen within a few ops.
CRAMPED = MachineConfig(
    l1=CacheGeometry(128, 2),
    l2=CacheGeometry(512, 2),
    l2_latency=10,
    memory_latency=100,
)
#: One co-run op: (kind, operand).  The operand is a byte address spanning
#: twice the L2 for access/prefetch, the tenant (mod N) for activate, and
#: unused for flush.  Kinds repeat to weight them: a flush empties
#: everything, so it must stay rare for sets to fill up.
_KINDS = ["access"] * 6 + ["prefetch"] * 3 + ["activate"] * 2 + ["flush"]
_OPS = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(0, 2 * CRAMPED.l2.size_bytes - 1)),
    max_size=300,
)


class TestInclusion:
    @settings(max_examples=100, deadline=None)
    @given(
        tenants=st.integers(2, 3),
        sharing=st.sampled_from(["shared", "private-l1"]),
        ops=_OPS,
    )
    def test_every_l1_stays_inside_l2(self, tenants, sharing, ops):
        hier = TenantHierarchy(CRAMPED, tenants=tenants, sharing=sharing)
        now = 0
        for kind, operand in ops:
            now += 1
            if kind == "access":
                now += hier.access(operand, now)
            elif kind == "prefetch":
                hier.issue_prefetch(operand, now)
            elif kind == "activate":
                hier.activate(operand % tenants)
            else:
                hier.flush(now)
            l2_blocks = hier.l2.resident_blocks()
            for tid in range(tenants):
                l1_blocks = hier._lanes[tid].l1.resident_blocks()
                assert l1_blocks <= l2_blocks
                if sharing == "private-l1":
                    # What makes owner-only invalidation exact: a private
                    # L1 only ever holds its own tenant's blocks.
                    assert {hier.owner_of(b) for b in l1_blocks} <= {tid}
            assert hier.check_reconciliation() == []
            assert (
                sum(hier.view(tid).l2.evictions for tid in range(tenants))
                == hier.l2.evictions
            )

    def test_prefetch_evicting_a_cotenant_line_invalidates_only_its_l1(self):
        hier = TenantHierarchy(TINY, tenants=2, sharing="private-l1")
        a, b = 0, 1
        hier.activate(b)
        hier.access(0, now=0)  # B's block in L2 set 0 (and L1 set 0)
        b_block = hier.block_of(0)
        hier.activate(a)
        hier.access(32, now=1)  # A's own block, L1 set 1
        # Four A prefetches into L2 set 0 (4-way) push B's block out.
        for i, raw in enumerate((32, 64, 96, 128)):
            hier.issue_prefetch(raw * TINY.block_bytes, now=2 + i)
        assert b_block not in hier.l2.resident_blocks()
        assert hier._lanes[b].l1.resident_blocks() == set()
        # A's L1 holds exactly its own fills: block 1 plus its two most
        # recent prefetches (set 0 is 2-way).
        assert hier._lanes[a].l1.resident_blocks() == {1, 96, 128}
        assert hier.pollution_counts == {(a, b): 1}
        assert hier.view(a).l2.evictions == 1
        assert hier.view(b).l2.evictions == 0
        assert hier.check_reconciliation() == []
        hier.activate(b)
        assert hier.access(0, now=100) == TINY.memory_latency
