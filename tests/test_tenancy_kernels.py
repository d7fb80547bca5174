"""The compiled kernel and the reference interpreter agree on a co-run.

Every tenant slice of a co-run parks and resumes on a quantum boundary, so
the compiled kernel's slice-limit handling and ``TenantHierarchy``'s
attribution both sit on this path; the whole serialized result, pollution
matrix and per-tenant scorecards included, must be bit-identical.
"""

from dataclasses import replace

import pytest

from repro.bench.figures import ABLATION_WATCHDOG_CONFIG, ABLATION_WATCHDOG_OPT
from repro.tenancy import TenantPlan, TenantSpec, run_tenant_plan
from repro.tenancy.ablation import check_result


def _plan(sharing: str) -> TenantPlan:
    thrasher_opt = replace(ABLATION_WATCHDOG_OPT, watchdog=ABLATION_WATCHDOG_CONFIG)
    return TenantPlan(
        tenants=(
            TenantSpec("vpr", "dyn", passes=1),
            TenantSpec("mcf", "dyn", passes=1),
            TenantSpec("phaseshift", "dyn", passes=12, opt=thrasher_opt, name="thrasher"),
        ),
        quantum=1000,
        sharing=sharing,
    )


@pytest.mark.parametrize("sharing", ["shared", "private-l1"])
def test_corun_is_identical_under_both_kernels(sharing):
    plan = _plan(sharing)
    ref = run_tenant_plan(plan, fast=False)
    fast = run_tenant_plan(plan, fast=True)
    assert fast.to_dict() == ref.to_dict()
    assert check_result(ref) == []
    assert check_result(fast) == []
    # Non-vacuous: many parked slices, real cross-tenant pollution, and the
    # watchdog condemning some of the thrasher's streams.
    assert all(t.slices > 10 for t in ref.tenants)
    assert ref.prefetch_shared_evictions > 0
    assert ref.tenants[2].summary.stream_deopts > 0
