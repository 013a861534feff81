"""Frozen attack fixtures and their per-mode outcomes.

The .trace files under tests/fixtures/ are committed copies of the
builder output at 256x4x8, and expectations.json pins every mode's
ledger excerpt, final page census, and DMA counters.  Any behavior
drift in the engine or the builders shows up as a fixture diff here.
"""

import json
from pathlib import Path

import pytest

from vmemsim.core import Geometry
from vmemsim.engine import MODES, run
from vmemsim.traceio import dumps, read_trace
from vmemsim.workload import (
    attack_cross_vm_dma,
    attack_hyperwall_starvation,
    attack_malicious_hypervisor,
)

FIXTURES = Path(__file__).parent / "fixtures"
GEOM = Geometry(256, 4, 8)
BUILDERS = {
    "cross_vm_dma": attack_cross_vm_dma,
    "malicious_hypervisor": attack_malicious_hypervisor,
    "hyperwall_starvation": attack_hyperwall_starvation,
}
EXPECT = json.loads((FIXTURES / "expectations.json").read_text())


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_reproduce_stored_traces(name):
    stored = (FIXTURES / f"{name}.trace").read_text()
    assert dumps(BUILDERS[name](GEOM)) == stored


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("mode", MODES)
def test_stored_expectations_hold(name, mode):
    trace = read_trace(str(FIXTURES / f"{name}.trace"))
    rep = run(trace, mode, GEOM)
    want = EXPECT[name][mode]
    got_ledgers = {k: v for k, v in rep.to_dict()["ledgers"].items() if v}
    assert got_ledgers == want["ledgers"]
    assert {str(k): v for k, v in sorted(rep.final_pages.items())} == want["final_pages"]
    assert rep.counters.pages_swapped == want["pages_swapped"]
    assert rep.counters.dma_completed == want["dma_completed"]
    assert rep.counters.dma_blocked == want["dma_blocked"]


# ---------------------------------------------------------------------------
# the headline properties, spelled out
# ---------------------------------------------------------------------------


def test_cross_vm_dma_is_blocked_only_with_a_segment_check():
    trace = read_trace(str(FIXTURES / "cross_vm_dma.trace"))
    blocked = {m: run(trace, m, GEOM).counters.dma_blocked for m in MODES}
    assert blocked == {"asmi": 1, "nested": 0, "nested_shadow": 0, "iommu": 1, "hyperwall": 0}
    # under plain nested paging the write lands in the victim's memory
    nested = run(trace, "nested", GEOM)
    assert [(v.vm, v.owner) for v in nested.violations] == [(1, 2)]


def test_hypervisor_read_is_a_fault_only_under_asmi():
    trace = read_trace(str(FIXTURES / "malicious_hypervisor.trace"))
    for mode in MODES:
        rep = run(trace, mode, GEOM)
        if mode == "asmi":
            assert [(f.vmid, f.owner) for f in rep.isolation_faults] == [(0, 1)]
            assert rep.violations == []
        else:
            assert [(v.source, v.vm) for v in rep.violations] == [("cpu", 0)]
            assert rep.isolation_faults == []


def test_lock_hoarding_starves_only_hyperwall():
    trace = read_trace(str(FIXTURES / "hyperwall_starvation.trace"))
    full = {m: len(run(trace, m, GEOM).memory_full) for m in MODES}
    assert full == {"asmi": 0, "nested": 0, "nested_shadow": 0, "iommu": 0, "hyperwall": 2}
    # the quota reclaim is what keeps the victim whole under asmi
    asmi = run(trace, "asmi", GEOM)
    assert [r.victim for r in asmi.reclaims] == [1]
    assert asmi.final_pages[2] == GEOM.pages_per_segment + 1
