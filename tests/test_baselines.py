"""Reference designs: nested/shadow walks, vTLB, DMA remapping, page modes."""

import pytest
from hypothesis import given, strategies as st

from vmemsim.baselines import (
    RemappingTables,
    Requester,
    VirtualTlb,
    hypervisor_may_touch,
    iommu_dma_translate,
    nested_translate,
    page_mode_allows,
    shadow_translate,
    shadow_update_ppage,
    shadow_update_vpage,
)
from vmemsim.errors import OutOfRangeError
from vmemsim.events import DmaRequest, PageMode


# ---------------------------------------------------------------------------
# nested and shadow walks
# ---------------------------------------------------------------------------


def test_nested_translate_three_outcomes():
    gpt = {0: 10, 1: 11}
    rmap = {10: 77}
    ok = nested_translate(0, gpt, rmap)
    assert (ok.page, ok.walks) == (77, 2)
    real_miss = nested_translate(1, gpt, rmap)
    assert (real_miss.page, real_miss.walks) == (None, 2)
    guest_miss = nested_translate(9, gpt, rmap)
    assert (guest_miss.page, guest_miss.walks) == (None, 1)


def test_shadow_translate_is_single_walk():
    gpt = {4: 10, 6: 11}
    rmap = {10: 99}
    hit = shadow_translate(4, gpt, rmap)
    assert (hit.page, hit.walks) == (99, 1)
    for vpage in (5, 6):           # no guest entry; a guest entry with no real mapping
        miss = shadow_translate(vpage, gpt, rmap)
        assert (miss.page, miss.walks) == (None, 1)


def test_shadow_update_tracks_guest_write():
    gpt = {0: 10}
    rmap = {10: 50}
    assert shadow_update_vpage() == 1
    assert shadow_translate(0, gpt, rmap).page == 50
    gpt[0] = 11                    # now dangling: no real mapping
    assert shadow_translate(0, gpt, rmap).page is None


def test_shadow_update_ppage_rederives_all_aliases():
    gpt = {0: 10, 1: 10, 2: 20}
    rmap = {10: 50, 20: 60}
    rmap[10] = 51
    steps = shadow_update_ppage(gpt, 10)
    assert steps == 2              # vpages 0 and 1 alias ppage 10
    assert [shadow_translate(v, gpt, rmap).page for v in gpt] == [51, 51, 60]
    assert shadow_update_ppage(gpt, 30) == 0


@given(
    st.dictionaries(st.integers(0, 15), st.integers(0, 15), max_size=12),
    st.dictionaries(st.integers(0, 15), st.integers(0, 63), max_size=12),
)
def test_shadow_composes_nested(gpt_map, rmap_map):
    """The one-step shadow walk resolves exactly the page of the two-level walk."""
    for vpage in range(16):
        shadow = shadow_translate(vpage, gpt_map, rmap_map)
        assert shadow == (nested_translate(vpage, gpt_map, rmap_map).page, 1)


# ---------------------------------------------------------------------------
# virtual TLB
# ---------------------------------------------------------------------------


def test_tlb_hit_miss_and_fifo_eviction():
    tlb = VirtualTlb(capacity=2)
    assert tlb.lookup(1, 0) is None
    tlb.insert(1, 0, 100)
    tlb.insert(1, 1, 101)
    assert tlb.lookup(1, 0) == 100
    tlb.insert(1, 2, 102)                  # evicts the oldest entry (asid 1, vpage 0)
    assert tlb.lookup(1, 0) is None
    assert tlb.lookup(1, 1) == 101
    assert tlb.lookup(1, 2) == 102


def test_tlb_reinsert_does_not_grow():
    tlb = VirtualTlb(capacity=2)
    tlb.insert(1, 0, 100)
    tlb.insert(1, 1, 101)
    tlb.insert(1, 0, 105)                  # update in place
    assert len(tlb.entries) == 2
    assert tlb.lookup(1, 0) == 105


def test_tlb_capacity_zero_disables():
    tlb = VirtualTlb(capacity=0)
    tlb.insert(1, 0, 100)
    assert tlb.lookup(1, 0) is None


def test_tlb_asid_tagging_prevents_collisions():
    tlb = VirtualTlb(capacity=8)
    tlb.insert(1, 7, 100)
    tlb.insert(2, 7, 200)                  # same vpage, different address space
    assert tlb.lookup(1, 7) == 100
    assert tlb.lookup(2, 7) == 200


def test_tlb_flush_empties():
    tlb = VirtualTlb(capacity=8)
    tlb.insert(1, 0, 1)
    tlb.insert(2, 1, 2)
    tlb.flush()
    assert tlb.entries == {}
    assert tlb.lookup(1, 0) is None and tlb.lookup(2, 1) is None


# ---------------------------------------------------------------------------
# DMA remapping
# ---------------------------------------------------------------------------

PAGE = 4096


def test_dma_request_range_checks():
    DmaRequest(255, 31, 7, 0, True)        # maxima are legal
    for bad in [(256, 0, 0), (-1, 0, 0), (0, 32, 0), (0, 0, 8)]:
        with pytest.raises(OutOfRangeError):
            DmaRequest(*bad, 0, False)
    with pytest.raises(OutOfRangeError):
        DmaRequest(0, 0, 0, -1, False)


def test_iommu_walk_steps_and_faults():
    tables = RemappingTables(levels=4)
    no_root = iommu_dma_translate(DmaRequest(3, 0, 0, 0, False), tables, PAGE)
    assert (no_root.fault, no_root.steps) == ("no_root", 1)

    tables.assign(domain_id=1, bus=3, device=5, function=0)
    no_ctx = iommu_dma_translate(DmaRequest(3, 6, 0, 0, False), tables, PAGE)
    assert (no_ctx.fault, no_ctx.steps) == ("no_context", 2)

    no_map = iommu_dma_translate(DmaRequest(3, 5, 0, 0, False), tables, PAGE)
    assert (no_map.fault, no_map.steps) == ("no_mapping", 6)   # 2 + 4 levels

    tables.map_page(1, dva_page=0, phys_page=42)
    ok = iommu_dma_translate(DmaRequest(3, 5, 0, 17, True), tables, PAGE)
    assert (ok.page, ok.fault, ok.steps) == (42, None, 6)


def test_iommu_walk_depth_is_configurable():
    tables = RemappingTables(levels=2)
    tables.assign(1, 0, 0, 0)
    tables.map_page(1, 0, 9)
    assert iommu_dma_translate(DmaRequest(0, 0, 0, 0, False), tables, PAGE).steps == 4
    with pytest.raises(OutOfRangeError):
        RemappingTables(levels=0)


def test_iommu_unmap_phys_drops_reverse_entries():
    tables = RemappingTables()
    tables.assign(1, 0, 0, 0)
    tables.map_page(1, 0, 42)
    tables.map_page(1, 3, 42)
    tables.assign(2, 0, 1, 0)
    tables.map_page(2, 5, 42)
    tables.map_page(2, 6, 43)
    tables.unmap_phys(42)          # from every domain that maps it
    assert tables.domains[1].table == {}
    assert tables.domains[2].table == {6: 43}


def test_iommu_unmap_phys_after_remap():
    tables = RemappingTables()
    tables.assign(1, 0, 0, 0)
    tables.map_page(1, 0, 42)
    tables.map_page(1, 3, 42)
    tables.map_page(1, 5, 7)
    tables.map_page(1, 0, 7)       # dva 0 moves from phys 42 to phys 7
    tables.unmap_phys(42)
    assert tables.domains[1].table == {0: 7, 5: 7}
    tables.map_page(1, 3, 42)
    tables.unmap_phys(7)
    assert tables.domains[1].table == {3: 42}
    tables.unmap_phys(7)           # nothing left to drop
    assert tables.domains[1].table == {3: 42}


def test_iommu_one_domain_many_devices():
    tables = RemappingTables()
    tables.assign(1, 0, 0, 0)
    tables.assign(1, 0, 1, 0)
    tables.map_page(1, 2, 42)
    for device in (0, 1):
        dma = iommu_dma_translate(DmaRequest(0, device, 0, 2 * PAGE + 5, True), tables, PAGE)
        assert (dma.page, dma.fault) == (42, None)
    other = iommu_dma_translate(DmaRequest(0, 2, 0, 2 * PAGE, True), tables, PAGE)
    assert other.fault == "no_context"


# ---------------------------------------------------------------------------
# per-page protection modes
# ---------------------------------------------------------------------------

# Independently written allow table: rows are modes, columns requesters.
EXPECTED_ALLOW = {
    (PageMode.HYPERVISOR_ONLY, Requester.HYPERVISOR): True,
    (PageMode.HYPERVISOR_ONLY, Requester.OWNER_VM): False,
    (PageMode.HYPERVISOR_ONLY, Requester.OTHER_VM): False,
    (PageMode.HYPERVISOR_ONLY, Requester.DMA): False,
    (PageMode.HYPERVISOR_AND_DMA, Requester.HYPERVISOR): True,
    (PageMode.HYPERVISOR_AND_DMA, Requester.OWNER_VM): True,
    (PageMode.HYPERVISOR_AND_DMA, Requester.OTHER_VM): False,
    (PageMode.HYPERVISOR_AND_DMA, Requester.DMA): True,
    (PageMode.HYPERVISOR_DENIED, Requester.HYPERVISOR): False,
    (PageMode.HYPERVISOR_DENIED, Requester.OWNER_VM): True,
    (PageMode.HYPERVISOR_DENIED, Requester.OTHER_VM): False,
    (PageMode.HYPERVISOR_DENIED, Requester.DMA): True,
    (PageMode.LOCKED, Requester.HYPERVISOR): False,
    (PageMode.LOCKED, Requester.OWNER_VM): True,
    (PageMode.LOCKED, Requester.OTHER_VM): False,
    (PageMode.LOCKED, Requester.DMA): False,
}


def test_page_mode_allow_table_exhaustive():
    for mode in PageMode:
        for requester in Requester:
            assert page_mode_allows(mode, requester) == EXPECTED_ALLOW[(mode, requester)]


def test_other_vm_is_never_allowed():
    for mode in PageMode:
        assert not page_mode_allows(mode, Requester.OTHER_VM)


def test_hypervisor_reclaim_gate():
    assert hypervisor_may_touch(PageMode.HYPERVISOR_ONLY)
    assert hypervisor_may_touch(PageMode.HYPERVISOR_AND_DMA)
    assert not hypervisor_may_touch(PageMode.HYPERVISOR_DENIED)
    assert not hypervisor_may_touch(PageMode.LOCKED)
