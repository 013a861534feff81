"""Reference designs: nested/shadow walks, vTLB, DMA remapping, page modes."""

import pytest
from hypothesis import given, settings, strategies as st

from vmemsim.baselines import (
    _ALLOWED,
    RemappingTables,
    VirtualTlb,
    iommu_dma_translate,
    nested_translate,
    shadow_translate,
    shadow_update_ppage,
    shadow_update_vpage,
)
from vmemsim.core import Geometry
from vmemsim.engine import RunOptions, run
from vmemsim.errors import OutOfRangeError
from vmemsim.events import PAGE_MODES, DmaRequest, EventKind, PageMode, TraceEvent


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
    assert tlb.entries == {} and tlb.keys_of == {}
    assert tlb.lookup(1, 0) is None and tlb.lookup(2, 1) is None


def test_tlb_reinsert_keeps_its_fifo_place_and_moves_its_index_entry():
    tlb = VirtualTlb(capacity=3)
    for vpage in range(3):
        tlb.insert(1, vpage, 100 + vpage)
    tlb.insert(1, 0, 101)                  # the oldest key, now aliasing vpage 1's page
    assert list(tlb.entries) == [(1, 0), (1, 1), (1, 2)]
    assert tlb.keys_of == {101: ((1, 1), (1, 0)), 102: ((1, 2),)}
    tlb.insert(1, 3, 103)                  # still evicts (1, 0) first
    assert list(tlb.entries) == [(1, 1), (1, 2), (1, 3)]
    assert tlb.keys_of == {101: ((1, 1),), 102: ((1, 2),), 103: ((1, 3),)}
    tlb.insert(1, 1, 101)                  # the same value: nothing moves
    assert list(tlb.entries.items()) == [((1, 1), 101), ((1, 2), 102), ((1, 3), 103)]
    assert tlb.keys_of[101] == ((1, 1),)


def test_tlb_invalidate_phys_drops_only_the_indexed_keys():
    tlb = VirtualTlb(capacity=8)
    tlb.insert(1, 0, 50)
    tlb.insert(2, 4, 50)                   # two address spaces reach page 50
    tlb.insert(1, 1, 51)
    tlb.invalidate_phys(50)
    assert tlb.entries == {(1, 1): 51} and tlb.keys_of == {51: ((1, 1),)}
    tlb.invalidate_phys(50)                # nothing cached to it any more
    tlb.invalidate([1, 2], 1)
    assert tlb.entries == {} and tlb.keys_of == {}


class ScanningTlb:
    """The vTLB without a reverse index: `invalidate_phys` scans every entry."""

    def __init__(self, capacity):
        self.capacity, self.entries = capacity, {}

    def insert(self, asid, vpage, phys):
        if self.capacity <= 0:
            return
        if (asid, vpage) not in self.entries and len(self.entries) >= self.capacity:
            del self.entries[next(iter(self.entries))]
        self.entries[(asid, vpage)] = phys

    def invalidate(self, asids, vpage):
        for asid in asids:
            self.entries.pop((asid, vpage), None)

    def invalidate_phys(self, page):
        for key in [k for k, v in self.entries.items() if v == page]:
            del self.entries[key]

    def flush(self):
        self.entries.clear()


@pytest.mark.parametrize("capacity", [0, 1, 3, 64])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("iiiiivpf"), st.integers(0, 2), st.integers(0, 5),
                          st.integers(0, 4)), max_size=80))
def test_tlb_index_stays_the_inverse_of_a_scanning_tlbs_entries(capacity, ops):
    tlb, ref = VirtualTlb(capacity), ScanningTlb(capacity)
    for op, asid, vpage, page in ops:
        for t in (tlb, ref):
            if op == "i":
                t.insert(asid, vpage, page)
            elif op == "v":
                t.invalidate(range(asid + 1), vpage)
            elif op == "p":
                t.invalidate_phys(page)
            else:
                t.flush()
        # the same entries in the same FIFO order, and each key indexed once under its page
        assert list(tlb.entries.items()) == list(ref.entries.items())
        indexed = [(page, key) for page, keys in tlb.keys_of.items() for key in keys]
        assert sorted(indexed) == sorted((p, k) for k, p in ref.entries.items())
        assert all(tlb.keys_of.values())


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

# Independently written allow table: rows are modes, columns the requester
# tokens a Denial records.
REQUESTERS = ("hypervisor", "owner_vm", "other_vm", "dma")
EXPECTED_ALLOW = {
    (PageMode.HYPERVISOR_ONLY, "hypervisor"): True,
    (PageMode.HYPERVISOR_ONLY, "owner_vm"): False,
    (PageMode.HYPERVISOR_ONLY, "other_vm"): False,
    (PageMode.HYPERVISOR_ONLY, "dma"): False,
    (PageMode.HYPERVISOR_AND_DMA, "hypervisor"): True,
    (PageMode.HYPERVISOR_AND_DMA, "owner_vm"): True,
    (PageMode.HYPERVISOR_AND_DMA, "other_vm"): False,
    (PageMode.HYPERVISOR_AND_DMA, "dma"): True,
    (PageMode.HYPERVISOR_DENIED, "hypervisor"): False,
    (PageMode.HYPERVISOR_DENIED, "owner_vm"): True,
    (PageMode.HYPERVISOR_DENIED, "other_vm"): False,
    (PageMode.HYPERVISOR_DENIED, "dma"): True,
    (PageMode.LOCKED, "hypervisor"): False,
    (PageMode.LOCKED, "owner_vm"): True,
    (PageMode.LOCKED, "other_vm"): False,
    (PageMode.LOCKED, "dma"): False,
}


def test_page_mode_allow_table_exhaustive():
    # hyperwall checks an access as `requester token in _ALLOWED[mode token]`
    assert set(_ALLOWED) == set(PAGE_MODES)
    assert set().union(*_ALLOWED.values()) <= set(REQUESTERS)
    for mode in PAGE_MODES:
        for requester in REQUESTERS:
            allowed = requester in _ALLOWED[mode]
            assert allowed == EXPECTED_ALLOW[(mode, requester)]


def test_other_vm_is_never_allowed():
    for mode in PAGE_MODES:
        assert "other_vm" not in _ALLOWED[mode]


@pytest.mark.parametrize("mode, reclaimable", [
    (PageMode.HYPERVISOR_ONLY, True), (PageMode.HYPERVISOR_AND_DMA, True),
    (PageMode.HYPERVISOR_DENIED, False), (PageMode.LOCKED, False),
])
def test_hypervisor_reclaim_gate(mode, reclaimable):
    # two pages: vm 1 gives its page a mode, vm 2 takes the other and asks for
    # one more, which only a reclaim of vm 1's page can serve
    t = [
        TraceEvent(1, EventKind.CREATE_VM, vm=1), TraceEvent(2, EventKind.CREATE_VM, vm=2),
        TraceEvent(3, EventKind.ALLOC, vm=1), TraceEvent(4, EventKind.ENTER, vm=1),
        TraceEvent(5, EventKind.HW_SET, page=0, mode=mode), TraceEvent(6, EventKind.EXIT),
        TraceEvent(7, EventKind.ALLOC, vm=2), TraceEvent(8, EventKind.ALLOC, vm=2),
    ]
    rep = run(t, "hyperwall", Geometry(256, 1, 2), options=RunOptions(check_invariants=True))
    assert rep.counters.hw_set_denied == 0
    assert (rep.counters.pages_swapped, len(rep.memory_full)) == ((1, 0) if reclaimable else (0, 1))
