"""Segment controller behavior, pinned examples first, then oracle equivalence."""

import random
from collections import Counter
from heapq import heappush

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from vmemsim.core import HYPERVISOR, Geometry
from vmemsim.errors import (
    CapacityError,
    DoubleFreeError,
    GeometryError,
    LifecycleError,
    ProtocolError,
)
from vmemsim.promem import (
    ISOLATION_FAULT,
    PAGE_FAULT,
    ProMem,
)

from reference_model import RefModel

TINY = Geometry(256, 4, 8)
PPS = TINY.pages_per_segment


def page(segment, index):
    """Global page number of a (segment, index) pair in TINY."""
    return segment * PPS + index


def booted(geom=TINY, vms=0):
    pm = ProMem(geom)
    pm.load_hypervisor()
    created = [pm.create_vm() for _ in range(vms)]
    return pm, created


# ---------------------------------------------------------------------------
# registers and lifecycle
# ---------------------------------------------------------------------------


def test_boot_state_is_empty():
    pm = ProMem(TINY)
    assert not pm.hypervisor_loaded()
    assert pm.tot == 0 and pm.mseg == 0
    assert len(pm.free) == 8
    assert pm.owners == {} and not pm.live
    # every path that reads VMIDR refuses to run before an owner is current
    for probe in (lambda: pm.current(0), lambda: pm.translate(0, 0),
                  lambda: pm.vm_entry(0, 1), lambda: pm.vm_exit(0)):
        with pytest.raises(ProtocolError) as info:
            probe()
        assert str(info.value) == "no owner is current before the hypervisor loads"
    with pytest.raises(LifecycleError):
        pm.create_vm()


def test_load_hypervisor_registers():
    pm = ProMem(Geometry(4096, 512, 64))
    pm.load_hypervisor()
    assert pm.tot == 1
    assert pm.mseg == 64          # 64 // 1
    assert pm.mpt.get(0) == 0
    assert pm.allocated_pages(0) == 1    # the save slot
    assert pm.current(0) == 0
    assert pm.current(5) == 0            # untouched cpus default to the hypervisor
    with pytest.raises(LifecycleError):
        pm.load_hypervisor()


def test_mseg_tracks_owner_count():
    pm, vms = booted(Geometry(4096, 512, 64), vms=3)
    assert vms == [1, 2, 3]
    assert pm.tot == 4
    assert pm.mseg == 16          # 64 // 4
    pm.destroy_vm(2)
    assert pm.tot == 3
    assert pm.mseg == 21          # 64 // 3
    assert 2 not in pm.live


@given(st.integers(2, 40), st.integers(0, 30))
def test_mseg_formula_property(tseg, creates):
    creates = min(creates, tseg - 1)
    pm, _ = booted(Geometry(256, 2, tseg), vms=creates)
    owners = creates + 1
    assert pm.mseg == max(1, tseg // owners)


def test_create_vm_at_capacity():
    pm, _ = booted(vms=7)         # 8 owners fill 8 segments' worth of ids
    assert pm.tot == 8
    with pytest.raises(CapacityError):
        pm.create_vm()


def test_destroy_rules():
    pm, _ = booted(vms=2)
    with pytest.raises(LifecycleError):
        pm.destroy_vm(0)          # the hypervisor is permanent
    with pytest.raises(LifecycleError):
        pm.destroy_vm(9)
    pm.vm_entry(0, 1)
    with pytest.raises(LifecycleError):
        pm.destroy_vm(1)          # current on cpu 0
    pm.vm_exit(0)
    pm.destroy_vm(1)
    with pytest.raises(LifecycleError):
        pm.destroy_vm(1)          # ids are never reused
    assert pm.create_vm() == 3


def test_destroy_releases_segments():
    pm, _ = booted(vms=1)
    for _ in range(5):
        pm.allocate_page(1)
    assert pm.owned_segments(1) == [1, 2]
    pm.destroy_vm(1)
    assert pm.owned_segments(1) == []
    assert len(pm.free) == 7


# ---------------------------------------------------------------------------
# entry / exit and the save-slot protocol
# ---------------------------------------------------------------------------


def test_entry_exit_round_trip():
    pm, _ = booted(vms=2)
    assert pm.current(0) == 0
    pm.vm_entry(0, 1)
    assert pm.current(0) == 1
    assert pm.owners[0].save_slot == 0
    pm.vm_exit(0)
    assert pm.current(0) == 0
    assert pm.owners[1].save_slot == 1


def test_vmidr_is_per_cpu():
    pm, _ = booted(vms=2)
    pm.vm_entry(0, 1)
    pm.vm_entry(1, 2)
    assert pm.current(0) == 1
    assert pm.current(1) == 2
    assert pm.current(2) == 0
    pm.vm_exit(0)
    assert pm.current(0) == 0
    assert pm.current(1) == 2


def test_entry_protocol_errors():
    pm, _ = booted(vms=1)
    pm.vm_entry(0, 1)
    with pytest.raises(ProtocolError):
        pm.vm_entry(0, 1)         # nested entry
    pm.vm_exit(0)
    with pytest.raises(ProtocolError):
        pm.vm_exit(0)             # exit from the hypervisor
    with pytest.raises(ProtocolError):
        pm.vm_entry(0, 0)         # the hypervisor is not a guest
    with pytest.raises(LifecycleError):
        pm.vm_entry(0, 7)


def test_entry_exit_many_round_trips_preserve_ids():
    pm, _ = booted(vms=2)
    for _ in range(10):
        pm.vm_entry(0, 1)
        pm.vm_exit(0)
        pm.vm_entry(0, 2)
        pm.vm_exit(0)
    assert {vm: owner.save_slot for vm, owner in pm.owners.items()} == {0: 0, 1: 1, 2: 2}
    assert pm.current(0) == 0


# ---------------------------------------------------------------------------
# allocation cascade
# ---------------------------------------------------------------------------


def test_alloc_fills_lowest_owned_segment_first():
    pm, _ = booted(vms=1)
    got = [pm.allocate_page(1) for _ in range(3)]
    assert [r.page for r in got] == [page(1, 1), page(1, 2), page(1, 3)]
    assert all(r.reclaim is None for r in got)
    assert pm.owned_segments(1) == [1]


def test_alloc_claims_lowest_free_segment_when_owned_are_full():
    pm, _ = booted(vms=1)
    for _ in range(3):
        pm.allocate_page(1)
    r = pm.allocate_page(1)
    assert r.page == page(2, 0)
    assert pm.owned_segments(1) == [1, 2]
    # claimed segments have no save slot, so page 0 carries data
    follow = pm.allocate_page(1)
    assert follow.page == page(2, 1)


def test_page_numbers_split_into_segment_and_index():
    # worked by hand: with 8 pages per segment, page 19 is segment 2, index 3
    pm, _ = booted(Geometry(4096, 8, 16), vms=1)    # slots: hyp seg 0, vm 1 seg 1
    got = [pm.allocate_page(1).page for _ in range(11)]
    assert got == [*range(9, 16), 16, 17, 18, 19]   # slot page 8 is never handed out
    assert pm.masks[2] == 0b1111
    fault = pm.check_owner(HYPERVISOR, 19)
    assert (fault.segment, fault.owner) == (2, 1)


def test_alloc_prefers_holes_in_low_segments():
    pm, _ = booted(vms=1)
    for _ in range(4):
        pm.allocate_page(1)       # fills seg 1, claims seg 2 page 0
    pm.free_page(1, page(1, 2))
    r = pm.allocate_page(1)
    assert r.page == page(1, 2)


def test_reclaim_trims_most_over_quota_owner():
    pm, _ = booted(vms=3)         # slots: hyp=0, vm1=1, vm2=2, vm3=3; mseg=2
    for _ in range(3 + 4 * 4):
        pm.allocate_page(1)       # vm1 fills seg 1 then claims and fills 4..7
    assert pm.owned_segments(1) == [1, 4, 5, 6, 7]
    for _ in range(3):
        pm.allocate_page(3)       # vm3 fills its slot segment
    r = pm.allocate_page(3, seq=99)
    notice = r.reclaim
    assert notice is not None
    assert (notice.victim, notice.excess) == (1, 3)
    assert notice.segments == (5, 6, 7)
    assert notice.pages_swapped == 12
    assert notice.seq == 99
    assert r.page == page(5, 0)
    assert pm.mpt.get(5) == 3
    assert pm.owned_segments(1) == [1, 4]
    assert sum(n.pages_swapped for n in pm.notices) == 12
    pm.check_invariants()


def test_reclaim_never_touches_slot_segments():
    pm, _ = booted(Geometry(256, 4, 4), vms=1)   # hyp=seg0, vm1=seg1
    for _ in range(3 + 4 + 1):
        pm.allocate_page(1)       # fill seg1, fill seg2, start seg3
    assert pm.owned_segments(1) == [1, 2, 3]
    vm2 = pm.create_vm(seq=7)     # no free segment: creation reclaims vm1
    assert vm2 == 2
    notice = pm.notices[-1]
    assert (notice.victim, notice.excess) == (1, 2)
    assert notice.segments == (2, 3)
    assert notice.pages_swapped == 5
    assert pm.owned_segments(1) == [1]           # slot segment survives
    assert pm.owners[2].slot_segment == 2
    pm.check_invariants()


def test_reclaim_skips_a_slot_segment_above_the_victims_others():
    pm, _ = booted(Geometry(256, 2, 4), vms=1)   # hyp=seg0, vm1=seg1
    for _ in range(4):
        pm.allocate_page(0)       # hyp fills seg0 and seg2, starts seg3
    pm.create_vm()                # reclaims hyp's 2 and 3; vm2's slot segment is 2
    pm.destroy_vm(1)
    pm.allocate_page(2)
    assert pm.allocate_page(2).page == 2    # page 0 of segment 1, below vm2's slot segment
    pm.create_vm()                # vm3 takes seg3
    pm.allocate_page(3)
    got = pm.allocate_page(3)     # nothing free: vm2 is the only owner over quota
    assert got.reclaim.victim == 2 and got.reclaim.segments == (1,)
    assert got.page == 2
    assert pm.owned_segments(2) == [2] and pm.owners[2].slot_segment == 2
    pm.check_invariants()


def test_memory_full_is_recorded_not_raised():
    pm, _ = booted(vms=7)         # every segment is a slot segment; mseg=1
    for _ in range(3):
        pm.allocate_page(1)
    r = pm.allocate_page(1, seq=42)
    assert r.page is None
    assert [ (m.seq, m.vm) for m in pm.memory_full_events ] == [(42, 1)]
    pm.check_invariants()


def test_alloc_for_dead_vm_raises():
    pm, _ = booted()
    with pytest.raises(LifecycleError):
        pm.allocate_page(5)


# ---------------------------------------------------------------------------
# free paths
# ---------------------------------------------------------------------------


def test_free_returns_page_to_segment():
    pm, _ = booted(vms=1)
    got = pm.allocate_page(1).page
    assert pm.free_page(1, got) is None
    assert pm.allocated_pages(1) == 1     # only the slot remains
    assert pm.allocate_page(1).page == got


def test_free_cross_owner_records_fault():
    pm, _ = booted(vms=2)
    fault = pm.free_page(2, page(1, 1), seq=5)
    assert fault is not None
    assert (fault.seq, fault.cpu, fault.vmid, fault.segment, fault.owner) == (5, -1, 2, 1, 1)
    assert pm.faults[-1] is fault
    assert pm.mpt.get(1) == 1       # nothing changed


def test_free_slot_page_is_a_protocol_error():
    pm, _ = booted(vms=1)
    with pytest.raises(ProtocolError):
        pm.free_page(1, page(1, 0))


def test_double_free_raises():
    pm, _ = booted(vms=1)
    got = pm.allocate_page(1).page
    pm.free_page(1, got)
    with pytest.raises(DoubleFreeError):
        pm.free_page(1, got)


def test_free_rejects_pages_outside_the_pool():
    pm, _ = booted(vms=1)
    for bad in (-1, TINY.pages_total):
        with pytest.raises(GeometryError):
            pm.free_page(1, bad)
    assert pm.faults == []


def test_free_releases_empty_claimed_segment():
    pm, _ = booted(vms=1)
    for _ in range(3):
        pm.allocate_page(1)
    claimed = pm.allocate_page(1)
    assert claimed.page == page(2, 0)
    pm.free_page(1, claimed.page)
    assert pm.mpt.get(2) is None
    assert pm.owned_segments(1) == [1]
    pm.check_invariants()


def test_free_keeps_slot_segment_when_emptied():
    pm, _ = booted(vms=1)
    pm.free_page(1, pm.allocate_page(1).page)
    assert pm.mpt.get(1) == 1       # pinned by the save slot


# ---------------------------------------------------------------------------
# segment indexes
# ---------------------------------------------------------------------------


def _indexed():
    """vm 1 holds full slot segment 1 and segment 3 with pages 0-1 taken."""
    pm, _ = booted(vms=2)
    for _ in range(5):
        pm.allocate_page(1)
    assert pm.owned_segments(1) == [1, 3] and pm.owners[1].open == [3]
    assert pm.allocated_pages(1) == 6 and pm.segment_count(1) == 2
    return pm


def _bump_pages(pm):
    pm.owners[1].pages += 1


def _move_slot(pm):
    pm.owners[1].slot_segment = 2


INDEX_CORRUPTIONS = {
    "free heap misses a free segment": lambda pm: pm.free.pop(),
    "free heap lists an owned segment": lambda pm: heappush(pm.free, 1),
    "free heap out of order": lambda pm: pm.free.reverse(),
    "segment set misses an owned segment": lambda pm: pm.owners[1].segs.discard(3),
    "segment set lists a foreign segment": lambda pm: pm.owners[1].segs.add(2),
    "page count off by one": _bump_pages,
    "slot segment held by another owner": _move_slot,
    "open heap misses a non-full segment": lambda pm: pm.owners[1].open.clear(),
    "open heap lists a full segment": lambda pm: heappush(pm.owners[1].open, 1),
    "open heap repeats a segment": lambda pm: heappush(pm.owners[1].open, 3),
    "open heap out of order": lambda pm: pm.owners[1].open.insert(0, 5),
}


def test_promem_index_invariants_can_fail():
    for name, corrupt in INDEX_CORRUPTIONS.items():
        pm = _indexed()
        pm.check_invariants()
        corrupt(pm)
        with pytest.raises(AssertionError):
            pm.check_invariants()
            pytest.fail(f"{name}: not detected")


def test_open_heap_drops_released_segments_and_reuses_holes():
    pm = _indexed()
    pm.free_page(1, page(3, 1))
    pm.free_page(1, page(3, 0))              # segment 3 empties and is released
    assert pm.mpt.get(3) is None and pm.owners[1].open == [3]   # stale until popped
    pm.free_page(1, page(1, 2))              # full slot segment gets a hole
    assert pm.allocate_page(1).page == page(1, 2)
    assert pm.owners[1].open == [3]          # the filled segment left the heap
    assert pm.allocate_page(1).page == page(3, 0)   # stale entry dropped, 3 claimed again
    assert sorted(pm.free) == [4, 5, 6, 7]
    pm.check_invariants()


# ---------------------------------------------------------------------------
# seeded differential run against the reference at 64 segments
# ---------------------------------------------------------------------------

BIG = Geometry(256, 4, 64)
BIG_GUESTS = 6


def _random_op(rng: random.Random, ref: RefModel):
    vms = sorted(ref.live) + [ref.next_vmid]       # plus a dead-vm probe
    roll = rng.random()
    if roll < 0.02 and len(ref.live) <= BIG_GUESTS:
        return ("create",)
    if roll < 0.025:
        return ("destroy", rng.choice(vms))
    if roll < 0.065:
        return ("entry", rng.randrange(2), rng.choice(vms))
    if roll < 0.1:
        return ("exit", rng.randrange(2))
    vm = rng.choice(vms)
    if roll < 0.7:
        return ("alloc", vm)
    # free a taken page of vm, a free page of its segments, a page of
    # another owner, or any page
    pick = rng.random()
    if pick < 0.45:
        pages = [(s, p) for s, o in ref.owner.items() if o == vm for p in ref.pages[s]]
    elif pick < 0.65:
        pages = [
            (s, p) for s, o in ref.owner.items() if o == vm
            for p in range(ref.pps) if p not in ref.pages[s]
        ]
    elif pick < 0.9:
        pages = [(s, p) for s, o in ref.owner.items() if o != vm for p in range(ref.pps)]
    else:
        pages = []
    seg, index = rng.choice(pages) if pages else (rng.randrange(ref.tseg), rng.randrange(ref.pps))
    return ("free", vm, seg, index)


def _apply_pm(pm: ProMem, op):
    kind, *args = op
    try:
        if kind == "create":
            return pm.create_vm()
        if kind == "alloc":
            res = pm.allocate_page(*args)
            if res.page is None:
                return "full"
            n = res.reclaim
            info = None if n is None else (n.victim, n.excess, n.segments, n.pages_swapped)
            return ("page", res.page, info)
        if kind == "free":
            vm, seg, index = args
            return "ok" if pm.free_page(vm, seg * BIG.pages_per_segment + index) is None else "fault"
        {"destroy": pm.destroy_vm, "entry": pm.vm_entry, "exit": pm.vm_exit}[kind](*args)
        return "ok"
    except CapacityError:
        return "capacity"
    except LifecycleError:
        return "lifecycle"
    except ProtocolError:
        return "protocol"
    except DoubleFreeError:
        return "double_free"


def _apply_ref(ref: RefModel, op):
    kind, *args = op
    return {
        "create": ref.create_vm, "destroy": ref.destroy_vm, "entry": ref.vm_entry,
        "exit": ref.vm_exit, "alloc": ref.alloc, "free": ref.free,
    }[kind](*args)


def test_promem_matches_reference_at_64_segments():
    rng = random.Random(20261018)
    pm = ProMem(BIG)
    ref = RefModel(256, 4, 64)
    pm.load_hypervisor()
    ref.load_hypervisor()
    seen = Counter()
    for step in range(3000):
        op = _random_op(rng, ref)
        got = _apply_pm(pm, op)
        want = _apply_ref(ref, op)
        assert got == want, (step, op, got, want)
        outcome = ("reclaim" if want[2] else "page") if isinstance(want, tuple) else want
        seen[op[0], outcome] += 1
        assert pm_snapshot(pm) == ref.snapshot(), (step, op)
        pm.check_invariants()
        for vm in ref.live:
            segs = sorted(s for s, o in ref.owner.items() if o == vm)
            assert pm.owned_segments(vm) == segs, (step, vm)
            assert pm.allocated_pages(vm) == sum(len(ref.pages[s]) for s in segs), (step, vm)
        cpu, seg = rng.randrange(2), rng.randrange(BIG.total_segments)
        fault = pm.check_owner(pm.current(cpu), seg * BIG.pages_per_segment, cpu)
        assert ("fault" if fault else "allowed") == ref.check(cpu, seg)
    # the run reached every path the indexes serve
    for key in [("alloc", "page"), ("alloc", "reclaim"), ("free", "ok"), ("free", "fault"),
                ("free", "double_free"), ("destroy", "ok")]:
        assert seen[key] > 0, (key, seen)


# ---------------------------------------------------------------------------
# access checks and translation
# ---------------------------------------------------------------------------


def test_check_access_three_ways():
    pm, _ = booted(vms=2)
    pm.vm_entry(0, 1)
    own = page(1, 1)
    other = page(2, 1)
    free = page(7, 0)
    assert pm.check_owner(pm.current(0), own, 0) is None
    fault = pm.check_owner(pm.current(0), other, 0, seq=3)
    assert (fault.vmid, fault.segment, fault.owner) == (1, 2, 2)
    fault = pm.check_owner(pm.current(0), free, 0, seq=4)
    assert (fault.segment, fault.owner) == (7, None)
    assert len(pm.faults) == 2


def test_translate_success_fault_and_isolation():
    pm, _ = booted(vms=2)
    pm.vm_entry(0, 1)
    own_page = pm.allocate_page(1).page
    # only the current owner's table is walked: vpage 2 is mapped in vm 2's
    pm.owners[1].table.update({0: own_page, 1: 0, 3: TINY.pages_total})
    pm.owners[2].table[2] = page(2, 0)
    ok = pm.translate(0, 0)
    assert ok.fault is None
    assert (ok.walks, ok.checks) == (1, 1)

    cross = pm.translate(0, 1, seq=8)
    assert cross.fault == ISOLATION_FAULT
    assert (cross.walks, cross.checks) == (1, 1)
    assert pm.faults[-1].segment == 0

    miss = pm.translate(0, 2)
    assert miss.fault == PAGE_FAULT
    assert (miss.walks, miss.checks) == (1, 0)

    wild = pm.translate(0, 3)
    assert wild.fault == PAGE_FAULT   # target outside the geometry
    assert len(pm.faults) == 1


# ---------------------------------------------------------------------------
# oracle equivalence (stateful)
# ---------------------------------------------------------------------------

SGEOM = Geometry(256, 2, 5)


def pm_snapshot(pm: ProMem):
    return (
        tuple(sorted(pm.mpt.items())),
        tuple(
            (s, tuple(p for p in range(pm.geom.pages_per_segment) if pm.masks[s] >> p & 1))
            for s in sorted(pm.masks)
        ),
        tuple(sorted((vm, owner.slot_segment) for vm, owner in pm.owners.items())),
        tuple(sorted((vm, owner.save_slot) for vm, owner in pm.owners.items())),
        tuple(sorted(pm.vmidr.items())),
        tuple(sorted(pm.owners)),
        pm.tot,
        pm.mseg,
        pm.next_vmid,
    )


class ControllerEquivalence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pm = ProMem(SGEOM)
        self.ref = RefModel(256, 2, 5)
        self.pm.load_hypervisor()
        self.ref.load_hypervisor()

    vmids = st.integers(0, 6)
    cpus = st.integers(0, 2)

    @rule()
    def create(self):
        try:
            got = self.pm.create_vm()
        except CapacityError:
            got = "capacity"
        assert got == self.ref.create_vm()

    @rule(vm=vmids)
    def destroy(self, vm):
        try:
            self.pm.destroy_vm(vm)
            got = "ok"
        except LifecycleError:
            got = "lifecycle"
        assert got == self.ref.destroy_vm(vm)

    @rule(cpu=cpus, vm=vmids)
    def entry(self, cpu, vm):
        try:
            self.pm.vm_entry(cpu, vm)
            got = "ok"
        except ProtocolError:
            got = "protocol"
        except LifecycleError:
            got = "lifecycle"
        assert got == self.ref.vm_entry(cpu, vm)

    @rule(cpu=cpus)
    def leave(self, cpu):
        try:
            self.pm.vm_exit(cpu)
            got = "ok"
        except ProtocolError:
            got = "protocol"
        assert got == self.ref.vm_exit(cpu)

    @rule(vm=vmids)
    def alloc(self, vm):
        try:
            res = self.pm.allocate_page(vm)
            if res.page is None:
                got = "full"
            else:
                info = None
                if res.reclaim is not None:
                    n = res.reclaim
                    info = (n.victim, n.excess, n.segments, n.pages_swapped)
                got = ("page", res.page, info)
        except LifecycleError:
            got = "lifecycle"
        assert got == self.ref.alloc(vm)

    @rule(vm=vmids, seg=st.integers(0, 4), page=st.integers(0, 1))
    def free(self, vm, seg, page):
        try:
            fault = self.pm.free_page(vm, seg * SGEOM.pages_per_segment + page)
            got = "fault" if fault is not None else "ok"
        except LifecycleError:
            got = "lifecycle"
        except ProtocolError:
            got = "protocol"
        except DoubleFreeError:
            got = "double_free"
        assert got == self.ref.free(vm, seg, page)

    @rule(cpu=cpus, seg=st.integers(0, 4))
    def check(self, cpu, seg):
        fault = self.pm.check_owner(self.pm.current(cpu), seg * SGEOM.pages_per_segment, cpu)
        got = "fault" if fault is not None else "allowed"
        assert got == self.ref.check(cpu, seg)

    @invariant()
    def states_agree(self):
        assert pm_snapshot(self.pm) == self.ref.snapshot()
        self.pm.check_invariants()


TestControllerEquivalence = ControllerEquivalence.TestCase
TestControllerEquivalence.settings = settings(
    max_examples=80, stateful_step_count=50, deadline=None
)
