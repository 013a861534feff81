"""Segment-granular memory controller with per-segment ownership checks.

The controller owns four pieces of architectural state:

  MPT        memory protection table, segment index -> owner vm id.  A
             segment appears at most once; absence means the segment is
             free.  Owner 0 is the hypervisor.  The table itself is
             modeled as living outside the managed segment pool, so its
             storage is never deducted from the pool.
  SegMax     three registers: TSEG (total segments, fixed at boot),
             TOT (live owners including the hypervisor), and
             MSEG = max(1, floor(TSEG / TOT)) while TOT > 0, else 0.
  VMIDR      one current-owner register per processor.  Registers
             materialize on first use and default to the hypervisor
             once it is loaded.
  save slots one per owner, holding the owner id to load into VMIDR on
             the next entry.  The slot lives in the first page of the
             owner's first segment; that page is never handed out by
             the allocator and keeps the segment resident for the
             owner's whole lifetime.

Page allocation cascades:
  1. a free page in a segment the requester already owns
     (lowest segment index first, then lowest page index);
  2. else claim the lowest-index free segment and hand out its first page;
  3. else reclaim: the most over-quota owner (tie: lowest vm id) loses
     its excess segments, highest index first, skipping the slot
     segment; the freed pages count as synchronously swapped out and
     step 2 runs again, which then always succeeds;
  4. else the requester is told the memory is full.

`allocate_page` is that cascade and `_claim_or_reclaim` its steps 2 and 3,
which also claim a new owner's slot segment.  The engine's `asmi` alloc takes
steps 1 and 2 itself and calls `allocate_page` only when no segment is free.

Every page the controller takes or returns is a global page number p,
as in every other table of the simulator.  The controller alone splits
it: p lies in segment p // pages_per_segment at index
p % pages_per_segment, and a page outside 0 .. pages_total - 1 lies in
no segment.

Besides the MPT and the masks, the controller keeps `free`, the heap of
the segments the MPT does not map (every claim pops its top), and in
`owners` one `_Owner` record per live owner, keyed by its id.  A record
holds the owner's save slot, slot segment and page table, and indexes
that every MPT write updates, so that no allocation, reclaim or
utilization sample scans the segment pool:

  segs      the segments it owns.
  pages     the count of its taken pages, save-slot page included.
  open      heap of its segments that have a free page.  A segment is
            pushed when it is claimed or a free makes a full one
            non-full, and popped when an allocation fills it; an entry
            whose segment was released since is dropped when it reaches
            the top.  A claim happens only once this heap is empty, so
            no segment is in it twice.

Every MPT write goes through `claim` (lowest free segment to an owner)
or `_release` (segment back to the free heap).  `check_invariants`
recomputes each index from the MPT and the masks.

Access checks are segment-granular: an access is allowed iff the MPT
maps the target segment to the requesting owner.  The hypervisor gets
no bypass; a hypervisor access to a guest-owned segment faults exactly
like any other cross-owner access.  Translation is single-level: one
walk of the current owner's page table (vpage -> global page) plus one
MPT check.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import le
from typing import NamedTuple

from .core import HYPERVISOR, Geometry
from .errors import (
    CapacityError,
    DoubleFreeError,
    GeometryError,
    LifecycleError,
    ProtocolError,
)

# ---------------------------------------------------------------------------
# outcome records
# ---------------------------------------------------------------------------


class IsolationFault(NamedTuple):
    """Blocked cross-owner access; `owner` is None for a free segment."""

    seq: int
    cpu: int
    vmid: int
    segment: int
    owner: int | None


class ReclaimNotice(NamedTuple):
    seq: int
    victim: int
    excess: int
    segments: tuple[int, ...]
    pages_swapped: int


class MemoryFull(NamedTuple):
    seq: int
    vm: int


class AllocResult(NamedTuple):
    """The page handed out (None when memory is full) and any reclaim it took."""

    page: int | None
    reclaim: ReclaimNotice | None = None


_new = tuple.__new__  # a namedtuple's own constructor, without its Python __new__ frame


#: translation outcome kinds
PAGE_FAULT = "page_fault"
ISOLATION_FAULT = "isolation_fault"


class Translation(NamedTuple):
    fault: str | None
    walks: int
    checks: int


#: the three outcomes of `ProMem.translate`, shared by every access
_UNMAPPED = Translation(PAGE_FAULT, walks=1, checks=0)
_BLOCKED = Translation(ISOLATION_FAULT, walks=1, checks=1)
_TRANSLATED = Translation(None, walks=1, checks=1)


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------


class _Owner:
    """What the controller keeps for one live owner (the hypervisor included)."""

    __slots__ = ("segs", "pages", "open", "slot_segment", "save_slot", "table", "next_vpage")

    def __init__(self, vm: int):
        self.segs: set[int] = set()
        self.pages = 0
        self.open: list[int] = []
        self.slot_segment = -1           # set once its first claim succeeds
        self.save_slot = vm              # the id its next entry loads into VMIDR
        self.table: dict[int, int] = {}  # its page table, vpage -> page
        self.next_vpage = 0              # where the engine's well-behaved guest maps next


class ProMem:
    """Boots over a geometry with an empty MPT and no owners."""

    def __init__(self, geom: Geometry):
        self.geom = geom
        self.pps = geom.pages_per_segment
        self.pages_total = geom.pages_total
        self.full_mask = (1 << self.pps) - 1
        self.tseg = geom.total_segments
        self.tot = 0
        self.mseg = 0
        self.mpt: dict[int, int] = {}
        self.masks: dict[int, int] = {}      # segment -> bitmask of taken pages
        self.free: list[int] = list(range(self.tseg))  # heap; sorted is a heap
        self.owners: dict[int, _Owner] = {}
        self.vmidr: dict[int, int] = {}
        self.next_vmid = 1
        # outcome ledgers, in occurrence order
        self.faults: list[IsolationFault] = []
        self.notices: list[ReclaimNotice] = []
        self.memory_full_events: list[MemoryFull] = []

    # -- queries --------------------------------------------------------

    @property
    def live(self):  # the live owner ids, hypervisor included: a view of `owners`' keys
        return self.owners.keys()

    def current(self, cpu: int) -> int:
        if HYPERVISOR not in self.owners:
            raise ProtocolError("no owner is current before the hypervisor loads")
        return self.vmidr.get(cpu, HYPERVISOR)

    def owned_segments(self, vm: int) -> list[int]:
        return sorted(self.owners[vm].segs) if vm in self.owners else []

    def segment_count(self, vm: int) -> int:
        return len(self.owners[vm].segs) if vm in self.owners else 0

    def allocated_pages(self, vm: int) -> int:
        """Pages in use by `vm`, save-slot page included."""
        return self.owners[vm].pages if vm in self.owners else 0

    # -- lifecycle ------------------------------------------------------

    def _recompute_mseg(self) -> None:
        self.mseg = max(1, self.tseg // self.tot) if self.tot else 0

    def claim(self, vm: int, owner: _Owner) -> int | None:
        """Give the lowest free segment to `vm` with page 0 taken; None if none is free.

        Page 0 is the save slot of a slot segment and the first data page
        of any other.
        """
        if not self.free:
            return None
        s = heappop(self.free)
        self.mpt[s] = vm
        self.masks[s] = 1
        owner.segs.add(s)
        owner.pages += 1
        if self.pps > 1:
            heappush(owner.open, s)
        return s

    def _release(self, s: int) -> int:
        """Return segment `s` to the free heap; the pages it had taken."""
        owner = self.owners[self.mpt.pop(s)]
        taken = self.masks.pop(s).bit_count()
        owner.segs.discard(s)
        owner.pages -= taken
        heappush(self.free, s)
        return taken

    def _admit(self, vm: int, seq: int) -> None:
        """Make `vm` a live owner, counted in TOT, and claim its slot segment."""
        self.owners[vm] = owner = _Owner(vm)
        self.tot += 1
        self._recompute_mseg()
        s, _ = self._claim_or_reclaim(vm, owner, seq)
        assert s is not None, "no free segment and nobody over quota"  # TOT <= TSEG rules it out
        owner.slot_segment = s

    def load_hypervisor(self, seq: int = -1) -> int:
        if self.tot != 0:
            raise LifecycleError("hypervisor already loaded")
        self._admit(HYPERVISOR, seq)
        self.vmidr[0] = HYPERVISOR
        return HYPERVISOR

    def create_vm(self, seq: int = -1) -> int:
        if HYPERVISOR not in self.owners:
            raise LifecycleError("hypervisor must load before VMs are created")
        if self.tot >= self.tseg:
            raise CapacityError(
                f"cannot host {self.tot + 1} owners with {self.tseg} segments"
            )
        vm = self.next_vmid
        self.next_vmid += 1
        self._admit(vm, seq)
        return vm

    def destroy_vm(self, vm: int) -> None:
        if vm == HYPERVISOR:
            raise LifecycleError("hypervisor cannot be destroyed")
        if vm not in self.owners:
            raise LifecycleError(f"vm {vm} is not live")
        if vm in self.vmidr.values():
            raise LifecycleError(f"vm {vm} is current on a processor")
        for s in list(self.owners[vm].segs):
            self._release(s)
        del self.owners[vm]
        self.tot -= 1
        self._recompute_mseg()

    # -- entry / exit ----------------------------------------------------
    #
    # Entry saves the hypervisor id into the hypervisor's slot and loads
    # VMIDR from the target's slot; exit saves the guest id into the
    # guest's slot and loads VMIDR from the hypervisor's slot.  Both are
    # atomic: no intermediate state is observable.

    def vm_entry(self, cpu: int, vm: int) -> None:
        cur = self.current(cpu)
        if cur != HYPERVISOR:
            raise ProtocolError(f"entry while vm {cur} is current on cpu {cpu}")
        if vm == HYPERVISOR:
            raise ProtocolError("entry must target a guest VM")
        if vm not in self.owners:
            raise LifecycleError(f"entry to dead vm {vm}")
        self.owners[HYPERVISOR].save_slot = cur
        self.vmidr[cpu] = self.owners[vm].save_slot

    def vm_exit(self, cpu: int) -> None:
        cur = self.current(cpu)
        if cur == HYPERVISOR:
            raise ProtocolError(f"exit while hypervisor is current on cpu {cpu}")
        self.owners[cur].save_slot = cur
        self.vmidr[cpu] = self.owners[HYPERVISOR].save_slot

    # -- allocation ------------------------------------------------------

    def allocate_page(self, vm: int, seq: int = -1) -> AllocResult:
        """The next page of the allocation cascade."""
        owner = self.owners.get(vm)
        if owner is None:
            raise LifecycleError(f"vm {vm} is not live")
        heap, mpt = owner.open, self.mpt
        while heap and mpt.get(heap[0]) != vm:
            heappop(heap)  # released since it was pushed
        if heap:
            s = heap[0]
            mask = self.masks[s]
            bit = ~mask & (mask + 1)  # its lowest free page
            self.masks[s] = mask = mask | bit
            if mask == self.full_mask:
                heappop(heap)
            owner.pages += 1
            return _new(AllocResult, (s * self.pps + bit.bit_length() - 1, None))
        s, notice = self._claim_or_reclaim(vm, owner, seq)
        if s is None:
            self.memory_full_events.append(_new(MemoryFull, (seq, vm)))
            return _new(AllocResult, (None, None))
        return _new(AllocResult, (s * self.pps, notice))

    def _claim_or_reclaim(self, vm: int, owner: _Owner, seq: int) -> tuple:
        """Steps 2 and 3 of the cascade: the segment claimed (None if none is free
        and nobody is over quota) and the reclaim that freed it, if any."""
        s = self.claim(vm, owner)
        if s is None and (notice := self._reclaim(seq)) is not None:
            s = self.claim(vm, owner)  # a reclaim frees none of `vm`'s open segments
            assert s is not None, "the claim after a reclaim must succeed"
            return s, notice
        return s, None

    def _reclaim(self, seq: int) -> ReclaimNotice | None:
        owners, victim, worst_excess = self.owners, None, 0
        for vm in sorted(owners):
            excess = len(owners[vm].segs) - self.mseg
            if excess > worst_excess:
                victim, worst_excess = vm, excess
        if victim is None:
            return None
        slot, segs = owners[victim].slot_segment, owners[victim].segs
        freed = sorted(segs - {slot})[-worst_excess:]
        swapped = sum(map(self._release, freed))
        notice = _new(ReclaimNotice, (seq, victim, worst_excess, tuple(freed), swapped))
        self.notices.append(notice)
        return notice

    def free_page(self, vm: int, page: int, seq: int = -1) -> IsolationFault | None:
        owner = self.owners.get(vm)
        if owner is None:
            raise LifecycleError(f"vm {vm} is not live")
        if not (0 <= page < self.pages_total):
            raise GeometryError(f"page {page} outside 0..{self.pages_total - 1}")
        s, index = divmod(page, self.pps)
        holder = self.mpt.get(s)
        if holder != vm:
            fault = _new(IsolationFault, (seq, -1, vm, s, holder))
            self.faults.append(fault)
            return fault
        if s == owner.slot_segment and index == 0:
            raise ProtocolError(f"page 0 of segment {s} hosts the save slot of vm {vm}")
        bit = 1 << index
        mask = self.masks[s]
        if not (mask & bit):
            raise DoubleFreeError(f"segment {s} page {index} is already free")
        self.masks[s] = mask ^ bit
        owner.pages -= 1
        if mask == bit and s != owner.slot_segment:
            self._release(s)
        elif mask == self.full_mask:
            heappush(owner.open, s)
        return None

    # -- access ----------------------------------------------------------

    def check_owner(
        self, vmid: int, page: int, cpu: int = -1, seq: int = -1
    ) -> IsolationFault | None:
        """Segment ownership check on behalf of any requester (CPU or DMA)."""
        s = page // self.pps
        owner = self.mpt.get(s)
        if owner == vmid:
            return None
        fault = _new(IsolationFault, (seq, cpu, vmid, s, owner))
        self.faults.append(fault)
        return fault

    def translate(self, cpu: int, vpage: int, seq: int = -1) -> Translation:
        """Walk the page table of the owner current on `cpu`."""
        cur = self.current(cpu)
        target = self.owners[cur].table.get(vpage)  # VMIDR only names live owners
        if target is None or not 0 <= target < self.pages_total:
            return _UNMAPPED
        if self.check_owner(cur, target, cpu, seq) is not None:
            return _BLOCKED
        return _TRANSLATED

    # -- invariants -------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated.

        Each index is checked against a recompute from the MPT and the masks.
        """
        assert set(self.masks) == set(self.mpt), "mask table out of sync with MPT"
        owners, held = self.owners, set(self.mpt.values())
        assert held <= owners.keys(), f"segments owned by dead ids: {held - owners.keys()}"
        assert self.tot == len(owners)
        expected = max(1, self.tseg // self.tot) if self.tot else 0
        assert self.mseg == expected, f"mseg {self.mseg} != {expected}"
        for vm, owner in owners.items():
            s = owner.slot_segment
            assert self.mpt.get(s) == vm, f"slot segment {s} not owned by vm {vm}"
            assert self.masks[s] & 1, f"slot page of vm {vm} not reserved"
        for cpu, cur in self.vmidr.items():
            assert cur in owners, f"cpu {cpu} current vm {cur} is not live"

        full = self.full_mask
        pages = dict.fromkeys(owners, 0)
        not_full = set()
        for s, vm in self.mpt.items():
            mask = self.masks[s]
            assert 0 < mask <= full, f"segment {s} mask {mask:#x} out of range"
            pages[vm] += mask.bit_count()
            if mask != full:
                not_full.add(s)
        assert {vm: o.pages for vm, o in owners.items()} == pages, f"page counts != {pages}"
        assert sorted(self.free) == [s for s in range(self.tseg) if s not in self.mpt], (
            "free heap is not the unowned segments"
        )
        inverse = {s: vm for vm, owner in owners.items() for s in owner.segs}
        assert inverse == self.mpt and len(inverse) == sum(len(o.segs) for o in owners.values()), (
            "the owners' segment sets are not the MPT by owner"
        )
        # an open heap may still list segments released since they were pushed,
        # but each segment its owner holds must be listed once iff it is not full
        listed = [s for vm, owner in owners.items() for s in owner.open if self.mpt.get(s) == vm]
        assert len(listed) == len(not_full) and not_full == set(listed), (
            f"open heaps list {listed}, not-full segments {not_full}"
        )
        assert all(_is_heap(o.open) for o in owners.values()) and _is_heap(self.free), (
            "a heap is out of order"
        )


def _is_heap(h: list[int]) -> bool:
    """Whether every h[i] is at most its children h[2i+1] and h[2i+2]."""
    return all(map(le, h, h[1::2])) and all(map(le, h, h[2::2]))
