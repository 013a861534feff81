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
     the request retries, which then always succeeds;
  4. else the requester is told the memory is full.

Every page the controller takes or returns is a global page number p,
as in every other table of the simulator.  The controller alone splits
it: p lies in segment p // pages_per_segment at index
p % pages_per_segment, and a page outside 0 .. pages_total - 1 lies in
no segment.

Access checks are segment-granular: an access is allowed iff the MPT
maps the target segment to the requesting owner.  The hypervisor gets
no bypass; a hypervisor access to a guest-owned segment faults exactly
like any other cross-owner access.  Translation is single-level: one
walk of the current owner's page table (vpage -> global page) plus one
MPT check.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class IsolationFault:
    """Blocked cross-owner access; `owner` is None for a free segment."""

    seq: int
    cpu: int
    vmid: int
    segment: int
    owner: int | None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "cpu": self.cpu,
            "vmid": self.vmid,
            "segment": self.segment,
            "owner": self.owner,
        }


@dataclass(frozen=True)
class ReclaimNotice:
    seq: int
    victim: int
    excess: int
    segments: tuple[int, ...]
    pages_swapped: int

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "victim": self.victim,
            "excess": self.excess,
            "segments": list(self.segments),
            "pages_swapped": self.pages_swapped,
        }


@dataclass(frozen=True)
class MemoryFull:
    seq: int
    vm: int

    def to_dict(self) -> dict:
        return {"seq": self.seq, "vm": self.vm}


@dataclass(frozen=True)
class AllocResult:
    """The page handed out (None when memory is full) and any reclaim it took."""

    page: int | None
    reclaim: ReclaimNotice | None = None


#: translation outcome kinds
OK = "ok"
PAGE_FAULT = "page_fault"
ISOLATION_FAULT = "isolation_fault"


@dataclass(frozen=True)
class Translation:
    fault: str | None
    walks: int
    checks: int


# ---------------------------------------------------------------------------
# controller
# ---------------------------------------------------------------------------


class ProMem:
    """Boots over a geometry with an empty MPT and no owners."""

    def __init__(self, geom: Geometry):
        self.geom = geom
        self.pps = geom.pages_per_segment
        self.tseg = geom.total_segments
        self.tot = 0
        self.mseg = 0
        self.mpt: dict[int, int] = {}
        self.masks: dict[int, int] = {}      # segment -> bitmask of taken pages
        self.slot_segment: dict[int, int] = {}
        self.save_slot: dict[int, int] = {}
        self.vmidr: dict[int, int] = {}
        self.live: set[int] = set()
        self.next_vmid = 1
        # outcome ledgers, in occurrence order
        self.faults: list[IsolationFault] = []
        self.notices: list[ReclaimNotice] = []
        self.memory_full_events: list[MemoryFull] = []
        self.pages_swapped_total = 0

    # -- queries --------------------------------------------------------

    def hypervisor_loaded(self) -> bool:
        return HYPERVISOR in self.live

    def current(self, cpu: int) -> int:
        if not self.hypervisor_loaded():
            raise ProtocolError("no owner is current before the hypervisor loads")
        return self.vmidr.get(cpu, HYPERVISOR)

    def segment_owner(self, segment: int) -> int | None:
        return self.mpt.get(segment)

    def owned_segments(self, vm: int) -> list[int]:
        return sorted(s for s, o in self.mpt.items() if o == vm)

    def allocated_pages(self, vm: int) -> int:
        """Pages in use by `vm`, save-slot page included."""
        return sum(self.masks[s].bit_count() for s in self.mpt if self.mpt[s] == vm)

    def free_segment_count(self) -> int:
        return self.tseg - len(self.mpt)

    # -- lifecycle ------------------------------------------------------

    def _recompute_mseg(self) -> None:
        self.mseg = max(1, self.tseg // self.tot) if self.tot else 0

    def _lowest_free_segment(self) -> int | None:
        for s in range(self.tseg):
            if s not in self.mpt:
                return s
        return None

    def _install_slot_segment(self, vm: int, seq: int) -> int:
        s = self._lowest_free_segment()
        if s is None:
            # TOT <= TSEG guarantees some owner is over quota here, so the
            # reclaim always produces a free segment.
            notice = self._reclaim(seq)
            assert notice is not None, "no free segment and nobody over quota"
            s = self._lowest_free_segment()
            assert s is not None
        self.mpt[s] = vm
        self.masks[s] = 1  # page 0 reserved for the save slot
        self.slot_segment[vm] = s
        self.save_slot[vm] = vm
        return s

    def load_hypervisor(self, seq: int = -1) -> int:
        if self.tot != 0:
            raise LifecycleError("hypervisor already loaded")
        self.live.add(HYPERVISOR)
        self.tot = 1
        self._recompute_mseg()
        self._install_slot_segment(HYPERVISOR, seq)
        self.vmidr[0] = HYPERVISOR
        return HYPERVISOR

    def create_vm(self, seq: int = -1) -> int:
        if not self.hypervisor_loaded():
            raise LifecycleError("hypervisor must load before VMs are created")
        if self.tot >= self.tseg:
            raise CapacityError(
                f"cannot host {self.tot + 1} owners with {self.tseg} segments"
            )
        vm = self.next_vmid
        self.next_vmid += 1
        self.live.add(vm)
        self.tot += 1
        self._recompute_mseg()
        self._install_slot_segment(vm, seq)
        return vm

    def destroy_vm(self, vm: int, seq: int = -1) -> None:
        if vm == HYPERVISOR:
            raise LifecycleError("hypervisor cannot be destroyed")
        if vm not in self.live:
            raise LifecycleError(f"vm {vm} is not live")
        if vm in self.vmidr.values():
            raise LifecycleError(f"vm {vm} is current on a processor")
        for s in self.owned_segments(vm):
            del self.mpt[s]
            del self.masks[s]
        del self.slot_segment[vm]
        del self.save_slot[vm]
        self.live.discard(vm)
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
        if vm not in self.live:
            raise LifecycleError(f"entry to dead vm {vm}")
        self.save_slot[HYPERVISOR] = cur
        self.vmidr[cpu] = self.save_slot[vm]

    def vm_exit(self, cpu: int) -> None:
        cur = self.current(cpu)
        if cur == HYPERVISOR:
            raise ProtocolError(f"exit while hypervisor is current on cpu {cpu}")
        self.save_slot[cur] = cur
        self.vmidr[cpu] = self.save_slot[HYPERVISOR]

    # -- allocation ------------------------------------------------------

    def allocate_page(self, vm: int, seq: int = -1) -> AllocResult:
        if vm not in self.live:
            raise LifecycleError(f"vm {vm} is not live")
        page = self._allocate_once(vm)
        if page is not None:
            return AllocResult(page)
        notice = self._reclaim(seq)
        if notice is None:
            self.memory_full_events.append(MemoryFull(seq, vm))
            return AllocResult(None)
        page = self._allocate_once(vm)
        assert page is not None, "retry after reclaim must succeed"
        return AllocResult(page, notice)

    def _allocate_once(self, vm: int) -> int | None:
        full_mask = (1 << self.pps) - 1
        for s in self.owned_segments(vm):
            mask = self.masks[s]
            if mask != full_mask:
                index = ((~mask) & (mask + 1)).bit_length() - 1
                self.masks[s] = mask | (1 << index)
                return s * self.pps + index
        s = self._lowest_free_segment()
        if s is not None:
            self.mpt[s] = vm
            self.masks[s] = 1  # claimed segments carry no slot; data starts at 0
            return s * self.pps
        return None

    def _reclaim(self, seq: int) -> ReclaimNotice | None:
        victim = None
        worst_excess = 0
        held: dict[int, int] = {vm: 0 for vm in self.live}
        for owner in self.mpt.values():
            held[owner] += 1
        for vm in sorted(self.live):
            excess = held[vm] - self.mseg
            if excess > worst_excess:
                victim, worst_excess = vm, excess
        if victim is None:
            return None
        candidates = [s for s in self.owned_segments(victim) if s != self.slot_segment[victim]]
        freed = sorted(candidates, reverse=True)[:worst_excess]
        swapped = 0
        for s in freed:
            swapped += self.masks[s].bit_count()
            del self.mpt[s]
            del self.masks[s]
        notice = ReclaimNotice(seq, victim, worst_excess, tuple(sorted(freed)), swapped)
        self.notices.append(notice)
        self.pages_swapped_total += swapped
        return notice

    def free_page(self, vm: int, page: int, seq: int = -1) -> IsolationFault | None:
        if vm not in self.live:
            raise LifecycleError(f"vm {vm} is not live")
        if not (0 <= page < self.geom.pages_total):
            raise GeometryError(f"page {page} outside 0..{self.geom.pages_total - 1}")
        s, index = divmod(page, self.pps)
        owner = self.mpt.get(s)
        if owner != vm:
            fault = IsolationFault(seq, -1, vm, s, owner)
            self.faults.append(fault)
            return fault
        if s == self.slot_segment[vm] and index == 0:
            raise ProtocolError(f"page 0 of segment {s} hosts the save slot of vm {vm}")
        bit = 1 << index
        if not (self.masks[s] & bit):
            raise DoubleFreeError(f"segment {s} page {index} is already free")
        self.masks[s] &= ~bit
        if self.masks[s] == 0 and s != self.slot_segment[vm]:
            del self.mpt[s]
            del self.masks[s]
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
        fault = IsolationFault(seq, cpu, vmid, s, owner)
        self.faults.append(fault)
        return fault

    def check_access(self, cpu: int, page: int, seq: int = -1) -> IsolationFault | None:
        return self.check_owner(self.current(cpu), page, cpu, seq)

    def translate(
        self, cpu: int, vpage: int, tables: dict[int, dict[int, int]], seq: int = -1
    ) -> Translation:
        """Walk the current owner's table in `tables` (owner -> vpage -> page)."""
        cur = self.current(cpu)
        target = tables[cur].get(vpage)
        if target is None or not (0 <= target < self.geom.pages_total):
            return Translation(PAGE_FAULT, walks=1, checks=0)
        if self.check_owner(cur, target, cpu, seq) is not None:
            return Translation(ISOLATION_FAULT, walks=1, checks=1)
        return Translation(None, walks=1, checks=1)

    # -- invariants -------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        assert set(self.masks) == set(self.mpt), "mask table out of sync with MPT"
        owners = set(self.mpt.values())
        assert owners <= self.live, f"segments owned by dead ids: {owners - self.live}"
        assert len(self.mpt) + self.free_segment_count() == self.tseg
        assert self.tot == len(self.live)
        expected = max(1, self.tseg // self.tot) if self.tot else 0
        assert self.mseg == expected, f"mseg {self.mseg} != {expected}"
        full = (1 << self.pps) - 1
        for s, mask in self.masks.items():
            assert 0 < mask <= full, f"segment {s} mask {mask:#x} out of range"
        for vm in self.live:
            s = self.slot_segment[vm]
            assert self.mpt.get(s) == vm, f"slot segment {s} not owned by vm {vm}"
            assert self.masks[s] & 1, f"slot page of vm {vm} not reserved"
        assert set(self.save_slot) == self.live
        for cpu, cur in self.vmidr.items():
            assert cur in self.live, f"cpu {cpu} current vm {cur} is not live"
