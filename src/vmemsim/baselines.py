"""Reference designs the segment controller is measured against.

Five families, each reduced to the structures that matter for walk
counts and isolation outcomes:

  nested paging    guest table (vpage -> ppage) composed with a
                   hypervisor real-map table (ppage -> physical page);
                   every miss costs two table walks.
  shadow tables    guest table composed with the real map (vpage ->
                   physical page), walked in one step.  An entry is
                   computed when it is read, so it always equals the
                   nested walk; every guest or real-map write is still
                   charged the eager re-derivation of the entries it
                   affects.
  virtual TLB      software TLB tagged by real ASIDs.  The hypervisor
                   gives each (vm, guest asid) pair a distinct real ASID,
                   never recycled, so entries of different VMs can coexist
                   without flushing; the alternative policy flushes on
                   every switch instead.
  DMA remapping    per-device translation: a 256-entry root table (bus)
                   points at 32x8 context tables (device, function),
                   which name a protection domain whose page structure
                   is walked one level at a time.  A translated access
                   must land inside the device's domain.
  protection bits  per-page modes that gate hypervisor and DMA access
                   on top of an otherwise untranslated (raw) DMA path.

Raw DMA carries no protection at all: the device address is the
physical address, and cross-VM hits succeed.

The page-pool hypervisor that drives these structures is here too:
`BaselineMachine` is the `nested` mode, and `ShadowMachine`,
`IommuMachine` and `HyperwallMachine` subclass it.  `engine.run` loads
this module on a baseline mode's first run, so an `asmi` replay and the
commands that only write or check traces never compile it.  The machines
call `nested_translate` (on a vTLB miss only), `shadow_update_ppage` (on
an `rmap_write`; it calls `shadow_update_vpage` per entry it re-derives)
and `iommu_dma_translate` as globals of this module, where a patched name
is the one they call.  A handler reads a vTLB hit and walks a shadow entry
inline, so `VirtualTlb.lookup` and `shadow_translate`, like
`ProMem.translate` under `asmi`, are no longer called per access; nor is
`VirtualTlb.invalidate_phys` by a free.  A guest's `backing` maps each
page it holds to its vpage, which is also the ppage of a guest's mapping.

The machines and walk functions keep `engine._Machine`'s hot-path rules.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections.abc import Iterable
from typing import NamedTuple

from .core import DEFAULT_WALK_LEVELS, FLUSH_POLICY, HYPERVISOR, NO_DMA
from .engine import Denial, UtilSample, Violation, _Machine
from .errors import ModeError, OutOfRangeError
from .events import DmaRequest, PageMode, TraceEvent
from .promem import MemoryFull

_new = tuple.__new__  # a namedtuple's own constructor, without its Python __new__ frame

# ---------------------------------------------------------------------------
# nested / shadow page tables
#
# Each table is a plain dict: a guest table maps vpage -> ppage and a
# real-map table ppage -> physical page.  No shadow table is stored: its
# entry for a vpage is the composition of the two.
# ---------------------------------------------------------------------------


class WalkResult(NamedTuple):
    page: int | None      # global physical page, None on fault
    walks: int


#: a walk that stops at the guest table: both walks' outcome for an unmapped vpage
_GUEST_MISS = WalkResult(None, walks=1)


def nested_translate(vpage: int, gpt: dict[int, int], rmap: dict[int, int]) -> WalkResult:
    """Two-level lookup: guest table then real map, one walk each."""
    ppage = gpt.get(vpage)
    return _GUEST_MISS if ppage is None else _new(WalkResult, (rmap.get(ppage), 2))


def shadow_translate(vpage: int, gpt: dict[int, int], rmap: dict[int, int]) -> WalkResult:
    """One walk of `vpage`'s shadow entry, rmap[gpt[vpage]] by construction."""
    ppage = gpt.get(vpage)
    return _GUEST_MISS if ppage is None else _new(WalkResult, (rmap.get(ppage), 1))


def shadow_update_vpage() -> int:
    """Real-map walks an eager shadow re-derivation spends on one entry."""
    return 1


def shadow_update_ppage(gpt: dict[int, int], ppage: int) -> int:
    """Real-map walks a real-map write spends: one per vpage mapped to `ppage`."""
    return sum(shadow_update_vpage() for mapped in gpt.values() if mapped == ppage)


# ---------------------------------------------------------------------------
# virtual TLB
# ---------------------------------------------------------------------------


class VirtualTlb:
    """Software TLB keyed by (real asid, vpage), FIFO eviction.

    capacity 0 disables the TLB entirely: every lookup misses and
    inserts are dropped.  `keys_of`, physical page -> the keys cached to it,
    lets `invalidate_phys` cost only the entries it drops; most pages have
    one key, so each is a tuple, as in `ProtectionDomain.dvas_of`.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.entries: dict[tuple[int, int], int] = {}
        self.keys_of: dict[int, tuple[tuple[int, int], ...]] = {}

    def lookup(self, real_asid: int, vpage: int) -> int | None:
        return self.entries.get((real_asid, vpage))

    def insert(self, real_asid: int, vpage: int, phys: int) -> None:
        """Cache `phys` under the key; a present key keeps its place in FIFO order."""
        if self.capacity <= 0:
            return
        key = (real_asid, vpage)
        entries, keys_of = self.entries, self.keys_of
        old = entries.get(key)
        if old is not None:
            self._unindex(key, old)
        elif len(entries) >= self.capacity:
            # _unindex(victim, ...) without its frame: once full, most inserts evict
            victim = next(iter(entries))
            evicted = entries.pop(victim)
            keys = keys_of.pop(evicted)
            if len(keys) > 1:
                keys_of[evicted] = tuple(k for k in keys if k != victim)
        entries[key] = phys
        keys_of[phys] = keys_of.get(phys, ()) + (key,)

    def _unindex(self, key: tuple[int, int], page: int) -> None:
        """Drop `key` from `page`'s index entry, and the entry once it is empty."""
        keys = self.keys_of.pop(page)
        if len(keys) > 1:
            self.keys_of[page] = tuple(k for k in keys if k != key)

    def invalidate(self, asids: Iterable[int], vpage: int) -> None:
        """Drop the entries of `vpage` under each of `asids`."""
        for asid in asids:
            page = self.entries.pop((asid, vpage), None)
            if page is not None:
                self._unindex((asid, vpage), page)

    def invalidate_phys(self, page: int) -> None:
        """Drop every entry that maps to physical page `page`."""
        for key in self.keys_of.pop(page, ()):
            del self.entries[key]

    def flush(self) -> None:
        self.entries.clear()
        self.keys_of.clear()


# ---------------------------------------------------------------------------
# DMA remapping
# ---------------------------------------------------------------------------


class ProtectionDomain:
    def __init__(self) -> None:
        self.table: dict[int, int] = {}  # dva page -> phys page
        self.dvas_of: dict[int, tuple[int, ...]] = {}  # phys page -> dva pages


class DmaResult(NamedTuple):
    page: int | None
    steps: int            # table lookups plus walk levels actually performed
    fault: str | None     # "no_root" | "no_context" | "no_mapping"


_NO_ROOT = DmaResult(None, steps=1, fault="no_root")
_NO_CONTEXT = DmaResult(None, steps=2, fault="no_context")


class RemappingTables:
    """Root table by bus, context tables by (device, function), domains."""

    def __init__(self, levels: int = DEFAULT_WALK_LEVELS):
        if levels < 1:
            raise OutOfRangeError(f"walk depth must be >= 1, got {levels}")
        self.levels = levels
        self.root: dict[int, dict[tuple[int, int], int]] = {}
        self.domains: dict[int, ProtectionDomain] = {}

    def assign(self, domain_id: int, bus: int, device: int, function: int) -> None:
        """Route a device's DMA through a domain, creating the domain on first use."""
        # Range discipline matches DmaRequest.
        DmaRequest(bus, device, function, 0, False)
        self.domains.setdefault(domain_id, ProtectionDomain())
        self.root.setdefault(bus, {})[(device, function)] = domain_id

    def map_page(self, domain_id: int, dva_page: int, phys_page: int) -> None:
        """Point `dva_page` at `phys_page`.

        A physical page is almost always mapped from one dva page, so its
        reverse entry is a tuple: a one-page set takes over four times its memory.
        """
        dom = self.domains[domain_id]
        old = dom.table.get(dva_page)
        if old == phys_page:
            return
        dvas_of = dom.dvas_of
        if old is not None:
            dvas = tuple(dva for dva in dvas_of[old] if dva != dva_page)
            if dvas:
                dvas_of[old] = dvas
            else:
                del dvas_of[old]
        dom.table[dva_page] = phys_page
        dvas_of[phys_page] = dvas_of.get(phys_page, ()) + (dva_page,)

    def unmap_phys(self, phys_page: int) -> None:
        """Drop every mapping of a physical page, in every domain."""
        for dom in self.domains.values():
            for dva_page in dom.dvas_of.pop(phys_page, ()):
                del dom.table[dva_page]


def iommu_dma_translate(
    req: DmaRequest, tables: RemappingTables, page_size: int
) -> DmaResult:
    """Per-device translation with domain containment.

    Steps: one root lookup, one context lookup, then `levels` walk steps
    through the domain's page structure, charged only as far as the walk
    actually gets.
    """
    context = tables.root.get(req.bus)
    if context is None:
        return _NO_ROOT
    domain_id = context.get((req.device, req.function))
    if domain_id is None:
        return _NO_CONTEXT
    phys = tables.domains[domain_id].table.get(req.dva // page_size)
    return _new(DmaResult, (phys, 2 + tables.levels, "no_mapping" if phys is None else None))


# ---------------------------------------------------------------------------
# per-page protection bits
# ---------------------------------------------------------------------------


# The tokens hyperwall reads per event: a page's mode and a requester, as a Denial records them.
_HYP_ONLY = PageMode.HYPERVISOR_ONLY    # a page no hw_set or alloc has given a mode
_HYP_DMA = PageMode.HYPERVISOR_AND_DMA  # the mode of a freshly allocated page
_BY_HYPERVISOR = "hypervisor"
_BY_OWNER = "owner_vm"   # the VM that holds the page
_BY_OTHER = "other_vm"   # any other VM
_BY_DMA = "dma"

# Per-mode sets of the requesters allowed, keyed by mode token; hyperwall reads
# this table on every access.  Other VMs are never allowed, whatever the mode.
_ALLOWED: dict[str, frozenset[str]] = {
    PageMode.HYPERVISOR_ONLY: frozenset({_BY_HYPERVISOR}),
    PageMode.HYPERVISOR_AND_DMA: frozenset({_BY_HYPERVISOR, _BY_OWNER, _BY_DMA}),
    PageMode.HYPERVISOR_DENIED: frozenset({_BY_OWNER, _BY_DMA}),
    PageMode.LOCKED: frozenset({_BY_OWNER}),
}


# ---------------------------------------------------------------------------
# the page-pool hypervisor: one machine class per baseline mode
# ---------------------------------------------------------------------------


class _Guest:
    """What the page-pool hypervisor keeps for one live guest (or itself)."""

    __slots__ = ("gpt", "rmap", "backing", "held", "next_vpage", "asids", "asid", "domain")

    def __init__(self, asid: int):
        self.gpt: dict[int, int] = {}       # vpage -> ppage (the hypervisor's: -> page)
        self.rmap: dict[int, int] = {}      # ppage -> page
        self.backing: dict[int, int] = {}   # held page -> its vpage
        self.held: list[int] = []           # the pages of `backing`, ascending
        self.next_vpage = 0
        self.asids = {0: asid}              # guest asid -> real asid, never recycled
        self.asid = asid                    # the real asid of the current guest asid
        self.domain: int | None = None      # IOMMU domain, once assigned (iommu only)


class BaselineMachine(_Machine):
    """Page-pool hypervisor, and the `nested` mode itself.

    Accesses walk the guest and real-map tables behind a virtual TLB, and
    DMA is raw (or PIO under dma_policy=off).  Each other baseline mode is
    a subclass that overrides only what it does differently; it calls a
    base handler as `BaselineMachine.on_<kind>(self, ev)`, which costs no
    `super()` lookup.  Per-guest state lives in `guests`; `owner_of`
    names the holder of every page handed out and not freed since.  The
    free pool is the heap `free_pages` of freed pages, all below
    `fresh_page`, plus every page from `fresh_page` up, none of which has
    been handed out: it costs what the trace touches, not the geometry's
    size.  The lowest free page goes out first.  Real ASIDs come
    from one counter, so a destroyed guest's ASIDs leave with its record
    and no later guest reuses them.
    """

    def __init__(self, geom, opts, report):
        super().__init__(geom, opts, report)
        self.free_pages: list[int] = []     # a heap of freed pages, all below fresh_page
        self.fresh_page = 0                 # no page at or above it was ever handed out
        self.owner_of: dict[int, int] = {}  # held page -> owner
        self.real_asids = itertools.count(1)
        self.guests: dict[int, _Guest] = {HYPERVISOR: _Guest(next(self.real_asids))}
        self.live = self.guests  # the live ids are its keys
        self.current: dict[int, int] = {}
        self.next_vmid = 1
        self.tlb = VirtualTlb(opts.tlb_entries)
        self.page_mode: dict[int, str] = {}  # protection bits: only hyperwall sets any
        self.flush_on_switch = opts.tlb_policy == FLUSH_POLICY
        self.pio = opts.dma_policy == NO_DMA      # DMA moves each word through the CPU

    apply = _Machine.replay

    # -- small helpers --

    def _free_page(self, page: int) -> None:
        """Unmap a held page from every structure and return it to the pool."""
        vm = self.owner_of.pop(page)
        guest = self.guests[vm]
        vpage = guest.backing.pop(page)
        ppage = page if vm == HYPERVISOR else vpage  # the gpt entry its alloc made
        held = guest.held
        del held[bisect.bisect_left(held, page)]
        if guest.gpt.get(vpage) == ppage:
            del guest.gpt[vpage]
        mapped = guest.rmap.pop(ppage, page)
        entries, keys_of = self.tlb.entries, self.tlb.keys_of  # invalidate_phys, inline
        if mapped != page:                  # an rmap_write moved ppage elsewhere
            for key in keys_of.pop(mapped, ()):
                del entries[key]
        for key in keys_of.pop(page, ()):
            del entries[key]
        self.page_mode.pop(page, None)
        heapq.heappush(self.free_pages, page)

    def _reclaim_one_page(self, requester: int) -> int | None:
        """Swap out the highest page the hypervisor may touch of the largest
        other guest holder; a tie goes to the lowest vm, as `guests` is in
        ascending-id order.  A holder with no such page (only hyperwall locks
        any) is passed over, and the next largest is tried.
        """
        guests, page_mode = self.guests, self.page_mode
        passed = set()
        for _ in guests:  # at most one pass per guest: each returns or passes one over
            victim, most = None, 0
            for vm, guest in guests.items():
                count = len(guest.held)
                if count > most and vm != requester and vm != HYPERVISOR and vm not in passed:
                    victim, most = vm, count
            if victim is None:
                return None
            for page in reversed(guests[victim].held):
                if _BY_HYPERVISOR in _ALLOWED[page_mode.get(page, _HYP_ONLY)]:
                    self._free_page(page)
                    return page
            passed.add(victim)
        return None

    # -- lifecycle and entry/exit --

    def on_create_vm(self, ev: TraceEvent) -> None:
        vm = self.next_vmid
        self.next_vmid += 1
        if vm != ev.vm:
            raise self.err(ev, f"trace expects vm {ev.vm}, hypervisor assigned {vm}")
        self.guests[vm] = _Guest(next(self.real_asids))

    def on_destroy_vm(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        if ev.vm == HYPERVISOR or ev.vm in self.current.values():
            raise self.err(ev, f"vm {ev.vm} cannot be destroyed now")
        for page in list(self.guests[ev.vm].held):
            self._free_page(page)
        del self.guests[ev.vm]

    def on_enter(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        if self.current.get(ev.cpu, HYPERVISOR) != HYPERVISOR or ev.vm == HYPERVISOR:
            raise self.err(ev, "entry requires the hypervisor to be current")
        self.current[ev.cpu] = ev.vm
        self._count_switch(ev.kind)

    def on_exit(self, ev: TraceEvent) -> None:
        if self.current.get(ev.cpu, HYPERVISOR) == HYPERVISOR:
            raise self.err(ev, "exit requires a guest to be current")
        self.current[ev.cpu] = HYPERVISOR
        self._count_switch(ev.kind)

    def on_pswitch(self, ev: TraceEvent) -> None:
        guest = self.guests[self.current.get(ev.cpu, HYPERVISOR)]
        if ev.vasid not in guest.asids:
            guest.asids[ev.vasid] = next(self.real_asids)
        guest.asid = guest.asids[ev.vasid]
        self._count_switch(ev.kind)

    # -- memory --

    def on_alloc(self, ev: TraceEvent) -> int | None:
        """Hand out and map the lowest free page: it, or None when memory is full."""
        vm = ev.vm
        guest = self.guests.get(vm)
        if guest is None:
            raise self.err(ev, f"vm {vm} is not live")
        self.report.counters.allocs += 1
        t = self.tally[ev.kind]
        free = self.free_pages
        if free:
            page = heapq.heappop(free)
        elif self.fresh_page < self.pages_total:
            page = self.fresh_page
            self.fresh_page = page + 1
        elif self._reclaim_one_page(vm) is None:
            self.report.memory_full.append(_new(MemoryFull, (ev.seq, vm)))
            return None
        else:
            t.pages_swapped += 1
            page = heapq.heappop(free)
        self.owner_of[page] = vm
        vpage = guest.next_vpage
        guest.next_vpage = vpage + 1
        # the hypervisor maps straight to physical pages; fresh guests map linearly
        ppage = page if vm == HYPERVISOR else vpage
        # entries cached from a gpt_write or rmap_write this alloc overrides
        if vpage in guest.gpt:
            self.tlb.invalidate(guest.asids.values(), vpage)
        guest.gpt[vpage] = ppage
        guest.backing[page] = vpage
        bisect.insort(guest.held, page)
        if vm != HYPERVISOR:
            old = guest.rmap.get(ppage)
            if old is not None:
                self.tlb.invalidate_phys(old)
            guest.rmap[ppage] = page
            if guest.domain is not None:    # assigned under iommu only
                self.remap.map_page(guest.domain, ppage, page)
        return page

    def on_free(self, ev: TraceEvent) -> None:
        vm = ev.vm
        guest = self.guests.get(vm)
        if guest is None:
            raise self.err(ev, f"vm {vm} is not live")
        c = self.report.counters
        if ev.vaddr < 0:
            raise self.err(ev, f"negative vaddr {ev.vaddr}")
        mapped = guest.gpt.get(ev.vaddr // self.page_size_bytes)
        if mapped is None:
            c.invalid_frees += 1
            return
        page = mapped if vm == HYPERVISOR else guest.rmap.get(mapped)
        if page is None or self.owner_of.get(page) != vm:
            c.invalid_frees += 1
            return
        c.frees += 1
        self._free_page(page)

    def on_gpt_write(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        guest = self.guests[ev.vm]
        guest.gpt[ev.vpage] = ev.target
        self.tlb.invalidate(guest.asids.values(), ev.vpage)

    def on_rmap_write(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        guest = self.guests[ev.vm]
        old = guest.rmap.get(ev.ppage)
        guest.rmap[ev.ppage] = ev.phys
        if old is not None:
            self.tlb.invalidate_phys(old)

    # -- CPU access --

    def on_read(self, ev: TraceEvent) -> None:
        """One frame per access: vTLB hit or nested walk, range check, count, owner."""
        c = self.report.counters
        c.cpu_accesses += 1
        if ev.vaddr < 0:
            raise self.err(ev, f"negative vaddr {ev.vaddr}")
        vpage = ev.vaddr // self.page_size_bytes
        vm = self.current.get(ev.cpu, HYPERVISOR)
        guest = self.guests[vm]
        t = self.tally[ev.kind]
        if vm == HYPERVISOR:
            page, walks = guest.gpt.get(vpage), 1
        else:
            page = self.tlb.entries.get((guest.asid, vpage))
            if page is not None:
                t.tlb_hits += 1
                walks = 0
            else:
                c.tlb_misses += 1
                page, walks = nested_translate(vpage, guest.gpt, guest.rmap)
                if page is not None and 0 <= page < self.pages_total:
                    self.tlb.insert(guest.asid, vpage, page)
        t.walk_steps += walks
        if page is None or not 0 <= page < self.pages_total:
            c.page_faults += 1
            return
        owner = self.owner_of.get(page)
        if owner is None:
            if vm != HYPERVISOR:
                c.page_faults += 1  # resolved to an unbacked frame
            return
        if owner != vm:
            self.report.violations.append(_new(Violation, (ev.seq, ev.cpu, "cpu", vm, page, owner)))

    on_write = on_read

    # -- DMA --

    def _dma(self, ev: TraceEvent, issuer: int | None, page: int, dva: int) -> None:
        """Raw DMA, which lands whoever owns the page; PIO under dma_policy=off."""
        t = self.tally[ev.kind]
        t.dma_ops += 1
        if self.pio:
            t.pio_transfers += 1
            return
        c = self.report.counters
        if not 0 <= page < self.pages_total:
            self._dma_fault(ev, dva, "range")
            c.dma_blocked += 1
            return
        owner = self.owner_of.get(page)
        if owner is not None and owner != issuer:
            # raw DMA lands anyway: this is the vulnerability, record and proceed
            self.report.violations.append(_new(
                Violation, (ev.seq, ev.cpu, "dma", -1 if issuer is None else issuer, page, owner)))
        c.dma_completed += 1

    # -- bookkeeping --

    def sample(self, event_index: int) -> None:
        for vm in sorted(self.guests):
            self.report.utilization.append(
                _new(UtilSample, (event_index, vm, 0, len(self.guests[vm].backing)))
            )

    def finalize(self) -> None:
        for vm in sorted(self.guests):
            self.report.final_pages[vm] = len(self.guests[vm].backing)

    def check_invariants(self) -> None:
        held = {page: vm for vm, guest in self.guests.items() for page in guest.backing}
        assert held == self.owner_of, "owner_of differs from the guests' backing"
        for vm, guest in self.guests.items():
            assert guest.held == sorted(guest.backing), f"vm {vm}'s held list is not its backing"
        assert sum(len(g.backing) for g in self.guests.values()) == len(held), "page held twice"
        # the freed and the held pages are every page below the mark, once each: no
        # freed page is at or above it, and freed + held == fresh_page
        pool = sorted([*self.free_pages, *held])
        assert pool == list(range(self.fresh_page)), "pages lost, doubled or freed past the mark"
        # the vTLB's reverse index holds each cached key once, under its page, and no empty entry
        keys_of = self.tlb.keys_of
        pairs = sorted((page, key) for page, keys in keys_of.items() for key in keys)
        assert pairs == sorted((p, k) for k, p in self.tlb.entries.items()) and all(
            keys_of.values()), "the vTLB's reverse index is not the inverse of its entries"
        # the vTLB caches the nested walk: entries of destroyed guests never hit again
        guest_of = {asid: g for g in self.guests.values() for asid in g.asids.values()}
        for (asid, vpage), page in self.tlb.entries.items():
            guest = guest_of.get(asid)
            stale = guest is not None and guest.rmap.get(guest.gpt.get(vpage)) != page
            assert not stale, f"stale vTLB entry {(asid, vpage)} -> {page}"


class ShadowMachine(BaselineMachine):
    """nested_shadow: an access walks the shadow entry, rmap[gpt[vpage]], in
    one step and fills no vTLB; a guest's table writes pay the re-derivation
    of the entries they affect.  The hypervisor's table maps straight to
    physical pages, so its writes derive nothing."""

    def __init__(self, geom, opts, report):
        super().__init__(geom, opts, report)
        self.flush_on_switch = False  # nothing fills the vTLB, so a switch has none to flush

    def on_alloc(self, ev: TraceEvent) -> None:
        if BaselineMachine.on_alloc(self, ev) is not None and ev.vm != HYPERVISOR:
            self.tally[ev.kind].shadow_update_steps += 1  # shadow_update_vpage(), inline

    def on_gpt_write(self, ev: TraceEvent) -> None:
        BaselineMachine.on_gpt_write(self, ev)
        if ev.vm != HYPERVISOR:
            self.tally[ev.kind].shadow_update_steps += 1  # shadow_update_vpage(), inline

    def on_rmap_write(self, ev: TraceEvent) -> None:
        BaselineMachine.on_rmap_write(self, ev)
        if ev.vm != HYPERVISOR:
            steps = shadow_update_ppage(self.guests[ev.vm].gpt, ev.ppage)
            self.tally[ev.kind].shadow_update_steps += steps

    def on_read(self, ev: TraceEvent) -> None:
        """One frame per access: shadow walk, range check, count, owner."""
        c = self.report.counters
        c.cpu_accesses += 1
        if ev.vaddr < 0:
            raise self.err(ev, f"negative vaddr {ev.vaddr}")
        vpage = ev.vaddr // self.page_size_bytes
        vm = self.current.get(ev.cpu, HYPERVISOR)
        guest = self.guests[vm]
        # one walk either way: the hypervisor's table maps straight to physical pages
        page = guest.gpt.get(vpage)
        if vm != HYPERVISOR and page is not None:
            page = guest.rmap.get(page)
        self.tally[ev.kind].walk_steps += 1
        if page is None or not 0 <= page < self.pages_total:
            c.page_faults += 1
            return
        owner = self.owner_of.get(page)
        if owner is None:
            if vm != HYPERVISOR:
                c.page_faults += 1  # resolved to an unbacked frame
            return
        if owner != vm:
            self.report.violations.append(_new(Violation, (ev.seq, ev.cpu, "cpu", vm, page, owner)))

    on_write = on_read


class IommuMachine(BaselineMachine):
    """iommu: the nested CPU path, and every DMA, whatever dma_policy says,
    walks its device's remapping tables, which no other mode keeps.  A
    raw-target DMA names no device, so it is a mode error.  Only this mode
    gives a guest a domain, which `BaselineMachine.on_alloc` maps into."""

    def __init__(self, geom, opts, report):
        super().__init__(geom, opts, report)
        self.remap = RemappingTables(opts.walk_levels)

    def _free_page(self, page: int) -> None:
        BaselineMachine._free_page(self, page)
        self.remap.unmap_phys(page)

    def on_domain_assign(self, ev: TraceEvent) -> None:
        BaselineMachine.on_domain_assign(self, ev)
        self.remap.assign(ev.domain, ev.bus, ev.device, ev.function)
        guest = self.guests[ev.vm]
        guest.domain = ev.domain
        # late assignment adopts mappings that already exist
        for ppage, page in guest.rmap.items():
            self.remap.map_page(ev.domain, ppage, page)

    def _dma(self, ev: TraceEvent, issuer: int | None, page: int, dva: int) -> None:
        """Remap a device's DMA through its domain: the issuer and page go unused."""
        c = self.report.counters
        t = self.tally[ev.kind]
        t.dma_ops += 1
        request = _new(DmaRequest, (ev.bus, ev.device, ev.function, dva, bool(ev.write)))
        result = iommu_dma_translate(request, self.remap, self.page_size_bytes)
        t.dma_walk_steps += result.steps
        if result.fault is not None:
            self._dma_fault(ev, dva, result.fault)
            c.dma_blocked += 1
            return
        c.dma_completed += 1

    def on_dma_raw(self, ev: TraceEvent) -> None:
        raise ModeError(f"event seq {ev.seq}: raw-target DMA cannot be remapped; "
                        "this mode requires device coordinates")


class HyperwallMachine(BaselineMachine):
    """hyperwall: the nested CPU path and raw DMA, behind per-page protection
    bits checked on every access and set by hw_set."""

    def on_alloc(self, ev: TraceEvent) -> None:
        page = BaselineMachine.on_alloc(self, ev)
        if page is not None:
            self.page_mode[page] = _HYP_DMA

    def on_hw_set(self, ev: TraceEvent) -> None:
        if not (0 <= ev.page < self.pages_total):
            raise self.err(ev, f"page {ev.page} outside the geometry")
        if ev.mode not in _ALLOWED:
            raise self.err(ev, f"unknown protection mode {ev.mode!r}")
        requester = self.current.get(ev.cpu, HYPERVISOR)
        owner = self.owner_of.get(ev.page)
        if requester == owner or (requester == HYPERVISOR and owner is None):
            self.page_mode[ev.page] = ev.mode
        else:
            self.report.counters.hw_set_denied += 1

    def on_read(self, ev: TraceEvent) -> None:
        """One frame per access: as nested, then a check of the page's bits."""
        c = self.report.counters
        c.cpu_accesses += 1
        if ev.vaddr < 0:
            raise self.err(ev, f"negative vaddr {ev.vaddr}")
        vpage = ev.vaddr // self.page_size_bytes
        vm = self.current.get(ev.cpu, HYPERVISOR)
        guest = self.guests[vm]
        t = self.tally[ev.kind]
        if vm == HYPERVISOR:
            page, walks = guest.gpt.get(vpage), 1
        else:
            page = self.tlb.entries.get((guest.asid, vpage))
            if page is not None:
                t.tlb_hits += 1
                walks = 0
            else:
                c.tlb_misses += 1
                page, walks = nested_translate(vpage, guest.gpt, guest.rmap)
                if page is not None and 0 <= page < self.pages_total:
                    self.tlb.insert(guest.asid, vpage, page)
        t.walk_steps += walks
        if page is None or not 0 <= page < self.pages_total:
            c.page_faults += 1
            return
        t.unreported_checks += 1
        owner = self.owner_of.get(page)
        requester = (_BY_HYPERVISOR if vm == HYPERVISOR
                     else _BY_OWNER if owner == vm else _BY_OTHER)
        mode = self.page_mode.get(page, _HYP_ONLY)
        if requester not in _ALLOWED[mode]:
            self.report.denials.append(_new(Denial, (ev.seq, ev.cpu, requester, page, mode, owner)))
            return
        if owner is None:  # only the hypervisor gets here: a guest's is other_vm, denied above
            return
        if owner != vm:
            self.report.violations.append(_new(Violation, (ev.seq, ev.cpu, "cpu", vm, page, owner)))

    on_write = on_read

    def _dma(self, ev: TraceEvent, issuer: int | None, page: int, dva: int) -> None:
        """Raw DMA stops at a page whose bits deny it; PIO and range faults pass no gate."""
        if not self.pio and 0 <= page < self.pages_total:
            mode = self.page_mode.get(page, _HYP_ONLY)
            t = self.tally[ev.kind]
            t.unreported_checks += 1
            if _BY_DMA not in _ALLOWED[mode]:
                t.dma_ops += 1
                self.report.counters.dma_blocked += 1
                self.report.denials.append(
                    _new(Denial, (ev.seq, ev.cpu, _BY_DMA, page, mode, self.owner_of.get(page))))
                return
        BaselineMachine._dma(self, ev, issuer, page, dva)
