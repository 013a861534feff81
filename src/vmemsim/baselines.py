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
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum, unique
from typing import NamedTuple

from .errors import OutOfRangeError

MAX_BUS = 256
MAX_DEVICE = 32
MAX_FUNCTION = 8

DEFAULT_WALK_LEVELS = 4

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


def nested_translate(vpage: int, gpt: dict[int, int], rmap: dict[int, int]) -> WalkResult:
    """Two-level lookup: guest table then real map, one walk each."""
    ppage = gpt.get(vpage)
    if ppage is None:
        return WalkResult(None, walks=1)
    return WalkResult(rmap.get(ppage), walks=2)


def shadow_translate(vpage: int, gpt: dict[int, int], rmap: dict[int, int]) -> WalkResult:
    """One walk of `vpage`'s shadow entry, rmap[gpt[vpage]] by construction."""
    return WalkResult(rmap.get(gpt.get(vpage)), walks=1)


def shadow_update_vpage() -> int:
    """Real-map walks an eager shadow re-derivation spends on one entry."""
    return 1


def shadow_update_ppage(gpt: dict[int, int], ppage: int) -> int:
    """Real-map walks a real-map write spends: one per vpage mapped to `ppage`."""
    return sum(shadow_update_vpage() for mapped in gpt.values() if mapped == ppage)


# ---------------------------------------------------------------------------
# virtual TLB
# ---------------------------------------------------------------------------

# Switch policies of the virtual TLB: flush it on every switch, or keep
# entries of different address spaces apart by real ASID.
FLUSH_POLICY = "flush"
ASID_POLICY = "asid"

# DMA policies of the page-pool baselines without remapping (nested,
# nested_shadow, hyperwall): devices reach physical pages untranslated,
# or data moves by programmed I/O.
RAW_DMA = "raw"
NO_DMA = "off"


class VirtualTlb:
    """Software TLB keyed by (real asid, vpage), FIFO eviction.

    capacity 0 disables the TLB entirely: every lookup misses and
    inserts are dropped.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.entries: dict[tuple[int, int], int] = {}

    def lookup(self, real_asid: int, vpage: int) -> int | None:
        return self.entries.get((real_asid, vpage))

    def insert(self, real_asid: int, vpage: int, phys: int) -> None:
        if self.capacity <= 0:
            return
        key = (real_asid, vpage)
        if key not in self.entries and len(self.entries) >= self.capacity:
            self.entries.pop(next(iter(self.entries)))
        self.entries[key] = phys

    def invalidate(self, asids: Iterable[int], vpage: int) -> None:
        """Drop the entries of `vpage` under each of `asids`."""
        for asid in asids:
            self.entries.pop((asid, vpage), None)

    def invalidate_phys(self, page: int) -> None:
        """Drop every entry that maps to physical page `page`."""
        for key in [k for k, v in self.entries.items() if v == page]:
            del self.entries[key]

    def flush(self) -> None:
        self.entries.clear()


# ---------------------------------------------------------------------------
# DMA remapping
# ---------------------------------------------------------------------------


class _DmaRequestFields(NamedTuple):
    bus: int
    device: int
    function: int
    dva: int          # device-issued flat byte address
    is_write: bool


class DmaRequest(_DmaRequestFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DmaRequest:
        self = super().__new__(cls, *args, **kwargs)
        if not (0 <= self.bus < MAX_BUS):
            raise OutOfRangeError(f"bus {self.bus} outside 0..{MAX_BUS - 1}")
        if not (0 <= self.device < MAX_DEVICE):
            raise OutOfRangeError(f"device {self.device} outside 0..{MAX_DEVICE - 1}")
        if not (0 <= self.function < MAX_FUNCTION):
            raise OutOfRangeError(f"function {self.function} outside 0..{MAX_FUNCTION - 1}")
        if self.dva < 0:
            raise OutOfRangeError(f"dva {self.dva} is negative")
        return self


class ProtectionDomain:
    def __init__(self) -> None:
        self.table: dict[int, int] = {}  # dva page -> phys page
        self.dvas_of: dict[int, tuple[int, ...]] = {}  # phys page -> dva pages


class DmaResult(NamedTuple):
    page: int | None
    steps: int            # table lookups plus walk levels actually performed
    fault: str | None     # "no_root" | "no_context" | "no_mapping"


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
        return DmaResult(None, steps=1, fault="no_root")
    domain_id = context.get((req.device, req.function))
    if domain_id is None:
        return DmaResult(None, steps=2, fault="no_context")
    dom = tables.domains[domain_id]
    steps = 2 + tables.levels
    phys = dom.table.get(req.dva // page_size)
    if phys is None:
        return DmaResult(None, steps=steps, fault="no_mapping")
    return DmaResult(phys, steps=steps, fault=None)


# ---------------------------------------------------------------------------
# per-page protection bits
# ---------------------------------------------------------------------------


@unique
class PageMode(Enum):
    HYPERVISOR_ONLY = "hyp_only"        # unassigned page
    HYPERVISOR_AND_DMA = "hyp_dma"      # assigned; hypervisor and DMA allowed
    HYPERVISOR_DENIED = "hyp_denied"    # assigned; DMA allowed, hypervisor not
    LOCKED = "locked"                   # assigned; neither hypervisor nor DMA


@unique
class Requester(Enum):
    HYPERVISOR = "hypervisor"
    OWNER_VM = "owner_vm"
    OTHER_VM = "other_vm"
    DMA = "dma"


# Per-mode allow sets, keyed by value tokens: hashing an Enum member runs
# Python code, and hyperwall reads this table on every access.  Other VMs
# are never allowed, whatever the mode.
_ALLOWED: dict[str, frozenset[str]] = {
    PageMode.HYPERVISOR_ONLY.value: frozenset({Requester.HYPERVISOR.value}),
    PageMode.HYPERVISOR_AND_DMA.value: frozenset(
        {Requester.HYPERVISOR.value, Requester.OWNER_VM.value, Requester.DMA.value}
    ),
    PageMode.HYPERVISOR_DENIED.value: frozenset({Requester.OWNER_VM.value, Requester.DMA.value}),
    PageMode.LOCKED.value: frozenset({Requester.OWNER_VM.value}),
}


def page_mode_allows(mode: PageMode, requester: Requester) -> bool:
    return requester._value_ in _ALLOWED[mode._value_]


def hypervisor_may_touch(mode: PageMode) -> bool:
    """Whether the hypervisor can reclaim/swap a page in this mode."""
    return page_mode_allows(mode, Requester.HYPERVISOR)
