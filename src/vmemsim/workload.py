"""Trace generation: seeded synthetic workloads and pointed attack traces.

Generated traces are mode-neutral: the same event list replays under any
engine mode.  The generator is allocator-agnostic; it numbers guest pages
by issue order and never peeks at engine state, so a trace is a pure
function of (spec, geometry).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .baselines import MAX_BUS, MAX_DEVICE, PageMode
from .core import Geometry
from .errors import WorkloadError
from .events import LAYOUT_OF, EventKind, TraceEvent

_MASK64 = (1 << 64) - 1
_MILLION = 1_000_000

#: pages an access re-touches with probability `locality`
LOCALITY_WINDOW = 8


class Xorshift64Star:
    """xorshift64* generator: shifts 12/25/27, multiplier 0x2545F4914F6CDD1D.

    Small, fast, and trivially portable; a zero seed is remapped to a
    fixed odd constant because the all-zero state is a fixed point.
    """

    _MULT = 0x2545F4914F6CDD1D
    _ZERO_SEED = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or self._ZERO_SEED

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * self._MULT) & _MASK64

    def below(self, n: int) -> int:
        # modulo bias is irrelevant at simulation scale
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def chance(self, scaled: int) -> bool:
        """True with probability scaled/1_000_000."""
        return self.below(_MILLION) < scaled


def _scale(rate: float) -> int:
    return round(rate * _MILLION)


class _DemandProfileFields(NamedTuple):
    working_set_pages: int
    churn_rate: float = 0.0
    locality: float = 0.0


class DemandProfile(_DemandProfileFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> DemandProfile:
        self = super().__new__(cls, *args, **kwargs)
        if self.working_set_pages < 0:
            raise WorkloadError("working_set_pages must be >= 0")
        for name in ("churn_rate", "locality"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{name} must be within [0, 1]")
        return self


class _WorkloadSpecFields(NamedTuple):
    seed: int
    vm_count: int
    events: int
    demand: tuple[DemandProfile, ...]
    dma_rate: float = 0.0
    switch_rate: float = 0.0


class WorkloadSpec(_WorkloadSpecFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> WorkloadSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.vm_count < 0:
            raise WorkloadError("vm_count must be >= 0")
        if self.events < 0:
            raise WorkloadError("events must be >= 0")
        if len(self.demand) != self.vm_count:
            raise WorkloadError("demand must list one profile per VM")
        for name in ("dma_rate", "switch_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise WorkloadError(f"{name} must be within [0, 1]")
        return self


def _emitter(events: list[TraceEvent]):
    """Return emit(kind, **fields), which appends an event with the next seq."""

    def emit(kind: EventKind, **fields) -> None:
        events.append(TraceEvent(seq=len(events) + 1, kind=kind, **fields))

    return emit


def _device_of(vm: int) -> tuple[int, int, int]:
    return ((vm - 1) // MAX_DEVICE, (vm - 1) % MAX_DEVICE, 0)


def generate(spec: WorkloadSpec, geom: Geometry | None = None) -> list[TraceEvent]:
    """Produce exactly spec.events events (or none when vm_count is 0).

    Preamble: one create_vm per VM, then one DMA-capable device per VM.
    Body: the current guest issues demand operations (alloc until the
    working set is reached, frees at churn_rate, reads/writes with a
    recency-biased target otherwise), DMA at dma_rate, and exits at
    switch_rate; the hypervisor only ever re-enters the next guest.
    """
    geom = geom or Geometry()
    if spec.vm_count == 0:
        return []
    if spec.vm_count + 1 > geom.total_segments:
        raise WorkloadError("vm_count exceeds what the segment pool can register")
    if spec.vm_count > MAX_BUS * MAX_DEVICE:
        raise WorkloadError("vm_count exceeds addressable devices")
    reserved = spec.vm_count + 1  # one pinned page per registered owner
    total_ws = sum(p.working_set_pages for p in spec.demand)
    if total_ws > geom.pages_total - reserved:
        raise WorkloadError(
            f"working sets need {total_ws} pages; geometry offers "
            f"{geom.pages_total - reserved} after reserved pages"
        )
    preamble = 2 * spec.vm_count
    if spec.events < preamble:
        raise WorkloadError(f"events must be >= {preamble} to fit the preamble")

    rng = Xorshift64Star(spec.seed)
    # one call per draw: `draw() % n` is rng.below(n), and
    # `draw() % 1_000_000 < scaled` is rng.chance(scaled)
    draw = rng.next_u64
    page_size = geom.page_size_bytes
    pages_total = geom.pages_total
    dma_scaled = _scale(spec.dma_rate)
    switch_scaled = _scale(spec.switch_rate)
    # per-VM settings and state, indexed by VM id (0, the hypervisor, unused)
    working_set = [0] + [p.working_set_pages for p in spec.demand]
    churn_scaled = [0] + [_scale(p.churn_rate) for p in spec.demand]
    locality_scaled = [0] + [_scale(p.locality) for p in spec.demand]
    live: list[list[int]] = [[] for _ in range(spec.vm_count + 1)]
    next_vpage = [0] * (spec.vm_count + 1)
    recent: list[deque[int]] = [deque(maxlen=LOCALITY_WINDOW) for _ in range(spec.vm_count + 1)]

    trace: list[TraceEvent] = []
    emit = _emitter(trace)
    for vm in range(1, spec.vm_count + 1):
        emit(EventKind.CREATE_VM, vm=vm)
    for vm in range(1, spec.vm_count + 1):
        bus, device, function = _device_of(vm)
        emit(
            EventKind.DOMAIN_ASSIGN,
            domain=vm, vm=vm, bus=bus, device=device, function=function,
        )

    # every pass of the body loop appends exactly one event, numbered `seq`, built
    # in its kind's layout by `object.__new__` and slot stores, with no call to
    # TraceEvent's generic constructor
    append = trace.append
    new = object.__new__
    read, write = EventKind.READ, EventKind.WRITE  # most events are one of these
    access_layout, vm_layout, free_layout, exit_layout, dma_layout = (
        LAYOUT_OF[kind] for kind in (read, EventKind.ALLOC, EventKind.FREE, EventKind.EXIT,
                                     EventKind.DMA)
    )
    current = 0  # guest on cpu 0; 0 means the hypervisor
    for seq in range(preamble + 1, spec.events + 1):
        if current == 0:
            current = 1 + draw() % spec.vm_count
            ev = new(vm_layout)
            ev.seq, ev.kind, ev.cpu, ev.vm = seq, EventKind.ENTER, 0, current
            append(ev)
            continue
        vm = current
        if dma_scaled and draw() % 1_000_000 < dma_scaled:
            if next_vpage[vm] > 0 and draw() % 1_000_000 < 800_000:
                dva_page = draw() % next_vpage[vm]
            else:
                dva_page = draw() % pages_total
            bus, device, function = _device_of(vm)
            ev = new(dma_layout)
            ev.seq, ev.kind, ev.cpu = seq, EventKind.DMA, 0
            ev.bus, ev.device, ev.function = bus, device, function
            ev.dva, ev.write = dva_page * page_size, draw() % 1_000_000 < 500_000
            append(ev)
            continue
        if switch_scaled and draw() % 1_000_000 < switch_scaled:
            ev = new(exit_layout)
            ev.seq, ev.kind, ev.cpu = seq, EventKind.EXIT, 0
            append(ev)
            current = 0
            continue
        pages = live[vm]
        if len(pages) < working_set[vm]:
            pages.append(next_vpage[vm])
            next_vpage[vm] += 1
            ev = new(vm_layout)
            ev.seq, ev.kind, ev.cpu, ev.vm = seq, EventKind.ALLOC, 0, vm
            append(ev)
            continue
        if pages and draw() % 1_000_000 < churn_scaled[vm]:
            pick = draw() % len(pages)
            vpage = pages[pick]
            pages[pick] = pages[-1]
            pages.pop()
            ev = new(free_layout)
            ev.seq, ev.kind, ev.cpu = seq, EventKind.FREE, 0
            ev.vm, ev.vaddr = vm, vpage * page_size
            append(ev)
            continue
        window = recent[vm]
        if window and draw() % 1_000_000 < locality_scaled[vm]:
            vpage = window[draw() % len(window)]
        elif pages:
            vpage = pages[draw() % len(pages)]
        else:
            vpage = 0
        window.append(vpage)
        vaddr = vpage * page_size + draw() % page_size
        ev = new(access_layout)
        ev.seq, ev.kind, ev.cpu = seq, read if draw() % 1_000_000 < 700_000 else write, 0
        ev.vaddr = vaddr
        append(ev)

    return trace


# ---------------------------------------------------------------------------
# attack traces
# ---------------------------------------------------------------------------


def attack_cross_vm_dma(geom: Geometry | None = None) -> list[TraceEvent]:
    """VM 1's device targets a page that belongs to VM 2.

    The target is flat page 2*pages_per_segment: after the scripted
    allocations it is VM 2 property under every mode (its reserved
    segment in segment-granular mode, its fourth pool page otherwise)
    and sits outside the device domain's mapped range.
    """
    geom = geom or Geometry()
    if geom.pages_per_segment < 2 or geom.total_segments < 5:
        raise WorkloadError("cross-VM DMA trace needs pages_per_segment>=2, total_segments>=5")
    pps = geom.pages_per_segment
    events: list[TraceEvent] = []
    emit = _emitter(events)
    emit(EventKind.CREATE_VM, vm=1)
    emit(EventKind.CREATE_VM, vm=2)
    emit(EventKind.DOMAIN_ASSIGN, domain=1, vm=1, bus=0, device=0, function=0)
    emit(EventKind.DOMAIN_ASSIGN, domain=2, vm=2, bus=0, device=1, function=0)
    for _ in range(pps + 1):
        emit(EventKind.ALLOC, vm=1)
    for _ in range(pps):
        emit(EventKind.ALLOC, vm=2)
    emit(
        EventKind.DMA,
        bus=0, device=0, function=0,
        dva=2 * pps * geom.page_size_bytes,
        write=True,
    )
    return events


def attack_malicious_hypervisor(geom: Geometry | None = None) -> list[TraceEvent]:
    """A compromised hypervisor maps a guest page into its own table.

    Flat page pages_per_segment lands inside VM 1's holdings under every
    mode, so the final hypervisor read is a cross-owner attempt exactly
    once per run.
    """
    geom = geom or Geometry()
    if geom.pages_per_segment < 2 or geom.total_segments < 4:
        raise WorkloadError(
            "malicious hypervisor trace needs pages_per_segment>=2, total_segments>=4"
        )
    pps = geom.pages_per_segment
    events: list[TraceEvent] = []
    emit = _emitter(events)
    emit(EventKind.CREATE_VM, vm=1)
    for _ in range(pps + 1):
        emit(EventKind.ALLOC, vm=1)
    emit(EventKind.GPT_WRITE, vm=0, vpage=0, target=pps)
    emit(EventKind.READ, cpu=0, vaddr=0)
    return events


def attack_hyperwall_starvation(geom: Geometry | None = None) -> list[TraceEvent]:
    """An attacker locks nearly every pool page, then a victim asks for memory.

    The attacker allocates pages_total-2 pages and marks each locked,
    which also bars hypervisor reclaim; the victim then requests one
    segment's worth.  Under page-lock protection the victim starves;
    under quota reclaim the attacker is trimmed back instead.
    """
    geom = geom or Geometry()
    if geom.pages_per_segment < 3 or geom.total_segments < 5:
        raise WorkloadError(
            "starvation trace needs pages_per_segment>=3, total_segments>=5"
        )
    events: list[TraceEvent] = []
    emit = _emitter(events)
    emit(EventKind.CREATE_VM, vm=1)
    emit(EventKind.CREATE_VM, vm=2)
    emit(EventKind.ENTER, cpu=0, vm=1)
    for page in range(geom.pages_total - 2):
        emit(EventKind.ALLOC, vm=1)
        # pool pages are handed out lowest-first, so page indexes are known
        emit(EventKind.HW_SET, cpu=0, page=page, mode=PageMode.LOCKED.value)
    emit(EventKind.EXIT, cpu=0)
    for _ in range(geom.pages_per_segment):
        emit(EventKind.ALLOC, vm=2)
    return events
