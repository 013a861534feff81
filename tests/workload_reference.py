"""Reference workload generator and PRNG: the draw-by-draw loops, kept to check the fast ones.

`Xorshift64Star` here is the scalar xorshift64* recurrence, one state step
and one multiply per draw.  `vmemsim.workload.Xorshift64Star` computes the
same stream ahead in packed lanes, and must return the same words for
every seed.

`generate` here draws through this module's `below` and `chance` and
appends each event through a keyword emitter.  `vmemsim.workload.generate`
draws with one `next_u64` call per draw and builds each event in one
call instead, and must return the same events, or raise the same
WorkloadError, for every spec and geometry.  This module imports nothing
from `vmemsim.workload` but the spec records it reads.
"""

from __future__ import annotations

from collections import deque

from vmemsim.core import Geometry
from vmemsim.errors import WorkloadError
from vmemsim.events import MAX_BUS, MAX_DEVICE, EventKind, TraceEvent
from vmemsim.workload import WorkloadSpec

_MASK64 = (1 << 64) - 1
_MILLION = 1_000_000

#: pages an access re-touches with probability `locality`
LOCALITY_WINDOW = 8


class Xorshift64Star:
    """xorshift64*: shifts 12/25/27, multiplier 0x2545F4914F6CDD1D, seed 0 remapped."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def chance(self, scaled: int) -> bool:
        """True with probability scaled/1_000_000."""
        return self.below(_MILLION) < scaled


def _scale(rate: float) -> int:
    return round(rate * _MILLION)


def _emitter(events: list[TraceEvent]):
    """Return emit(kind, **fields), which appends an event with the next seq."""

    def emit(kind: str, **fields) -> None:
        events.append(TraceEvent(seq=len(events) + 1, kind=kind, **fields))

    return emit


def _device_of(vm: int) -> tuple[int, int, int]:
    return ((vm - 1) // MAX_DEVICE, (vm - 1) % MAX_DEVICE, 0)


def generate(spec: WorkloadSpec, geom: Geometry | None = None) -> list[TraceEvent]:
    """Produce exactly spec.events events (or none when vm_count is 0)."""
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
    dma_scaled = _scale(spec.dma_rate)
    switch_scaled = _scale(spec.switch_rate)
    churn_scaled = [_scale(p.churn_rate) for p in spec.demand]
    locality_scaled = [_scale(p.locality) for p in spec.demand]

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

    live: list[list[int]] = [[] for _ in range(spec.vm_count + 1)]
    next_vpage = [0] * (spec.vm_count + 1)
    recent: list[deque[int]] = [deque(maxlen=LOCALITY_WINDOW) for _ in range(spec.vm_count + 1)]
    current = 0  # guest on cpu 0; 0 means the hypervisor

    while len(trace) < spec.events:
        if current == 0:
            current = 1 + rng.below(spec.vm_count)
            emit(EventKind.ENTER, vm=current)
            continue
        vm = current
        idx = vm - 1
        if dma_scaled and rng.chance(dma_scaled):
            if next_vpage[vm] > 0 and rng.chance(800_000):
                dva_page = rng.below(next_vpage[vm])
            else:
                dva_page = rng.below(geom.pages_total)
            bus, device, function = _device_of(vm)
            emit(
                EventKind.DMA,
                bus=bus, device=device, function=function,
                dva=dva_page * geom.page_size_bytes,
                write=rng.chance(500_000),
            )
            continue
        if switch_scaled and rng.chance(switch_scaled):
            emit(EventKind.EXIT)
            current = 0
            continue
        profile = spec.demand[idx]
        if len(live[vm]) < profile.working_set_pages:
            vpage = next_vpage[vm]
            next_vpage[vm] += 1
            live[vm].append(vpage)
            emit(EventKind.ALLOC, vm=vm)
            continue
        if live[vm] and rng.chance(churn_scaled[idx]):
            pick = rng.below(len(live[vm]))
            vpage = live[vm][pick]
            live[vm][pick] = live[vm][-1]
            live[vm].pop()
            emit(EventKind.FREE, vm=vm, vaddr=vpage * geom.page_size_bytes)
            continue
        if recent[vm] and rng.chance(locality_scaled[idx]):
            vpage = recent[vm][rng.below(len(recent[vm]))]
        elif live[vm]:
            vpage = live[vm][rng.below(len(live[vm]))]
        else:
            vpage = 0
        recent[vm].append(vpage)
        offset = rng.below(geom.page_size_bytes)
        kind = EventKind.READ if rng.chance(700_000) else EventKind.WRITE
        emit(kind, vaddr=vpage * geom.page_size_bytes + offset)

    return trace
