"""Trace events: the kinds, the fields each kind carries, and the event record.

The trace parser and writer (`traceio`), the generators (`workload`) and
the replay engine (`engine`) share these definitions.  This module imports
nothing else from the package, so a command that only writes or checks a
trace loads neither the engine nor the segment controller.
"""

from __future__ import annotations

from enum import Enum, unique


@unique
class EventKind(Enum):
    CREATE_VM = "create_vm"
    DESTROY_VM = "destroy_vm"
    ENTER = "enter"
    EXIT = "exit"
    ALLOC = "alloc"
    FREE = "free"
    READ = "read"
    WRITE = "write"
    GPT_WRITE = "gpt_write"
    RMAP_WRITE = "rmap_write"
    DMA = "dma"
    DMA_RAW = "dma_raw"
    DOMAIN_ASSIGN = "domain_assign"
    HW_SET = "hw_set"
    PSWITCH = "pswitch"


#: fields each kind must carry, in wire order
EVENT_FIELDS: dict[EventKind, tuple[str, ...]] = {
    EventKind.CREATE_VM: ("vm",),
    EventKind.DESTROY_VM: ("vm",),
    EventKind.ENTER: ("vm",),
    EventKind.EXIT: (),
    EventKind.ALLOC: ("vm",),
    EventKind.FREE: ("vm", "vaddr"),
    EventKind.READ: ("vaddr",),
    EventKind.WRITE: ("vaddr",),
    EventKind.GPT_WRITE: ("vm", "vpage", "target"),
    EventKind.RMAP_WRITE: ("vm", "ppage", "phys"),
    EventKind.DMA: ("bus", "device", "function", "dva", "write"),
    EventKind.DMA_RAW: ("vm", "page", "write"),
    EventKind.DOMAIN_ASSIGN: ("domain", "vm", "bus", "device", "function"),
    EventKind.HW_SET: ("page", "mode"),
    EventKind.PSWITCH: ("vasid",),
}


class TraceEvent:
    """One trace line; the fields its kind does not carry stay None.

    `vaddr` and `dva` are flat byte addresses, `target` is a gpt_write's
    target page, `page` a global physical page and `mode` a PageMode value
    token.  Slotted, because the parser and every handler read its fields.
    """

    __slots__ = ("seq", "kind", "cpu", "vm", "vaddr", "vpage", "target", "ppage", "phys",
                 "bus", "device", "function", "dva", "page", "domain", "mode", "vasid", "write")

    def __init__(self, seq: int, kind: EventKind, cpu: int = 0, vm=None, vaddr=None, vpage=None,
                 target=None, ppage=None, phys=None, bus=None, device=None, function=None,
                 dva=None, page=None, domain=None, mode=None, vasid=None, write=None) -> None:
        self.seq, self.kind, self.cpu = seq, kind, cpu
        self.vm, self.vaddr, self.vpage = vm, vaddr, vpage
        self.target, self.ppage, self.phys = target, ppage, phys
        self.bus, self.device, self.function = bus, device, function
        self.dva, self.page, self.domain = dva, page, domain
        self.mode, self.vasid, self.write = mode, vasid, write

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({', '.join(fields)})"
