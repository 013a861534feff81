"""Trace events: the kinds, the fields each kind carries, and the event record.

The trace parser and writer (`traceio`), the generators (`workload`) and
the replay engine (`engine`) share these definitions, with the domains of
the fields: device coordinates (`DmaRequest`'s bounds) and protection
modes (`PAGE_MODES`).  This module imports nothing else from the package but
`errors`, so a command that only writes or checks a trace loads neither
the engine, the segment controller nor the page-pool baselines.

An event holds only the fields its kind carries, so the parsed event
list, the largest allocation of a `vmemsim compare`, takes about half of
what 18-slot records would (see TraceEvent).
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .errors import OutOfRangeError


class EventKind:
    """Each event kind, named by its trace token; EVENT_FIELDS lists them in this order."""

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


# device coordinates a dma event or domain_assign may name
MAX_BUS = 256
MAX_DEVICE = 32
MAX_FUNCTION = 8


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


class PageMode:
    """The per-page protection modes hw_set names, by their trace tokens; see PAGE_MODES."""

    HYPERVISOR_ONLY = "hyp_only"        # unassigned page
    HYPERVISOR_AND_DMA = "hyp_dma"      # assigned; hypervisor and DMA allowed
    HYPERVISOR_DENIED = "hyp_denied"    # assigned; DMA allowed, hypervisor not
    LOCKED = "locked"                   # assigned; neither hypervisor nor DMA


#: every protection mode's token, in PageMode's order
PAGE_MODES = (PageMode.HYPERVISOR_ONLY, PageMode.HYPERVISOR_AND_DMA, PageMode.HYPERVISOR_DENIED,
              PageMode.LOCKED)


#: every kind's token -> the fields it must carry, in wire order
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
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


#: every field an event can carry, in TraceEvent's positional order
FIELD_ORDER = ("seq", "kind", "cpu", "vm", "vaddr", "vpage", "target", "ppage", "phys",
               "bus", "device", "function", "dva", "page", "domain", "mode", "vasid", "write")

_values = attrgetter(*FIELD_ORDER)


class TraceEvent:
    """One trace line; the fields its kind does not carry read None.

    `vaddr` and `dva` are flat byte addresses, `target` is a gpt_write's
    target page, `page` a global physical page and `mode` a PageMode token.

    An event is an instance of one slotted subclass per field layout:
    `seq`, `kind` and `cpu` plus its kind's fields, so a `read` holds four
    slots, not eighteen.  Kinds with the same fields share a class (`read`
    and `write`; `create_vm`, `destroy_vm`, `enter` and `alloc`), so a
    handler shared by such kinds sees one class.  The fields a layout
    lacks read None from this base, and assigning one raises
    AttributeError.  `TraceEvent(...)` picks the kind's layout, or the
    18-slot FULL_LAYOUT for an event that sets a field its kind lacks; the
    parser and the generator build LAYOUT_OF's classes directly, with
    `object.__new__` and slot stores.  Equality compares all 18 values
    whatever the layouts, events are unhashable, and a copy or a pickle
    keeps the layout.
    """

    __slots__ = ()

    # what the fields a layout lacks read
    vm = vaddr = vpage = target = ppage = phys = bus = device = function = None
    dva = page = domain = mode = vasid = write = None

    def __new__(cls, seq: int, kind: str, cpu: int = 0, vm=None, vaddr=None, vpage=None,
                target=None, ppage=None, phys=None, bus=None, device=None, function=None,
                dva=None, page=None, domain=None, mode=None, vasid=None, write=None):
        fields = {"vm": vm, "vaddr": vaddr, "vpage": vpage, "target": target, "ppage": ppage,
                  "phys": phys, "bus": bus, "device": device, "function": function, "dva": dva,
                  "page": page, "domain": domain, "mode": mode, "vasid": vasid, "write": write}
        if cls is TraceEvent:
            cls = LAYOUT_OF.get(kind, FULL_LAYOUT)
            if any(fields[name] is not None for name in fields.keys() - cls.__slots__):
                cls = FULL_LAYOUT
        self = object.__new__(cls)
        self.seq, self.kind, self.cpu = seq, kind, cpu
        for name, value in fields.items():
            if value is not None or name in cls.__slots__:
                setattr(self, name, value)   # AttributeError for a field the layout lacks
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return _values(self) == _values(other)

    def __reduce__(self):
        return type(self), _values(self)

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(FIELD_ORDER, _values(self)))
        return f"TraceEvent({', '.join(fields)})"


def _layout(names: tuple[str, ...]) -> type[TraceEvent]:
    """The slotted TraceEvent subclass that holds `seq`, `kind`, `cpu` and `names`.

    One class per set of names, kept as a global of this module under its
    own name, so kinds with the same fields share it and pickle finds it.
    """
    names = tuple(name for name in FIELD_ORDER[3:] if name in names)
    name = "_Event" + "".join(map(str.title, names))
    if name not in globals():
        globals()[name] = type(name, (TraceEvent,), {"__slots__": FIELD_ORDER[:3] + names,
                                                     "__module__": __name__})
    return globals()[name]


#: the layout of an event that sets a field its kind does not carry
FULL_LAYOUT = _layout(FIELD_ORDER[3:])

#: kind token -> the layout a well-formed event of that kind is built in
LAYOUT_OF: dict[str, type[TraceEvent]] = {
    kind: _layout(names) for kind, names in EVENT_FIELDS.items()
}
