"""Trace events: the kinds, the fields each kind carries, and the event record.

The trace parser and writer (`traceio`), the generators (`workload`) and
the replay engine (`engine`) share these definitions.  This module imports
nothing else from the package, so a command that only writes or checks a
trace loads neither the engine nor the segment controller.

An event holds only the fields its kind carries, so the parsed event
list, the largest allocation of a `vmemsim compare`, takes about half of
what 18-slot records would (see TraceEvent).
"""

from __future__ import annotations

from enum import Enum, unique
from operator import attrgetter


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


#: every field an event can carry, in TraceEvent's positional order
FIELD_ORDER = ("seq", "kind", "cpu", "vm", "vaddr", "vpage", "target", "ppage", "phys",
               "bus", "device", "function", "dva", "page", "domain", "mode", "vasid", "write")

_values = attrgetter(*FIELD_ORDER)


class TraceEvent:
    """One trace line; the fields its kind does not carry read None.

    `vaddr` and `dva` are flat byte addresses, `target` is a gpt_write's
    target page, `page` a global physical page and `mode` a PageMode value
    token.

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

    def __new__(cls, seq: int, kind: EventKind, cpu: int = 0, vm=None, vaddr=None, vpage=None,
                target=None, ppage=None, phys=None, bus=None, device=None, function=None,
                dva=None, page=None, domain=None, mode=None, vasid=None, write=None):
        fields = {"vm": vm, "vaddr": vaddr, "vpage": vpage, "target": target, "ppage": ppage,
                  "phys": phys, "bus": bus, "device": device, "function": function, "dva": dva,
                  "page": page, "domain": domain, "mode": mode, "vasid": vasid, "write": write}
        if cls is TraceEvent:
            cls = LAYOUT_OF[kind] if isinstance(kind, EventKind) else FULL_LAYOUT
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

#: kind -> the layout a well-formed event of that kind is built in
LAYOUT_OF: dict[EventKind, type[TraceEvent]] = {
    kind: _layout(names) for kind, names in EVENT_FIELDS.items()
}
