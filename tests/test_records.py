"""The records' contract: validation, immutability, field order, equality and repr.

The config records, `CostModel` among them, are validated `NamedTuple`s,
`TraceEvent` is a slotted class per field layout, and nothing in the
package imports `dataclasses`, which would add its import and code
generation to every command's start-up, or `pathlib`, which would add its
own and that of `urllib.parse` and `ipaddress`.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import vmemsim
from vmemsim.core import CostModel, Geometry
from vmemsim.engine import RunOptions
from vmemsim.events import (
    EVENT_FIELDS,
    FIELD_ORDER,
    FULL_LAYOUT,
    LAYOUT_OF,
    DmaRequest,
    EventKind,
    TraceEvent,
)
from vmemsim.errors import ConfigError, GeometryError, OutOfRangeError, WorkloadError
from vmemsim.workload import DemandProfile, WorkloadSpec

ONE_VM = (DemandProfile(4),)

# (build, error type, exact message)
REJECTIONS = [
    (lambda: Geometry(page_size_bytes=100), GeometryError,
     "page_size_bytes must be a power of two >= 256, got 100"),
    (lambda: Geometry(128), GeometryError, "page_size_bytes must be a power of two >= 256, got 128"),
    (lambda: Geometry(256, 0), GeometryError, "pages_per_segment must be positive, got 0"),
    (lambda: Geometry(total_segments=1), GeometryError, "total_segments must be at least 2, got 1"),
    (lambda: RunOptions(tlb_policy="lru"), ConfigError, "tlb_policy must be flush or asid, got 'lru'"),
    (lambda: RunOptions(dma_policy="on"), ConfigError, "dma_policy must be raw or off, got 'on'"),
    (lambda: RunOptions(0), ConfigError, "sample_interval must be >= 1, got 0"),
    (lambda: RunOptions(tlb_entries=-1), ConfigError, "tlb_entries must be >= 0, got -1"),
    (lambda: RunOptions(walk_levels=0), ConfigError,
     "iommu_levels (walk_levels) must be >= 1, got 0"),
    (lambda: DmaRequest(256, 0, 0, 0, False), OutOfRangeError, "bus 256 outside 0..255"),
    (lambda: DmaRequest(0, 32, 0, 0, False), OutOfRangeError, "device 32 outside 0..31"),
    (lambda: DmaRequest(0, 0, function=8, dva=0, is_write=True), OutOfRangeError,
     "function 8 outside 0..7"),
    (lambda: DmaRequest(0, 0, 0, -1, False), OutOfRangeError, "dva -1 is negative"),
    (lambda: DemandProfile(-1), WorkloadError, "working_set_pages must be >= 0"),
    (lambda: DemandProfile(4, churn_rate=2.0), WorkloadError, "churn_rate must be within [0, 1]"),
    (lambda: DemandProfile(4, 0.5, -0.1), WorkloadError, "locality must be within [0, 1]"),
    (lambda: WorkloadSpec(1, -1, 10, ()), WorkloadError, "vm_count must be >= 0"),
    (lambda: WorkloadSpec(1, 1, -1, ONE_VM), WorkloadError, "events must be >= 0"),
    (lambda: WorkloadSpec(1, 2, 10, ONE_VM), WorkloadError, "demand must list one profile per VM"),
    (lambda: WorkloadSpec(1, 1, 10, ONE_VM, dma_rate=1.5), WorkloadError,
     "dma_rate must be within [0, 1]"),
    (lambda: WorkloadSpec(1, 1, 10, ONE_VM, 0.0, -0.5), WorkloadError,
     "switch_rate must be within [0, 1]"),
    (lambda: CostModel(tlb_hit=-1), ValueError, "cost tlb_hit must be a non-negative integer"),
    (lambda: CostModel(1, 25, 1.5), ValueError, "cost mpt_check must be a non-negative integer"),
    (lambda: CostModel().with_overrides({"dma_setup": -3}), ValueError,
     "cost dma_setup must be a non-negative integer"),
    (lambda: CostModel().with_overrides({"swap_page": -1, "tlb_hit": "1"}), ValueError,
     "cost tlb_hit must be a non-negative integer"),   # the first bad field in field order
    (lambda: CostModel().with_overrides({"warp": 3, "mpt_check": -1}), ValueError,
     "unknown cost keys: ['warp']"),
]


@pytest.mark.parametrize("build, error, message", REJECTIONS)
def test_each_record_rejects_a_bad_value_with_its_error_and_text(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_with_overrides_builds_a_validated_copy():
    base = CostModel(mpt_check=7)
    cost = base.with_overrides({"pt_walk_level": 0})
    assert (cost.pt_walk_level, cost.mpt_check, cost.tlb_flush) == (0, 7, 200)
    assert base.pt_walk_level == 25


CONFIG_RECORDS = [
    (Geometry(), "total_segments"),
    (RunOptions(), "tlb_entries"),
    (DmaRequest(0, 0, 0, 0, False), "dva"),
    (DemandProfile(4), "locality"),
    (WorkloadSpec(1, 1, 10, ONE_VM), "events"),
    (CostModel(), "mpt_check"),
]


@pytest.mark.parametrize("record, name", CONFIG_RECORDS)
def test_assigning_a_config_field_raises_attribute_error(record, name):
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    assert getattr(record, name) == before


#: TraceEvent's fields in positional order; the parser's compiled builders rely on it
TRACE_EVENT_FIELDS = (
    "seq", "kind", "cpu", "vm", "vaddr", "vpage", "target", "ppage", "phys", "bus",
    "device", "function", "dva", "page", "domain", "mode", "vasid", "write",
)


def test_trace_event_positional_order_and_defaults():
    assert FIELD_ORDER == TRACE_EVENT_FIELDS
    values = (9, EventKind.DMA) + tuple(range(100, 116))
    ev = TraceEvent(*values)
    assert [getattr(ev, name) for name in TRACE_EVENT_FIELDS] == list(values)
    bare = TraceEvent(seq=1, kind=EventKind.EXIT)
    assert bare.cpu == 0
    assert [getattr(bare, name) for name in TRACE_EVENT_FIELDS[3:]] == [None] * 15


def test_trace_event_equality_and_hash():
    fields = {"seq": 3, "kind": EventKind.FREE, "cpu": 1, "vm": 2, "vaddr": 4096}
    ev = TraceEvent(3, EventKind.FREE, 1, vm=2, vaddr=4096)
    assert ev == TraceEvent(**fields)
    for name in TRACE_EVENT_FIELDS:
        assert ev != TraceEvent(**{**fields, name: "other"}), name
    assert ev != (3, EventKind.FREE, 1, 2, 4096)
    with pytest.raises(TypeError):
        hash(ev)


def sample_event(kind):
    """A `kind` event with each of its fields set, in the kind's layout."""
    return TraceEvent(7, kind, 1, **{name: 5 for name in EVENT_FIELDS[kind]})


#: one event per layout, and one that sets a field its kind lacks (the 18-slot layout)
LAYOUT_SAMPLES = [sample_event(kind)
                  for kind in {LAYOUT_OF[kind]: kind for kind in EventKind}.values()]
LAYOUT_SAMPLES.append(TraceEvent(7, EventKind.READ, 1, vaddr=5, page=2))


def test_trace_event_layouts():
    # a layout is seq, kind, cpu and the kind's fields; kinds with the same fields share one
    for kind, names in EVENT_FIELDS.items():
        event = sample_event(kind)
        assert type(event) is LAYOUT_OF[kind]
        assert sorted(type(event).__slots__) == sorted(("seq", "kind", "cpu") + names)
    assert LAYOUT_OF[EventKind.READ] is LAYOUT_OF[EventKind.WRITE]
    assert len({LAYOUT_OF[kind] for kind in (EventKind.CREATE_VM, EventKind.DESTROY_VM,
                                              EventKind.ENTER, EventKind.ALLOC)}) == 1
    assert len(set(LAYOUT_OF.values())) == len({frozenset(n) for n in EVENT_FIELDS.values()})
    # a field the kind does not carry, even set to a falsy value, needs all 18 slots
    for value in (0, False, "other"):
        assert type(TraceEvent(7, EventKind.READ, 1, vaddr=5, page=value)) is FULL_LAYOUT
    assert type(TraceEvent(7, EventKind.READ, 1, vaddr=5, page=None)) is LAYOUT_OF[EventKind.READ]
    assert type(TraceEvent(7, "read", 1, vaddr=5)) is FULL_LAYOUT
    assert FULL_LAYOUT.__slots__ == TRACE_EVENT_FIELDS


@pytest.mark.parametrize("ev", LAYOUT_SAMPLES, ids=lambda ev: type(ev).__name__)
def test_every_layout_keeps_the_record_contract(ev):
    full = FULL_LAYOUT(*(getattr(ev, name) for name in TRACE_EVENT_FIELDS))
    assert ev == full and full == ev
    assert ev != FULL_LAYOUT(*(getattr(ev, name) for name in TRACE_EVENT_FIELDS[:-1]), "w")
    for copied in (copy.copy(ev), copy.deepcopy(ev), pickle.loads(pickle.dumps(ev))):
        assert copied == ev and copied is not ev
        assert type(copied) is type(ev)
    with pytest.raises(TypeError):
        hash(ev)
    assert repr(ev) == repr(full) and repr(ev).startswith("TraceEvent(seq=7, ")
    for name in TRACE_EVENT_FIELDS:
        if name not in type(ev).__slots__:
            assert getattr(ev, name) is None
            with pytest.raises(AttributeError):
                setattr(ev, name, 1)
            with pytest.raises(AttributeError):
                type(ev)(*(getattr(ev, n) if n != name else 1 for n in TRACE_EVENT_FIELDS))
    assert ev == full


def test_trace_event_repr():
    ev = TraceEvent(seq=3, kind=EventKind.DMA, bus=1, device=2, function=0, dva=8192, write=True)
    assert repr(ev) == (
        "TraceEvent(seq=3, kind=<EventKind.DMA: 'dma'>, cpu=0, vm=None, vaddr=None, "
        "vpage=None, target=None, ppage=None, phys=None, bus=1, device=2, function=0, "
        "dva=8192, page=None, domain=None, mode=None, vasid=None, write=True)"
    )


def test_the_package_imports_no_dataclasses_inspect_or_pathlib():
    # -E -S: no environment and no site hooks, which may import these modules themselves;
    # -B: no bytecode written into the package
    root = str(Path(vmemsim.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {root!r}); import vmemsim, vmemsim.cli; "
        "vmemsim.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-E", "-S", "-B", "-c", code],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
