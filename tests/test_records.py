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
from vmemsim.baselines import (
    DmaResult,
    RemappingTables,
    WalkResult,
    iommu_dma_translate,
    nested_translate,
    shadow_translate,
)
from vmemsim.core import CostModel, Geometry
from vmemsim.engine import RunOptions, static_partition_utilization
from vmemsim.events import (
    EVENT_FIELDS,
    FIELD_ORDER,
    FULL_LAYOUT,
    LAYOUT_OF,
    DmaRequest,
    EventKind,
    TraceEvent,
)
from vmemsim.errors import (
    ConfigError,
    GeometryError,
    OutOfRangeError,
    SimulationError,
    TraceFormatError,
    WorkloadError,
)
from vmemsim.promem import AllocResult, ProMem, Translation
from vmemsim.traceio import loads
from vmemsim.workload import (
    DemandProfile,
    WorkloadSpec,
    attack_cross_vm_dma,
    attack_hyperwall_starvation,
    attack_malicious_hypervisor,
    generate,
)

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
    # the same text as RunOptions(0), so an id of its own keeps that row's id unchanged
    pytest.param(lambda: static_partition_utilization([], Geometry(), 0), ConfigError,
                 "sample_interval must be >= 1, got 0", id="static-partition-sample-interval-0"),
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
    # one VM more than the 256 buses x 32 devices, in a pool that can register them all
    (lambda: generate(WorkloadSpec(1, 8193, 16386, (DemandProfile(0),) * 8193),
                      Geometry(256, 1, 8194)), WorkloadError,
     "vm_count exceeds addressable devices"),
    (lambda: CostModel(tlb_hit=-1), ValueError, "cost tlb_hit must be a non-negative integer"),
    (lambda: CostModel(1, 25, 1.5), ValueError, "cost mpt_check must be a non-negative integer"),
    (lambda: CostModel().with_overrides({"dma_setup": -3}), ValueError,
     "cost dma_setup must be a non-negative integer"),
    (lambda: CostModel().with_overrides({"swap_page": -1, "tlb_hit": "1"}), ValueError,
     "cost tlb_hit must be a non-negative integer"),   # the first bad field in field order
    (lambda: CostModel().with_overrides({"warp": 3, "mpt_check": -1}), ValueError,
     "unknown cost keys: ['warp']"),
    # a kind outside EVENT_FIELDS, which every replay mode would otherwise meet as a KeyError
    (lambda: TraceEvent(2, "warp", 0), TraceFormatError, "event seq 2: unknown event kind 'warp'"),
    # an alloc by a vm the trace never creates: the text every replay mode raises
    (lambda: static_partition_utilization([TraceEvent(1, EventKind.CREATE_VM, 0, vm=1),
                                           TraceEvent(2, EventKind.ALLOC, 0, vm=5)], Geometry()),
     SimulationError, "event seq 2: vm 5 is not live"),
    # an alloc by a vm the trace has destroyed, as every replay mode rejects it
    (lambda: static_partition_utilization([TraceEvent(1, EventKind.CREATE_VM, 0, vm=1),
                                           TraceEvent(2, EventKind.DESTROY_VM, 0, vm=1),
                                           TraceEvent(3, EventKind.ALLOC, 0, vm=1)],
                                          Geometry(256, 4, 8), 1),
     SimulationError, "event seq 3: vm 1 is not live"),
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


#: TraceEvent's fields in positional order
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
        other = EventKind.READ if name == "kind" else "other"   # a kind must be a known one
        assert ev != TraceEvent(**{**fields, name: other}), name
    assert ev != (3, EventKind.FREE, 1, 2, 4096)
    with pytest.raises(TypeError):
        hash(ev)


def sample_event(kind):
    """A `kind` event with each of its fields set, in the kind's layout."""
    return TraceEvent(7, kind, 1, **{name: 5 for name in EVENT_FIELDS[kind]})


#: one event per layout, and one that sets a field its kind lacks (the 18-slot layout)
LAYOUT_SAMPLES = [sample_event(kind)
                  for kind in {LAYOUT_OF[kind]: kind for kind in EVENT_FIELDS}.values()]
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
    # a kind is its token (a kind no layout has is refused: see REJECTIONS)
    assert type(TraceEvent(7, "read", 1, vaddr=5)) is LAYOUT_OF[EventKind.READ]
    assert FULL_LAYOUT.__slots__ == TRACE_EVENT_FIELDS


#: one line of each kind, in EVENT_FIELDS' order
ALL_KINDS_TEXT = """\
1 create_vm 0 1
2 destroy_vm 0 1
3 enter 0 1
4 exit 0
5 alloc 0 1
6 free 0 1 4096
7 read 0 4096
8 write 0 4096
9 gpt_write 0 1 2 3
10 rmap_write 0 1 2 3
11 dma 0 0 1 0 8192 w
12 dma_raw 0 1 2 r
13 domain_assign 0 1 1 0 1 0
14 hw_set 0 2 locked
15 pswitch 0 3
"""


def test_every_kind_is_its_token_end_to_end():
    parsed = loads(ALL_KINDS_TEXT)
    assert [ev.kind for ev in parsed] == list(EVENT_FIELDS)
    spec = WorkloadSpec(7, 2, 400, (DemandProfile(4, 0.2, 0.5),) * 2, 0.1, 0.1)
    sources = {
        "parsed": parsed,
        "generated": generate(spec, Geometry(256, 4, 16)),
        "attacks": [ev for attack in (attack_cross_vm_dma, attack_malicious_hypervisor,
                                      attack_hyperwall_starvation) for ev in attack()],
        "constructed": [sample_event(kind) for kind in EVENT_FIELDS],
    }
    for name, events in sources.items():
        for ev in (*events, *pickle.loads(pickle.dumps(events))):
            assert type(ev.kind) is str, (name, ev)
            assert ev.kind in EVENT_FIELDS, (name, ev)
            assert type(ev) is LAYOUT_OF[ev.kind], (name, ev)
    assert {ev.kind for ev in sources["generated"]} >= {"read", "write", "alloc", "dma", "exit"}


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
        "TraceEvent(seq=3, kind='dma', cpu=0, vm=None, vaddr=None, "
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


def _outcomes():
    """(record type, its field names, one result) for every outcome of the
    functions the replay calls per event, which build their results cheaply."""
    walk, dma, alloc, tr = (
        (WalkResult, ("page", "walks")), (DmaResult, ("page", "steps", "fault")),
        (AllocResult, ("page", "reclaim")), (Translation, ("fault", "walks", "checks")),
    )
    gpt, rmap = {0: 10, 1: 11}, {10: 77}
    for vpage in (0, 1, 9):                   # mapped, no real mapping, no guest entry
        yield (*walk, nested_translate(vpage, gpt, rmap))
        yield (*walk, shadow_translate(vpage, gpt, rmap))
    tables = RemappingTables()
    tables.assign(1, 0, 0, 0)
    tables.map_page(1, 0, 42)
    for bus, device, dva in ((0, 0, 0), (0, 0, 4096), (0, 1, 0), (1, 0, 0)):
        # mapped, no mapping, no context, no root
        yield (*dma, iommu_dma_translate(DmaRequest(bus, device, 0, dva, True), tables, 4096))

    pm = ProMem(Geometry(256, 4, 4))           # hypervisor and vm 1 hold a slot segment each
    pm.load_hypervisor()
    pm.create_vm()
    results = [pm.allocate_page(1) for _ in range(3 + 4 + 1)]   # fills segments 1 and 2
    pm.create_vm()                             # reclaims vm 1's segments 2 and 3
    results += [pm.allocate_page(vm) for vm in (2, 2, 2, 2, 1, 2)]  # the last two reclaim
    assert {r.reclaim is None for r in results} == {True, False}
    full = ProMem(Geometry(256, 1, 2))         # two slot segments, nothing left to hand out
    full.load_hypervisor()
    full.create_vm()
    results.append(full.allocate_page(1))
    assert results[-1] == (None, None) and results[-2].reclaim is not None
    for result in results:
        yield (*alloc, result)
    pm.owners[0].table.update({0: 0, 1: 16, 2: 4})   # the hypervisor's page, no page, vm 1's
    outcomes = [pm.translate(0, vpage) for vpage in (0, 1, 2, 3)]
    assert [t.fault for t in outcomes] == [None, "page_fault", "isolation_fault", "page_fault"]
    for result in outcomes:
        yield (*tr, result)


def test_records_built_per_event_keep_their_types():
    # a plain tuple would replay the same digests; only an attribute access deep
    # in a rarely taken path would fail on it
    for cls, fields, result in _outcomes():
        assert type(result) is cls and isinstance(result, cls), result
        assert result._fields == fields
