"""Deterministic trace interpreter for the memory virtualization modes.

A trace is a sequence of events with strictly increasing `seq` numbers;
replaying the same trace under the same mode, geometry, and cost model
always produces the same report, byte for byte.

Modes
-----
  asmi           segment controller: single-level translation (one walk,
                 one ownership check), segment-granular allocation with
                 quota reclaim, DMA checked against segment ownership.
  nested         two-level translation (guest + real-map walk) behind a
                 virtual TLB, page-pool allocator, untranslated DMA.
  nested_shadow  like nested but accesses walk the shadow entry, the
                 composition of guest and real-map tables, in one step;
                 every guest or real-map write pays the eager
                 re-derivation of the entries it affects.
  iommu          nested CPU path plus per-device DMA remapping through
                 root/context tables and a multi-level domain walk.
  hyperwall      nested CPU path plus raw DMA, with per-page protection
                 bits checked on every access; locked pages also resist
                 hypervisor reclaim, which is what the starvation attack
                 exploits.

Well-behaved guests are modeled by the engine itself: a successful
AllocPage installs the next sequential vpage mapping in whatever
structures the mode uses (direct table, guest+real tables, domain
table), and FreePage removes it.  No shadow entry is stored: it is
computed from the guest and real tables when it is read.  Explicit
gpt_write/rmap_write events exist to model adversarial or manual
mappings on top of that.

Each mode is one machine class.  Its `apply` replays a whole trace in one
loop, calling each event's `on_<kind>` method straight from the machine's
kind→handler table, so an event costs one Python frame, its handler's.
This module holds the skeleton they share, `_Machine`, and `asmi`'s
`AsmiMachine`.  The page-pool machines live in `baselines`, beside the
structures they drive: `BaselineMachine` is `nested`, and the other three
baselines subclass it.  `machine_class` loads that module on a baseline
mode's first run, so an `asmi` replay never compiles it.  Kinds a mode's
hardware does not implement (hw_set outside hyperwall, rmap_write under
asmi) map to a shared no-op; a raw-target DMA under iommu is a mode error.

Machines count and `run` prices.  A handler adds each priced count
(walks, checks, vTLB hits, swapped pages, switches, flushes, DMA and PIO
transfers) to its kind's `tally` and reads no price; after the replay,
`run` prices each tally with `_cycles` and adds it to the counters.

Faults never abort a run; they are recorded in the report's ledgers.
Errors that make the trace itself meaningless (entering a dead VM,
unknown ids, non-monotone seq, a negative vaddr, a device address outside
DmaRequest's bounds) raise SimulationError naming the seq in every mode.

Only `vmemsim run` and `compare` load this module and `promem`; `gen`,
`attack` and `validate` do not, and `run --mode asmi` loads no
`baselines`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Collection, Iterable
from functools import cache
from heapq import heappop
from itertools import chain
from typing import NamedTuple

from .core import (
    ASID_POLICY,
    COUNTER_NAMES,
    DEFAULT_WALK_LEVELS,
    FLUSH_POLICY,
    HYPERVISOR,
    LEDGERS,
    NO_DMA,
    RAW_DMA,
    CostModel,
    Geometry,
)
from .errors import (
    ConfigError,
    DoubleFreeError,
    DuplicateRunError,
    GeometryError,
    ModeError,
    ProtocolError,
    SimError,
    SimulationError,
)
from .events import (
    EVENT_FIELDS, MAX_BUS, MAX_DEVICE, MAX_FUNCTION, DmaRequest, EventKind, TraceEvent,
)
from .promem import IsolationFault, MemoryFull, ProMem, ReclaimNotice

# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


class Violation(NamedTuple):
    """Successful cross-owner access (the unsafe kind: it was not blocked)."""

    seq: int
    cpu: int
    source: str          # "cpu" | "dma"
    vm: int              # requester; -1 when the device has no known owner
    page: int
    owner: int


class DmaFault(NamedTuple):
    seq: int
    bus: int
    device: int
    function: int
    dva: int
    reason: str


class Denial(NamedTuple):
    """Access blocked by a per-page protection mode."""

    seq: int
    cpu: int
    requester: str
    page: int
    mode: str
    owner: int | None


class Counters:
    """One int per name in COUNTER_NAMES, each starting at 0, and `unreported_checks`:
    the checks `mpt_check` prices that `mpt_checks` leaves out (asmi's alloc and
    DMA checks, hyperwall's protection bits), which no report lists."""

    __slots__ = (*COUNTER_NAMES, "unreported_checks")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


#: where each kind's cycles and the total saturate
_SAT = (1 << 64) - 1
_new = tuple.__new__  # a namedtuple's own constructor, without its Python __new__ frame


def _ignore(machine: _Machine, ev: TraceEvent) -> None:
    """The handler of every kind a mode's hardware does not implement."""


def _cycles(t: Counters, cost: CostModel, pio_cycles: int) -> int:
    """The unsaturated cycles of one kind's priced counts; `pio_cycles` prices a PIO transfer."""
    return (
        cost.tlb_hit * t.tlb_hits
        + cost.pt_walk_level * (t.walk_steps + t.shadow_update_steps + t.dma_walk_steps)
        + cost.mpt_check * (t.mpt_checks + t.unreported_checks)
        + cost.swap_page * t.pages_swapped
        + cost.context_switch * (t.context_switches + t.process_switches)
        + cost.tlb_flush * t.tlb_flushes
        + cost.dma_setup * (t.dma_ops - t.pio_transfers)
        + pio_cycles * t.pio_transfers
    )


class UtilSample(NamedTuple):
    event_index: int
    owner: int
    segments: int
    pages: int


@cache
def _json_writer(cls: type) -> Callable[[list], str]:
    """`write(records)`, compiled on first use: a list of `cls` records as `json.dumps`
    writes their `_asdict()`s, key-sorted and compact, less the brackets.

    Each record is one f-string with the keys in sorted order, with no call
    and no dict.  An int is written inline; any other value (str, None, a
    reclaim's `segments` tuple) goes through the json module's encoder.
    """
    import json

    values = [f"v{i}" for i in range(len(cls._fields))]
    items = ",".join(f"{json.dumps(name)}:{{{v} if type({v}) is int else enc({v})}}"
                     for name, v in sorted(zip(cls._fields, values)))
    scope = {"enc": json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode}
    exec(f"def write(records):\n    return ','.join([f'{{{{{items}}}}}' "
         f"for {', '.join(values)}, in records])\n", scope)
    return scope["write"]


class MetricsReport:
    """What one replay of one trace under one mode produced.  `to_json` is its one
    writer: key-sorted, compact JSON straight from the records, through their
    classes' `_json_writer`s; `to_dict` is that JSON read back."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.events = 0
        self.total_cycles = 0
        self.cycles_by_kind: dict[str, int] = {}
        self.counters = Counters()
        self.isolation_faults: list[IsolationFault] = []
        self.violations: list[Violation] = []
        self.dma_faults: list[DmaFault] = []
        self.denials: list[Denial] = []
        self.memory_full: list[MemoryFull] = []
        self.reclaims: list[ReclaimNotice] = []
        self.utilization: list[UtilSample] = []
        self.final_segments: dict[int, int] = {}
        self.final_pages: dict[int, int] = {}

    def ledger_counts(self) -> dict[str, int]:
        """The number of records in each ledger, in LEDGERS order."""
        return {name: len(getattr(self, name)) for name in LEDGERS}

    def to_dict(self) -> dict:
        """The report's JSON, read back: each record a dict, a reclaim's `segments` a list."""
        import json

        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The report as key-sorted, compact JSON, each record as `json.dumps` writes its
        `_asdict()`."""
        import json  # here, not at the top: only --json-out writes JSON

        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

        def obj(parts: dict[str, str]) -> str:
            return "{" + ",".join(f"{encode(k)}:{parts[k]}" for k in sorted(parts)) + "}"

        def array(records: list) -> str:
            return f"[{_json_writer(type(records[0]))(records)}]" if records else "[]"

        return obj({
            "mode": encode(self.mode),
            "events": encode(self.events),
            "total_cycles": encode(self.total_cycles),
            "cycles_by_kind": encode(self.cycles_by_kind),
            "counters": encode({name: getattr(self.counters, name) for name in COUNTER_NAMES}),
            "ledgers": obj({name: array(getattr(self, name)) for name in LEDGERS}),
            "utilization": array(self.utilization),
            "final_segments": encode({str(k): v for k, v in self.final_segments.items()}),
            "final_pages": encode({str(k): v for k, v in self.final_pages.items()}),
        })

    def mean_utilization(self, geom: Geometry) -> tuple[float, float]:
        """The means over sample points of the segments and of the pages summed over
        owners, each over the pool's capacity, in one pass: a point's rows are adjacent."""
        points = segments = pages = 0
        last = None
        for index, _, s, p in self.utilization:
            if index != last:
                points, last = points + 1, index
            segments += s
            pages += p
        if not points:
            return 0.0, 0.0
        return segments / (points * geom.total_segments), pages / (points * geom.pages_total)


# ---------------------------------------------------------------------------
# run options and mode table
# ---------------------------------------------------------------------------

class _RunOptionsFields(NamedTuple):
    sample_interval: int = 100
    check_invariants: bool = False
    tlb_policy: str = ASID_POLICY
    tlb_entries: int = 64
    walk_levels: int = DEFAULT_WALK_LEVELS
    dma_policy: str = RAW_DMA          # raw | off; iommu always remaps


class RunOptions(_RunOptionsFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RunOptions:
        self = super().__new__(cls, *args, **kwargs)
        if self.tlb_policy not in (FLUSH_POLICY, ASID_POLICY):
            raise ConfigError(
                f"tlb_policy must be {FLUSH_POLICY} or {ASID_POLICY}, got {self.tlb_policy!r}"
            )
        if self.dma_policy not in (RAW_DMA, NO_DMA):
            raise ConfigError(
                f"dma_policy must be {RAW_DMA} or {NO_DMA}, got {self.dma_policy!r}"
            )
        if self.sample_interval < 1:
            raise ConfigError(f"sample_interval must be >= 1, got {self.sample_interval}")
        if self.tlb_entries < 0:
            raise ConfigError(f"tlb_entries must be >= 0, got {self.tlb_entries}")
        if self.walk_levels < 1:
            raise ConfigError(
                f"iommu_levels (walk_levels) must be >= 1, got {self.walk_levels}"
            )
        return self


MODES = ("asmi", "nested", "nested_shadow", "iommu", "hyperwall")

# other names a mode is known by
_MODE_ALIASES = {
    "nested+shadow": "nested_shadow",
    "shadow": "nested_shadow",
    "hyperwall-overlay": "hyperwall",
}


def canonical_mode(name: str) -> str:
    token = name.strip().lower()
    mode = _MODE_ALIASES.get(token, token)
    if mode not in MODES:
        raise ModeError(f"unknown mode {name!r}; known: {', '.join(MODES)}")
    return mode


# ---------------------------------------------------------------------------
# machines
# ---------------------------------------------------------------------------


class _Machine:
    """The skeleton every mode shares.

    `handlers` maps each kind's token to its `on_<kind>` method, or to
    `_ignore`; `AsmiMachine` and `BaselineMachine` hold `replay` as `apply`,
    which `run` calls and the benchmark's tracer patches.  Subclasses provide
    `live` (live owner ids) and `_dma` (a DMA with a known issuer and page).

    Hot-path rules for per-event code: records are shared or built by
    `tuple.__new__`, not by a namedtuple's Python `__new__`; liveness and
    bounds are checked inline.
    A CPU access is inline in its handler, one frame: a vTLB hit, a shadow
    walk, and `asmi`'s walk and ownership check.  Only a vTLB miss's walk and
    insert, and `check_owner` on a blocked `asmi` access, are calls.
    An alloc's common step is inline too (`asmi`'s open-segment page, a
    baseline's pool pop, mapping and shadow step); a claim, a reclaim, a full
    pool and a baseline free's `_free_page` are calls.
    """

    live: Collection[int]
    flush_on_switch = False

    def __init__(self, geom: Geometry, opts: RunOptions, report: MetricsReport):
        self.geom = geom
        self.page_size_bytes = geom.page_size_bytes
        self.pages_total = geom.pages_total  # a property of Geometry, read on every access
        self.report = report
        # kind token -> its priced counts, made on the kind's first count so
        # that a kind keeps its key even when it prices to 0
        self.tally: defaultdict[str, Counters] = defaultdict(Counters)
        self.device_owner: dict[tuple[int, int, int], int] = {}
        # plain functions, called with the machine: bound methods would make
        # every machine a reference cycle that outlives its run
        cls = type(self)
        self.handlers = {kind: getattr(cls, "on_" + kind, _ignore) for kind in EVENT_FIELDS}

    def replay(self, trace: Iterable[TraceEvent], interval: int, check: bool) -> int:
        """Replay `trace` as it yields each event; sample every `interval` events and
        after the last, check invariants after each when `check`, and return the
        count.  Only a handler's `SimError` and a kind no handler takes are named
        with the seq."""
        events = iter(trace)
        first = next(events, None)
        if first is None:
            return 0
        handlers, sample = self.handlers, self.sample
        last = first.seq - 1
        due = interval  # the next sample's event count
        for count, ev in enumerate(chain((first,), events), 1):
            seq = ev.seq
            if seq <= last:
                raise SimulationError(
                    f"event seq {seq} is not greater than its predecessor {last}"
                )
            last = seq
            try:
                handlers[ev.kind](self, ev)
            except (ModeError, SimulationError):
                raise
            except SimError as exc:
                raise SimulationError(f"event seq {seq}: {exc}") from exc
            except KeyError:  # a kind set after the event was built
                if ev.kind not in handlers:
                    raise self.err(ev, f"unknown event kind {ev.kind!r}") from None
                raise
            if count == due:
                sample(count)
                due += interval
            if check:
                self.check_invariants()
        if count % interval:
            sample(count)
        return count

    def err(self, ev: TraceEvent, message: str) -> SimulationError:
        return SimulationError(f"event seq {ev.seq}: {message}")

    def _require_live(self, ev: TraceEvent, vm: int) -> None:
        if vm not in self.live:
            raise self.err(ev, f"vm {vm} is not live")

    def _count_switch(self, kind: str) -> None:
        """Count a VM entry/exit or a process switch (and a flush)."""
        t = self.tally[kind]
        if kind == "pswitch":
            t.process_switches += 1
        else:
            t.context_switches += 1
        if self.flush_on_switch:
            self.tlb.flush()
            t.tlb_flushes += 1

    def on_pswitch(self, ev: TraceEvent) -> None:
        self._count_switch(ev.kind)

    def on_domain_assign(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        DmaRequest(ev.bus, ev.device, ev.function, 0, False)  # range check only
        self.device_owner[(ev.bus, ev.device, ev.function)] = ev.vm

    # -- DMA: a device names its issuer through domain_assign; a raw-target
    #    event names the issuing VM and the physical page itself --

    def on_dma(self, ev: TraceEvent) -> None:
        bus, device, function, dva = ev.bus, ev.device, ev.function, ev.dva
        if not (0 <= bus < MAX_BUS and 0 <= device < MAX_DEVICE
                and 0 <= function < MAX_FUNCTION and dva >= 0):
            DmaRequest(bus, device, function, dva, bool(ev.write))  # raises its own message
        issuer = self.device_owner.get((bus, device, function))
        self._dma(ev, issuer, dva // self.page_size_bytes, dva)

    def on_dma_raw(self, ev: TraceEvent) -> None:
        self._dma(ev, ev.vm, ev.page, ev.page * self.page_size_bytes)

    def _dma_fault(self, ev: TraceEvent, dva: int, reason: str) -> None:
        self.report.dma_faults.append(
            _new(DmaFault, (ev.seq, ev.bus or 0, ev.device or 0, ev.function or 0, dva, reason))
        )


class AsmiMachine(_Machine):
    """Segment controller mode.  It keeps no per-owner state: `live` is the
    controller's `owners`, whose records hold each page table and next vpage."""

    def __init__(self, geom, opts, report):
        super().__init__(geom, opts, report)
        self.pm = ProMem(geom)
        self.pm.load_hypervisor()
        self.live = self.pm.owners

    apply = _Machine.replay

    def _count_reclaim(self, t: Counters, notice: ReclaimNotice) -> None:
        t.pages_swapped += notice.pages_swapped
        # The victim's pages were swapped out; a well-behaved guest unmaps them.
        table = self.live[notice.victim].table
        gone = set(notice.segments)
        pps = self.geom.pages_per_segment
        for vpage in [v for v, p in table.items() if p // pps in gone]:
            del table[vpage]

    # -- event handlers --

    def on_create_vm(self, ev: TraceEvent) -> None:
        notices_before = len(self.pm.notices)
        vm = self.pm.create_vm(ev.seq)
        if vm != ev.vm:
            raise self.err(ev, f"trace expects vm {ev.vm}, controller assigned {vm}")
        if len(self.pm.notices) > notices_before:
            self._count_reclaim(self.tally[ev.kind], self.pm.notices[-1])

    def on_destroy_vm(self, ev: TraceEvent) -> None:
        self.pm.destroy_vm(ev.vm)

    def on_enter(self, ev: TraceEvent) -> None:
        self.pm.vm_entry(ev.cpu, ev.vm)
        self._count_switch(ev.kind)

    def on_exit(self, ev: TraceEvent) -> None:
        self.pm.vm_exit(ev.cpu)
        self._count_switch(ev.kind)

    def on_alloc(self, ev: TraceEvent) -> None:
        """`ProMem.allocate_page`'s first two steps inline: the owner's lowest open
        segment, else a claim; only a reclaim or a full pool calls it."""
        vm = ev.vm
        owner = self.live.get(vm)
        if owner is None:
            raise self.err(ev, f"vm {vm} is not live")
        self.report.counters.allocs += 1
        self.tally[ev.kind].unreported_checks += 1
        pm, heap = self.pm, owner.open
        while heap and pm.mpt.get(heap[0]) != vm:
            heappop(heap)  # released since it was pushed
        if heap:
            s = heap[0]
            mask = pm.masks[s]
            bit = ~mask & (mask + 1)  # its lowest free page
            pm.masks[s] = mask = mask | bit
            if mask == pm.full_mask:
                heappop(heap)
            owner.pages += 1
            page = s * pm.pps + bit.bit_length() - 1
        elif (s := pm.claim(vm, owner)) is not None:
            page = s * pm.pps
        else:
            page, notice = pm.allocate_page(vm, ev.seq)
            if notice is not None:
                self._count_reclaim(self.tally[ev.kind], notice)
            if page is None:
                return
        owner.table[owner.next_vpage] = page
        owner.next_vpage += 1

    def on_free(self, ev: TraceEvent) -> None:
        vm = ev.vm
        if vm not in self.live:
            raise self.err(ev, f"vm {vm} is not live")
        c = self.report.counters
        table = self.live[vm].table
        if ev.vaddr < 0:
            raise self.err(ev, f"negative vaddr {ev.vaddr}")
        vpage = ev.vaddr // self.page_size_bytes
        page = table.get(vpage)
        if page is None:
            c.invalid_frees += 1
            return
        try:
            fault = self.pm.free_page(vm, page, ev.seq)
        except (DoubleFreeError, GeometryError, ProtocolError):
            # a gpt_write left the vpage on a page of its own segment the vm
            # does not hold (free or its save slot), or outside the pool
            c.invalid_frees += 1
            return
        c.frees += 1
        if fault is None:
            del table[vpage]

    def on_read(self, ev: TraceEvent) -> None:
        """One frame per access: `ProMem.translate`'s walk and ownership check, inline.
        Only a blocked access calls `check_owner`, which records its fault."""
        c = self.report.counters
        if ev.vaddr < 0:
            raise self.err(ev, f"negative vaddr {ev.vaddr}")
        c.cpu_accesses += 1
        t = self.tally[ev.kind]
        t.walk_steps += 1
        pm = self.pm
        cur = pm.vmidr.get(ev.cpu, HYPERVISOR)  # VMIDR names only live owners
        target = self.live[cur].table.get(ev.vaddr // self.page_size_bytes)
        if target is None or not 0 <= target < self.pages_total:
            c.page_faults += 1
            return
        t.mpt_checks += 1
        if pm.mpt.get(target // pm.pps) != cur:  # a free segment has no entry
            pm.check_owner(cur, target, ev.cpu, ev.seq)

    on_write = on_read

    def on_gpt_write(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        self.live[ev.vm].table[ev.vpage] = ev.target

    def _dma(self, ev: TraceEvent, issuer: int | None, page: int, dva: int) -> None:
        t = self.tally[ev.kind]
        t.dma_ops += 1
        # without an issuer or in-range page no ownership check is possible:
        # the failure is in dma_faults only
        if issuer is None:
            self._dma_fault(ev, dva, "unassigned_device")
        elif not 0 <= page < self.pages_total:
            self._dma_fault(ev, dva, "range")
        else:
            fault = self.pm.check_owner(issuer, page, ev.cpu, ev.seq)
            t.unreported_checks += 1
            if fault is None:
                self.report.counters.dma_completed += 1
            else:
                self.report.counters.dma_blocked += 1

    # -- bookkeeping --

    def sample(self, event_index: int) -> None:
        pm = self.pm
        for vm in sorted(pm.live):
            self.report.utilization.append(
                _new(UtilSample, (event_index, vm, pm.segment_count(vm), pm.allocated_pages(vm)))
            )

    def finalize(self) -> None:
        self.report.isolation_faults.extend(self.pm.faults)
        self.report.memory_full.extend(self.pm.memory_full_events)
        self.report.reclaims.extend(self.pm.notices)
        for vm in sorted(self.pm.live):
            self.report.final_segments[vm] = self.pm.segment_count(vm)
            self.report.final_pages[vm] = self.pm.allocated_pages(vm)

    def check_invariants(self) -> None:
        self.pm.check_invariants()


# ---------------------------------------------------------------------------
# run / compare
# ---------------------------------------------------------------------------

#: each page-pool baseline mode's machine class, in `baselines`
_BASELINE_MACHINES = {
    "nested": "BaselineMachine",
    "nested_shadow": "ShadowMachine",
    "iommu": "IommuMachine",
    "hyperwall": "HyperwallMachine",
}


def machine_class(mode: str) -> type[_Machine]:
    """The machine class of a canonical mode; a baseline's loads `baselines` on first use."""
    if mode == "asmi":
        return AsmiMachine
    from . import baselines

    return getattr(baselines, _BASELINE_MACHINES[mode])


#: names of `baselines` that `engine.<name>` still resolves to
_FROM_BASELINES = ("BaselineMachine", "nested_translate")


def __getattr__(name: str):
    """`BaselineMachine` and `nested_translate`, looked up in `baselines` on each use.

    They moved there with the page-pool machines, and the benchmark's
    tracer still reads them here.  Nothing is cached, so while
    `baselines.nested_translate` is patched, `engine.nested_translate` is
    the patched function.
    """
    if name in _FROM_BASELINES:
        from . import baselines

        return getattr(baselines, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run(
    trace: Iterable[TraceEvent],
    mode: str,
    geom: Geometry | None = None,
    cost: CostModel | None = None,
    options: RunOptions | None = None,
) -> MetricsReport:
    """Replay a trace under one mode and return its metrics report.

    `trace` is iterated once, so it may be a generator that parses as it goes.
    """
    geom = geom or Geometry()
    cost = cost or CostModel()
    opts = options or RunOptions()
    mode = canonical_mode(mode)
    report = MetricsReport(mode=mode)
    machine = machine_class(mode)(geom, opts, report)
    report.events = machine.apply(trace, opts.sample_interval, opts.check_invariants)
    # every price is >= 0, so saturating the sums equals saturating after every count
    pio_cycles = cost.programmed_io_word * (geom.page_size_bytes // 8)
    counters, total = report.counters, 0
    for key, t in machine.tally.items():
        cycles = _cycles(t, cost, pio_cycles)
        report.cycles_by_kind[key] = min(cycles, _SAT)
        total += cycles
        for name in COUNTER_NAMES:
            setattr(counters, name, getattr(counters, name) + getattr(t, name))
    report.total_cycles = min(total, _SAT)
    machine.finalize()
    return report


class ComparisonReport:
    """One report per (trace name, mode), in trace-major, mode-minor order."""

    def __init__(self, reports: dict[tuple[str, str], MetricsReport], geom: Geometry) -> None:
        self.reports = reports
        self.geom = geom

    def to_table(self) -> str:
        headers = (
            "trace", "mode", "cycles", "iso_faults", "violations",
            "dma_faults", "denials", "mem_full", "reclaims", "seg_util", "page_util",
        )
        body = [
            (
                name, mode, str(rep.total_cycles),
                *(str(n) for n in rep.ledger_counts().values()),
                *(f"{mean:.4f}" for mean in rep.mean_utilization(self.geom)),
            )
            for (name, mode), rep in self.reports.items()
        ]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        lines += ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in body]
        return "\n".join(lines)


def compare(
    traces,
    modes,
    geom: Geometry | None = None,
    cost: CostModel | None = None,
    options: RunOptions | None = None,
) -> ComparisonReport:
    """Run each (name, events) trace under each mode, trace-major, mode-minor.

    A bare event list is one trace named "trace"; `traces` and each trace's
    events are read into a list unless a list or tuple.  A (name, mode) pair
    that would repeat raises DuplicateRunError before anything is replayed.
    """
    geom = geom or Geometry()
    if not isinstance(traces, (list, tuple)):
        traces = list(traces)  # a generator can be neither indexed nor read twice
    if traces and isinstance(traces[0], TraceEvent):
        traces = [("trace", traces)]
    modes = [canonical_mode(m) for m in modes]
    pairs = set()
    for name, _ in traces:
        for mode in modes:
            if (name, mode) in pairs:
                raise DuplicateRunError(f"trace {name!r} under mode {mode} is requested twice")
            pairs.add((name, mode))
    reports = {}
    for name, events in traces:
        if not isinstance(events, (list, tuple)):
            events = list(events)  # a one-shot iterable would replay only once
        for mode in modes:
            reports[(name, mode)] = run(events, mode, geom, cost, options)
    return ComparisonReport(reports, geom)


# ---------------------------------------------------------------------------
# analytic static-partition baseline
# ---------------------------------------------------------------------------


def static_partition_utilization(
    trace: list[TraceEvent], geom: Geometry, sample_interval: int = 100
) -> list[float]:
    """Segment utilization a static equal split would have achieved.

    Every owner (hypervisor plus each VM the trace creates) receives an
    equal, fixed share of the segment pool.  Allocations beyond the share
    are dropped, which is exactly the waste dynamic ownership avoids.
    Sampled at the same cadence as MetricsReport.utilization.  An alloc or
    free by a vm that is not live fails as in every replay mode.
    """
    if sample_interval < 1:
        raise ConfigError(f"sample_interval must be >= 1, got {sample_interval}")
    owners = {HYPERVISOR} | {ev.vm for ev in trace if ev.kind == EventKind.CREATE_VM}
    share = geom.total_segments // len(owners)
    pps = geom.pages_per_segment
    served = {vm: 0 for vm in owners}

    def utilization() -> float:
        segs = sum(min(-(-pages // pps), share) for pages in served.values())
        return segs / geom.total_segments

    live = {HYPERVISOR}
    samples = []
    for index, ev in enumerate(trace, start=1):
        if ev.kind == EventKind.CREATE_VM:
            live.add(ev.vm)
        elif ev.kind == EventKind.DESTROY_VM:
            live.discard(ev.vm)
        elif (ev.kind == EventKind.ALLOC or ev.kind == EventKind.FREE) and ev.vm not in live:
            raise SimulationError(f"event seq {ev.seq}: vm {ev.vm} is not live")
        if ev.kind == EventKind.ALLOC and served[ev.vm] < share * pps:
            served[ev.vm] += 1
        elif ev.kind == EventKind.FREE and served[ev.vm] > 0:
            served[ev.vm] -= 1
        if index % sample_interval == 0:
            samples.append(utilization())
    if len(trace) % sample_interval != 0:
        samples.append(utilization())
    return samples
