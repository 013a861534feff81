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

Each mode is one machine class that dispatches each event kind to its
`on_<kind>` method.  This module holds the skeleton they share,
`_Machine`, and `asmi`'s `AsmiMachine`.  The page-pool machines live in
`baselines`, beside the structures they drive: `BaselineMachine` is
`nested`, and the other three baselines subclass it.  `machine_class`
loads that module on a baseline mode's first run, so an `asmi` replay
never compiles it.  Kinds a mode's hardware does not implement (hw_set
outside hyperwall, rmap_write under asmi) have no handler and are no-ops;
a raw-target DMA under iommu is a mode error.

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

import json
from collections import defaultdict
from collections.abc import Collection, Iterable
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
from .events import DmaRequest, EventKind, TraceEvent
from .promem import (
    IsolationFault,
    MemoryFull,
    PAGE_FAULT,
    ProMem,
    ReclaimNotice,
)

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


class MetricsReport:
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

    def ledger_dict(self) -> dict:
        """Each ledger as a list of dicts keyed by its record's field names."""
        out = {name: [r._asdict() for r in getattr(self, name)] for name in LEDGERS}
        for r in out["reclaims"]:
            r["segments"] = list(r["segments"])  # as the JSON reads back and run -vv prints it
        return out

    def ledger_counts(self) -> dict[str, int]:
        """The number of records in each ledger, in LEDGERS order."""
        return {name: len(getattr(self, name)) for name in LEDGERS}

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "events": self.events,
            "total_cycles": self.total_cycles,
            "cycles_by_kind": {k: self.cycles_by_kind[k] for k in sorted(self.cycles_by_kind)},
            "counters": {name: getattr(self.counters, name) for name in COUNTER_NAMES},
            "ledgers": self.ledger_dict(),
            "utilization": [u._asdict() for u in self.utilization],
            "final_segments": {str(k): v for k, v in sorted(self.final_segments.items())},
            "final_pages": {str(k): v for k, v in sorted(self.final_pages.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def _mean_utilization(self, attr: str, capacity: int) -> float:
        """Mean over sample points of (`attr` summed over owners / capacity)."""
        points = {row.event_index for row in self.utilization}
        if not points:
            return 0.0
        return sum(getattr(row, attr) for row in self.utilization) / (len(points) * capacity)

    def mean_segment_utilization(self, geom: Geometry) -> float:
        return self._mean_utilization("segments", geom.total_segments)

    def mean_page_utilization(self, geom: Geometry) -> float:
        return self._mean_utilization("pages", geom.pages_total)


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

    `handlers` maps the token of each kind with an `on_<kind>` method to
    that method; subclasses provide `live` (live owner ids) and `_dma`
    (accounting for a DMA with a known issuer and page).  Tokens are read as `kind._value_`: `.value` and hashing
    an `Enum` both run Python code on every event.
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
        self.handlers = {
            kind.value: getattr(cls, "on_" + kind.value)
            for kind in EventKind
            if hasattr(cls, "on_" + kind.value)
        }

    def dispatch(self, ev: TraceEvent) -> None:
        handler = self.handlers.get(ev.kind._value_)
        if handler is not None:
            handler(self, ev)

    def err(self, ev: TraceEvent, message: str) -> SimulationError:
        return SimulationError(f"event seq {ev.seq}: {message}")

    def _require_live(self, ev: TraceEvent, vm: int) -> None:
        if vm not in self.live:
            raise self.err(ev, f"vm {vm} is not live")

    def _vpage(self, ev: TraceEvent) -> int:
        """The virtual page of a read, write or free."""
        if ev.vaddr < 0:
            raise self.err(ev, f"negative vaddr {ev.vaddr}")
        return ev.vaddr // self.page_size_bytes

    def _device_request(self, ev: TraceEvent) -> DmaRequest:
        """A dma event's device address; OutOfRangeError outside DmaRequest's bounds."""
        return DmaRequest(ev.bus, ev.device, ev.function, ev.dva, bool(ev.write))

    def _count_switch(self, kind: EventKind) -> None:
        """Count a VM entry/exit or a process switch (and a flush)."""
        t = self.tally[kind._value_]
        if kind is EventKind.PSWITCH:
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
        self._device_request(ev)  # range check only
        issuer = self.device_owner.get((ev.bus, ev.device, ev.function))
        self._dma(ev, issuer, ev.dva // self.page_size_bytes, ev.dva)

    def on_dma_raw(self, ev: TraceEvent) -> None:
        self._dma(ev, ev.vm, ev.page, ev.page * self.page_size_bytes)

    def _dma_fault(self, ev: TraceEvent, dva: int, reason: str) -> None:
        self.report.dma_faults.append(
            DmaFault(ev.seq, ev.bus or 0, ev.device or 0, ev.function or 0, dva, reason)
        )

    def _dma_in_range(self, ev: TraceEvent, page: int, dva: int) -> bool:
        """False, with a range fault recorded, when the page is outside the pool."""
        if 0 <= page < self.pages_total:
            return True
        self._dma_fault(ev, dva, "range")
        return False


class AsmiMachine(_Machine):
    """Segment controller mode."""

    def __init__(self, geom, opts, report):
        super().__init__(geom, opts, report)
        self.pm = ProMem(geom)
        self.pm.load_hypervisor()
        self.live = self.pm.live
        self.tables: dict[int, dict[int, int]] = {HYPERVISOR: {}}  # owner -> vpage -> page
        self.next_vpage: dict[int, int] = {HYPERVISOR: 0}

    apply = _Machine.dispatch

    def _count_reclaim(self, kind: EventKind, notice: ReclaimNotice | None) -> None:
        if notice is None:
            return
        self.tally[kind._value_].pages_swapped += notice.pages_swapped
        # The victim's pages were swapped out; a well-behaved guest unmaps them.
        table = self.tables[notice.victim]
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
            self._count_reclaim(ev.kind, self.pm.notices[-1])
        self.tables[vm] = {}
        self.next_vpage[vm] = 0

    def on_destroy_vm(self, ev: TraceEvent) -> None:
        self.pm.destroy_vm(ev.vm)
        del self.tables[ev.vm]
        del self.next_vpage[ev.vm]

    def on_enter(self, ev: TraceEvent) -> None:
        self.pm.vm_entry(ev.cpu, ev.vm)
        self._count_switch(ev.kind)

    def on_exit(self, ev: TraceEvent) -> None:
        self.pm.vm_exit(ev.cpu)
        self._count_switch(ev.kind)

    def on_alloc(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        self.report.counters.allocs += 1
        result = self.pm.allocate_page(ev.vm, ev.seq)
        self.tally[ev.kind._value_].unreported_checks += 1
        self._count_reclaim(ev.kind, result.reclaim)
        if result.page is not None:
            vpage = self.next_vpage[ev.vm]
            self.next_vpage[ev.vm] = vpage + 1
            self.tables[ev.vm][vpage] = result.page

    def on_free(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        c = self.report.counters
        table = self.tables[ev.vm]
        vpage = self._vpage(ev)
        page = table.get(vpage)
        if page is None:
            c.invalid_frees += 1
            return
        try:
            fault = self.pm.free_page(ev.vm, page, ev.seq)
        except (DoubleFreeError, GeometryError, ProtocolError):
            # a gpt_write left the vpage on a page of its own segment the vm
            # does not hold (free or its save slot), or outside the pool
            c.invalid_frees += 1
            return
        c.frees += 1
        if fault is None:
            del table[vpage]

    def on_read(self, ev: TraceEvent) -> None:
        c = self.report.counters
        if ev.vaddr < 0:
            raise self.err(ev, f"negative vaddr {ev.vaddr}")
        tr = self.pm.translate(ev.cpu, ev.vaddr // self.page_size_bytes, self.tables, ev.seq)
        c.cpu_accesses += 1
        t = self.tally[ev.kind._value_]
        t.walk_steps += tr.walks
        t.mpt_checks += tr.checks
        if tr.fault == PAGE_FAULT:
            c.page_faults += 1

    on_write = on_read

    def on_gpt_write(self, ev: TraceEvent) -> None:
        self._require_live(ev, ev.vm)
        self.tables[ev.vm][ev.vpage] = ev.target

    def _dma(self, ev: TraceEvent, issuer: int | None, page: int, dva: int) -> None:
        t = self.tally[ev.kind._value_]
        t.dma_ops += 1
        # without an issuer or in-range page no ownership check is possible:
        # the failure is in dma_faults only
        if issuer is None:
            self._dma_fault(ev, dva, "unassigned_device")
        elif self._dma_in_range(ev, page, dva):
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
                UtilSample(event_index, vm, pm.segment_count(vm), pm.allocated_pages(vm))
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
        assert set(self.tables) == set(self.next_vpage) == self.pm.live, "owner sets differ"


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
    interval = opts.sample_interval
    apply, check = machine.apply, opts.check_invariants
    last_seq = None
    count = 0
    for ev in trace:
        if last_seq is not None and ev.seq <= last_seq:
            raise SimulationError(
                f"event seq {ev.seq} is not greater than its predecessor {last_seq}"
            )
        last_seq = ev.seq
        try:
            apply(ev)
        except (ModeError, SimulationError):
            raise
        except SimError as exc:
            raise SimulationError(f"event seq {ev.seq}: {exc}") from exc
        count += 1
        if count % interval == 0:
            machine.sample(count)
        if check:
            machine.check_invariants()
    if count % interval != 0:
        machine.sample(count)
    report.events = count
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
                f"{rep.mean_segment_utilization(self.geom):.4f}",
                f"{rep.mean_page_utilization(self.geom):.4f}",
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

    A bare event list is one trace named "trace".  A (name, mode) pair that
    would repeat raises DuplicateRunError before anything is replayed.
    """
    geom = geom or Geometry()
    if traces and isinstance(traces[0], TraceEvent):
        traces = [("trace", traces)]
    modes = [canonical_mode(m) for m in modes]
    pairs = set()
    for name, _ in traces:
        for mode in modes:
            if (name, mode) in pairs:
                raise DuplicateRunError(f"trace {name!r} under mode {mode} is requested twice")
            pairs.add((name, mode))
    reports = {
        (name, mode): run(events, mode, geom, cost, options)
        for name, events in traces
        for mode in modes
    }
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
    Sampled at the same cadence as MetricsReport.utilization.
    """
    owners = {HYPERVISOR} | {ev.vm for ev in trace if ev.kind is EventKind.CREATE_VM}
    share = geom.total_segments // len(owners)
    pps = geom.pages_per_segment
    served = {vm: 0 for vm in owners}
    interval = max(1, sample_interval)

    def utilization() -> float:
        segs = sum(min(-(-pages // pps), share) for pages in served.values())
        return segs / geom.total_segments

    samples = []
    for index, ev in enumerate(trace, start=1):
        if ev.kind is EventKind.ALLOC and served[ev.vm] < share * pps:
            served[ev.vm] += 1
        elif ev.kind is EventKind.FREE and served[ev.vm] > 0:
            served[ev.vm] -= 1
        if index % interval == 0:
            samples.append(utilization())
    if len(trace) % interval != 0:
        samples.append(utilization())
    return samples
