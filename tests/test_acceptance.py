"""Acceptance gate: the eight headline guarantees, one test per criterion.

Each test finishes by printing a single PASS line so a captured log shows
the whole gate at a glance.  Tolerances are part of the statements below;
nothing here depends on test ordering.
"""

import json
import random
import time
from collections import deque
from pathlib import Path

from reference_model import RefModel
from vmemsim.core import CostModel, Geometry
from vmemsim.engine import RunOptions, run, static_partition_utilization
from vmemsim.errors import (
    CapacityError,
    DoubleFreeError,
    LifecycleError,
    ProtocolError,
)
from vmemsim.events import EventKind, TraceEvent
from vmemsim.promem import ProMem
from vmemsim.traceio import read_trace
from vmemsim.workload import DemandProfile, WorkloadSpec, generate

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_GEOM = Geometry(256, 4, 8)
EXPECT = json.loads((FIXTURES / "expectations.json").read_text())


def ledgers_of(report) -> dict:
    return {k: v for k, v in report.ledger_dict().items() if v}


def build_trace(emitters) -> list[TraceEvent]:
    events: list[TraceEvent] = []
    for n, kw in enumerate(emitters, start=1):
        events.append(TraceEvent(seq=n, **kw))
    return events


# ---------------------------------------------------------------------------
# 1. isolation soundness
# ---------------------------------------------------------------------------


def test_criterion_1_isolation_soundness():
    """No cross-owner access ever succeeds; every attempt is ledgered.

    Five seeded 100k-event traces, 3 VMs plus the hypervisor, tseg=64,
    with DMA noise supplying a steady stream of cross-owner attempts.
    Budget: under 10 s per trace.
    """
    geom = Geometry(4096, 512, 64)
    for seed in (11, 22, 33, 44, 55):
        spec = WorkloadSpec(
            seed=seed,
            vm_count=3,
            events=100_000,
            demand=(DemandProfile(2000, 0.2, 0.5),) * 3,
            dma_rate=0.1,
            switch_rate=0.05,
        )
        trace = generate(spec, geom)
        start = time.perf_counter()
        rep = run(trace, "asmi", geom)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"seed {seed}: {elapsed:.1f}s"
        # a violation records a cross-owner access that went through
        assert rep.violations == []
        assert len(rep.isolation_faults) > 0
        for fault in rep.isolation_faults:
            assert fault.owner != fault.vmid
        # every blocked DMA reconciles against the fault ledger
        kinds = {e.seq: e.kind for e in trace}
        dma_faults = sum(
            1
            for f in rep.isolation_faults
            if kinds[f.seq] in (EventKind.DMA, EventKind.DMA_RAW)
        )
        c = rep.counters
        assert c.dma_blocked == dma_faults
        assert c.dma_ops == c.dma_completed + c.dma_blocked
    print("PASS: criterion 1 isolation soundness (5 seeds x 100k events)")


# ---------------------------------------------------------------------------
# 2. protection independent of the hypervisor
# ---------------------------------------------------------------------------


def test_criterion_2_hypervisor_independent_protection():
    trace = read_trace(str(FIXTURES / "malicious_hypervisor.trace"))
    want = EXPECT["malicious_hypervisor"]

    asmi = run(trace, "asmi", FIXTURE_GEOM)
    assert ledgers_of(asmi) == want["asmi"]["ledgers"]
    assert len(asmi.isolation_faults) == 1
    assert asmi.isolation_faults[0].vmid == 0          # the hypervisor itself
    assert asmi.violations == []

    iommu = run(trace, "iommu", FIXTURE_GEOM)
    assert ledgers_of(iommu) == want["iommu"]["ledgers"]
    assert iommu.isolation_faults == []
    assert [(v.source, v.vm) for v in iommu.violations] == [("cpu", 0)]
    print("PASS: criterion 2 hypervisor read faults under asmi, allowed under iommu")


# ---------------------------------------------------------------------------
# 3. DMA isolation
# ---------------------------------------------------------------------------


def test_criterion_3_dma_isolation():
    trace = read_trace(str(FIXTURES / "cross_vm_dma.trace"))
    nested = run(trace, "nested", FIXTURE_GEOM)
    assert len(nested.violations) >= 1
    assert nested.violations[0].source == "dma"

    for mode in ("iommu", "asmi"):
        rep = run(trace, mode, FIXTURE_GEOM)
        assert rep.violations == [], mode               # zero cross-boundary hits
        assert rep.counters.dma_completed == 0, mode
        assert rep.counters.dma_blocked == 1, mode
    print("PASS: criterion 3 cross-VM DMA lands under nested, blocked under iommu/asmi")


# ---------------------------------------------------------------------------
# 4. fairness and availability
# ---------------------------------------------------------------------------


def test_criterion_4_fairness_under_saturation():
    # tseg=64 and four owners puts the quota at 16 segments each
    geom = Geometry(256, 8, 64)
    script = [dict(kind=EventKind.CREATE_VM, vm=vm) for vm in (1, 2, 3)]
    for _ in range(600):
        script += [dict(kind=EventKind.ALLOC, vm=vm) for vm in (1, 2, 3)]
    rep = run(build_trace(script), "asmi", geom)

    mseg = 64 // 4
    for vm in (1, 2, 3):
        assert rep.final_segments[vm] >= mseg, rep.final_segments
    assert rep.memory_full == []                        # saturation never starves
    assert len(rep.reclaims) > 1
    assert {n.victim for n in rep.reclaims} == {1, 2, 3}
    for notice in rep.reclaims:                         # each resolves one over-quota state
        assert notice.excess >= 1
        assert len(notice.segments) == notice.excess

    # the lock-hoarding fixture: starved under the page-lock overlay, served here
    fix = read_trace(str(FIXTURES / "hyperwall_starvation.trace"))
    want = EXPECT["hyperwall_starvation"]
    walled = run(fix, "hyperwall", FIXTURE_GEOM)
    assert ledgers_of(walled) == want["hyperwall"]["ledgers"]
    assert [m.vm for m in walled.memory_full] == [2, 2]
    asmi = run(fix, "asmi", FIXTURE_GEOM)
    assert ledgers_of(asmi) == want["asmi"]["ledgers"]
    assert asmi.memory_full == []
    print("PASS: criterion 4 every demanding VM holds >= mseg; starvation fixture matches")


# ---------------------------------------------------------------------------
# 5. translation step counts
# ---------------------------------------------------------------------------


def test_criterion_5_single_level_translation():
    geom = Geometry(4096, 512, 64)
    n = 10_000
    script = [dict(kind=EventKind.CREATE_VM, vm=1), dict(kind=EventKind.ENTER, vm=1)]
    script += [dict(kind=EventKind.ALLOC, vm=1) for _ in range(32)]
    for i in range(n):
        kind = EventKind.READ if i % 2 == 0 else EventKind.WRITE
        script.append(dict(kind=kind, vaddr=(i % 32) * 4096))
    trace = build_trace(script)
    opts = RunOptions(tlb_entries=0)                    # every access misses

    asmi = run(trace, "asmi", geom, options=opts)
    nested = run(trace, "nested", geom, options=opts)
    assert asmi.counters.walk_steps == n                # exactly 1 walk per access
    assert asmi.counters.mpt_checks == n                # plus 1 ownership check
    assert nested.counters.walk_steps == 2 * n          # guest walk, then real walk
    assert nested.counters.tlb_misses == n
    assert nested.counters.tlb_hits == 0

    def access_cycles(rep):
        return rep.cycles_by_kind.get("read", 0) + rep.cycles_by_kind.get("write", 0)

    # strict win for any model pricing a check under a walk level
    for walk, check in ((25, 5), (2, 1), (1000, 999), (10, 1)):
        cost = CostModel().with_overrides({"pt_walk_level": walk, "mpt_check": check})
        a = access_cycles(run(trace, "asmi", geom, cost, opts))
        b = access_cycles(run(trace, "nested", geom, cost, opts))
        assert a == n * (walk + check)
        assert b == n * 2 * walk
        assert a < b
    print("PASS: criterion 5 asmi charges 1 walk + 1 check vs 2 nested walks per access")


# ---------------------------------------------------------------------------
# 6. utilization vs a static split
# ---------------------------------------------------------------------------


def test_criterion_6_utilization_beats_static_partition():
    geom = Geometry(4096, 8, 64)
    spec = WorkloadSpec(
        seed=9,
        vm_count=2,
        events=4000,
        demand=(DemandProfile(320, 0.0, 0.5), DemandProfile(4, 0.0, 0.5)),
        dma_rate=0.0,
        switch_rate=0.05,
    )
    trace = generate(spec, geom)
    rep = run(trace, "asmi", geom)
    dynamic = rep.mean_segment_utilization(geom)
    static = static_partition_utilization(trace, geom)
    static_mean = sum(static) / len(static)
    assert dynamic > static_mean
    print(
        f"PASS: criterion 6 skewed demand utilization {dynamic:.4f} > "
        f"static split {static_mean:.4f}"
    )


# ---------------------------------------------------------------------------
# 7. exhaustive equivalence with the reference allocator
# ---------------------------------------------------------------------------

SMALL = Geometry(256, 2, 4)
MAX_GUESTS = 2
DEPTH = 12


def _clone_value(v):
    if isinstance(v, dict):
        return {k: _clone_value(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_clone_value(x) for x in v]
    if isinstance(v, set):
        return set(v)
    return v


def clone_model(obj):
    """Structural copy; both models keep all mutable state in plain containers."""
    new = object.__new__(type(obj))
    new.__dict__.update({k: _clone_value(v) for k, v in obj.__dict__.items()})
    return new


def pm_snapshot(pm: ProMem):
    return (
        tuple(sorted(pm.mpt.items())),
        tuple(
            (s, tuple(p for p in range(pm.geom.pages_per_segment) if pm.masks[s] >> p & 1))
            for s in sorted(pm.masks)
        ),
        tuple(sorted(pm.slot_segment.items())),
        tuple(sorted(pm.save_slot.items())),
        tuple(sorted(pm.vmidr.items())),
        tuple(sorted(pm.live)),
        pm.tot,
        pm.mseg,
        pm.next_vmid,
    )


def _alphabet(ref: RefModel):
    """Every op meaningful in the current state, plus one dead-vm probe each."""
    vms = sorted(ref.live) + [ref.next_vmid]
    ops = []
    if len(ref.live) <= MAX_GUESTS:
        ops.append(("create",))
    ops += [("destroy", v) for v in vms]
    ops += [("entry", v) for v in vms]
    ops.append(("exit",))
    ops += [("alloc", v) for v in vms]
    for v in sorted(ref.live):
        for seg in range(SMALL.total_segments):
            for page in range(SMALL.pages_per_segment):
                ops.append(("free", v, seg, page))
    return ops


def _apply_pm(pm: ProMem, op):
    kind = op[0]
    try:
        if kind == "create":
            return pm.create_vm()
        if kind == "destroy":
            pm.destroy_vm(op[1])
            return "ok"
        if kind == "entry":
            pm.vm_entry(0, op[1])
            return "ok"
        if kind == "exit":
            pm.vm_exit(0)
            return "ok"
        if kind == "alloc":
            res = pm.allocate_page(op[1])
            if res.page is None:
                return "full"
            info = None
            if res.reclaim is not None:
                r = res.reclaim
                info = (r.victim, r.excess, r.segments, r.pages_swapped)
            return ("page", res.page, info)
        if kind == "free":
            fault = pm.free_page(op[1], op[2] * SMALL.pages_per_segment + op[3])
            return "fault" if fault is not None else "ok"
    except CapacityError:
        return "capacity"
    except LifecycleError:
        return "lifecycle"
    except ProtocolError:
        return "protocol"
    except DoubleFreeError:
        return "double_free"


def _apply_ref(ref: RefModel, op):
    kind = op[0]
    if kind == "create":
        return ref.create_vm()
    if kind == "destroy":
        return ref.destroy_vm(op[1])
    if kind == "entry":
        return ref.vm_entry(0, op[1])
    if kind == "exit":
        return ref.vm_exit(0)
    if kind == "alloc":
        return ref.alloc(op[1])
    if kind == "free":
        return ref.free(op[1], op[2], op[3])


def test_criterion_7_exhaustive_oracle_equivalence():
    """Identical outputs over every op sequence of length <= 12.

    Both machines are deterministic functions of their canonical state, so
    a breadth-first sweep that dedups on that state covers every sequence:
    once two prefixes land in the same state, all their suffixes coincide.
    Budget: under 60 s.
    """
    start = time.perf_counter()
    pm0 = ProMem(SMALL)
    pm0.load_hypervisor()
    ref0 = RefModel(256, 2, 4)
    ref0.load_hypervisor()
    root = pm_snapshot(pm0)
    assert root == ref0.snapshot()

    seen = {root}
    queue = deque([((pm0, ref0), 0)])
    states = transitions = 0
    while queue:
        (pm, ref), depth = queue.popleft()
        states += 1
        for seg in range(SMALL.total_segments):     # read-only ownership probes
            got = pm.check_owner(pm.current(0), seg * SMALL.pages_per_segment, 0)
            assert ("fault" if got is not None else "allowed") == ref.check(0, seg)
        if depth == DEPTH:
            continue
        for op in _alphabet(ref):
            pm2, ref2 = clone_model(pm), clone_model(ref)
            got = _apply_pm(pm2, op)
            want = _apply_ref(ref2, op)
            assert got == want, (op, got, want, depth)
            snap = pm_snapshot(pm2)
            assert snap == ref2.snapshot(), (op, depth)
            pm2.check_invariants()
            transitions += 1
            if snap not in seen:
                seen.add(snap)
                queue.append(((pm2, ref2), depth + 1))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    print(
        f"PASS: criterion 7 oracle equivalence over {states} states / "
        f"{transitions} transitions in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 8. quota register arithmetic
# ---------------------------------------------------------------------------


def test_criterion_8_mseg_arithmetic():
    geom = Geometry(256, 4, 16)
    pm = ProMem(geom)
    pm.load_hypervisor()
    rng = random.Random(2026)
    for step in range(10_000):
        guests = sorted(pm.live - {0})
        roll = rng.random()
        if roll < 0.45 or not guests:
            try:
                pm.create_vm()
            except CapacityError:
                pass
        elif roll < 0.9:
            pm.destroy_vm(rng.choice(guests))
        else:
            # entry/exit round trip restores the register file exactly
            vm = rng.choice(guests)
            before_vmidr = dict(pm.vmidr)
            before_slots = dict(pm.save_slot)
            pm.vm_entry(0, vm)
            assert pm.current(0) == vm
            pm.vm_exit(0)
            assert pm.current(0) == 0
            assert dict(pm.vmidr) == before_vmidr
            assert dict(pm.save_slot) == before_slots
        assert pm.tot == len(pm.live)
        assert pm.mseg == max(1, geom.total_segments // pm.tot)
    print("PASS: criterion 8 mseg tracks max(1, tseg//tot) across 10k lifecycle steps")
