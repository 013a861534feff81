"""Trace interpreter: dispatch, cost charging, ledgers, determinism."""

import gc
import heapq
import json
import re
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_golden import all_kinds_trace
from vmemsim import baselines, engine, workload
from vmemsim.baselines import (
    BaselineMachine,
    HyperwallMachine,
    IommuMachine,
    RemappingTables,
    ShadowMachine,
    VirtualTlb,
)
from vmemsim.core import COUNTER_NAMES, LEDGERS, CostModel, Geometry
from vmemsim.engine import (
    MODES,
    AsmiMachine,
    Denial,
    DmaFault,
    MetricsReport,
    RunOptions,
    Violation,
    canonical_mode,
    compare,
    _json_writer,
    machine_class,
    run,
    static_partition_utilization,
)
from vmemsim.errors import ConfigError, DuplicateRunError, ModeError, SimError, SimulationError
from vmemsim.events import EVENT_FIELDS, PAGE_MODES, EventKind, PageMode, TraceEvent
from vmemsim.promem import ProMem
from vmemsim.traceio import read_trace

TINY = Geometry(256, 4, 8)
FIXTURES = Path(__file__).parent / "fixtures"

E = EventKind


def ev(seq, kind, **fields):
    return TraceEvent(seq=seq, kind=kind, **fields)


def trace(*specs):
    return [ev(i + 1, kind, **fields) for i, (kind, fields) in enumerate(specs)]


def step(machine, event):
    """Replay one event through its kind's handler-table entry, as `replay` does."""
    machine.handlers[event.kind](machine, event)


def opts(**kw):
    base = {"check_invariants": True}
    base.update(kw)
    return RunOptions(**base)


# ---------------------------------------------------------------------------
# trivia and plumbing
# ---------------------------------------------------------------------------


def test_empty_trace_zeroes():
    for mode in MODES:
        rep = run([], mode, TINY, options=opts())
        assert rep.events == 0
        assert rep.total_cycles == 0
        assert rep.cycles_by_kind == {}
        assert rep.utilization == []
    asmi = run([], "asmi", TINY)
    assert asmi.final_segments == {0: 1}    # the hypervisor's reserved segment
    assert asmi.final_pages == {0: 1}


def test_mode_aliases():
    assert canonical_mode("nested+shadow") == "nested_shadow"
    assert canonical_mode("hyperwall-overlay") == "hyperwall"
    assert canonical_mode(" ASMI ") == "asmi"
    with pytest.raises(ModeError):
        canonical_mode("paging")


def test_sequence_must_increase():
    t = [ev(1, E.CREATE_VM, vm=1), ev(1, E.ALLOC, vm=1)]
    with pytest.raises(SimulationError, match="seq 1"):
        run(t, "asmi", TINY)


def test_create_id_mismatch_rejected():
    t = trace((E.CREATE_VM, {"vm": 5}))
    for mode in ("asmi", "nested"):
        with pytest.raises(SimulationError, match="vm 5"):
            run(t, mode, TINY)


BASELINE_MODES = [m for m in MODES if m != "asmi"]


def _by_mode(asmi, baselines):
    """The message of each mode, when asmi's differs from the page-pool baselines'."""
    return {"asmi": asmi, **dict.fromkeys(BASELINE_MODES, baselines)}


def _dead(kind, **fields):
    """A trace whose third event names vm 1 after its destruction."""
    return trace((E.CREATE_VM, {"vm": 1}), (E.DESTROY_VM, {"vm": 1}), (kind, {"vm": 1, **fields}))


# name -> (trace, the full SimulationError text: one for every mode, or one
# per mode that rejects the trace, the other modes replaying it)
MALFORMED = {
    "second_enter": (
        trace((E.CREATE_VM, {"vm": 1}), (E.CREATE_VM, {"vm": 2}),
              (E.ENTER, {"vm": 1}), (E.ENTER, {"vm": 2})),
        _by_mode("event seq 4: entry while vm 1 is current on cpu 0",
                 "event seq 4: entry requires the hypervisor to be current"),
    ),
    "exit_at_hypervisor": (
        trace((E.CREATE_VM, {"vm": 1}), (E.EXIT, {})),
        _by_mode("event seq 2: exit while hypervisor is current on cpu 0",
                 "event seq 2: exit requires a guest to be current"),
    ),
    "destroy_current": (
        trace((E.CREATE_VM, {"vm": 1}), (E.ENTER, {"vm": 1}), (E.DESTROY_VM, {"vm": 1})),
        _by_mode("event seq 3: vm 1 is current on a processor",
                 "event seq 3: vm 1 cannot be destroyed now"),
    ),
    "destroy_dead": (_dead(E.DESTROY_VM), "event seq 3: vm 1 is not live"),
    "enter_dead": (
        _dead(E.ENTER),
        _by_mode("event seq 3: entry to dead vm 1", "event seq 3: vm 1 is not live"),
    ),
    "domain_assign_dead": (
        _dead(E.DOMAIN_ASSIGN, domain=1, bus=0, device=0, function=0),
        "event seq 3: vm 1 is not live",
    ),
    # alloc and free check liveness inline in every mode
    "alloc_dead": (_dead(E.ALLOC), "event seq 3: vm 1 is not live"),
    "free_dead": (_dead(E.FREE, vaddr=0), "event seq 3: vm 1 is not live"),
    "gpt_write_dead": (_dead(E.GPT_WRITE, vpage=0, target=0), "event seq 3: vm 1 is not live"),
    # TINY has 8 segments, so the segment controller hosts at most 7 guests;
    # the page-pool hypervisor has no owner limit.
    "too_many_owners": (
        trace(*[(E.CREATE_VM, {"vm": vm}) for vm in range(1, 9)]),
        {"asmi": "event seq 8: cannot host 9 owners with 8 segments"},
    ),
    "negative_read_vaddr": (
        trace((E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}), (E.ENTER, {"vm": 1}),
              (E.READ, {"vaddr": -4})),
        "event seq 4: negative vaddr -4",
    ),
    "negative_write_vaddr": (
        trace((E.ALLOC, {"vm": 0}), (E.WRITE, {"vaddr": -1})), "event seq 2: negative vaddr -1",
    ),
    # only hyperwall implements hw_set; elsewhere it is a no-op
    "hw_set_outside_geometry": (
        trace((E.HW_SET, {"page": TINY.pages_total, "mode": "locked"})),
        {"hyperwall": "event seq 1: page 32 outside the geometry"},
    ),
    # a mode token the parser would reject, in a trace built in code
    "hw_set_unknown_mode": (
        trace((E.HW_SET, {"page": 0, "mode": "bogus"})),
        {"hyperwall": "event seq 1: unknown protection mode 'bogus'"},
    ),
    "negative_free_vaddr": (
        trace((E.CREATE_VM, {"vm": 1}), (E.FREE, {"vm": 1, "vaddr": -256})),
        "event seq 2: negative vaddr -256",
    ),
    # asmi has no real-map table, so rmap_write is a no-op there, even for a dead vm
    "rmap_write_dead": (
        trace((E.CREATE_VM, {"vm": 1}), (E.RMAP_WRITE, {"vm": 2, "ppage": 0, "phys": 0})),
        dict.fromkeys(BASELINE_MODES, "event seq 2: vm 2 is not live"),
    ),
}

# dma events whose device address lies outside DmaRequest's bounds, and the
# message DmaRequest gives, which every mode's inline check must repeat
DEVICE_ADDRESS = {
    "dma_bus": ({"bus": 256, "device": 0, "function": 0, "dva": 0}, "bus 256 outside 0..255"),
    "dma_device": ({"bus": 0, "device": 32, "function": 0, "dva": 0}, "device 32 outside 0..31"),
    "dma_function": ({"bus": 0, "device": 0, "function": 8, "dva": 0}, "function 8 outside 0..7"),
    "dma_negative_bus": ({"bus": -1, "device": 0, "function": 0, "dva": 0},
                         "bus -1 outside 0..255"),
    "dma_negative_dva": ({"bus": 0, "device": 0, "function": 0, "dva": -256},
                         "dva -256 is negative"),
}
MALFORMED.update({
    name: (trace((E.CREATE_VM, {"vm": 1}), (E.DMA, {**fields, "write": True})),
           f"event seq 2: {message}")
    for name, (fields, message) in DEVICE_ADDRESS.items()
})


def _fails_as_pinned(name, mode, options):
    events, messages = MALFORMED[name]
    expected = messages if isinstance(messages, str) else messages.get(mode)
    if expected is None:
        run(events, mode, TINY, options=options)
        return
    with pytest.raises(SimulationError) as info:
        run(events, mode, TINY, options=options)
    assert str(info.value) == expected


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("mode", MODES)
def test_malformed_trace_fails_alike_in_every_mode(mode, name):
    _fails_as_pinned(name, mode, opts())


@pytest.mark.parametrize("name", sorted(DEVICE_ADDRESS))
@pytest.mark.parametrize("mode", MODES)
def test_malformed_device_address_fails_alike_with_dma_off(mode, name):
    _fails_as_pinned(name, mode, opts(dma_policy="off"))


def test_run_options_reject_bad_values():
    bad_values = (
        {"tlb_policy": "writeback"}, {"dma_policy": "bogus"}, {"walk_levels": 0},
        {"tlb_entries": -1}, {"sample_interval": 0}, {"sample_interval": -3},
    )
    for bad in bad_values:
        with pytest.raises(ConfigError):
            RunOptions(**bad)
    assert RunOptions(tlb_entries=0).tlb_entries == 0   # no TLB


def test_asmi_invariant_check_can_fail():
    machine = AsmiMachine(TINY, RunOptions(), MetricsReport(mode="asmi"))
    for event in trace((E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1})):
        step(machine, event)
    machine.check_invariants()
    machine.pm.owners[1].pages += 1    # a live guest's page count drifts from the MPT
    with pytest.raises(AssertionError):
        machine.check_invariants()


def _corrupt_owner_drop(m):
    del m.owner_of[max(m.owner_of)]                # a held page loses its owner


def _corrupt_owner_swap(m):
    m.owner_of[min(m.guests[1].backing)] = 2       # a page names the wrong owner


def _corrupt_backing_drop(m):
    m.guests[2].backing.popitem()                  # a guest forgets a page it holds


def _corrupt_backing_twice(m):
    page = min(m.guests[1].backing)
    m.guests[2].backing[page] = m.guests[1].backing[page]   # one page, two holders


def _corrupt_free_heap(m):
    m.free_pages.pop()                             # a freed page vanishes


def _corrupt_fresh_freed(m):
    m.free_pages[0] = m.fresh_page                 # a never-handed-out page reads as freed


def _corrupt_held(m):
    m.guests[1].held.pop()                         # the sorted pages miss one of backing's


def _corrupt_tlb(m):
    m.tlb.insert(m.guests[1].asid, 0, 0)           # vm 1 freed vpage 0; its walk faults


def _corrupt_tlb_index_drop(m):
    m.tlb.insert(m.guests[1].asid, 1, 2)           # vm 1's vpage 1 does reach page 2 ...
    m.tlb.keys_of.clear()                          # ... but its index entry is lost


def _corrupt_tlb_index_extra(m):
    m.tlb.keys_of[2] = ((m.guests[1].asid, 1),)    # indexes a key the vTLB does not hold


def _corrupt_tlb_index_empty(m):
    m.tlb.keys_of[2] = ()                          # an index entry with no key left


@pytest.mark.parametrize("mode", BASELINE_MODES)
@pytest.mark.parametrize("corrupt", [
    _corrupt_owner_drop, _corrupt_owner_swap, _corrupt_backing_drop,
    _corrupt_backing_twice, _corrupt_free_heap, _corrupt_fresh_freed, _corrupt_held,
    _corrupt_tlb, _corrupt_tlb_index_drop, _corrupt_tlb_index_extra, _corrupt_tlb_index_empty,
])
def test_baseline_invariant_check_can_fail(mode, corrupt):
    machine = machine_class(mode)(TINY, RunOptions(), MetricsReport(mode=mode))
    events = trace(
        (E.CREATE_VM, {"vm": 1}), (E.CREATE_VM, {"vm": 2}),
        (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 2}), (E.ALLOC, {"vm": 1}),
        (E.ALLOC, {"vm": 2}), (E.FREE, {"vm": 1, "vaddr": 0}), (E.ALLOC, {"vm": 0}),
        (E.FREE, {"vm": 2, "vaddr": 0}),
    )
    for event in events:
        step(machine, event)
    machine.check_invariants()
    assert machine.free_pages == [1] and machine.fresh_page == 4
    corrupt(machine)
    with pytest.raises(AssertionError):
        machine.check_invariants()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(BASELINE_MODES),
       st.lists(st.tuples(st.sampled_from("caaaafd"), st.integers(0, 7), st.integers(0, 15)),
                max_size=90))
def test_page_pool_hands_out_what_a_heap_of_every_page_would(mode, ops):
    # the pool grows from fresh_page on demand; a heap over range(pages_total)
    # is the pool it stands for, so each newly held page must be that heap's top
    machine = machine_class(mode)(TINY, opts(), MetricsReport(mode=mode))
    full = list(range(TINY.pages_total))
    live, next_vm, held = [0], 1, {}
    for seq, (op, pick, vpage) in enumerate(ops, start=1):
        vm = live[pick % len(live)]
        if op == "c":
            event = ev(seq, E.CREATE_VM, vm=next_vm)
            live.append(next_vm)
            next_vm += 1
        elif op == "a":
            event = ev(seq, E.ALLOC, vm=vm)
        elif op == "f":
            event = ev(seq, E.FREE, vm=vm, vaddr=vpage * TINY.page_size_bytes)
        elif vm != 0:
            event = ev(seq, E.DESTROY_VM, vm=vm)
            live.remove(vm)
        else:
            continue                                # the hypervisor is never destroyed
        step(machine, event)
        machine.check_invariants()
        now = dict(machine.owner_of)
        for page, owner in held.items():
            if now.get(page) != owner:              # freed, or reclaimed for a new holder
                heapq.heappush(full, page)
        for page, owner in now.items():
            if held.get(page) != owner:
                assert page == heapq.heappop(full), (seq, op)
        held = now
    pool = sorted(machine.free_pages) + list(range(machine.fresh_page, TINY.pages_total))
    assert pool == sorted(full)


@pytest.mark.parametrize("mode", BASELINE_MODES)
def test_a_baseline_machine_costs_nothing_per_page_of_its_geometry(mode):
    huge = Geometry(4096, 512, 2048)               # 2^20 pages
    tracemalloc.start()
    try:
        machine_class(mode)(huge, RunOptions(), MetricsReport(mode=mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak


def test_an_aliased_page_unmaps_from_every_dva():
    page = TINY.page_size_bytes
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 1}),
        (E.RMAP_WRITE, {"vm": 1, "ppage": 1, "phys": 0}),   # ppages 0 and 1 both reach page 0
        (E.DOMAIN_ASSIGN, {"domain": 1, "vm": 1, "bus": 0, "device": 0, "function": 0}),
    )
    machine = machine_class("iommu")(TINY, opts(), MetricsReport(mode="iommu"))
    for event in t:
        step(machine, event)
    domain = machine.remap.domains[1]
    assert domain.table == {0: 0, 1: 0} and domain.dvas_of == {0: (0, 1)}
    step(machine, ev(6, E.FREE, vm=1, vaddr=0))
    assert domain.table == {} and domain.dvas_of == {}
    for seq, dva in ((7, 0), (8, page)):
        step(machine, ev(seq, E.DMA, bus=0, device=0, function=0, dva=dva, write=True))
    assert machine.report.counters.dma_blocked == 2
    assert [fault.reason for fault in machine.report.dma_faults] == ["no_mapping"] * 2


@pytest.mark.parametrize("policy", ["asid", "flush"])
@pytest.mark.parametrize("mode", ["nested", "hyperwall"])
def test_vtlb_stays_a_cache_of_the_nested_walk(mode, policy):
    # gpt_write and rmap_write land on vpages and ppages that later allocs
    # and frees reuse (under nested, the alloc at seq 205 overrides a cached
    # walk). A coherent cache changes what an access costs, never what it reaches.
    geom = Geometry(256, 2, 4)
    events = all_kinds_trace(6, 300, geom)
    cached = run(events, mode, geom, options=opts(tlb_policy=policy))
    walked = run(events, mode, geom, options=opts(tlb_policy=policy, tlb_entries=0))
    assert cached.to_dict()["ledgers"] == walked.to_dict()["ledgers"]
    assert cached.counters.page_faults == walked.counters.page_faults


# Each of the three tests below reads a vpage, so the vTLB caches its page, then
# moves what the vpage reaches in one way, and reads it again. The invariant check
# after every event fails on a stale entry, and the second read must miss.
VTLB_MODES = ["nested", "iommu", "hyperwall"]


@pytest.mark.parametrize("mode", VTLB_MODES)
def test_an_rmap_write_drops_the_entries_of_the_page_it_unmaps(mode):
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 1}),
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": 0}), (E.EXIT, {}),
        (E.RMAP_WRITE, {"vm": 1, "ppage": 0, "phys": 1}),   # vpage 0 now reaches page 1
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": 0}), (E.EXIT, {}),
    )
    rep = run(t, mode, TINY, options=opts())
    assert (rep.counters.tlb_hits, rep.counters.tlb_misses) == (0, 2)


@pytest.mark.parametrize("mode", VTLB_MODES)
def test_freeing_a_page_drops_the_entries_of_where_its_ppage_was_moved(mode):
    page = TINY.page_size_bytes
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 1}),
        (E.RMAP_WRITE, {"vm": 1, "ppage": 1, "phys": 20}),  # vpage 1 reaches page 20, unheld
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": page}), (E.EXIT, {}),
        # vpage 0 now reaches page 1, so freeing it frees page 1, whose ppage 1 was moved
        (E.RMAP_WRITE, {"vm": 1, "ppage": 0, "phys": 1}),
        (E.FREE, {"vm": 1, "vaddr": 0}),
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": page}), (E.EXIT, {}),
    )
    rep = run(t, mode, TINY, options=opts())
    assert rep.counters.frees == 1
    assert (rep.counters.tlb_hits, rep.counters.tlb_misses) == (0, 2)


@pytest.mark.parametrize("mode", VTLB_MODES)
def test_an_alloc_drops_the_entries_of_the_real_map_entry_it_replaces(mode):
    far = 5 * TINY.page_size_bytes
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 5, "target": 1}),
        (E.RMAP_WRITE, {"vm": 1, "ppage": 1, "phys": 20}),  # vpage 5 reaches page 20, unheld
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": far}), (E.EXIT, {}),
        (E.ALLOC, {"vm": 1}),                               # maps ppage 1 to page 1
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": far}), (E.EXIT, {}),
    )
    rep = run(t, mode, TINY, options=opts())
    assert (rep.counters.tlb_hits, rep.counters.tlb_misses) == (0, 2)


def test_machines_are_freed_without_the_cycle_collector():
    # compare replays one mode after another; a machine caught in a reference
    # cycle would stay in memory until the cyclic collector happened to run
    gc.disable()
    try:
        for mode in MODES:
            machine = machine_class(mode)(TINY, RunOptions(), MetricsReport(mode=mode))
            freed = weakref.ref(machine)
            del machine
            assert freed() is None, mode
    finally:
        gc.enable()


def test_total_cycles_saturate_in_run():
    cost = CostModel().with_overrides({"pt_walk_level": (1 << 63)})
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.ENTER, {"vm": 1}),
        (E.READ, {"vaddr": 0}),
        (E.READ, {"vaddr": 0}),
        (E.READ, {"vaddr": 0}),
    )
    rep = run(t, "asmi", TINY, cost)
    assert rep.total_cycles == (1 << 64) - 1
    assert rep.cycles_by_kind["read"] == (1 << 64) - 1


def test_zero_cycle_kinds_keep_their_keys():
    # a kind has a key once a handler counts a priced thing for it, even 0 of it
    free_checks = CostModel().with_overrides({"mpt_check": 0})
    rep = run(trace((E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1})), "asmi", TINY, free_checks)
    assert rep.cycles_by_kind == {"alloc": 0}
    assert rep.total_cycles == 0
    # a baseline alloc that finds the pool full and nothing to reclaim
    small = Geometry(256, 2, 2)                        # four pages total
    machine = machine_class("nested")(small, RunOptions(), MetricsReport(mode="nested"))
    for event in trace((E.CREATE_VM, {"vm": 1}), *[(E.ALLOC, {"vm": 1}) for _ in range(4)]):
        step(machine, event)
    machine.tally.clear()
    step(machine, ev(6, E.ALLOC, vm=1))
    assert [m.vm for m in machine.report.memory_full] == [1]
    assert list(machine.tally) == ["alloc"]
    assert engine._cycles(machine.tally["alloc"], CostModel(), 1) == 0
    # a guest's rmap_write of a ppage no vpage maps re-derives no shadow entry
    rmap = trace((E.CREATE_VM, {"vm": 1}), (E.RMAP_WRITE, {"vm": 1, "ppage": 5, "phys": 0}))
    assert run(rmap, "nested_shadow", TINY).cycles_by_kind == {"rmap_write": 0}
    # the hypervisor's own table writes derive nothing, and a reclaim-free create_vm costs nothing
    gpt = trace((E.GPT_WRITE, {"vm": 0, "vpage": 3, "target": 1}),)
    assert run(gpt, "nested_shadow", TINY).cycles_by_kind == {}
    assert run(trace((E.CREATE_VM, {"vm": 1}),), "asmi", TINY).cycles_by_kind == {}


def _counted_cycles(rep, cost, geom):
    """The cycles of `rep`'s reported counters at `cost`, summed by hand."""
    c = rep.counters
    return (
        c.tlb_hits * cost.tlb_hit
        + (c.walk_steps + c.shadow_update_steps + c.dma_walk_steps) * cost.pt_walk_level
        + c.mpt_checks * cost.mpt_check
        + c.pages_swapped * cost.swap_page
        + (c.context_switches + c.process_switches) * cost.context_switch
        + c.tlb_flushes * cost.tlb_flush
        + (c.dma_ops - c.pio_transfers) * cost.dma_setup
        + c.pio_transfers * cost.programmed_io_word * (geom.page_size_bytes // 8)
    )


RECONCILE_COSTS = (CostModel(), CostModel(*[0] * 8), CostModel(3, 7, 11, 13, 17, 19, 23, 29))


@pytest.mark.parametrize("options", [
    RunOptions(), RunOptions(dma_policy="off"), RunOptions(tlb_policy="flush"),
], ids=["default", "dma_off", "flush"])
def test_every_cycle_is_a_reported_count_times_its_price_but_unreported_checks(options):
    # the only cycles no reported counter explains are the k checks that
    # mpt_checks leaves out: asmi's alloc and DMA checks, and hyperwall's
    traces = [read_trace(str(path)) for path in sorted(FIXTURES.glob("*.trace"))]
    traces.append(all_kinds_trace(0x5EED, 700, TINY, raw_dma=False))
    for events in traces:
        for mode in MODES:
            unreported = set()
            for cost in RECONCILE_COSTS:
                rep = run(events, mode, TINY, cost, options)
                assert "unreported_checks" not in rep.to_dict()["counters"]
                assert rep.counters.unreported_checks == 0
                gap = rep.total_cycles - _counted_cycles(rep, cost, TINY)
                if cost.mpt_check == 0:
                    assert gap == 0, mode
                else:
                    assert gap % cost.mpt_check == 0, mode
                    unreported.add(gap // cost.mpt_check)
            assert len(unreported) == 1, (mode, unreported)
            if mode in ("nested", "nested_shadow", "iommu"):
                assert unreported == {0}, mode


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(tlb_hit=-1)
    with pytest.raises(ValueError):
        CostModel().with_overrides({"warp_factor": 3})
    assert CostModel().with_overrides({"mpt_check": 9}).mpt_check == 9


def test_unknown_mode_rejected():
    with pytest.raises(ModeError):
        run([], "segmented", TINY)


# ---------------------------------------------------------------------------
# cycle arithmetic, frozen by hand
# ---------------------------------------------------------------------------


def test_single_alloc_costs_one_check():
    t = trace((E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}))
    rep = run(t, "asmi", TINY)
    assert rep.cycles_by_kind == {"alloc": 5}
    assert rep.total_cycles == 5
    assert rep.counters.allocs == 1
    assert rep.final_pages == {0: 1, 1: 2}       # slot + one data page
    assert rep.final_segments == {0: 1, 1: 1}


def test_read_costs_by_mode():
    # one mapped page, ten reads of it; TLB disabled to expose raw walks
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.ENTER, {"vm": 1}),
        *[(E.READ, {"vaddr": 5}) for _ in range(10)],
    )
    o = opts(tlb_entries=0)
    asmi = run(t, "asmi", TINY, options=o)
    assert asmi.cycles_by_kind["read"] == 10 * (25 + 5)      # walk + ownership check
    assert asmi.counters.walk_steps == 10
    assert asmi.counters.mpt_checks == 10

    nested = run(t, "nested", TINY, options=o)
    assert nested.cycles_by_kind["read"] == 10 * (2 * 25)    # guest walk + real walk
    assert nested.counters.walk_steps == 20

    shadow = run(t, "nested_shadow", TINY, options=o)
    assert shadow.cycles_by_kind["read"] == 10 * 25          # one composed walk
    assert shadow.counters.walk_steps == 10

    for rep in (asmi, nested, shadow):
        assert rep.counters.page_faults == 0
        assert not rep.isolation_faults and not rep.violations


def test_tlb_caches_nested_walks():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.ENTER, {"vm": 1}),
        *[(E.READ, {"vaddr": 0}) for _ in range(4)],
    )
    rep = run(t, "nested", TINY, options=opts(tlb_entries=8))
    assert rep.counters.tlb_misses == 1
    assert rep.counters.tlb_hits == 3
    assert rep.cycles_by_kind["read"] == 2 * 25 + 3 * 1


@pytest.mark.parametrize("mode", ["nested", "iommu", "hyperwall"])
def test_real_asids_are_per_guest_and_never_recycled(mode):
    far = 5 * TINY.page_size_bytes
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.CREATE_VM, {"vm": 2}),
        (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 2}),
        # vm 1's vpage 5 reaches page 20, which nobody holds, so its vTLB
        # entry outlives the pages vm 1 frees when it is destroyed
        (E.GPT_WRITE, {"vm": 1, "vpage": 5, "target": 3}),
        (E.RMAP_WRITE, {"vm": 1, "ppage": 3, "phys": 20}),
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": 0}), (E.READ, {"vaddr": far}), (E.EXIT, {}),
        (E.ENTER, {"vm": 2}),
        (E.READ, {"vaddr": 0}),            # guest asid 0 of another vm: a miss
        (E.PSWITCH, {"vasid": 1}),
        (E.READ, {"vaddr": 0}),            # a new guest asid: a miss
        (E.PSWITCH, {"vasid": 0}),
        (E.READ, {"vaddr": 0}),            # back to guest asid 0: its old entry hits
        (E.EXIT, {}),
        (E.DESTROY_VM, {"vm": 1}), (E.CREATE_VM, {"vm": 3}),
        (E.ENTER, {"vm": 3}),
        (E.READ, {"vaddr": far}),          # vm 1's entry for vpage 5 never hits again
    )
    rep = run(t, mode, TINY, options=opts(tlb_entries=8))
    assert (rep.counters.tlb_hits, rep.counters.tlb_misses) == (1, 5)
    assert rep.violations == []


@pytest.mark.parametrize("mode", ["nested", "nested_shadow", "iommu"])
def test_guest_read_of_an_unheld_page_is_a_page_fault(mode):
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}),
        (E.RMAP_WRITE, {"vm": 1, "ppage": 0, "phys": 20}),   # in range, held by nobody
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": 0}),
    )
    rep = run(t, mode, TINY, options=opts())
    assert rep.counters.page_faults == 1
    assert rep.violations == []


@pytest.mark.parametrize("mode", MODES)
def test_a_table_entry_outside_the_pool_is_a_page_fault(mode):
    # a gpt_write may point a vpage anywhere: an access through an entry below
    # page 0 or past the pool faults, with no ownership check and no record
    page = TINY.page_size_bytes
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 0, "target": -1}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 1, "target": TINY.pages_total}),
        (E.GPT_WRITE, {"vm": 0, "vpage": 0, "target": -1}),
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": 0}), (E.WRITE, {"vaddr": page}),
        (E.EXIT, {}), (E.READ, {"vaddr": 0}),
    )
    rep = run(t, mode, TINY, options=opts())
    assert rep.counters.page_faults == 3
    assert rep.ledger_counts() == dict.fromkeys(rep.ledger_counts(), 0)


def test_a_shadow_entry_follows_a_later_alloc_of_its_ppage():
    # vpage 5 points at ppage 1 before any page backs it; the second alloc maps ppage 1
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 5, "target": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.ENTER, {"vm": 1}), (E.READ, {"vaddr": 5 * TINY.page_size_bytes}),
    )
    shadow = run(t, "nested_shadow", TINY, options=opts(tlb_entries=0))
    nested = run(t, "nested", TINY, options=opts(tlb_entries=0))
    assert shadow.counters.page_faults == nested.counters.page_faults == 0
    assert shadow.violations == nested.violations == []


def test_the_shadow_walk_reaches_what_the_nested_walk_reaches():
    # tampered tables: gpt_write and rmap_write land on vpages and ppages that later
    # allocs, frees and reclaims reuse
    geom = Geometry(256, 2, 4)
    for seed in range(1, 41):
        events = all_kinds_trace(seed, 600, geom)
        shadow = run(events, "nested_shadow", geom, options=opts(tlb_entries=0))
        walked = run(events, "nested", geom, options=opts(tlb_entries=0))
        assert shadow.violations == walked.violations, seed
        assert shadow.counters.page_faults == walked.counters.page_faults, seed


# The hooks a replay still calls, each through the attribute perfbench/tracer.py
# patches.  An access is inline in its handler: `ProMem.translate`,
# `VirtualTlb.lookup` and `shadow_translate` are never called, a vTLB miss calls
# `nested_translate` (and `insert` when it lands in the pool), and `check_owner`
# runs only on a blocked asmi access and on DMA.  An alloc's common step is
# inline too: asmi calls `allocate_page` only on a reclaim or a full pool (none
# here), and nested_shadow calls `shadow_update_vpage` only from an
# rmap_write's re-derivation.
TRACED_NAMES = (
    (ProMem, "check_owner"), (VirtualTlb, "insert"), (baselines, "nested_translate"),
    (ProMem, "allocate_page"), (ProMem, "free_page"), (RemappingTables, "map_page"),
    (RemappingTables, "unmap_phys"), (baselines, "iommu_dma_translate"),
    (baselines, "shadow_update_vpage"),
)
UNTRACED_NAMES = ((ProMem, "translate"), (VirtualTlb, "lookup"), (baselines, "shadow_translate"))

#: mode -> the calls of each of TRACED_NAMES, in order
LAYER_CALLS = {
    "asmi": (2, 0, 0, 0, 2, 0, 0, 0, 0),
    "nested": (0, 3, 4, 0, 0, 0, 0, 0, 0),
    "nested_shadow": (0, 0, 0, 0, 0, 0, 0, 0, 2),
    "iommu": (0, 3, 4, 0, 0, 3, 2, 3, 0),
    "hyperwall": (0, 3, 4, 0, 0, 0, 0, 0, 0),
}


@pytest.mark.parametrize("mode", MODES)
def test_each_access_calls_the_traced_layer_names(mode, monkeypatch):
    # an event of every kind but dma_raw (a mode error under iommu)
    page = TINY.page_size_bytes
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 1}),
        (E.ENTER, {"vm": 1}),
        (E.READ, {"vaddr": 0}),            # a vTLB miss that walks and inserts
        (E.READ, {"vaddr": 1}),            # a hit
        (E.WRITE, {"vaddr": page}),        # a miss on the second page
        (E.READ, {"vaddr": 5 * page}),     # no mapping: a miss with no insert
        (E.EXIT, {}),
        (E.READ, {"vaddr": 0}),            # the hypervisor's: no hook in any mode
        # iommu adopts both pages into the domain, then maps the next alloc's
        (E.DOMAIN_ASSIGN, {"domain": 1, "vm": 1, "bus": 0, "device": 0, "function": 0}),
        (E.ALLOC, {"vm": 1}),
        (E.DMA, {"bus": 0, "device": 0, "function": 0, "dva": 0, "write": True}),
        (E.DMA, {"bus": 0, "device": 1, "function": 0, "dva": 0, "write": False}),  # no context
        (E.DMA, {"bus": 1, "device": 0, "function": 0, "dva": 0, "write": True}),   # no root
        (E.FREE, {"vm": 1, "vaddr": page}),
        (E.FREE, {"vm": 1, "vaddr": 9 * page}),                # nothing mapped: no hook
        (E.GPT_WRITE, {"vm": 1, "vpage": 7, "target": 2}),
        (E.RMAP_WRITE, {"vm": 1, "ppage": 2, "phys": 3}),      # re-derives vpages 2 and 7
        (E.ENTER, {"vm": 1}),
        (E.READ, {"vaddr": 7 * page}),     # the hypervisor's page under asmi: blocked
        (E.EXIT, {}),
        (E.ALLOC, {"vm": 0}),
        (E.FREE, {"vm": 0, "vaddr": 0}),
    )
    calls = dict.fromkeys(TRACED_NAMES + UNTRACED_NAMES, 0)
    for holder, name in calls:
        def counted(*args, _key=(holder, name), _fn=getattr(holder, name)):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(holder, name, counted)
    rep = run(t, mode, TINY, options=opts())
    assert tuple(calls[key] for key in TRACED_NAMES) == LAYER_CALLS[mode]
    assert [calls[key] for key in UNTRACED_NAMES] == [0, 0, 0]
    if mode == "asmi":  # the first DMA lands in the hypervisor's page too
        assert [(f.seq, f.vmid) for f in rep.isolation_faults] == [(13, 1), (21, 1)]


def _frames(machine, event):
    """The code names of the handler's frame and of every frame under it, in order."""
    caller = sys._getframe()
    names = []

    def profile(frame, what, arg):
        if what == "call":
            back = frame.f_back
            while back is not None and back is not caller:
                back = back.f_back
            if back is caller:
                names.append(frame.f_code.co_name)

    handler = machine.handlers[event.kind]
    collecting = gc.isenabled()
    gc.disable()  # a collection would run the frames of gc.callbacks
    sys.setprofile(profile)
    try:
        handler(machine, event)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return names


ONE = ["on_read"]
MISS = ["on_read", "nested_translate"]
MISS_INSERT = [*MISS, "insert"]
BLOCKED = ["on_read", "check_owner"]

#: mode -> the frames of each read below but the first
ACCESS_FRAMES = {
    "asmi": [ONE, ONE, ONE, BLOCKED, BLOCKED, ONE],
    "nested_shadow": [ONE] * 6,
    **dict.fromkeys(("nested", "iommu", "hyperwall"),
                    [ONE, ONE, MISS, MISS_INSERT, MISS_INSERT, ONE]),
}


@pytest.mark.parametrize("mode", MODES)
def test_each_cpu_access_opens_one_python_frame(mode):
    # a vTLB hit, a shadow walk or an asmi translation; a guest read with no
    # mapping; a read of another owner's page under asmi; a cross-owner read,
    # recorded as a violation, a denial or (asmi) a fault; a hypervisor read.
    # A miss also calls the nested walk, and a blocked asmi read `check_owner`,
    # which builds its fault with no frame of its own.
    page = TINY.page_size_bytes
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 0}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 7, "target": 0}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 9, "target": 9}),   # asmi: a free segment's page
        (E.RMAP_WRITE, {"vm": 1, "ppage": 9, "phys": 1}),    # the hypervisor's page
        (E.ENTER, {"vm": 1}),
        (E.READ, {"vaddr": 0}),            # makes the read tally: a miss under the vTLB
        (E.READ, {"vaddr": 1}),
        (E.READ, {"vaddr": 1}),
        (E.READ, {"vaddr": 5 * page}),
        (E.READ, {"vaddr": 7 * page}),
        (E.READ, {"vaddr": 9 * page}),
        (E.EXIT, {}),
        (E.READ, {"vaddr": 0}),
    )
    machine = machine_class(mode)(TINY, opts(), MetricsReport(mode))
    reads = []
    for event in t:
        frames = _frames(machine, event)
        if event.kind == E.READ:
            reads.append(frames)
    assert reads[1:] == ACCESS_FRAMES[mode]
    report, cross = machine.report, t[12].seq
    if mode == "asmi":
        assert [(f.seq, f.owner) for f in machine.pm.faults] == [(t[11].seq, 0), (cross, None)]
    elif mode == "hyperwall":
        mode_token = PageMode.HYPERVISOR_AND_DMA
        assert report.denials == [Denial(cross, 0, "other_vm", 1, mode_token, 0)]
        assert report.violations == []
    else:
        assert report.violations == [Violation(cross, 0, "cpu", 1, 1, 0)]


def test_hyperwall_charges_a_check_per_access():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.ENTER, {"vm": 1}),
        (E.READ, {"vaddr": 0}),
    )
    plain = run(t, "nested", TINY, options=opts(tlb_entries=0))
    walled = run(t, "hyperwall", TINY, options=opts(tlb_entries=0))
    assert walled.cycles_by_kind["read"] - plain.cycles_by_kind["read"] == 5


def test_switch_costs_and_flush_policy():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ENTER, {"vm": 1}),
        (E.EXIT, {}),
        (E.PSWITCH, {"vasid": 3}),
    )
    tagged = run(t, "nested", TINY, options=opts(tlb_policy="asid"))
    assert tagged.cycles_by_kind["enter"] == 300
    assert tagged.cycles_by_kind["exit"] == 300
    assert tagged.cycles_by_kind["pswitch"] == 300
    assert tagged.counters.tlb_flushes == 0

    flushing = run(t, "nested", TINY, options=opts(tlb_policy="flush"))
    assert flushing.cycles_by_kind["enter"] == 500
    assert flushing.counters.tlb_flushes == 3

    asmi = run(t, "asmi", TINY)
    assert asmi.cycles_by_kind["enter"] == 300
    assert asmi.counters.context_switches == 2
    assert asmi.counters.process_switches == 1


def test_pio_fallback_when_dma_is_off():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.DOMAIN_ASSIGN, {"domain": 1, "vm": 1, "bus": 0, "device": 0, "function": 0}),
        (E.DMA, {"bus": 0, "device": 0, "function": 0, "dva": 0, "write": True}),
    )
    rep = run(t, "nested", TINY, options=opts(dma_policy="off"))
    assert rep.counters.pio_transfers == 1
    assert rep.cycles_by_kind["dma"] == 50 * (256 // 8)
    assert rep.counters.dma_completed == 0


def test_iommu_dma_cycle_arithmetic():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.DOMAIN_ASSIGN, {"domain": 1, "vm": 1, "bus": 0, "device": 0, "function": 0}),
        (E.ALLOC, {"vm": 1}),
        (E.DMA, {"bus": 0, "device": 0, "function": 0, "dva": 100, "write": False}),
    )
    rep = run(t, "iommu", TINY, options=opts(walk_levels=4))
    # dva 100 falls in the device's first mapped page
    assert rep.counters.dma_completed == 1
    assert rep.cycles_by_kind["dma"] == 100 + 25 * 6
    assert rep.counters.dma_walk_steps == 6


def test_freed_page_leaves_every_iommu_domain():
    # vm 1's page is mapped in domain 1, then adopted by domain 2 when vm 1
    # moves there; once freed and handed to vm 2, domain 1's device must not
    # reach it
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.CREATE_VM, {"vm": 2}),
        (E.DOMAIN_ASSIGN, {"domain": 1, "vm": 1, "bus": 0, "device": 0, "function": 0}),
        (E.ALLOC, {"vm": 1}),
        (E.DOMAIN_ASSIGN, {"domain": 2, "vm": 1, "bus": 0, "device": 1, "function": 0}),
        (E.ENTER, {"vm": 1}),
        (E.FREE, {"vm": 1, "vaddr": 0}),
        (E.EXIT, {}),
        (E.ALLOC, {"vm": 2}),
        (E.DMA, {"bus": 0, "device": 0, "function": 0, "dva": 0, "write": True}),
    )
    rep = run(t, "iommu", TINY, options=opts())
    assert rep.counters.dma_completed == 0
    assert rep.counters.dma_blocked == 1
    assert [f.reason for f in rep.dma_faults] == ["no_mapping"]
    assert rep.violations == []


@pytest.mark.parametrize("mode", ["nested", "nested_shadow", "hyperwall"])
def test_domain_assign_outside_iommu_only_names_the_issuer(mode):
    machine = machine_class(mode)(TINY, RunOptions(), MetricsReport(mode=mode))
    for event in trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.CREATE_VM, {"vm": 2}),
        (E.DOMAIN_ASSIGN, {"domain": 1, "vm": 1, "bus": 0, "device": 0, "function": 0}),
        (E.ALLOC, {"vm": 2}),                      # page 0
        (E.DMA, {"bus": 0, "device": 0, "function": 0, "dva": 0, "write": True}),
    ):
        step(machine, event)
        machine.check_invariants()
    assert [(v.source, v.vm, v.page, v.owner) for v in machine.report.violations] == [
        ("dma", 1, 0, 2)
    ]
    assert not any(isinstance(v, RemappingTables) for v in vars(machine).values())


# ---------------------------------------------------------------------------
# cross-mode trace compatibility
# ---------------------------------------------------------------------------

WELL_BEHAVED = trace(
    (E.CREATE_VM, {"vm": 1}),
    (E.CREATE_VM, {"vm": 2}),
    (E.DOMAIN_ASSIGN, {"domain": 1, "vm": 1, "bus": 0, "device": 0, "function": 0}),
    (E.ALLOC, {"vm": 1}),
    (E.ALLOC, {"vm": 1}),
    (E.ALLOC, {"vm": 2}),
    (E.ENTER, {"vm": 1}),
    (E.READ, {"vaddr": 0}),
    (E.WRITE, {"vaddr": 256 + 7}),
    (E.EXIT, {}),
    (E.ENTER, {"vm": 2}),
    (E.READ, {"vaddr": 3}),
    (E.EXIT, {}),
    (E.DMA, {"bus": 0, "device": 0, "function": 0, "dva": 100, "write": True}),
    (E.FREE, {"vm": 1, "vaddr": 256}),
    (E.HW_SET, {"page": 0, "mode": "hyp_dma"}),
    (E.RMAP_WRITE, {"vm": 2, "ppage": 9, "phys": 3}),
)


def test_one_trace_replays_under_every_mode():
    for mode in MODES:
        rep = run(WELL_BEHAVED, mode, TINY, options=opts())
        assert rep.events == len(WELL_BEHAVED)
        assert rep.counters.cpu_accesses == 3
        assert rep.counters.page_faults == 0
        assert not rep.violations, mode
        assert rep.counters.frees == 1


def test_well_behaved_cpu_accesses_never_fault_under_asmi():
    rep = run(WELL_BEHAVED, "asmi", TINY, options=opts())
    # The only fault is the DMA probe: dva 100 is physical page 0 here,
    # which belongs to the hypervisor.  The raw modes see the same page as
    # the issuer's own pool page and the remapped mode sees its first
    # domain page, so they complete it; segment checking blocks it.
    assert [(f.seq, f.segment, f.owner) for f in rep.isolation_faults] == [(14, 0, 0)]
    assert rep.counters.dma_blocked == 1
    assert rep.counters.dma_completed == 0
    for mode in ("nested", "iommu", "hyperwall"):
        other = run(WELL_BEHAVED, mode, TINY, options=opts())
        assert other.counters.dma_completed == 1, mode
        assert not other.dma_faults, mode


def test_free_then_realloc_reuses_the_page():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.FREE, {"vm": 1, "vaddr": 0}),
        (E.ALLOC, {"vm": 1}),
    )
    for mode in MODES:
        rep = run(t, mode, TINY, options=opts())
        assert rep.counters.allocs == 2
        assert rep.counters.frees == 1
        assert rep.counters.invalid_frees == 0


def test_tolerant_invalid_frees():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.FREE, {"vm": 1, "vaddr": 0}),        # never allocated
        (E.ALLOC, {"vm": 1}),
        (E.FREE, {"vm": 1, "vaddr": 0}),
        (E.FREE, {"vm": 1, "vaddr": 0}),        # double free
    )
    # gpt_write points a vpage at a page vm 1 does not hold; under asmi vm 1
    # owns segment 1, pages 4..7, and holds only 4 (its save slot) and 5
    tampered = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 5, "target": 6}),      # free page, own segment
        (E.FREE, {"vm": 1, "vaddr": 5 * 256}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 6, "target": 4}),      # its save-slot page
        (E.FREE, {"vm": 1, "vaddr": 6 * 256}),
        (E.GPT_WRITE, {"vm": 1, "vpage": 7, "target": TINY.pages_total}),  # outside the pool
        (E.FREE, {"vm": 1, "vaddr": 7 * 256}),
    )
    for events, invalid, frees in ((t, 2, 1), (tampered, 3, 0)):
        for mode in MODES:
            rep = run(events, mode, TINY, options=opts())
            assert rep.counters.invalid_frees == invalid, mode
            assert rep.counters.frees == frees, mode
            assert rep.isolation_faults == [], mode


def test_raw_target_dma_is_a_mode_error_under_iommu():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.DMA_RAW, {"vm": 1, "page": 0, "write": True}),
    )
    with pytest.raises(ModeError):
        run(t, "iommu", TINY)
    run(t, "nested", TINY)      # raw modes accept it
    run(t, "asmi", TINY)


MACHINE_CLASSES = {
    "asmi": AsmiMachine,
    "nested": BaselineMachine,
    "nested_shadow": ShadowMachine,
    "iommu": IommuMachine,
    "hyperwall": HyperwallMachine,
}


def test_engine_looks_up_the_moved_names_the_benchmark_reads_on_each_use(monkeypatch):
    assert engine.BaselineMachine is BaselineMachine
    monkeypatch.setattr(baselines, "nested_translate", len)
    assert engine.nested_translate is len
    with pytest.raises(AttributeError, match="ShadowMachine"):
        engine.ShadowMachine


@pytest.mark.parametrize("dma_policy", ["raw", "off"])
@pytest.mark.parametrize("mode", MODES)
def test_each_mode_has_its_own_class_and_the_handlers_of_its_hardware(mode, dma_policy):
    machine = machine_class(mode)(TINY, opts(dma_policy=dma_policy), MetricsReport(mode))
    assert type(machine) is MACHINE_CLASSES[mode]
    assert list(machine.handlers) == list(EVENT_FIELDS)
    ignored = {kind for kind, handler in machine.handlers.items() if handler is engine._ignore}
    assert ignored == {"asmi": {"hw_set", "rmap_write"}, "hyperwall": set()}.get(mode, {"hw_set"})


def test_iommu_remaps_dma_whatever_the_dma_policy():
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}),
        (E.DOMAIN_ASSIGN, {"domain": 1, "vm": 1, "bus": 0, "device": 0, "function": 0}),
        (E.DMA, {"bus": 0, "device": 0, "function": 0, "dva": 0, "write": True}),
    )
    rep = run(t, "iommu", TINY, options=opts(dma_policy="off"))
    assert rep.counters.dma_walk_steps > 0 and rep.counters.pio_transfers == 0
    assert rep.counters.dma_completed == 1
    raw = trace((E.CREATE_VM, {"vm": 1}), (E.DMA_RAW, {"vm": 1, "page": 0, "write": True}))
    with pytest.raises(ModeError):
        run(raw, "iommu", TINY, options=opts(dma_policy="off"))


def test_hw_set_is_a_noop_outside_hyperwall():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.HW_SET, {"page": 0, "mode": "locked"}),
        (E.ENTER, {"vm": 1}),
        (E.READ, {"vaddr": 0}),
    )
    for mode in ("asmi", "nested", "nested_shadow", "iommu"):
        rep = run(t, mode, TINY, options=opts())
        assert rep.denials == []


def test_hw_set_by_non_owner_is_denied():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.CREATE_VM, {"vm": 2}),
        (E.ALLOC, {"vm": 1}),
        (E.ENTER, {"vm": 2}),
        (E.HW_SET, {"page": 0, "mode": "locked"}),   # vm2 touching vm1's page
    )
    rep = run(t, "hyperwall", TINY, options=opts())
    assert rep.counters.hw_set_denied == 1


def test_hw_set_checks_its_mode_after_the_page_and_before_the_owner():
    def stop(*events):
        with pytest.raises(SimulationError) as info:
            run(trace(*events), "hyperwall", TINY, options=opts())
        return str(info.value)

    bogus = {"mode": "bogus"}
    assert stop((E.HW_SET, {"page": TINY.pages_total, **bogus})) == (
        "event seq 1: page 32 outside the geometry")
    # vm 2 may not set vm 1's page, yet the unknown token stops the replay first
    assert stop((E.CREATE_VM, {"vm": 1}), (E.CREATE_VM, {"vm": 2}), (E.ALLOC, {"vm": 1}),
                (E.ENTER, {"vm": 2}), (E.HW_SET, {"page": 0, **bogus})) == (
        "event seq 5: unknown protection mode 'bogus'")


def test_unassigned_device_dma_faults_under_asmi():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.DMA, {"bus": 1, "device": 2, "function": 0, "dva": 0, "write": True}),
    )
    rep = run(t, "asmi", TINY)
    assert [f.reason for f in rep.dma_faults] == ["unassigned_device"]
    assert rep.cycles_by_kind["dma"] == 100          # setup only, no check possible


def test_dma_out_of_range_faults():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.DMA_RAW, {"vm": 1, "page": TINY.pages_total, "write": True}),
    )
    for mode in ("asmi", "nested", "hyperwall"):
        rep = run(t, mode, TINY)
        assert [f.reason for f in rep.dma_faults] == ["range"], mode


# ---------------------------------------------------------------------------
# reclaim interplay with guest mappings
# ---------------------------------------------------------------------------


def test_asmi_reclaim_unmaps_swapped_pages():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.CREATE_VM, {"vm": 2}),
        *[(E.ALLOC, {"vm": 1}) for _ in range(23)],   # vm1 fills every free segment
        *[(E.ALLOC, {"vm": 2}) for _ in range(4)],    # forces a reclaim of vm1
        (E.ENTER, {"vm": 1}),
        (E.READ, {"vaddr": 22 * 256}),                # vpage swapped out: faults
        (E.READ, {"vaddr": 0}),                       # vpage 0 survived in seg 1
    )
    rep = run(t, "asmi", TINY, options=opts())
    assert len(rep.reclaims) == 1
    assert rep.reclaims[0].victim == 1
    assert rep.counters.page_faults == 1
    assert rep.isolation_faults == []
    assert rep.memory_full == []
    assert rep.cycles_by_kind["alloc"] == 27 * 5 + rep.reclaims[0].pages_swapped * 5000


def test_baseline_reclaim_swaps_from_largest_holder():
    small = Geometry(256, 2, 2)                        # four pages total
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.CREATE_VM, {"vm": 2}),
        *[(E.ALLOC, {"vm": 1}) for _ in range(4)],
        (E.ALLOC, {"vm": 2}),
    )
    rep = run(t, "nested", small, options=opts())
    assert rep.counters.pages_swapped == 1
    assert rep.memory_full == []
    assert rep.final_pages == {0: 0, 1: 3, 2: 1}
    assert rep.cycles_by_kind["alloc"] == 5000


def test_baseline_memory_full_when_requester_holds_everything():
    small = Geometry(256, 2, 2)
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        *[(E.ALLOC, {"vm": 1}) for _ in range(5)],
    )
    rep = run(t, "nested", small, options=opts())
    assert [(m.vm) for m in rep.memory_full] == [1]
    assert rep.counters.allocs == 5


def _pool_owners(mode, geom, events):
    """The page-pool machine's page -> holder map, swapped pages and memory-full
    records after `events`."""
    machine = machine_class(mode)(geom, opts(), MetricsReport(mode))
    machine.apply(events, 100, True)
    return machine.owner_of, machine.tally[E.ALLOC].pages_swapped, machine.report.memory_full


@pytest.mark.parametrize("mode", MODES[1:])  # the page-pool modes
def test_baseline_reclaim_tie_goes_to_the_lowest_vm(mode):
    t = trace(
        (E.CREATE_VM, {"vm": 1}), (E.CREATE_VM, {"vm": 2}), (E.CREATE_VM, {"vm": 3}),
        (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 2}), (E.ALLOC, {"vm": 1}), (E.ALLOC, {"vm": 2}),
        (E.ALLOC, {"vm": 3}),      # vm 1 and vm 2 hold two pages each: vm 1 loses page 2
    )
    assert _pool_owners(mode, Geometry(256, 2, 2), t) == ({0: 1, 1: 2, 2: 3, 3: 2}, 1, [])


# vm 1 holds pages 0-2 and locks them all; vm 2 holds pages 3-4 and locks page 4
_LOCKED_HOLDERS = (
    (E.CREATE_VM, {"vm": 1}), (E.CREATE_VM, {"vm": 2}), (E.CREATE_VM, {"vm": 3}),
    *[(E.ALLOC, {"vm": 1})] * 3, *[(E.ALLOC, {"vm": 2})] * 2,
    (E.ENTER, {"vm": 1}),
    *[(E.HW_SET, {"page": page, "mode": PageMode.LOCKED}) for page in (0, 1, 2)],
    (E.EXIT, {}), (E.ENTER, {"vm": 2}),
    (E.HW_SET, {"page": 4, "mode": PageMode.LOCKED}),
    (E.EXIT, {}),
    (E.ALLOC, {"vm": 3}),          # the last free page, 5
)


def test_baseline_reclaim_passes_over_a_holder_with_every_page_locked():
    t = trace(*_LOCKED_HOLDERS, (E.ALLOC, {"vm": 3}))
    owner_of, swapped, full = _pool_owners("hyperwall", Geometry(256, 2, 3), t)
    assert owner_of == {0: 1, 1: 1, 2: 1, 3: 3, 4: 2, 5: 3}   # vm 2's highest allowed page
    assert (swapped, full) == (1, [])


def test_baseline_reclaim_with_no_allowed_page_records_memory_full():
    t = trace(*_LOCKED_HOLDERS, (E.ALLOC, {"vm": 3}), (E.ALLOC, {"vm": 3}))
    owner_of, swapped, full = _pool_owners("hyperwall", Geometry(256, 2, 3), t)
    assert owner_of == {0: 1, 1: 1, 2: 1, 3: 3, 4: 2, 5: 3}
    assert ([(record.seq, record.vm) for record in full], swapped) == ([(len(t), 3)], 1)


def _asmi_lockstep(events, geom):
    """Replay `events` under asmi while a fresh ProMem, driven only through its
    lifecycle calls, `allocate_page` and `free_page`, follows each alloc and
    free.  Each alloc must hand out the oracle's page, asmi must call
    `allocate_page` only where the oracle reclaimed or was full, and both
    controllers must end in one state.  Returns the oracle's alloc results."""
    report = MetricsReport("asmi")
    machine = AsmiMachine(geom, opts(), report)
    pm, calls = machine.pm, []

    def counted(vm, seq):
        calls.append(seq)
        return ProMem.allocate_page(pm, vm, seq)

    pm.allocate_page = counted
    oracle = ProMem(geom)
    oracle.load_hypervisor()
    results, slow = [], []
    for e in events:
        if e.kind == E.ALLOC:
            owner = machine.live[e.vm]
            vpage = owner.next_vpage
        elif e.kind == E.FREE:
            page = machine.live[e.vm].table.get(e.vaddr // geom.page_size_bytes)
            frees = report.counters.frees
        step(machine, e)
        if e.kind == E.ALLOC:
            result = oracle.allocate_page(e.vm, e.seq)
            results.append(result)
            if result.reclaim is not None or result.page is None:
                slow.append(e.seq)
            got = owner.table[vpage] if owner.next_vpage > vpage else None
            assert got == result.page, e
        elif e.kind == E.FREE and report.counters.frees > frees:
            oracle.free_page(e.vm, page, e.seq)
        elif e.kind == E.CREATE_VM:
            oracle.create_vm(e.seq)
        elif e.kind == E.DESTROY_VM:
            oracle.destroy_vm(e.vm)
    assert calls == slow

    def state(c):
        owners = {vm: (o.segs, o.pages, o.open, o.slot_segment) for vm, o in c.owners.items()}
        return c.mpt, c.masks, c.free, owners, c.notices, c.memory_full_events

    assert state(pm) == state(oracle)
    return results


def test_asmi_inline_alloc_matches_the_controllers_cascade():
    # seeded traces of every kind, on the test pool and on one of 12 pages, and
    # an alloc-heavy generated trace replayed on half the pool it was made for
    spec = workload.WorkloadSpec(3, 3, 1500, (workload.DemandProfile(60, 0.2, 0.5),) * 3,
                                 dma_rate=0.05, switch_rate=0.05)
    runs = [(all_kinds_trace(seed, 400, geom), geom)
            for geom in (TINY, Geometry(256, 2, 6)) for seed in range(1, 11)]
    runs.append((workload.generate(spec, Geometry(256, 4, 64)), Geometry(256, 2, 64)))
    # (page index in its segment, reclaimed) per alloc handed a page; None when full
    outcomes = [None if r.page is None else (r.page % geom.pages_per_segment, r.reclaim)
                for events, geom in runs for r in _asmi_lockstep(events, geom)]
    # every path ran: an open segment's next page, a claim, a reclaim and a full pool
    assert {index > 0 for index, _ in filter(None, outcomes)} == {True, False}
    assert any(reclaim is not None for _, reclaim in filter(None, outcomes))
    assert None in outcomes


# ---------------------------------------------------------------------------
# determinism, sampling, reports
# ---------------------------------------------------------------------------


def test_reports_are_byte_identical_across_runs():
    for mode in MODES:
        a = run(WELL_BEHAVED, mode, TINY, options=opts(sample_interval=3))
        b = run(WELL_BEHAVED, mode, TINY, options=opts(sample_interval=3))
        assert a.to_json() == b.to_json()


@pytest.mark.parametrize("mode", MODES)
def test_sampling_cadence_and_final_partial(mode):
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        *[(E.ALLOC, {"vm": 1}) for _ in range(4)],
    )

    def sampled_at(events):
        rep = run(events, mode, TINY, options=opts(sample_interval=2))
        return sorted({u.event_index for u in rep.utilization}), rep.utilization

    indexes, rows = sampled_at(t)
    assert indexes == [2, 4, 5]
    assert [u.owner for u in rows if u.event_index == 5] == [0, 1]
    assert sampled_at(t[:4])[0] == [2, 4]         # an exact multiple adds no final sample
    assert sampled_at([]) == ([], [])
    assert sampled_at(e for e in t)[1] == rows    # a generator samples as the list does


@pytest.mark.parametrize("mode", MODES)
def test_invariants_are_checked_after_every_event_when_asked(mode, monkeypatch):
    # each check sees its event's effect: the live owners after each create_vm
    cls, seen = machine_class(mode), []
    monkeypatch.setattr(cls, "check_invariants", lambda machine: seen.append(len(machine.live)))
    t = trace((E.CREATE_VM, {"vm": 1}), (E.CREATE_VM, {"vm": 2}))
    run(t, mode, TINY, options=opts())
    assert seen == [2, 3]
    run(t, mode, TINY, options=opts(check_invariants=False))
    assert seen == [2, 3]


def test_compare_row_order_is_trace_major():
    t1 = trace((E.CREATE_VM, {"vm": 1}), (E.ALLOC, {"vm": 1}))
    t2 = trace((E.CREATE_VM, {"vm": 1}))
    result = compare([("a", t1), ("b", t2)], ["nested", "asmi"], TINY)
    assert list(result.reports) == [
        ("a", "nested"), ("a", "asmi"), ("b", "nested"), ("b", "asmi"),
    ]
    table = result.to_table()
    assert "asmi" in table and "nested" in table


def test_compare_accepts_bare_event_list():
    t = trace((E.CREATE_VM, {"vm": 1}))
    result = compare(t, ["asmi"], TINY)
    assert list(result.reports) == [("trace", "asmi")]


@pytest.mark.parametrize("one_shot", [iter, lambda events: (ev for ev in events)])
def test_compare_replays_a_one_shot_iterable_under_every_mode(one_shot):
    events = read_trace(str(FIXTURES / "cross_vm_dma.trace"))
    want = compare([("x", events)], MODES, TINY)
    got = compare([("x", one_shot(events))], MODES, TINY)
    assert [report.events for report in got.reports.values()] == [len(events)] * len(MODES)
    assert list(got.reports) == list(want.reports)
    for key, report in got.reports.items():
        assert report.to_json() == want.reports[key].to_json(), key
    assert got.to_table() == want.to_table()


@pytest.mark.parametrize("form", ["pairs", "events"])
def test_compare_reads_a_generator_of_traces_as_the_list(form):
    events = read_trace(str(FIXTURES / "cross_vm_dma.trace"))
    if form == "pairs":
        want = compare([("x", events)], MODES, TINY)
        got = compare((pair for pair in [("x", events)]), MODES, TINY)
    else:
        want = compare(events, MODES, TINY)
        got = compare(iter(events), MODES, TINY)
    assert list(got.reports) == list(want.reports)
    for key, report in got.reports.items():
        assert report.to_json() == want.reports[key].to_json(), key
    assert got.to_table() == want.to_table()


def test_compare_replays_a_list_or_tuple_as_it_is(monkeypatch):
    replayed = []
    monkeypatch.setattr(engine, "run", lambda events, *args: replayed.append(events))
    as_list = trace((E.CREATE_VM, {"vm": 1}))
    as_tuple = tuple(as_list)
    compare([("a", as_list), ("b", as_tuple)], ["asmi", "nested"], TINY)
    assert [id(events) for events in replayed] == [id(as_list)] * 2 + [id(as_tuple)] * 2


@pytest.mark.parametrize("names, modes", [
    (["x", "x"], ["asmi"]),                       # two traces with one name
    (["x"], ["asmi", "asmi"]),
    (["x"], ["nested_shadow", "shadow"]),         # one mode under two aliases
])
def test_compare_rejects_a_repeated_trace_and_mode(names, modes):
    t = trace((E.CREATE_VM, {"vm": 1}))
    with pytest.raises(DuplicateRunError, match=r"'x'.*(asmi|nested_shadow)"):
        compare([(name, t) for name in names], modes, TINY)


def test_report_json_shape():
    rep = run(WELL_BEHAVED, "asmi", TINY, options=opts(sample_interval=5))
    data = rep.to_dict()
    assert data["mode"] == "asmi"
    assert set(data["ledgers"]) == {
        "isolation_faults", "violations", "dma_faults",
        "denials", "memory_full", "reclaims",
    }
    assert all(isinstance(k, str) for k in data["final_pages"])


#: every DmaFault reason: a page outside the pool, a device no domain_assign
#: named, and iommu's three remapping faults
DMA_FAULT_REASONS = {"range", "unassigned_device", "no_root", "no_context", "no_mapping"}


def reference_dict(rep):
    """The report as a dict built field by field, each record through `_asdict()`."""
    ledgers = {name: [r._asdict() for r in getattr(rep, name)] for name in LEDGERS}
    for r in ledgers["reclaims"]:
        r["segments"] = list(r["segments"])
    return {
        "mode": rep.mode,
        "events": rep.events,
        "total_cycles": rep.total_cycles,
        "cycles_by_kind": dict(rep.cycles_by_kind),
        "counters": {name: getattr(rep.counters, name) for name in COUNTER_NAMES},
        "ledgers": ledgers,
        "utilization": [u._asdict() for u in rep.utilization],
        "final_segments": {str(k): v for k, v in rep.final_segments.items()},
        "final_pages": {str(k): v for k, v in rep.final_pages.items()},
    }


def test_to_json_is_json_dumps_of_to_dict_with_every_ledger_filled():
    traces = [read_trace(str(path)) for path in sorted(FIXTURES.glob("*.trace"))]
    traces += [all_kinds_trace(0x5EED, 700, TINY), all_kinds_trace(5, 700, TINY),
               all_kinds_trace(0xC0FFEE, 700, TINY, raw_dma=False)]
    seen = set()
    for events in traces:
        for mode in MODES:
            try:
                rep = run(events, mode, TINY)
            except ModeError:  # iommu cannot interpret a raw-target DMA
                continue
            want = reference_dict(rep)
            assert rep.to_json() == json.dumps(want, sort_keys=True, separators=(",", ":")), mode
            assert rep.to_dict() == want, mode
            seen |= {"denial owner None" for d in rep.denials if d.owner is None}
            seen |= {"isolation fault owner None" for f in rep.isolation_faults
                     if f.owner is None}
            seen |= {"violation vm -1" for v in rep.violations if v.vm == -1}
            seen |= {"reclaim"} if rep.reclaims else set()
            seen |= {"memory full"} if rep.memory_full else set()
            seen |= {f.reason for f in rep.dma_faults}
    assert seen == {"denial owner None", "isolation fault owner None", "violation vm -1",
                    "reclaim", "memory full", *DMA_FAULT_REASONS}


def test_json_writer_renders_each_value_as_json_dumps_does():
    records = [DmaFault(0, -1, 2**70, 3, 4, 'q"\u00e9\n\\'), DmaFault(True, 0, 0, 0, 0.5, None),
               DmaFault(1, 2, 3, 4, 5, (6, "x"))]
    want = json.dumps([r._asdict() for r in records], sort_keys=True, separators=(",", ":"))
    assert f"[{_json_writer(DmaFault)(records)}]" == want
    assert _json_writer(DmaFault)([]) == ""


# ---------------------------------------------------------------------------
# static partition baseline
# ---------------------------------------------------------------------------


def test_static_partition_worked_example():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.CREATE_VM, {"vm": 2}),
        *[(E.ALLOC, {"vm": 1}) for _ in range(12)],
    )
    # three owners share 8 segments: 2 each; vm1 is capped at 8 pages = 2 segments
    samples = static_partition_utilization(t, TINY, sample_interval=1000)
    assert samples == [2 / 8]


def test_static_partition_tracks_frees():
    t = trace(
        (E.CREATE_VM, {"vm": 1}),
        (E.ALLOC, {"vm": 1}),
        (E.FREE, {"vm": 1, "vaddr": 0}),
    )
    samples = static_partition_utilization(t, TINY, sample_interval=1)
    assert samples == [0.0, 1 / 8, 0.0]


# ---------------------------------------------------------------------------
# fuzzing: any trace fails, if at all, with a SimError
# ---------------------------------------------------------------------------

FUZZ_GEOM = Geometry(256, 2, 4)
_SMALL = st.integers(-1, 6)
_FIELDS = {
    "vaddr": st.integers(-8, 2048), "dva": st.integers(-8, 2048),
    "write": st.booleans(), "mode": st.sampled_from([*PAGE_MODES, "bogus"]),
}


@st.composite
def fuzz_traces(draw):
    """1-40 events of any kind, small fields (negative ones included), cpu -1 to 1.

    A `vm` field is drawn half the time from the VMs created so far (the
    next one, for create_vm), so that VMs exist and more events replay
    before an error stops the trace.
    """
    events = []
    created = 0
    for seq in range(1, draw(st.integers(1, 40)) + 1):
        kind = draw(st.sampled_from(list(EVENT_FIELDS)))
        likely = [created + 1] if kind == E.CREATE_VM else list(range(1, created + 1)) or [0]
        fields = {
            name: draw(st.sampled_from(likely) | _SMALL if name == "vm" else
                       _FIELDS.get(name, _SMALL))
            for name in EVENT_FIELDS[kind]
        }
        created += kind == E.CREATE_VM and fields["vm"] == created + 1
        events.append(TraceEvent(seq, kind, draw(st.integers(-1, 1)), **fields))
    return events


@settings(max_examples=200, deadline=None)
@given(fuzz_traces())
def test_replay_raises_nothing_but_sim_errors(events):
    for mode in MODES:
        for options in (opts(), opts(tlb_entries=0, tlb_policy="flush", dma_policy="off")):
            try:
                run(events, mode, FUZZ_GEOM, options=options)
            except SimError:
                pass


_STOP = re.compile(r"event seq (\d+)")
_MODE_TOKENS = set(PAGE_MODES)


def _modes_that_may_differ(events) -> set[str]:
    """The modes whose stop on `events` may differ by design, as README lists."""
    kinds = {ev.kind for ev in events}
    differ = set()
    if E.DMA_RAW in kinds:
        differ.add("iommu")        # a raw-target DMA is a mode error
    if E.RMAP_WRITE in kinds:
        differ.add("asmi")         # no real map: an rmap_write naming a dead VM replays on
    if any(ev.kind == E.HW_SET and (not 0 <= ev.page < FUZZ_GEOM.pages_total
                                    or ev.mode not in _MODE_TOKENS) for ev in events):
        differ.add("hyperwall")    # the only mode that reads an hw_set page or mode
    return differ


@settings(max_examples=200, deadline=None)
@given(fuzz_traces())
def test_every_mode_stops_at_the_same_seq_or_none_stops(events):
    differ = _modes_that_may_differ(events)
    for options in (opts(), opts(tlb_entries=0, tlb_policy="flush", dma_policy="off")):
        stops = {}
        for mode in MODES:
            if mode in differ:
                continue
            try:
                run(events, mode, FUZZ_GEOM, options=options)
            except SimError as exc:
                if mode == "asmi" and "cannot host" in str(exc):
                    continue       # asmi ran out of segments for a new VM: the model
                stop = _STOP.match(str(exc))
                assert stop, (mode, str(exc))
                stops[mode] = int(stop[1])
            else:
                stops[mode] = None
        assert len(set(stops.values())) <= 1, stops
