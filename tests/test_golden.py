"""Byte-identity gate: SHA-256 of every report and compare table.

Each (trace, option set) pair is replayed through `compare` under all
five modes; the digest of every `MetricsReport.to_json()`, of every
`run -vv` summary (the one output that prints each ledger record) and
of the comparison table is pinned in golden_digests.json.  A refactor of the
engine must leave every digest unchanged.  `iommu` cannot interpret a
raw-target DMA, so on traces that hold one its pinned outcome is the
ModeError text instead of a digest.

Re-record (only for a deliberate behaviour change):

    PYTHONPATH=src python tests/test_golden.py
"""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from vmemsim.cli import _summary
from vmemsim.core import FLUSH_POLICY, NO_DMA, RAW_DMA, Geometry
from vmemsim.engine import MODES, RunOptions, compare, run
from vmemsim.errors import ModeError
from vmemsim.events import EventKind, PageMode, TraceEvent
from vmemsim.traceio import read_trace
from vmemsim.workload import DemandProfile, WorkloadSpec, Xorshift64Star, generate

HERE = Path(__file__).parent
DIGESTS = HERE / "golden_digests.json"

SMALL = Geometry(256, 4, 8)
POOL = Geometry(256, 4, 16)
HALF_POOL = Geometry(256, 4, 8)

OPTION_SETS = {
    "default": RunOptions(check_invariants=True),
    "flush": RunOptions(tlb_policy=FLUSH_POLICY, sample_interval=7),
    "pio_notlb": RunOptions(dma_policy=NO_DMA, tlb_entries=0),
    "shallow": RunOptions(walk_levels=2, tlb_entries=4),
}


def all_kinds_trace(seed: int, events: int, geom: Geometry, raw_dma: bool = True) -> list[TraceEvent]:
    """Fixed-seed trace that uses every event kind and stays well-formed.

    Guests are created and destroyed (never while current), two cpus
    enter and exit, and explicit table writes and raw DMA target random
    pages.  Vpages touched by gpt_write are never freed, so a free never
    names a page the guest does not hold.
    """
    rng = Xorshift64Star(seed)
    ps = geom.page_size_bytes
    span = geom.pages_total + 4          # a few targets land outside the pool
    trace: list[TraceEvent] = []
    live: list[int] = []
    next_vm = 1
    current = {0: 0, 1: 0}
    allocs: dict[int, int] = {0: 0}
    tainted: dict[int, set[int]] = {0: set()}
    kinds = [k for k in EventKind if raw_dma or k is not EventKind.DMA_RAW]

    def emit(kind: EventKind, **fields) -> None:
        trace.append(TraceEvent(seq=len(trace) + 1, kind=kind, **fields))

    def pick(seq):
        return seq[rng.below(len(seq))]

    while len(trace) < events:
        kind = pick(kinds)
        cpu = rng.below(2)
        owners = [0] + live
        if kind is EventKind.CREATE_VM and len(live) < 4:
            live.append(next_vm)
            allocs[next_vm] = 0
            tainted[next_vm] = set()
            emit(kind, vm=next_vm)
            next_vm += 1
        elif kind is EventKind.DESTROY_VM and set(live) - set(current.values()):
            vm = pick(sorted(set(live) - set(current.values())))
            live.remove(vm)
            emit(kind, vm=vm)
        elif kind is EventKind.ENTER and current[cpu] == 0 and live:
            current[cpu] = pick(live)
            emit(kind, cpu=cpu, vm=current[cpu])
        elif kind is EventKind.EXIT and current[cpu] != 0:
            current[cpu] = 0
            emit(kind, cpu=cpu)
        elif kind is EventKind.ALLOC:
            vm = pick(owners)
            allocs[vm] += 1
            emit(kind, vm=vm)
        elif kind is EventKind.FREE:
            vm = pick(owners)
            vpage = rng.below(allocs[vm] + 2)
            if vpage not in tainted[vm]:
                emit(kind, vm=vm, vaddr=vpage * ps + rng.below(ps))
        elif kind is EventKind.GPT_WRITE:
            vm = pick(owners)
            vpage = rng.below(12)
            tainted[vm].add(vpage)
            emit(kind, vm=vm, vpage=vpage, target=rng.below(span))
        elif kind is EventKind.RMAP_WRITE:
            emit(kind, vm=pick(owners), ppage=rng.below(12), phys=rng.below(span))
        elif kind is EventKind.DMA:
            emit(kind, bus=0, device=rng.below(4), function=0,
                 dva=rng.below(span) * ps, write=rng.below(2) == 1)
        elif kind is EventKind.DMA_RAW:
            emit(kind, vm=rng.below(next_vm), page=rng.below(span), write=rng.below(2) == 1)
        elif kind is EventKind.DOMAIN_ASSIGN and live:
            emit(kind, domain=1 + rng.below(3), vm=pick(live), bus=0,
                 device=rng.below(4), function=0)
        elif kind is EventKind.HW_SET:
            emit(kind, cpu=cpu, page=rng.below(geom.pages_total), mode=pick(list(PageMode)).value)
        elif kind is EventKind.PSWITCH:
            emit(kind, cpu=cpu, vasid=rng.below(3))
        elif kind in (EventKind.READ, EventKind.WRITE):
            emit(kind, cpu=cpu, vaddr=rng.below(12) * ps + rng.below(ps))
    return trace


def _seeded_trace() -> list[TraceEvent]:
    spec = WorkloadSpec(
        seed=11,
        vm_count=3,
        events=1500,
        demand=tuple(DemandProfile(12, churn_rate=0.2, locality=0.5) for _ in range(3)),
        dma_rate=0.05,
        switch_rate=0.05,
    )
    return generate(spec, POOL)


def traces() -> dict[str, tuple[list[TraceEvent], Geometry]]:
    out = {
        name: (read_trace(str(HERE / "fixtures" / f"{name}.trace")), SMALL)
        for name in ("cross_vm_dma", "hyperwall_starvation", "malicious_hypervisor")
    }
    seeded = _seeded_trace()
    out["seeded"] = (seeded, POOL)
    out["seeded_half_pool"] = (seeded, HALF_POOL)
    out["all_kinds"] = (all_kinds_trace(0x5EED, 700, SMALL), SMALL)
    out["all_kinds_no_raw"] = (all_kinds_trace(0xC0FFEE, 700, SMALL, raw_dma=False), SMALL)
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(events: list[TraceEvent], geom: Geometry, options: RunOptions) -> dict[str, str]:
    """Digest per mode report, per `run -vv` summary and of the table.

    Where a mode refuses the trace, its ModeError text is pinned instead.
    """
    raw = any(ev.kind is EventKind.DMA_RAW for ev in events)
    modes = [m for m in MODES if not (raw and m == "iommu")]
    result = compare([("trace", events)], modes, geom, options=options)
    out = {}
    for mode in modes:
        rep = result.reports[("trace", mode)]
        out[mode] = _sha(rep.to_json())
        out[f"{mode}/vv"] = _sha(_summary("trace", rep, geom, 2))
    out["table"] = _sha(result.to_table())
    if raw:
        with pytest.raises(ModeError) as info:
            run(events, "iommu", geom, options=options)
        out["iommu"] = f"ModeError: {info.value}"
    return out


def record() -> dict:
    return {
        f"{name}/{opt_name}": digests(events, geom, options)
        for name, (events, geom) in traces().items()
        for opt_name, options in OPTION_SETS.items()
    }


TRACES = traces()


@pytest.mark.parametrize("opt_name", sorted(OPTION_SETS))
@pytest.mark.parametrize("name", sorted(TRACES))
def test_reports_match_golden_digests(name, opt_name):
    want = json.loads(DIGESTS.read_text())[f"{name}/{opt_name}"]
    events, geom = TRACES[name]
    assert digests(events, geom, OPTION_SETS[opt_name]) == want


def test_all_kinds_trace_covers_every_kind():
    for name in ("all_kinds", "all_kinds_no_raw"):
        events, _ = TRACES[name]
        kinds = {ev.kind for ev in events}
        missing = set(EventKind) - kinds
        assert missing <= ({EventKind.DMA_RAW} if name.endswith("no_raw") else set()), name


@pytest.mark.parametrize("raw_dma", [True, False])
def test_replay_does_not_mutate_events(raw_dma):
    events = all_kinds_trace(0x5EED, 700, SMALL, raw_dma=raw_dma)
    pristine = copy.deepcopy(events)
    for dma_policy in (RAW_DMA, NO_DMA):
        for mode in MODES:
            try:
                run(events, mode, SMALL, options=RunOptions(dma_policy=dma_policy))
            except ModeError:
                assert raw_dma and mode == "iommu"
    assert events == pristine


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
