"""Workload generator and the scripted attack traces."""

import copy
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import workload_reference
from vmemsim.core import Geometry
from vmemsim.engine import MODES, run
from vmemsim.errors import WorkloadError
from vmemsim.events import FIELD_ORDER, FULL_LAYOUT, EventKind
from vmemsim.traceio import dumps, validate
from vmemsim.workload import (
    DemandProfile,
    WorkloadSpec,
    Xorshift64Star,
    attack_cross_vm_dma,
    attack_hyperwall_starvation,
    attack_malicious_hypervisor,
    generate,
)

TINY = Geometry(256, 4, 8)
ROOMY = Geometry(256, 4, 16)


# ---------------------------------------------------------------------------
# PRNG
# ---------------------------------------------------------------------------


def test_xorshift_frozen_streams():
    # expected values computed with an independent implementation
    assert [Xorshift64Star(1).next_u64() for _ in [0]][0] == 0x47E4CE4B896CDD1D
    rng = Xorshift64Star(1)
    assert [rng.next_u64() for _ in range(4)] == [
        0x47E4CE4B896CDD1D,
        0xABCFA6A8E079651D,
        0xB9D10D8FEB731F57,
        0x4DB418A0BB1B019D,
    ]
    rng42 = Xorshift64Star(42)
    assert rng42.next_u64() == 0x56CE4AB7719BA3A0
    assert rng42.next_u64() == 0xC841EB53EBBB2DDA


def test_xorshift_zero_seed_is_remapped():
    z = Xorshift64Star(0)
    assert z.next_u64() == 0x0D83B3E29A21487A
    zero, remapped = Xorshift64Star(0), Xorshift64Star(0x9E3779B97F4A7C15)
    assert [zero.next_u64() for _ in range(100)] == [remapped.next_u64() for _ in range(100)]


# 2**64 is remapped like 0, and -1 draws as 2**64 - 1
@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 2**64, -1, 0xD1B54A32D192ED03])
def test_the_lane_kernel_draws_the_scalar_stream(seed):
    # 300,000 draws span eight blocks: 16, 32, 64 and 128 lanes, then 256 lanes four times
    n = 300_000
    fast, scalar = Xorshift64Star(seed).next_u64, workload_reference.Xorshift64Star(seed).next_u64
    assert [fast() for _ in range(n)] == [scalar() for _ in range(n)]


def test_below_frozen_sequence():
    rng = Xorshift64Star(7)
    assert [rng.below(10) for _ in range(8)] == [2, 8, 4, 8, 1, 6, 5, 2]
    with pytest.raises(ValueError):
        rng.below(0)


def test_chance_bounds():
    rng = Xorshift64Star(3)
    assert not any(rng.chance(0) for _ in range(50))
    assert all(rng.chance(1_000_000) for _ in range(50))


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def spec(**kw):
    base = dict(
        seed=1,
        vm_count=2,
        events=200,
        demand=(DemandProfile(4, 0.2, 0.5), DemandProfile(3, 0.1, 0.5)),
        dma_rate=0.05,
        switch_rate=0.05,
    )
    base.update(kw)
    return WorkloadSpec(**base)


def test_spec_rejects_bad_shapes():
    with pytest.raises(WorkloadError):
        spec(vm_count=-1, demand=())
    with pytest.raises(WorkloadError):
        spec(demand=(DemandProfile(4),))           # one profile for two VMs
    with pytest.raises(WorkloadError):
        spec(dma_rate=1.5)
    with pytest.raises(WorkloadError):
        DemandProfile(-1)
    with pytest.raises(WorkloadError):
        DemandProfile(4, churn_rate=2.0)


def test_generate_rejects_oversubscribed_working_sets():
    fat = (DemandProfile(20), DemandProfile(20))   # 40 > 32 - 3 reserved
    with pytest.raises(WorkloadError):
        generate(spec(demand=fat), TINY)


def test_generate_rejects_too_many_vms():
    profiles = tuple(DemandProfile(1) for _ in range(8))
    with pytest.raises(WorkloadError):
        generate(spec(vm_count=8, demand=profiles), TINY)   # 9 owners, 8 segments


def test_generate_rejects_events_below_preamble():
    with pytest.raises(WorkloadError):
        generate(spec(events=3), ROOMY)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_zero_vms_means_empty_trace():
    assert generate(WorkloadSpec(seed=1, vm_count=0, events=50, demand=())) == []


def test_generate_is_deterministic():
    a = generate(spec(), ROOMY)
    b = generate(spec(), ROOMY)
    assert a == b
    c = generate(spec(seed=2), ROOMY)
    assert a != c


def test_generate_exact_length_and_shape():
    t = generate(spec(events=300), ROOMY)
    assert len(t) == 300
    assert [e.seq for e in t] == list(range(1, 301))
    assert [e.kind for e in t[:2]] == [EventKind.CREATE_VM] * 2
    assert [e.kind for e in t[2:4]] == [EventKind.DOMAIN_ASSIGN] * 2
    validate(t)


def test_generated_traces_replay_everywhere():
    t = generate(spec(events=600), ROOMY)
    for mode in MODES:
        rep = run(t, mode, ROOMY)
        assert rep.events == 600
        assert not rep.violations or mode != "asmi"


def test_working_sets_are_respected():
    t = generate(spec(events=500, dma_rate=0.0, switch_rate=0.0), ROOMY)
    allocs = sum(1 for e in t if e.kind == EventKind.ALLOC)
    frees = sum(1 for e in t if e.kind == EventKind.FREE)
    assert allocs - frees <= 4 + 3            # never above the combined working sets
    assert allocs >= 7                        # both VMs reach their sets


def test_hypervisor_stays_idle():
    t = generate(spec(events=400), ROOMY)
    current = 0
    for e in t:
        if e.kind == EventKind.ENTER:
            current = e.vm
        elif e.kind == EventKind.EXIT:
            current = 0
        elif e.kind in (EventKind.READ, EventKind.WRITE):
            assert current != 0               # demand accesses only run in guests


# ---------------------------------------------------------------------------
# the one-call-per-draw generator against the draw-by-draw reference
# ---------------------------------------------------------------------------

RATES = [0.0, 0.05, 0.5, 1.0]
# from a pool with room for one VM to the default geometry
ORACLE_GEOMETRIES = [Geometry(256, 1, 2), Geometry(256, 2, 4), TINY, ROOMY, Geometry()]


@st.composite
def workload_specs(draw):
    """A spec of 0-6 VMs whose working sets and length may or may not fit a geometry."""
    vm_count = draw(st.integers(0, 6))
    profile = st.builds(DemandProfile, st.integers(0, 12), st.sampled_from(RATES),
                        st.sampled_from(RATES))
    return WorkloadSpec(
        seed=draw(st.integers(0, 2**64 - 1)),
        vm_count=vm_count,
        events=draw(st.integers(max(0, 2 * vm_count - 2), 2 * vm_count + 150)),
        demand=tuple(draw(st.lists(profile, min_size=vm_count, max_size=vm_count))),
        dma_rate=draw(st.sampled_from(RATES)),
        switch_rate=draw(st.sampled_from(RATES)),
    )


def _generated(generator, workload, geom):
    try:
        trace = generator(workload, geom)
    except WorkloadError as exc:
        return f"WorkloadError: {exc}"
    # each event's class too: equality alone does not see a wrong layout
    return trace, [type(ev) for ev in trace], dumps(trace)


@settings(max_examples=300, deadline=None)
@given(workload_specs(), st.sampled_from(ORACLE_GEOMETRIES))
def test_generate_matches_the_reference(workload, geom):
    assert _generated(generate, workload, geom) == _generated(
        workload_reference.generate, workload, geom
    )


def _kept_bytes(build):
    """The bytes still allocated after `build()`, and its result."""
    tracemalloc.start()
    try:
        result = build()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, result


def test_generated_events_take_under_60_percent_of_18_slot_events():
    # read_hot's shape: three VMs, resident working sets, reads and writes, rare switches
    spec = WorkloadSpec(seed=1, vm_count=3, events=20_000,
                        demand=(DemandProfile(48, 0.0, 0.9),) * 3, switch_rate=0.01)
    trace = generate(spec, Geometry(4096, 512, 64))
    assert sum(ev.kind in (EventKind.READ, EventKind.WRITE) for ev in trace) > 19_000
    # copies share the field values, so each side counts the event objects and one list
    layouts, copies = _kept_bytes(lambda: [copy.copy(ev) for ev in trace])
    full, full_copies = _kept_bytes(
        lambda: [FULL_LAYOUT(*(getattr(ev, name) for name in FIELD_ORDER)) for ev in trace])
    assert copies == trace == full_copies
    assert {type(ev) for ev in full_copies} == {FULL_LAYOUT}
    assert layouts < 0.6 * full, (layouts, full)


# ---------------------------------------------------------------------------
# attack traces
# ---------------------------------------------------------------------------


def test_attack_builders_validate_geometry():
    with pytest.raises(WorkloadError):
        attack_cross_vm_dma(Geometry(256, 4, 4))
    with pytest.raises(WorkloadError):
        attack_malicious_hypervisor(Geometry(256, 1, 8))
    with pytest.raises(WorkloadError):
        attack_hyperwall_starvation(Geometry(256, 2, 8))


def test_attack_trace_shapes():
    pps = TINY.pages_per_segment
    assert len(attack_cross_vm_dma(TINY)) == 4 + (pps + 1) + pps + 1
    assert len(attack_malicious_hypervisor(TINY)) == 1 + (pps + 1) + 2
    assert len(attack_hyperwall_starvation(TINY)) == 3 + 2 * (TINY.pages_total - 2) + 1 + pps
    for build in (attack_cross_vm_dma, attack_malicious_hypervisor, attack_hyperwall_starvation):
        validate(build(TINY))


def test_cross_vm_dma_outcomes_per_mode():
    t = attack_cross_vm_dma(TINY)
    asmi = run(t, "asmi", TINY)
    assert len(asmi.isolation_faults) == 1
    assert asmi.isolation_faults[0].vmid == 1
    assert asmi.isolation_faults[0].segment == 2      # vm2's reserved segment
    assert asmi.counters.dma_blocked == 1

    nested = run(t, "nested", TINY)
    assert [(v.source, v.vm, v.owner) for v in nested.violations] == [("dma", 1, 2)]
    assert nested.counters.dma_completed == 1

    iommu = run(t, "iommu", TINY)
    assert [f.reason for f in iommu.dma_faults] == ["no_mapping"]
    assert iommu.violations == []


def test_malicious_hypervisor_outcomes_per_mode():
    t = attack_malicious_hypervisor(TINY)
    asmi = run(t, "asmi", TINY)
    assert len(asmi.isolation_faults) == 1
    fault = asmi.isolation_faults[0]
    assert (fault.vmid, fault.segment, fault.owner) == (0, 1, 1)
    assert asmi.violations == []

    for mode in ("nested", "nested_shadow", "iommu", "hyperwall"):
        rep = run(t, mode, TINY)
        assert [(v.source, v.vm, v.owner) for v in rep.violations] == [("cpu", 0, 1)], mode
        assert rep.isolation_faults == []


def test_starvation_outcomes_per_mode():
    t = attack_hyperwall_starvation(TINY)
    walled = run(t, "hyperwall", TINY)
    assert [m.vm for m in walled.memory_full] == [2, 2]
    assert walled.final_pages[2] == 2                 # victim got only the loose pages

    asmi = run(t, "asmi", TINY)
    assert asmi.memory_full == []
    assert asmi.final_pages[2] == TINY.pages_per_segment + 1   # all served, plus slot
    assert len(asmi.reclaims) == 1
    assert asmi.reclaims[0].victim == 1

    plain = run(t, "nested", TINY)
    assert plain.memory_full == []                    # unlocked pages are reclaimable
    assert plain.counters.pages_swapped == 2
