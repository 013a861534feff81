"""Metamorphic relations: an oracle for every mode on traces with no recorded report.

Each relation rewrites a trace (and maybe its geometry) in a way that must
change only named fields of the report's ledger records, by a known map.
Replaying both traces and mapping the first report's fields must give the
second report exactly, in every mode, under each option set of CI's
`compare --check-invariants` loop.  The invariant checks themselves are left
off: they change no report, cost about seven times the replay, and
test_engine runs them.

  seq        every seq becomes 3*seq + 1000; so do the ledgers' `seq` fields.
  cpu        cpus 0 and 1 swap; so do the ledgers' `cpu` fields.
  page size  `page_size_bytes` doubles with every `vaddr` and `dva`; so do the
             ledgers' `dva` fields.  Under `--dma-policy off` a PIO transfer is
             priced per word of a page, so this one holds under raw DMA only.

VM ids cannot be relabelled: the controller assigns them in order, and
reclaim ties go to the lowest vm.
"""

import copy
from operator import attrgetter
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from test_golden import SMALL, TRACES, all_kinds_trace
from vmemsim.core import FLUSH_POLICY, NO_DMA, Geometry
from vmemsim.engine import MODES, RunOptions, run
from vmemsim.errors import SimError
from vmemsim.events import FIELD_ORDER, TraceEvent

#: the option sets of CI's `compare --check-invariants` loop
OPTION_SETS = {
    "default": RunOptions(),
    "tlb_entries_3": RunOptions(tlb_entries=3),
    "flush": RunOptions(tlb_policy=FLUSH_POLICY),
    "no_tlb": RunOptions(tlb_entries=0),
    "dma_off": RunOptions(dma_policy=NO_DMA),
    "sample_every_event": RunOptions(sample_interval=1),
}


class Relation(NamedTuple):
    fields: dict[str, Callable[[int], int]]          # event field -> its map
    ledger_fields: dict[str, Callable[[int], int]]   # ledger record field -> its map
    page_scale: int = 1                               # the factor on page_size_bytes
    raw_dma_only: bool = False


def _swap_cpu(cpu: int) -> int:
    return {0: 1, 1: 0}.get(cpu, cpu)


def _twice(n: int) -> int:
    return 2 * n


def _seq(seq: int) -> int:
    return 3 * seq + 1000


RELATIONS = {
    "seq": Relation({"seq": _seq}, {"seq": _seq}),
    "cpu": Relation({"cpu": _swap_cpu}, {"cpu": _swap_cpu}),
    "page_size": Relation({"vaddr": _twice, "dva": _twice}, {"dva": _twice}, page_scale=2,
                          raw_dma_only=True),
}

_values = attrgetter(*FIELD_ORDER)


def _rewrite(events: list[TraceEvent], maps: dict[str, Callable[[int], int]]) -> list[TraceEvent]:
    out = []
    for ev in events:
        fields = dict(zip(FIELD_ORDER, _values(ev)))
        for name, f in maps.items():
            if fields[name] is not None:
                fields[name] = f(fields[name])
        out.append(TraceEvent(**fields))
    return out


def _report(events: list[TraceEvent], mode: str, geom: Geometry, options: RunOptions):
    """The report's dict, or the type of the SimError the replay raised."""
    try:
        return run(events, mode, geom, options=options).to_dict()
    except SimError as exc:
        return type(exc)


def _mapped(report, maps: dict[str, Callable[[int], int]]):
    if isinstance(report, type):
        return report
    for records in report["ledgers"].values():
        for record in records:
            for name, f in maps.items():
                if name in record:
                    record[name] = f(record[name])
    return report


def _applies(relation: Relation, options: RunOptions) -> bool:
    return not (relation.raw_dma_only and options.dma_policy == NO_DMA)


def check(events: list[TraceEvent], geom: Geometry, options: RunOptions,
          related: dict[str, list[TraceEvent]]) -> None:
    """Check each relation named in `related`, the trace it makes of `events`, in every mode."""
    for mode in MODES:
        report = _report(events, mode, geom, options)
        for name, other in related.items():
            relation = RELATIONS[name]
            want = _mapped(copy.deepcopy(report), relation.ledger_fields)
            big = geom._replace(page_size_bytes=geom.page_size_bytes * relation.page_scale)
            assert _report(other, mode, big, options) == want, (name, mode)


#: each golden trace rewritten by each relation
RELATED = {trace: {name: _rewrite(events, relation.fields) for name, relation in RELATIONS.items()}
           for trace, (events, _) in TRACES.items()}


@pytest.mark.parametrize("opt_name", sorted(OPTION_SETS))
def test_golden_traces_keep_each_relation(opt_name):
    options = OPTION_SETS[opt_name]
    for trace, (events, geom) in TRACES.items():
        related = {name: other for name, other in RELATED[trace].items()
                   if _applies(RELATIONS[name], options)}
        check(events, geom, options, related)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.booleans(),
       st.sampled_from(sorted(OPTION_SETS)))
def test_fuzzed_traces_keep_each_relation(seed, length, raw_dma, opt_name):
    options = OPTION_SETS[opt_name]
    events = all_kinds_trace(seed, length, SMALL, raw_dma)
    related = {name: _rewrite(events, relation.fields) for name, relation in RELATIONS.items()
               if _applies(relation, options)}
    check(events, SMALL, options, related)


def test_the_page_size_relation_needs_raw_dma():
    # a PIO transfer moves each word of a page through the CPU: doubling the
    # page doubles its price, so the relation is rightly left out under dma off
    events, geom = TRACES["cross_vm_dma"]
    related = {"page_size": RELATED["cross_vm_dma"]["page_size"]}
    with pytest.raises(AssertionError):
        check(events, geom, OPTION_SETS["dma_off"], related)
