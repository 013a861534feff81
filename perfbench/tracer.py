"""Spans around vmemsim's layer boundaries, recorded from outside the program.

`instrument` wraps the public entry points of each module with a span
recorder.  Names are patched wherever they are looked up: `engine`
imports `nested_translate` and friends by name and `cli` does the same
for `read_trace`, `run` and `compare`, so patching only the defining
module would miss those calls.  Spans (name, start, end, parent) stay in
memory in flat arrays and are written out once, at the end of the run.
A layer's self time is its spans' duration minus the child spans they
contain.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from pathlib import Path

_FIELDS = (("name", "H"), ("start_ns", "q"), ("end_ns", "q"), ("parent", "i"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, label=None):
        """Return `fn` recording one span per call.

        `label(args)`, when given, names the span from the call's
        positional arguments instead of `name`.
        """
        fixed = self.name_id(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(fixed if label is None else self.name_id(label(args)))
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def totals(self, since: int = 0) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns and self ns (total minus children).

        Only spans from index `since` on count; they must not be children
        of earlier spans.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        child = [0] * len(starts)
        for i in range(since, len(starts)):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(since, len(starts)):
            nid = self.name_ids[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            total[nid] += dur
            self_ns[nid] += dur - child[i]
        return {
            name: {"calls": calls[i], "total_ns": total[i], "self_ns": self_ns[i]}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write(self, path: str | Path) -> None:
        """One JSON header line, then each field's array in native byte order."""
        header = {
            "names": self.names,
            "count": len(self),
            "fields": [[f, code] for f, code in _FIELDS],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.starts, self.ends, self.parents):
                arr.tofile(fh)


def read_spans(path: str | Path) -> list[tuple[str, int, int, int]]:
    """Read a span file back as (name, start_ns, end_ns, parent index) rows."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for _, code in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            columns.append(arr)
    names = header["names"]
    return [(names[n], s, e, p) for n, s, e, p in zip(*columns)]


# ---------------------------------------------------------------------------
# vmemsim's layer boundaries
# ---------------------------------------------------------------------------


def _layer_table():
    from vmemsim import baselines, cli, engine, promem, traceio, workload

    def run_label(args):
        return "engine.run." + engine.canonical_mode(args[1])

    functions = [
        ("traceio.read_trace", traceio.read_trace, None),
        ("traceio.loads", traceio.loads, None),
        ("traceio.dumps", traceio.dumps, None),
        ("workload.generate", workload.generate, None),
        ("engine.compare", engine.compare, None),
        ("engine.run", engine.run, run_label),
        ("baselines.nested_translate", baselines.nested_translate, None),
        ("baselines.shadow_translate", baselines.shadow_translate, None),
        ("baselines.shadow_update", baselines.shadow_update_vpage, None),
        ("baselines.iommu_dma_translate", baselines.iommu_dma_translate, None),
        ("cli.main", cli.main, lambda args: "cli.main." + args[0][0]),
    ]
    methods = [
        ("engine.apply.asmi", engine.AsmiMachine, "apply"),
        ("engine.apply.baseline", engine.BaselineMachine, "apply"),
        ("engine.sample", engine.AsmiMachine, "sample"),
        ("engine.sample", engine.BaselineMachine, "sample"),
        ("promem.allocate_page", promem.ProMem, "allocate_page"),
        ("promem.owned_segments", promem.ProMem, "owned_segments"),
        ("promem.allocated_pages", promem.ProMem, "allocated_pages"),
        ("promem.free_page", promem.ProMem, "free_page"),
        ("promem.translate", promem.ProMem, "translate"),
        ("promem.check_owner", promem.ProMem, "check_owner"),
        ("baselines.tlb_lookup", baselines.VirtualTlb, "lookup"),
        ("baselines.tlb_insert", baselines.VirtualTlb, "insert"),
        ("baselines.unmap_phys", baselines.RemappingTables, "unmap_phys"),
        ("baselines.map_page", baselines.RemappingTables, "map_page"),
        ("report.to_dict", engine.MetricsReport, "to_dict"),
        ("report.table", engine.ComparisonReport, "to_table"),
    ]
    return functions, methods


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record spans at vmemsim's layer boundaries; restore every name after."""
    functions, methods = _layer_table()
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "vmemsim" or name.startswith("vmemsim."))
    ]
    undo = []
    try:
        for name, fn, label in functions:
            traced = tracer.wrap(name, fn, label)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, attr, fn))
                        setattr(module, attr, traced)
        for name, cls, attr in methods:
            fn = cls.__dict__[attr]
            undo.append((cls, attr, fn))
            setattr(cls, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
