"""vmemsim: trace-driven simulator for memory virtualization designs.

The segment controller (MPT ownership, SegMax quotas, VMIDR save slots)
is the primary model; nested paging, shadow tables, DMA remapping, and
per-page protection overlays are the reference designs it is compared
against.  `engine.run` replays a trace under one mode; `engine.compare`
crosses traces with modes; `workload` builds seeded and scripted traces.

The names in `__all__` are looked up in their modules when used, so
`import vmemsim` loads no submodule and a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: module -> the names of `__all__` it defines
_EXPORTS = {
    "baselines": (
        "RemappingTables", "VirtualTlb", "iommu_dma_translate", "nested_translate",
        "shadow_translate",
    ),
    "core": ("ASID_POLICY", "FLUSH_POLICY", "HYPERVISOR", "CostModel", "Geometry"),
    "engine": (
        "MODES", "ComparisonReport", "Counters", "MetricsReport", "RunOptions",
        "canonical_mode", "compare", "run", "static_partition_utilization",
    ),
    "errors": (
        "CapacityError", "ConfigError", "DoubleFreeError", "DuplicateRunError", "GeometryError",
        "LifecycleError", "ModeError", "OutOfRangeError", "ProtocolError", "SimError",
        "SimulationError", "TraceFormatError", "WorkloadError",
    ),
    "events": ("EVENT_FIELDS", "PAGE_MODES", "DmaRequest", "EventKind", "PageMode", "TraceEvent"),
    "promem": ("AllocResult", "IsolationFault", "MemoryFull", "ProMem", "ReclaimNotice"),
    "traceio": ("dumps", "loads", "read_trace", "validate", "write_trace"),
    "workload": (
        "DemandProfile", "WorkloadSpec", "Xorshift64Star", "attack_cross_vm_dma",
        "attack_hyperwall_starvation", "attack_malicious_hypervisor", "generate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """`name` of `__all__`, looked up in its defining module on each use."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
