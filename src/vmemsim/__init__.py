"""vmemsim: trace-driven simulator for memory virtualization designs.

The segment controller (MPT ownership, SegMax quotas, VMIDR save slots)
is the primary model; nested paging, shadow tables, DMA remapping, and
per-page protection overlays are the reference designs it is compared
against.  `engine.run` replays a trace under one mode; `engine.compare`
crosses traces with modes; `workload` builds seeded and scripted traces.
"""

from .baselines import (
    ASID_POLICY,
    FLUSH_POLICY,
    DmaRequest,
    PageMode,
    RemappingTables,
    Requester,
    VirtualTlb,
    iommu_dma_translate,
    nested_translate,
    shadow_translate,
)
from .core import HYPERVISOR, Geometry
from .engine import (
    MODES,
    ComparisonReport,
    CostModel,
    Counters,
    EventKind,
    MetricsReport,
    RunOptions,
    TraceEvent,
    canonical_mode,
    compare,
    run,
    static_partition_utilization,
)
from .errors import (
    CapacityError,
    ConfigError,
    DoubleFreeError,
    DuplicateRunError,
    GeometryError,
    LifecycleError,
    ModeError,
    OutOfRangeError,
    ProtocolError,
    SimError,
    SimulationError,
    TraceFormatError,
    WorkloadError,
)
from .promem import (
    AllocResult,
    IsolationFault,
    MemoryFull,
    ProMem,
    ReclaimNotice,
)
from .traceio import dumps, loads, read_trace, validate, write_trace
from .workload import (
    DemandProfile,
    WorkloadSpec,
    Xorshift64Star,
    attack_cross_vm_dma,
    attack_hyperwall_starvation,
    attack_malicious_hypervisor,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "ASID_POLICY",
    "AllocResult",
    "CapacityError",
    "ComparisonReport",
    "ConfigError",
    "CostModel",
    "Counters",
    "DemandProfile",
    "DmaRequest",
    "DoubleFreeError",
    "DuplicateRunError",
    "EventKind",
    "FLUSH_POLICY",
    "Geometry",
    "GeometryError",
    "HYPERVISOR",
    "IsolationFault",
    "LifecycleError",
    "MODES",
    "MemoryFull",
    "MetricsReport",
    "ModeError",
    "OutOfRangeError",
    "PageMode",
    "ProMem",
    "ProtocolError",
    "ReclaimNotice",
    "RemappingTables",
    "Requester",
    "RunOptions",
    "SimError",
    "SimulationError",
    "TraceEvent",
    "TraceFormatError",
    "VirtualTlb",
    "WorkloadError",
    "WorkloadSpec",
    "Xorshift64Star",
    "canonical_mode",
    "compare",
    "dumps",
    "generate",
    "iommu_dma_translate",
    "loads",
    "nested_translate",
    "read_trace",
    "run",
    "shadow_translate",
    "static_partition_utilization",
    "validate",
    "write_trace",
    "attack_cross_vm_dma",
    "attack_hyperwall_starvation",
    "attack_malicious_hypervisor",
]
