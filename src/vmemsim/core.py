"""Physical-memory geometry, cycle prices and the report's column names.

Physical memory is a pool of equal-sized segments, each holding a fixed
number of equal-sized pages.  Every table in the simulator names a
physical page by its global page number, 0 .. pages_total - 1, counted
across segments; only the segment controller splits it further.

`CostModel`, `COUNTER_NAMES` and `LEDGERS` live here, beside `Geometry`,
because the config parser and the CLI's report writers read them too, and
those must not load the replay engine.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GeometryError

# VmId 0 names the hypervisor in every table; guest ids start at 1 and are
# never reused within a run.
HYPERVISOR = 0

MIN_PAGE_SIZE = 256


class _GeometryFields(NamedTuple):
    page_size_bytes: int = 4096
    pages_per_segment: int = 512
    total_segments: int = 64


class Geometry(_GeometryFields):
    """Shape of the simulated physical memory."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Geometry:
        self = super().__new__(cls, *args, **kwargs)
        p = self.page_size_bytes
        if p < MIN_PAGE_SIZE or (p & (p - 1)) != 0:
            raise GeometryError(
                f"page_size_bytes must be a power of two >= {MIN_PAGE_SIZE}, got {p}"
            )
        if self.pages_per_segment < 1:
            raise GeometryError(
                f"pages_per_segment must be positive, got {self.pages_per_segment}"
            )
        if self.total_segments < 2:
            raise GeometryError(
                f"total_segments must be at least 2, got {self.total_segments}"
            )
        return self

    @property
    def pages_total(self) -> int:
        return self.pages_per_segment * self.total_segments


class _CostModelFields(NamedTuple):
    tlb_hit: int = 1
    pt_walk_level: int = 25
    mpt_check: int = 5
    tlb_flush: int = 200
    swap_page: int = 5000
    context_switch: int = 300
    programmed_io_word: int = 50
    dma_setup: int = 100


class CostModel(_CostModelFields):
    """Cycle prices; each kind's total and the grand total saturate at 2^64-1.

    `run` reads the prices once, after the replay.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CostModel:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"cost {name} must be a non-negative integer")
        return self

    def with_overrides(self, overrides: dict[str, int]) -> CostModel:
        """A validated copy with `overrides` applied (not `_replace`, which skips `__new__`)."""
        bad = set(overrides) - set(self._fields)
        if bad:
            raise ValueError(f"unknown cost keys: {sorted(bad)}")
        return CostModel(**{**self._asdict(), **overrides})


#: the report's counters, in the order of the JSON, CSV and `run -vv` listings
COUNTER_NAMES = (
    "cpu_accesses", "tlb_hits", "tlb_misses", "walk_steps", "mpt_checks", "shadow_update_steps",
    "page_faults", "allocs", "frees", "invalid_frees", "pages_swapped", "dma_ops",
    "dma_completed", "dma_blocked", "dma_walk_steps", "pio_transfers", "context_switches",
    "process_switches", "tlb_flushes", "hw_set_denied",
)

#: the report's ledgers, in the order of the table, CSV and summary columns
LEDGERS = ("isolation_faults", "violations", "dma_faults", "denials", "memory_full", "reclaims")
