"""Physical-memory geometry.

Physical memory is a pool of equal-sized segments, each holding a fixed
number of equal-sized pages.  Every table in the simulator names a
physical page by its global page number, 0 .. pages_total - 1, counted
across segments; only the segment controller splits it further.
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
