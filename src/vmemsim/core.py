"""Physical-memory geometry and address coordinate types.

Physical memory is a pool of equal-sized segments, each holding a fixed
number of equal-sized pages.  A physical location is the triple
(segment_index, page_index, offset) and its flat byte equivalent is

    flat = ((segment_index * pages_per_segment) + page_index) * page_size + offset

A virtual address is a page/offset pair; how its page number is
interpreted depends on the translation mode, so it carries no geometry
of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GeometryError

# VmId 0 names the hypervisor in every table; guest ids start at 1 and are
# never reused within a run.
HYPERVISOR = 0

MIN_PAGE_SIZE = 256


@dataclass(frozen=True)
class Geometry:
    """Shape of the simulated physical memory."""

    page_size_bytes: int = 4096
    pages_per_segment: int = 512
    total_segments: int = 64

    def __post_init__(self) -> None:
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

    # Bit widths are derived, never stored.
    @property
    def offset_bits(self) -> int:
        return (self.page_size_bytes - 1).bit_length()

    @property
    def page_bits(self) -> int:
        return (self.pages_per_segment - 1).bit_length()

    @property
    def segment_bits(self) -> int:
        return (self.total_segments - 1).bit_length()

    @property
    def segment_bytes(self) -> int:
        return self.page_size_bytes * self.pages_per_segment

    @property
    def pages_total(self) -> int:
        return self.pages_per_segment * self.total_segments

    @property
    def bytes_total(self) -> int:
        return self.page_size_bytes * self.pages_total


@dataclass(frozen=True)
class PhysicalAddress:
    segment_index: int
    page_index: int
    offset: int


@dataclass(frozen=True)
class VirtualAddress:
    vpage: int
    offset: int

    @staticmethod
    def from_flat(flat: int, geom: Geometry) -> "VirtualAddress":
        if flat < 0:
            raise GeometryError(f"negative virtual address {flat}")
        return VirtualAddress(flat // geom.page_size_bytes, flat % geom.page_size_bytes)

    def to_flat(self, geom: Geometry) -> int:
        return self.vpage * geom.page_size_bytes + self.offset


def _check_components(addr: PhysicalAddress, geom: Geometry) -> None:
    if not (0 <= addr.segment_index < geom.total_segments):
        raise GeometryError(f"segment_index {addr.segment_index} out of range")
    if not (0 <= addr.page_index < geom.pages_per_segment):
        raise GeometryError(f"page_index {addr.page_index} out of range")
    if not (0 <= addr.offset < geom.page_size_bytes):
        raise GeometryError(f"offset {addr.offset} out of range")


def encode_flat(addr: PhysicalAddress, geom: Geometry) -> int:
    """Return the flat byte address for a (segment, page, offset) triple."""
    _check_components(addr, geom)
    page = addr.segment_index * geom.pages_per_segment + addr.page_index
    return page * geom.page_size_bytes + addr.offset


def decode_flat(flat: int, geom: Geometry) -> PhysicalAddress:
    """Invert encode_flat; rejects addresses outside the geometry."""
    if not (0 <= flat < geom.bytes_total):
        raise GeometryError(f"flat address {flat} outside 0..{geom.bytes_total - 1}")
    page, offset = divmod(flat, geom.page_size_bytes)
    segment, page_index = divmod(page, geom.pages_per_segment)
    return PhysicalAddress(segment, page_index, offset)


def flat_page(addr: PhysicalAddress, geom: Geometry) -> int:
    """Global page number of a physical address (offset discarded)."""
    _check_components(addr, geom)
    return addr.segment_index * geom.pages_per_segment + addr.page_index


def page_address(page: int, geom: Geometry, offset: int = 0) -> PhysicalAddress:
    """Physical address of a global page number."""
    if not (0 <= page < geom.pages_total):
        raise GeometryError(f"page {page} outside 0..{geom.pages_total - 1}")
    segment, page_index = divmod(page, geom.pages_per_segment)
    addr = PhysicalAddress(segment, page_index, offset)
    _check_components(addr, geom)
    return addr
