"""Geometry shape and validation."""

import pytest

from vmemsim.core import Geometry
from vmemsim.errors import GeometryError


def test_default_geometry_shape():
    g = Geometry()
    assert (g.page_size_bytes, g.pages_per_segment, g.total_segments) == (4096, 512, 64)
    assert g.pages_total == 512 * 64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"page_size_bytes": 100},      # not a power of two
        {"page_size_bytes": 128},      # below the minimum
        {"page_size_bytes": 0},
        {"pages_per_segment": 0},
        {"total_segments": 1},
        {"total_segments": 0},
    ],
)
def test_geometry_rejects_bad_shapes(kwargs):
    with pytest.raises(GeometryError):
        Geometry(**kwargs)
