"""Construction dispatch for 2-D synopsis types."""

from __future__ import annotations

from repro.errors import SynopsisError
from repro.synopses.multidim.base2d import Synopsis2DBuilder, Synopsis2DType
from repro.synopses.multidim.grid import GridHistogram2DBuilder
from repro.synopses.multidim.ground_truth2d import GroundTruth2DBuilder
from repro.synopses.multidim.wavelet2d import Wavelet2DBuilder
from repro.types import Domain

__all__ = ["create_builder_2d"]


def create_builder_2d(
    synopsis_type: Synopsis2DType,
    domains: tuple[Domain, Domain],
    budget: int,
) -> Synopsis2DBuilder:
    """Instantiate the builder for a 2-D synopsis type."""
    if synopsis_type is Synopsis2DType.GRID:
        return GridHistogram2DBuilder(domains, budget)
    if synopsis_type is Synopsis2DType.WAVELET:
        return Wavelet2DBuilder(domains, budget)
    if synopsis_type is Synopsis2DType.GROUND_TRUTH:
        return GroundTruth2DBuilder(domains, budget)
    raise SynopsisError(f"unknown 2-D synopsis type {synopsis_type!r}")
