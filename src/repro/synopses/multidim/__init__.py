"""Two-dimensional synopses for composite-key indexes (paper §5)."""

from repro.synopses.multidim.base2d import (
    Synopsis2D,
    Synopsis2DBuilder,
    Synopsis2DType,
)
from repro.synopses.multidim.factory2d import create_builder_2d
from repro.synopses.multidim.grid import GridHistogram2D, GridHistogram2DBuilder
from repro.synopses.multidim.ground_truth2d import (
    GroundTruth2D,
    GroundTruth2DBuilder,
)
from repro.synopses.multidim.wavelet2d import (
    DEFAULT_GRID_LEVELS,
    Wavelet2DBuilder,
    Wavelet2DSynopsis,
    haar_transform_dense,
)

__all__ = [
    "Synopsis2D",
    "Synopsis2DBuilder",
    "Synopsis2DType",
    "GridHistogram2D",
    "GridHistogram2DBuilder",
    "Wavelet2DSynopsis",
    "Wavelet2DBuilder",
    "haar_transform_dense",
    "DEFAULT_GRID_LEVELS",
    "GroundTruth2D",
    "GroundTruth2DBuilder",
    "create_builder_2d",
]
