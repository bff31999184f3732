"""Histogram-mode centroid estimation for sparse frustum pointclouds.

Dense learned representations degrade badly on the handful of points a
faraway object returns; a per-axis histogram mode is robust there because
surface returns concentrate in one bin while stray background points
scatter. The estimate is the modal bin's midpoint, independently per axis.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyCluster
from .kitti_io import PointCloud

DEFAULT_BIN_WIDTH = 0.1  # meters, finer than any target object's surface spread


class AxisHistogram(NamedTuple):
    """Fixed-width histogram over one coordinate axis."""

    edges: np.ndarray   # (n_bins + 1,) float64 contiguous bin edges
    counts: np.ndarray  # (n_bins,) int64


def axis_histogram(values: np.ndarray, bin_width: float = DEFAULT_BIN_WIDTH) -> AxisHistogram:
    """Bin values into contiguous fixed-width bins covering [min, max].

    Bin edges sit at min + k*bin_width; the final bin is padded so it
    contains max. Bins are half-open [e_left, e_right) except the last,
    which is closed on the right.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise EmptyCluster("cannot histogram zero values")
    if not bin_width > 0:
        raise ConfigError(f"bin_width must be positive, got {bin_width}")
    vmin = float(vals.min())
    vmax = float(vals.max())
    n_bins = max(1, int(np.ceil((vmax - vmin) / bin_width)))
    edge_vals = vmin + np.arange(n_bins + 1, dtype=np.float64) * bin_width
    # Last left edge <= v guarantees idx in [0, n_bins - 1] for v in [min, max].
    idx = np.searchsorted(edge_vals[:-1], vals, side="right") - 1
    counts = np.bincount(idx, minlength=n_bins)
    return AxisHistogram(edge_vals, counts)


def estimate_centroid(
    cloud: PointCloud, bin_width: float = DEFAULT_BIN_WIDTH
) -> tuple[float, float, float]:
    """Estimate the object centroid as per-axis modal-bin midpoints.

    Run after frustum rotation, so the returned z is directly the depth
    used for faraway routing.
    """
    if len(cloud) == 0:
        raise EmptyCluster("cannot estimate a centroid from zero points")
    mids = []
    for col in range(3):
        edges, counts = axis_histogram(cloud.points[:, col], bin_width)
        i = int(np.argmax(counts))  # ties go to the lowest bin
        mids.append(0.5 * (float(edges[i]) + float(edges[i + 1])))
    return (mids[0], mids[1], mids[2])
