"""Histogram-mode centroid estimation for sparse frustum pointclouds.

Dense learned representations degrade badly on the handful of points a
faraway object returns; a per-axis histogram mode is robust there because
surface returns concentrate in one bin while stray background points
scatter. The estimate is the modal bin's midpoint, independently per axis.
``modal_midpoints`` is that rule's one implementation, for the frustum chain
and ``estimate_centroid``; no pipeline path calls ``axis_histogram``.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyCluster
from .kitti_io import MAX_POINT_RANGE_M, PointCloud

DEFAULT_BIN_WIDTH = 0.1  # meters, finer than any target object's surface spread
MAX_BINS = 1 << 20  # 8 MB each of edges and counts
MIN_BIN_WIDTH = 0.05  # a rigid mount keeps 10 km points within 17.6 km: 35.2 km / 0.05 < MAX_BINS


class AxisHistogram(NamedTuple):
    """Fixed-width histogram over one coordinate axis."""

    edges: np.ndarray   # (n_bins + 1,) float64 contiguous bin edges
    counts: np.ndarray  # (n_bins,) int64


def _bin_count(spread: float, bin_width: float) -> float:
    """ceil(spread / bin_width), the bins of a (max - min) spread; ConfigError
    unless bin_width lies in (0, MAX_POINT_RANGE_M] and the count in MAX_BINS."""
    if not 0 < bin_width <= MAX_POINT_RANGE_M:
        raise ConfigError(f"bin_width must be in (0, {MAX_POINT_RANGE_M:g}] m, got {bin_width}")
    count = np.ceil(float(spread) / float(bin_width))  # a float's overflow is inf, silently
    if not count <= MAX_BINS:
        raise ConfigError(f"bin_width {bin_width:g} splits a {spread:g} m spread "
                          f"into more than {MAX_BINS} bins")
    return count


def axis_histogram(values: np.ndarray, bin_width: float = DEFAULT_BIN_WIDTH) -> AxisHistogram:
    """Bin values into contiguous fixed-width bins covering [min, max].

    Bin edges sit at min + k*bin_width; the final bin is padded so it
    contains max. Bins are half-open [e_left, e_right) except the last,
    which is closed on the right. Raises ConfigError past MAX_BINS bins.
    """
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if vals.size == 0:
        raise EmptyCluster("cannot histogram zero values")
    vmin = float(vals.min())
    vmax = float(vals.max())
    n_bins = max(1, int(_bin_count(vmax - vmin, bin_width)))
    edge_vals = vmin + np.arange(n_bins + 1, dtype=np.float64) * bin_width
    # Last left edge <= v guarantees idx in [0, n_bins - 1] for v in [min, max].
    idx = np.searchsorted(edge_vals[:-1], vals, side="right") - 1
    counts = np.bincount(idx, minlength=n_bins)
    return AxisHistogram(edge_vals, counts)


def modal_midpoints(
    values: np.ndarray, bounds: np.ndarray, bin_width: float = DEFAULT_BIN_WIDTH
) -> np.ndarray:
    """The midpoint of the fullest bin of axis_histogram(values[bounds[k]:bounds[k + 1]])
    for every segment k, bit for bit; ties go to the lowest bin.

    Every segment must hold a value and span at most MAX_BINS bins, as every
    frustum of a CalibrationSet does at a bin_width of at least
    MIN_BIN_WIDTH. A value's bin is estimated by a floor, then corrected
    against the edges vmin + j * bin_width, computed as axis_histogram
    computes them. The bins are counted densely (one bincount) while the
    segments span at most 4 * len(values) + 65536 bins in all, else by
    sorting their keys, so memory grows with the values, not with the spans.
    """
    bounds = np.asarray(bounds)
    sizes = np.diff(bounds)
    vmin = np.minimum.reduceat(values, bounds[:-1])
    vmax = np.maximum.reduceat(values, bounds[:-1])
    n_bins = np.maximum(np.ceil((vmax - vmin) / bin_width), 1.0).astype(np.int64)
    low, top = np.repeat(vmin, sizes), np.repeat(n_bins - 1, sizes)
    j = np.minimum(np.floor((values - low) / bin_width), top).astype(np.int64)  # values >= low
    while (high := low + j * bin_width > values).any():
        j -= high
    while (short := (j < top) & (low + (j + 1) * bin_width <= values)).any():
        j += short
    # keys order by segment, then bin: each segment's first fullest key is its lowest modal bin
    offsets = np.cumsum(n_bins) - n_bins
    keys = np.repeat(offsets, sizes) + j
    if n_bins.sum() <= 4 * len(values) + 65536:  # every bin counted: key k at index k
        counts, first, keys = np.bincount(keys, minlength=n_bins.sum()), offsets, None
    else:  # only the occupied keys, sorted
        keys, counts = np.unique(keys, return_counts=True)
        first = np.searchsorted(keys, offsets)
    fullest = np.repeat(np.maximum.reduceat(counts, first), np.diff(first, append=len(counts)))
    modal = np.flatnonzero(counts == fullest)
    i = modal[np.searchsorted(modal, first)]
    i = ((i if keys is None else keys[i]) - offsets).astype(np.float64)
    return 0.5 * ((vmin + i * bin_width) + (vmin + (i + 1) * bin_width))


def estimate_centroid(
    cloud: PointCloud, bin_width: float = DEFAULT_BIN_WIDTH
) -> tuple[float, float, float]:
    """Estimate the object centroid as per-axis modal-bin midpoints.

    One modal_midpoints call over the x, y and z columns. Run after frustum
    rotation, so the returned z is directly the depth used for faraway
    routing. Raises EmptyCluster on zero points, ConfigError as axis_histogram.
    """
    pts = np.asarray(cloud.points, dtype=np.float64)
    if len(pts) == 0:
        raise EmptyCluster("cannot histogram zero values")
    _bin_count(float((pts.max(axis=0) - pts.min(axis=0)).max()), bin_width)  # the widest axis
    return tuple(modal_midpoints(pts.T.ravel(), np.arange(4) * len(pts), bin_width).tolist())
