import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfrustum.clustering import (
    MAX_BINS,
    MIN_BIN_WIDTH,
    axis_histogram,
    estimate_centroid,
    modal_midpoints,
)
from farfrustum.errors import ConfigError, EmptyCluster
from farfrustum.geometry import lidar_to_camera, rot_y
from farfrustum.kitti_io import (
    MAX_MOUNT_OFFSET_M,
    MAX_POINT_RANGE_M,
    CalibrationSet,
    Frame,
    PointCloud,
)

import oracles
from conftest import random_calibration


class TestAxisHistogram:
    def test_single_value(self):
        hist = axis_histogram([5.0], 0.1)
        assert hist.edges.tolist() == [5.0, 5.1]
        assert hist.counts.tolist() == [1]

    def test_hand_binned_counts(self):
        hist = axis_histogram([0.0, 0.05, 0.25], 0.1)
        assert hist.counts.tolist() == [2, 0, 1]

    def test_empty_values(self):
        with pytest.raises(EmptyCluster):
            axis_histogram([], 0.1)

    def test_bad_width(self):
        with pytest.raises(ConfigError, match="bin_width"):
            axis_histogram([1.0], 0.0)

    @pytest.mark.parametrize("values, width", [
        ([0.0, 1.0], 1e-310),           # the bin count overflows to inf
        ([0.0, 1.0], 1e-7),             # ten million bins per metre
        ([-8e3, 8e3], 0.01),            # a spread far wider than any frustum
        ([-1e308, 1e308], 0.1),         # the spread itself overflows
        ([0.0, 1.0], np.float64(1e-310)),  # a numpy width once warned of the overflow
    ])
    def test_too_many_bins_is_refused_before_allocating(self, values, width):
        with pytest.raises(ConfigError, match="bins"):
            axis_histogram(values, width)

    def test_edges_contiguous_and_counts_sum(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-3, 3, 200)
        hist = axis_histogram(values, 0.17)
        assert int(hist.counts.sum()) == 200
        assert len(hist.edges) == len(hist.counts) + 1
        assert (np.diff(hist.edges) > 0).all()

    def test_matches_scan_oracle_on_random_values(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = rng.integers(1, 200)
            width = float(rng.uniform(0.05, 0.5))
            values = rng.uniform(-10, 10, n)
            hist = axis_histogram(values, width)
            left, right, counts, best = oracles.histogram_by_scan(values.tolist(), width)
            assert hist.counts.tolist() == counts
            assert hist.edges[:-1].tolist() == left
            assert hist.edges[1:].tolist() == right
            assert int(np.argmax(hist.counts)) == best


def _cloud(points):
    return PointCloud(points, Frame.FRUSTUM)


class TestEstimateCentroid:
    def test_single_point_lands_in_containing_bin(self):
        centroid = estimate_centroid(_cloud([[3.0, 1.0, 62.0]]), 0.1)
        for got, want in zip(centroid, (3.0, 1.0, 62.0)):
            assert abs(got - want) <= 0.05 + 1e-12

    def test_bimodal_depth_picks_dominant_mode(self):
        points = [[10.0, 0.0, 60.0]] * 8 + [[10.0, 0.0, 40.0]] * 2
        centroid = estimate_centroid(_cloud(points), 0.1)
        assert abs(centroid[2] - 60.0) <= 0.05 + 1e-12

    def test_identical_points(self):
        points = [[1.25, -0.5, 71.0]] * 7
        centroid = estimate_centroid(_cloud(points), 0.1)
        for got, want in zip(centroid, (1.25, -0.5, 71.0)):
            assert abs(got - want) <= 0.05 + 1e-12

    def test_empty_cloud(self):
        with pytest.raises(EmptyCluster):
            estimate_centroid(_cloud(np.zeros((0, 3))), 0.1)

    @pytest.mark.parametrize("width", [0.0, -0.1, math.nan, math.inf, 1e308,
                                       2 * MAX_POINT_RANGE_M])
    def test_bin_width_out_of_bounds_is_refused(self, width):
        # inf once made nan midpoints with a warning, and 1e308 (5e307, 5e307, 5e307)
        with pytest.raises(ConfigError, match="bin_width"):
            estimate_centroid(_cloud([[1.0, 2.0, 3.0]]), width)
        with pytest.raises(ConfigError, match="bin_width"):
            axis_histogram([1.0], width)

    @pytest.mark.parametrize("width", [1e-310, 1e-7])
    def test_too_many_bins_is_refused(self, width):
        with pytest.raises(ConfigError, match="bins"):
            estimate_centroid(_cloud([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), width)

    def test_a_float32_cloud_gives_the_centroid_of_its_float64_values(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            pts = rng.uniform(-90, 90, size=(int(rng.integers(1, 40)), 3)).astype(np.float32)
            want = oracles.centroid_by_scan(pts.astype(np.float64).tolist(), 0.1)
            assert estimate_centroid(_cloud(pts), 0.1) == tuple(want)

    def test_centroid_within_value_range(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            pts = rng.uniform(-40, 90, size=(int(rng.integers(1, 50)), 3))
            centroid = estimate_centroid(_cloud(pts), 0.1)
            for axis in range(3):
                lo, hi = pts[:, axis].min(), pts[:, axis].max()
                # midpoint of a bin overlapping [lo, hi] stays within half a bin
                assert lo - 0.05 <= centroid[axis] <= hi + 0.05

    @given(st.permutations(list(range(12))))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, order):
        rng = np.random.default_rng(99)
        pts = rng.uniform(-5, 5, size=(12, 3))
        base = estimate_centroid(_cloud(pts), 0.1)
        shuffled = estimate_centroid(_cloud(pts[order]), 0.1)
        assert base == shuffled

    def test_duplicating_modal_points_keeps_selected_bin(self):
        rng = np.random.default_rng(71)
        pts = rng.uniform(0, 2, size=(20, 3))
        width = 0.1
        centroid = estimate_centroid(_cloud(pts), width)
        modal = []
        for axis in range(3):
            left, right, _, best = oracles.histogram_by_scan(pts[:, axis].tolist(), width)
            sel = [
                p for p in pts
                if left[best] <= p[axis] < right[best]
                or (best == len(left) - 1 and p[axis] >= left[best])
            ]
            modal.append(np.array(sel))
        # duplicate the z-modal points: min/max unchanged, modal count only grows
        dup = np.vstack([pts, modal[2]])
        centroid_dup = estimate_centroid(_cloud(dup), width)
        assert centroid_dup[2] == centroid[2]

    def test_matches_scan_oracle_on_random_clouds(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            pts = rng.uniform(-20, 80, size=(int(rng.integers(1, 50)), 3))
            got = estimate_centroid(_cloud(pts), 0.1)
            want = oracles.centroid_by_scan(pts.tolist(), 0.1)
            assert got == tuple(pytest.approx(w, abs=0) for w in want)

    def test_tie_broken_by_lowest_bin(self):
        # two bins with equal counts: [0.0, 0.1) and [0.2, 0.3]
        pts = [[0.01, 0.0, 0.0], [0.05, 0.0, 0.0], [0.21, 0.0, 0.0], [0.25, 0.0, 0.0]]
        centroid = estimate_centroid(_cloud(pts), 0.1)
        assert centroid[0] == pytest.approx(0.01 + 0.05)


def _same_midpoints(values_by_segment, width):
    """modal_midpoints over all segments against the midpoint of the fullest bin of
    axis_histogram of each, the lowest on a tie, bit for bit."""
    values = np.concatenate([np.asarray(v, dtype=np.float64) for v in values_by_segment])
    bounds = np.cumsum([0] + [len(v) for v in values_by_segment])
    got = modal_midpoints(values, bounds, width)
    assert got.shape == (len(values_by_segment),)
    for mid, segment in zip(got, values_by_segment):
        edges, counts = axis_histogram(segment, width)
        i = int(np.argmax(counts))
        want = 0.5 * (float(edges[i]) + float(edges[i + 1]))
        assert np.float64(mid).tobytes() == np.float64(want).tobytes()


def test_modal_midpoints_hand_cases():
    _same_midpoints([
        [0.01, 0.05, 0.21, 0.25],   # a tie, broken by the lowest bin
        [5.0],                       # a single point
        [2.0, 2.05],                 # one bin
        [-3.3, -3.25, -1.0],         # negative values
        [0.0, 0.1, 0.2, 0.2, 0.3],   # values on bin edges
        [7.0, 7.0],
    ], 0.1)
    _same_midpoints([[0.0, 0.05], [1.0]], 1e-7)  # half a million bins, and one
    assert modal_midpoints(np.empty(0), [0], 0.1).shape == (0,)


@pytest.mark.parametrize("span, counter", [(65555.0, "bincount"), (65556.0, "unique")])
def test_modal_midpoints_count_every_bin_up_to_their_bound_then_sort(
    monkeypatch, span, counter
):
    """Two segments of 5 values in all span 65556 bins, the most counted densely
    (4 * 5 + 65536), or one more, which are sorted; ties at both ends of the wide one."""
    segments = [[0.0, 0.5, span - 0.5, span], [3.0]]
    calls = {"bincount": 0, "unique": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(np, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counting)
    modal_midpoints(np.concatenate(segments), [0, 4, 5], 1.0)
    monkeypatch.undo()
    assert calls == {"bincount": 0, "unique": 0, counter: 1}
    _same_midpoints(segments, 1.0)
    _same_midpoints([[0.0, 1.0, 1.0, span - 0.5, span - 0.5, span], [-2.0, -1.5]], 1.0)


@st.composite
def _segment_sets(draw):
    """Segments of values near bin edges: ties, singletons, one-bin spans,
    negative values and spans of up to MAX_BINS bins."""
    width = draw(st.sampled_from([0.1, 0.125, 1 / 3, 0.017, 7.0, MIN_BIN_WIDTH]))
    steps = st.one_of(st.integers(-3, 3), st.integers(-(MAX_BINS // 2) + 1, MAX_BINS // 2 - 1))
    segments = []
    for _ in range(draw(st.integers(1, 8))):
        origin = draw(st.floats(-1e3, 1e3, allow_nan=False))
        jitter = draw(st.sampled_from([0.0, 0.5, 1e-9, -1e-9]))
        if draw(st.booleans()):
            values = [origin + (k + jitter) * width
                      for k in draw(st.lists(steps, min_size=1, max_size=30))]
        else:
            values = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1,
                                   max_size=30))
        segments.append(values)
    return width, segments


@given(_segment_sets())
@settings(max_examples=300, deadline=None)
def test_modal_midpoints_equal_modal_midpoint_per_segment(case):
    width, segments = case
    _same_midpoints(segments, width)


def test_min_bin_width_fits_every_frustum_of_a_rigid_mount():
    # the corners of the 10 km cube through a mount at the largest accepted
    # offset and near the orthonormality tolerance, then turned about y as a
    # frustum is: no axis spreads past MAX_BINS bins of MIN_BIN_WIDTH
    r = MAX_POINT_RANGE_M
    corners = PointCloud(list(itertools.product([-r, r], repeat=3)), Frame.LIDAR)
    rng = np.random.default_rng(5)
    for _ in range(50):
        base = random_calibration(rng)
        stretch = 1.0 + 4.9e-4  # |R R^T - I| just under the 1e-3 tolerance
        offset = rng.choice([-MAX_MOUNT_OFFSET_M, MAX_MOUNT_OFFSET_M], size=(3, 1))
        calib = CalibrationSet(P2=base.P2, R0_rect=base.R0_rect * stretch,
                               Tr_velo_to_cam=np.hstack([base.Tr_velo_to_cam[:, :3] * stretch,
                                                         offset]))
        camera = lidar_to_camera(corners, calib).points
        turned = camera @ rot_y(rng.uniform(-math.pi, math.pi)).T
        for axis in range(3):
            spread = np.ptp(turned[:, axis])
            assert spread < 35.2e3
            assert len(axis_histogram(turned[:, axis], MIN_BIN_WIDTH).counts) < MAX_BINS
