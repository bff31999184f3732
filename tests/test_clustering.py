import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfrustum.clustering import axis_histogram, estimate_centroid
from farfrustum.errors import ConfigError, EmptyCluster
from farfrustum.kitti_io import Frame, PointCloud

import oracles


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
