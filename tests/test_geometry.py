import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from farfrustum import geometry
from farfrustum.errors import BadCalibration, CropMismatch, FrameMismatch
from farfrustum.geometry import (
    BLOCK_ROWS,
    frustum_rotation,
    lidar_to_camera,
    points_in_box_frustum,
    points_in_mask_frustum,
    project_cloud,
    project_to_image,
    rot_y,
)
from farfrustum.kitti_io import (
    CalibrationSet,
    Detection2D,
    Frame,
    MaskRef,
    PointCloud,
    load_pointcloud,
    parse_calibration,
    write_pgm,
)
from farfrustum.pipeline import PipelineConfig
from farfrustum.regressor import Route, frustum_chain, frustum_points, rasterize_bev
from farfrustum.synth import camera_to_lidar_points

import oracles
from conftest import random_calibration

IDENTITY_CALIB = CalibrationSet(
    P2=np.array([[700.0, 0, 600, 0], [0, 700.0, 180, 0], [0, 0, 1, 0]]),
    R0_rect=np.eye(3),
    Tr_velo_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))]),
)


def make_det(bbox, image_size=(1242, 375), mask=None, cls="car"):
    return Detection2D(
        frame_id="t", class_name=cls, score=0.9, bbox=bbox,
        mask=mask, image_size=image_size,
    )


class TestLidarToCamera:
    def test_identity(self):
        cloud = PointCloud([[1, 2, 3], [4, 5, 6]], Frame.LIDAR)
        out = lidar_to_camera(cloud, IDENTITY_CALIB)
        np.testing.assert_array_equal(out.points, cloud.points)
        assert out.frame == Frame.CAMERA

    def test_translation(self):
        calib = CalibrationSet(
            P2=IDENTITY_CALIB.P2,
            R0_rect=np.eye(3),
            Tr_velo_to_cam=np.hstack([np.eye(3), np.array([[0], [0], [5.0]])]),
        )
        cloud = PointCloud([[1, 2, 3]], Frame.LIDAR)
        out = lidar_to_camera(cloud, calib)
        np.testing.assert_allclose(out.points, [[1, 2, 8]])

    def test_wrong_frame(self):
        cloud = PointCloud([[1, 2, 3]], Frame.CAMERA)
        with pytest.raises(FrameMismatch):
            lidar_to_camera(cloud, IDENTITY_CALIB)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_calibration_raises_non_finite(self):
        # finite but huge: the transform would overflow, so it is refused when built
        with pytest.raises(BadCalibration, match="non-finite"):
            CalibrationSet(
                P2=IDENTITY_CALIB.P2,
                R0_rect=np.eye(3),
                Tr_velo_to_cam=np.hstack([np.eye(3) * 1e308, np.zeros((3, 1))]),
            )

    def test_random_rigid_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            calib = random_calibration(rng)
            pts = rng.uniform(-50, 50, size=(20, 3))
            cam = lidar_to_camera(PointCloud(pts, Frame.LIDAR), calib)
            # analytic inverse: undo R0, then the rigid transform
            rot = calib.Tr_velo_to_cam[:, :3]
            t = calib.Tr_velo_to_cam[:, 3]
            unrect = cam.points @ calib.R0_rect
            back = (unrect - t) @ rot
            assert np.abs(back - pts).max() < 1e-9


class TestProjectToImage:
    def test_optical_axis(self):
        cloud = PointCloud([[0, 0, 10]], Frame.CAMERA)
        uv, valid = project_to_image(cloud, IDENTITY_CALIB)
        np.testing.assert_allclose(uv[0], [600, 180])
        assert valid[0]

    def test_behind_camera_flagged_not_dropped(self):
        cloud = PointCloud([[0, 0, -1], [0, 0, 5]], Frame.CAMERA)
        uv, valid = project_to_image(cloud, IDENTITY_CALIB)
        assert list(valid) == [False, True]
        assert uv.shape == (2, 2)

    def test_matrix_oracle(self):
        rng = np.random.default_rng(13)
        calib = random_calibration(rng)
        pts = rng.uniform(-30, 30, size=(40, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 1.0
        uv, valid = project_to_image(PointCloud(pts, Frame.CAMERA), calib)
        for i, p in enumerate(pts):
            u, v, ok = oracles.project_point(p, calib.P2.tolist())
            assert ok == valid[i]
            assert abs(uv[i, 0] - u) < 1e-9
            assert abs(uv[i, 1] - v) < 1e-9


class TestBoxFrustum:
    def test_interior_point_included(self):
        cloud = PointCloud([[0, 0, 10]], Frame.LIDAR)
        det = make_det((590, 170, 610, 190))
        out = points_in_box_frustum(project_cloud(cloud, IDENTITY_CALIB), det)
        assert len(out) == 1
        assert out.frame == Frame.CAMERA

    def test_behind_camera_excluded(self):
        # (0,0,-10) projects to the principal point numerically but is behind
        cloud = PointCloud([[0, 0, -10]], Frame.LIDAR)
        det = make_det((0, 0, 1242, 375))
        out = points_in_box_frustum(project_cloud(cloud, IDENTITY_CALIB), det)
        assert len(out) == 0

    def test_brute_force_equality(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            calib = random_calibration(rng)
            pts = rng.uniform(-40, 40, size=(500, 3))
            bbox = tuple(
                sorted(rng.uniform(300, 900, 2)) + sorted(rng.uniform(50, 350, 2))
            )
            bbox = (bbox[0], bbox[2], bbox[1], bbox[3])
            det = make_det(bbox)
            projection = project_cloud(PointCloud(pts, Frame.LIDAR), calib)
            got = points_in_box_frustum(projection, det)
            want_idx = oracles.box_frustum_indices(
                pts.tolist(), calib.R0_rect.tolist(),
                calib.Tr_velo_to_cam.tolist(), calib.P2.tolist(),
                bbox, det.image_size,
            )
            cam_all = lidar_to_camera(PointCloud(pts, Frame.LIDAR), calib)
            np.testing.assert_array_equal(got.points, cam_all.points[want_idx])


class TestMaskFrustum:
    def _mask_det(self, tmp_path, mask_array, bbox, name="m.pgm"):
        path = tmp_path / name
        write_pgm(path, mask_array)
        mask = MaskRef(path, (mask_array.shape[1], mask_array.shape[0]))
        return make_det(bbox, image_size=(mask_array.shape[1], mask_array.shape[0]),
                        mask=mask)

    def test_filled_mask_equals_box_frustum(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-30, 30, size=(300, 3))
        pts[:, 0] = np.abs(pts[:, 0]) + 1.0  # forward in lidar frame-ish
        calib = random_calibration(rng)
        w, h = 1242, 375
        bbox = (400.0, 100.0, 800.0, 300.0)
        mask = np.zeros((h, w), dtype=np.uint8)
        mask[100:300, 400:800] = 255
        det = self._mask_det(tmp_path, mask, bbox)
        projection = project_cloud(PointCloud(pts, Frame.LIDAR), calib)
        via_mask = points_in_mask_frustum(projection, det)
        via_box = points_in_box_frustum(projection, det)
        np.testing.assert_array_equal(via_mask.points, via_box.points)

    def test_all_zero_mask(self, tmp_path):
        mask = np.zeros((375, 1242), dtype=np.uint8)
        det = self._mask_det(tmp_path, mask, (0.0, 0.0, 1242.0, 375.0))
        cloud = PointCloud([[0, 0, 10]], Frame.LIDAR)
        assert len(points_in_mask_frustum(project_cloud(cloud, IDENTITY_CALIB), det)) == 0

    def test_checkerboard_matches_oracle(self, tmp_path):
        rng = np.random.default_rng(31)
        calib = random_calibration(rng)
        w, h = 1242, 375
        yy, xx = np.mgrid[0:h, 0:w]
        mask = (((yy // 8) + (xx // 8)) % 2).astype(np.uint8) * 255
        det = self._mask_det(tmp_path, mask, (0.0, 0.0, float(w), float(h)))
        pts = rng.uniform(-40, 40, size=(500, 3))
        projection = project_cloud(PointCloud(pts, Frame.LIDAR), calib)
        got = points_in_mask_frustum(projection, det)
        want_idx = oracles.mask_frustum_indices(
            pts.tolist(), calib.R0_rect.tolist(),
            calib.Tr_velo_to_cam.tolist(), calib.P2.tolist(), mask,
        )
        cam_all = lidar_to_camera(PointCloud(pts, Frame.LIDAR), calib)
        np.testing.assert_array_equal(got.points, cam_all.points[want_idx])

    def test_mask_subset_of_box_when_support_inside_bbox(self, tmp_path):
        rng = np.random.default_rng(37)
        calib = random_calibration(rng)
        w, h = 1242, 375
        bbox = (300.0, 80.0, 900.0, 350.0)
        mask = np.zeros((h, w), dtype=np.uint8)
        mask[120:300, 400:700] = 255  # support strictly inside the bbox
        det = self._mask_det(tmp_path, mask, bbox)
        pts = rng.uniform(-40, 40, size=(400, 3))
        cloud = PointCloud(pts, Frame.LIDAR)
        projection = project_cloud(cloud, calib)
        via_mask = points_in_mask_frustum(projection, det)
        via_box = points_in_box_frustum(projection, det)
        box_set = {tuple(p) for p in via_box.points}
        assert all(tuple(p) in box_set for p in via_mask.points)


class TestSharedProjectionBoundaries:
    # IDENTITY_CALIB maps (x, 0, 7) exactly to u = 600 + 100 x, v = 180:
    # u = 625, 650, 700 in front of the camera, and one point behind it
    PTS = [[0.25, 0, 7], [0.5, 0, 7], [1.0, 0, 7], [0.5, 0, -7]]

    def _members(self, det):
        projection = project_cloud(PointCloud(self.PTS, Frame.LIDAR), IDENTITY_CALIB)
        cam = projection.camera.points
        got = points_in_box_frustum(projection, det) if det.mask is None \
            else points_in_mask_frustum(projection, det)
        return [int(np.flatnonzero((cam == p).all(axis=1))[0]) for p in got.points]

    def test_box_is_half_open(self):
        assert self._members(make_det((650, 170, 700, 190))) == [1]

    def test_box_clamped_to_image_edge(self):
        assert self._members(make_det((600, 170, 800, 190), image_size=(626, 375))) == [0]
        assert self._members(make_det((600, 170, 800, 190), image_size=None)) == [0, 1, 2]

    def test_mask_pixel_is_floor_and_skips_points_behind(self, tmp_path):
        bitmap = np.zeros((375, 1242), dtype=np.uint8)
        bitmap[180, 650] = bitmap[180, 550] = 255  # 550: where the point behind lands
        write_pgm(tmp_path / "m.pgm", bitmap)
        det = make_det((0, 0, 10, 10), mask=MaskRef(tmp_path / "m.pgm", (1242, 375)))
        assert self._members(det) == [1]


SMALL_IMAGE = (320, 160)  # (W, H)

# (u0, v0, width, height) in pixels, may reach past every image edge; whether
# the box is clamped to the image; whether the detection carries a mask
_detection_specs = st.tuples(
    st.floats(-150.0, SMALL_IMAGE[0] + 50.0), st.floats(-80.0, SMALL_IMAGE[1] + 30.0),
    st.floats(2.0, 300.0), st.floats(2.0, 150.0), st.booleans(), st.booleans(),
)


@given(seed=st.integers(0, 2**32 - 1),
       specs=st.lists(_detection_specs, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_shared_projection_matches_oracles(tmp_path, seed, specs):
    """Every detection cut from one projection equals per-point brute force."""
    rng = np.random.default_rng(seed)
    calib = random_calibration(rng)
    w, h = SMALL_IMAGE
    # back-projected from pixels around the image; a quarter lie behind the camera
    pix = np.column_stack([
        rng.uniform(-60, w + 60, 300), rng.uniform(-30, h + 30, 300), np.ones(300)
    ])
    depth = rng.uniform(-20, 60, 300)
    cam = (pix @ np.linalg.inv(calib.P2[:, :3]).T) * depth[:, None]
    pts = camera_to_lidar_points(cam, calib)
    projection = project_cloud(PointCloud(pts, Frame.LIDAR), calib)
    cam_all = lidar_to_camera(PointCloud(pts, Frame.LIDAR), calib)
    chain = (pts.tolist(), calib.R0_rect.tolist(), calib.Tr_velo_to_cam.tolist(),
             calib.P2.tolist())
    for k, (u0, v0, bw, bh, clamped, masked) in enumerate(specs):
        bbox = (u0, v0, u0 + bw, v0 + bh)
        image_size = SMALL_IMAGE if clamped else None
        mask = ref = None
        if masked:
            # a random block anywhere in the image, unrelated to the bbox
            mask = np.zeros((h, w), dtype=np.uint8)
            r, c = int(rng.integers(0, h)), int(rng.integers(0, w))
            block = mask[r:r + int(rng.integers(1, h)), c:c + int(rng.integers(1, w))]
            block[...] = (rng.uniform(size=block.shape) < 0.6) * 255
            write_pgm(tmp_path / f"m{k}.pgm", mask)
            ref = MaskRef(tmp_path / f"m{k}.pgm", SMALL_IMAGE)
        det = Detection2D("f", "car", 0.9, bbox, mask=ref, image_size=image_size)
        want_box = oracles.box_frustum_indices(*chain, bbox, image_size)
        got_box = points_in_box_frustum(projection, det)
        np.testing.assert_array_equal(got_box.points, cam_all.points[want_box])
        if masked:
            want_mask = oracles.mask_frustum_indices(*chain, mask)
            got_mask = points_in_mask_frustum(projection, det)
            np.testing.assert_array_equal(got_mask.points, cam_all.points[want_mask])


def _reference_projection(points, calib):
    """The homogeneous-copy, full-array projection the fast path must equal."""
    hom = np.hstack([points, np.ones((len(points), 1))])
    cam = (hom @ calib.Tr_velo_to_cam.T) @ calib.R0_rect.T
    uv, valid = _reference_image(cam, calib)
    return cam, uv, valid


def _reference_image(cam, calib):
    hom = np.hstack([cam, np.ones((len(cam), 1))])
    uvw = hom @ calib.P2.T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        uv = uvw[:, :2] / uvw[:, 2:3]
    return uv, (cam[:, 2] > 0) & np.isfinite(uv).all(axis=1)


def _reference_crop(cam, uv, valid, image_size):
    """The rows a projection cropped to `image_size` keeps: points, u and v."""
    keep = valid
    if image_size is not None:
        w, h = image_size
        u, v = uv[:, 0], uv[:, 1]
        with np.errstate(invalid="ignore"):
            keep = keep & (u >= 0) & (u < w) & (v >= 0) & (v < h)
    idx = np.flatnonzero(keep)
    return cam[idx], uv[idx, 0], uv[idx, 1]


def _reference_pixel_index(u, v, shape):
    h, w = shape
    pixels = [(k, math.floor(a), math.floor(b)) for k, (a, b) in enumerate(zip(u, v))]
    inside = [(k, iv * w + iu) for k, iu, iv in pixels if 0 <= iu < w and 0 <= iv < h]
    idx = np.array([k for k, _ in inside], dtype=np.int64)
    return idx, np.array([flat for _, flat in inside], dtype=np.int64)


def _assert_same_bytes(got, want, exact=True):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        if exact or a.dtype != np.float64:
            assert a.tobytes() == b.tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-9)


def _kitti_like_calibration(rng):
    """A random rigid mounting with a KITTI-like P2: a non-zero 4th column.

    Its depth entry is zero a third of the time, so that a tiny positive
    depth projects to a huge finite pixel; tiny another third; and -1 to
    -30 m otherwise, so that w <= 0 for points up to that far in front.
    """
    calib = random_calibration(rng)
    p2 = calib.P2.copy()
    p2[:, 3] = [rng.uniform(-60, 60), rng.uniform(-1, 1),
                [0.0, rng.uniform(-0.01, 0.01), -rng.uniform(1, 30)][rng.integers(0, 3)]]
    return CalibrationSet(P2=p2, R0_rect=calib.R0_rect,
                          Tr_velo_to_cam=calib.Tr_velo_to_cam)


def _lidar_at_pixels(uv, w, calib):
    """Lidar points that P2 maps to (u*w, v*w, w): exactly, up to rounding."""
    image = np.column_stack([uv * w[:, None], w]) - calib.P2[:, 3]
    return camera_to_lidar_points(np.linalg.solve(calib.P2[:, :3], image.T).T, calib)


# maps lidar (u, v, 1) to the pixel (u, v) exactly
UNIT_CALIB = CalibrationSet(
    P2=np.hstack([np.eye(3), np.zeros((3, 1))]),
    R0_rect=np.eye(3),
    Tr_velo_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))]),
)


def _check_crops(pts, calib, rng, exact):
    """Each crop of the projection holds the reference rows valid & inside."""
    cam, uv, valid = _reference_projection(pts, calib)
    small = (int(rng.integers(1, 50)), int(rng.integers(1, 50)))
    for size in (None, (1242, 375), small):
        projection = project_cloud(PointCloud(pts, Frame.LIDAR), calib, size)
        want = _reference_crop(cam, uv, valid, size)
        _assert_same_bytes((projection.camera.points, projection.u, projection.v),
                           want, exact)
        for shape in ((375, 1242), small[::-1]) if size is None else (size[::-1],):
            _assert_same_bytes(projection.pixel_index(shape),
                               _reference_pixel_index(want[1], want[2], shape))


def _check_projection_bytes(rng, n):
    # numpy hands a one-row product to BLAS gemv, whose dot kernel sums a
    # 4-long homogeneous row in another order than a 3-long one; the
    # reference rounds a lone point differently from the same point in a
    # larger cloud, so one point is held to a tolerance
    exact = n != 1
    calib = _kitti_like_calibration(rng)
    pts = rng.uniform(-80, 80, size=(n, 3))
    _check_crops(pts, calib, rng, exact)
    # camera points on, behind and just in front of the image plane; a tiny
    # positive depth projects to a huge finite pixel
    cam = _reference_projection(pts, calib)[0]
    special = rng.integers(0, 4, size=n)
    cam[special == 0, 2] = 0.0
    cam[special == 1, 2] *= -1.0
    cam[special == 2, 2] = rng.choice([1e-304, 1e-300, 1e-12, 1e-3],
                                      size=int((special == 2).sum()))
    uv, valid = project_to_image(PointCloud(cam, Frame.CAMERA), calib)
    _assert_same_bytes((uv, valid), _reference_image(cam, calib), exact)
    # pixels on and next to every image edge, which the half-open tests
    # split, at unit depth; on, behind and just in front of the image plane
    edges = np.concatenate([[-1.0, -0.0, 374.0, 375.0, 1241.0, 1242.0], np.arange(51.0)])
    pts = np.column_stack([rng.choice(edges, size=(n, 2)),
                           rng.choice([1.0, 1.0, 1.0, 0.0, -1.0, 1e-304], size=n)])
    _check_crops(pts, UNIT_CALIB, rng, exact)
    if not exact:  # a lone point's floor(u) may differ from the reference's
        return
    # the same pixels through the KITTI-like calibration, a rounding or two
    # off the edges, at either sign of w, where the pre-test's margin decides
    w = rng.uniform(0.5, 80, size=n) * rng.choice([1.0, 1.0, -1.0], size=n)
    _check_crops(_lidar_at_pixels(pts[:, :2], w, calib), calib, rng, exact)
    # 0, 1 or 2 points in view among points behind the camera: a block
    # with one candidate must still project it in a product of two rows
    behind = _lidar_at_pixels(rng.uniform(-500, 1500, size=(n, 2)),
                              -rng.uniform(0.5, 80, size=n), calib)
    for k in range(min(n, 2) + 1):
        pts = behind.copy()
        rows = rng.choice(n, size=k, replace=False)
        pts[rows] = _lidar_at_pixels(rng.uniform(0, 375, size=(k, 2)),
                                     rng.uniform(31, 80, size=k), calib)
        _check_crops(pts, calib, rng, exact)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(seed=st.integers(0, 2**32 - 1), n=st.one_of(st.integers(0, 3), st.integers(0, 3000)))
@settings(max_examples=100, deadline=None)
def test_projection_is_byte_identical_to_homogeneous_reference(seed, n):
    _check_projection_bytes(np.random.default_rng(seed), n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
def test_projection_is_byte_identical_across_block_edges(n):
    _check_projection_bytes(np.random.default_rng(n), n)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projection_is_byte_identical_at_kitti_scale():
    _check_projection_bytes(np.random.default_rng(120_000), 120_000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_projection_keeps_a_pixel_that_rounds_to_minus_zero():
    # u*w = -5e-324 at x = 0: u = u*w / w rounds to -0.0 >= 0 from w = 2
    # on, so the pre-test must not drop these points
    calib = CalibrationSet(P2=[[1, 0, 0, -5e-324], [0, 1, 0, 0], [0, 0, 1, 0]],
                           R0_rect=np.eye(3), Tr_velo_to_cam=UNIT_CALIB.Tr_velo_to_cam)
    pts = np.column_stack([np.zeros(40), np.full(40, 100.0), np.arange(1.0, 41.0)])
    _check_crops(pts, calib, np.random.default_rng(0), exact=True)
    assert len(project_cloud(PointCloud(pts, Frame.LIDAR), calib, (1242, 375)).u) == 39


@pytest.mark.parametrize("n_view, sizes", [
    (1, [2]),  # a lone candidate takes a neighbour along
    (BLOCK_ROWS + 1, [BLOCK_ROWS + 1]),  # a lone tail row joins the block before it
    (2 * BLOCK_ROWS + 5, [BLOCK_ROWS, BLOCK_ROWS, 5]),
])
def test_project_cloud_chains_the_candidates_in_blocks(monkeypatch, n_view, sizes):
    # candidates spread over every source block go through the chain in
    # blocks of BLOCK_ROWS candidates, never in a block of one row
    rng = np.random.default_rng(n_view)
    n = 3 * BLOCK_ROWS + 3
    pts = np.column_stack([rng.uniform(0, 1000, n), rng.uniform(0, 300, n), np.full(n, -10.0)])
    pts[rng.choice(n, n_view, replace=False), 2] = 1.0  # in view, the rest behind
    blocks = []

    def recorded(block, calib, _fn=geometry.lidar_to_camera):
        blocks.append(len(block))
        return _fn(block, calib)

    monkeypatch.setattr(geometry, "lidar_to_camera", recorded)
    projection = project_cloud(PointCloud(pts, Frame.LIDAR), UNIT_CALIB, (1242, 375))
    assert blocks == sizes
    assert len(projection.u) == n_view


def _lidar_sweep(n, seed=0):
    """A 360-degree sweep of n points, 2-80 m out; about a sixth lie in the image."""
    rng = np.random.default_rng(seed)
    azimuth = rng.uniform(-math.pi, math.pi, n)
    elevation = rng.uniform(-0.43, 0.05, n)
    dist = rng.uniform(2.0, 80.0, n)
    flat = dist * np.cos(elevation)
    pts = np.column_stack([flat * np.cos(azimuth), flat * np.sin(azimuth),
                           dist * np.sin(elevation) + 1.7])
    return PointCloud(pts, Frame.LIDAR)


def test_cropped_projection_peaks_below_3_mb(simple_calib):
    # a temporary over the whole 120k-point cloud (2.9 MB for its camera
    # points alone) would show here
    cloud = _lidar_sweep(120_000)
    tracemalloc.start()
    try:
        projection = project_cloud(cloud, simple_calib, (1242, 375))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(projection.camera) < len(cloud) // 4
    assert peak < 3e6


class TestCropMismatch:
    SIZE = (64, 32)  # (W, H)

    @pytest.mark.parametrize("image_size", [None, (63, 32), (64, 33)])
    def test_box_detection_sized_otherwise_raises(self, image_size):
        projection = project_cloud(PointCloud([[0, 0, 10]], Frame.LIDAR), UNIT_CALIB,
                                   self.SIZE)
        det = make_det((0.0, 0.0, 1.0, 1.0), image_size=image_size)
        with pytest.raises(CropMismatch):
            points_in_box_frustum(projection, det)

    @pytest.mark.parametrize("mask_size", [(63, 32), (64, 33)])
    def test_mask_sized_otherwise_raises(self, tmp_path, mask_size):
        w, h = mask_size
        write_pgm(tmp_path / "m.pgm", np.full((h, w), 255, dtype=np.uint8))
        projection = project_cloud(PointCloud([[0, 0, 10]], Frame.LIDAR), UNIT_CALIB,
                                   self.SIZE)
        det = make_det((0.0, 0.0, 1.0, 1.0), image_size=self.SIZE,
                       mask=MaskRef(tmp_path / "m.pgm", mask_size))
        with pytest.raises(CropMismatch):
            points_in_mask_frustum(projection, det)


class TestFrustumRotation:
    def test_bbox_at_principal_point_gives_zero_angle(self):
        cloud = PointCloud([[1, 2, 30]], Frame.CAMERA)
        det = make_det((590, 170, 610, 190))  # centered on (600, 180)
        out, theta = frustum_rotation(cloud, det, IDENTITY_CALIB)
        assert theta == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out.points, cloud.points)
        assert out.frame == Frame.FRUSTUM

    def test_analytic_quarter_rotation(self):
        # bbox center ray at 45 degrees: u = cu + f * tan(pi/4)
        det = make_det((1290, 170, 1310, 190))
        cloud = PointCloud([[1, 0, 1]], Frame.CAMERA)
        out, theta = frustum_rotation(cloud, det, IDENTITY_CALIB)
        assert theta == pytest.approx(math.pi / 4, abs=1e-12)
        np.testing.assert_allclose(out.points, [[0, 0, math.sqrt(2)]], atol=1e-12)

    def test_norms_preserved_and_matches_matrix_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            calib = random_calibration(rng)
            pts = rng.uniform(-50, 50, size=(30, 3))
            det = make_det((200.0, 100.0, 900.0, 350.0))
            out, theta = frustum_rotation(PointCloud(pts, Frame.CAMERA), det, calib)
            np.testing.assert_allclose(
                np.linalg.norm(out.points, axis=1),
                np.linalg.norm(pts, axis=1),
                atol=1e-12,
            )
            m = oracles.rotation_y_matrix(-theta)
            want = np.array([oracles.matvec(m, p) for p in pts])
            np.testing.assert_allclose(out.points, want, atol=1e-12)

    def test_degenerate_projection_matrix(self):
        # frustum_rotation back-projects through P2's left 3x3, so no parsed
        # calibration may carry a singular one
        text = ("P2: 1 0 0 0 2 0 0 0 0 0 1 0\n"
                "R0_rect: 1 0 0 0 1 0 0 0 1\n"
                "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(BadCalibration, match="left 3x3 of P2 is not invertible"):
            parse_calibration(text)


class TestCentroidFrameAndBev:
    """frustum_chain's last step: (x, z) relative to the centroid, then a raster."""

    # a box centered on the principal point rotates by exactly theta = 0
    DET = make_det((0.0, 0.0, 1200.0, 360.0))

    def raster(self, pts, grid=5, extent=1.0, bin_width=0.125):
        config = PipelineConfig(frustum_mode="box", raster_grid=grid,
                                raster_extent=extent, bin_width=bin_width)
        projection = project_cloud(PointCloud(pts, Frame.LIDAR), IDENTITY_CALIB)
        frustum = frustum_points(projection, self.DET, config)
        batch = frustum_chain([frustum], [self.DET], IDENTITY_CALIB, config)
        assert batch.routes == [Route.FARAWAY] and batch.theta[0] == 0.0
        return tuple(batch.centroids[0].tolist()), batch.rasters[0]

    def test_point_equal_to_centroid_maps_to_origin(self):
        # one modal bin per axis: its midpoint is the middle point, exactly
        pts = [[2.0, 0.5, 32.0], [2.0625, 0.5625, 32.0625], [2.1, 0.6, 32.1]]
        centroid, raster = self.raster(pts)
        assert centroid == (2.0625, 0.5625, 32.0625)
        assert raster.grid[2, 2] == 3 and raster.grid.sum() == 3

    def test_bev_drops_vertical(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(-0.4, 0.4, size=(30, 3)) + [1.0, 0.0, 30.0]
        lifted = pts + [0.0, 1.5, 0.0]
        _, base = self.raster(pts, grid=8, extent=0.5, bin_width=0.1)
        _, other = self.raster(lifted, grid=8, extent=0.5, bin_width=0.1)
        np.testing.assert_array_equal(base.grid, other.grid)

    def test_bev_empty(self):
        # a single point sits half a bin from the centroid, outside a tiny extent
        _, raster = self.raster([[1.0, 0.0, 30.0]], extent=1.0, bin_width=5.0)
        assert raster.grid.sum() == 0

    def test_bev_composition_oracle(self):
        rng = np.random.default_rng(47)
        pts = rng.uniform(-2, 2, size=(40, 3)) + [0.0, 0.0, 25.0]
        centroid, raster = self.raster(pts, grid=16, extent=2.0, bin_width=0.5)
        cx, cz = centroid[0], centroid[2]
        bev = [(x - cx, z - cz) for x, _, z in pts]
        want = rasterize_bev(np.array(bev), "car", 16, 2.0)
        np.testing.assert_array_equal(raster.grid, want.grid)


def test_derived_clouds_are_read_only():
    cloud = PointCloud([[1.0, 0.0, 10.0], [0.0, 1.0, 20.0]], Frame.LIDAR)
    camera = lidar_to_camera(cloud, IDENTITY_CALIB)
    records = np.array([[1.0, 0.0, 10.0, 0.5], [0.0, 1.0, 20.0, 0.5]], dtype="<f4")
    screened = load_pointcloud(records.tobytes())  # min and max within range
    records[0, 3] = 3e38  # a huge finite intensity takes the per-check path
    checked = load_pointcloud(records.tobytes())
    derived = [
        cloud.select(np.array([True, False])),
        cloud.select(np.array([1])),
        camera,
        frustum_rotation(camera, make_det((10, 10, 50, 50)), IDENTITY_CALIB)[0],
        screened,
        checked,
    ]
    for out in [cloud, *derived]:
        assert not out.points.flags.writeable
        with pytest.raises(ValueError):
            out.points[0, 0] = 5.0
    # every row kept (blocks as the chain built them), then one row in two cropped;
    # one block, then several joined
    blocks = PointCloud(np.tile(cloud.points, (BLOCK_ROWS + 1, 1)), Frame.LIDAR)
    for source, image_size in itertools.product((cloud, blocks),
                                                (None, (1242, 375), (620, 375))):
        projection = project_cloud(source, IDENTITY_CALIB, image_size)
        assert len(projection.u) == len(source) // (2 if image_size == (620, 375) else 1)
        for arr in (projection.u, projection.v, projection.camera.points):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 5.0


def test_rot_y_adds_azimuth():
    p = np.array([0.0, 0.0, 1.0])
    out = rot_y(math.pi / 2) @ p
    np.testing.assert_allclose(out, [1, 0, 0], atol=1e-15)


def test_frustum_angle_bounded_for_in_image_detections(simple_calib):
    # any bbox inside a forward-facing camera's image gives |theta| < pi/2
    rng = np.random.default_rng(53)
    cloud = PointCloud([[0.0, 0.0, 10.0]], Frame.CAMERA)
    w, h = 1242, 375
    for _ in range(100):
        u0, u1 = sorted(rng.uniform(0, w, 2))
        v0, v1 = sorted(rng.uniform(0, h, 2))
        det = make_det((u0, v0, u1 + 1.0, v1 + 1.0), image_size=(w, h))
        _, theta = frustum_rotation(cloud, det, simple_calib)
        assert -math.pi / 2 < theta < math.pi / 2
