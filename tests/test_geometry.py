import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from farfrustum.errors import BadCalibration, FrameMismatch
from farfrustum.geometry import (
    bev_project,
    frustum_rotation,
    lidar_to_camera,
    points_in_box_frustum,
    points_in_mask_frustum,
    project_cloud,
    project_to_image,
    rot_y,
    to_centroid_frame,
)
from farfrustum.kitti_io import CalibrationSet, Detection2D, Frame, MaskRef, PointCloud, write_pgm
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

    def test_intensities_preserved(self):
        cloud = PointCloud([[1, 2, 3]], Frame.LIDAR, intensities=[0.7])
        out = lidar_to_camera(cloud, IDENTITY_CALIB)
        np.testing.assert_array_equal(out.intensities, [0.7])

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
        calib = CalibrationSet(
            P2=np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0], [0, 0, 1, 0]]),
            R0_rect=np.eye(3),
            Tr_velo_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))]),
        )
        cloud = PointCloud([[0, 0, 5]], Frame.CAMERA)
        with pytest.raises(BadCalibration):
            frustum_rotation(cloud, make_det((10, 10, 20, 20)), calib)


class TestCentroidFrameAndBev:
    def test_zero_shift_identity(self):
        cloud = PointCloud([[1, 2, 3]], Frame.FRUSTUM)
        out = to_centroid_frame(cloud, (0.0, 0.0, 0.0))
        np.testing.assert_array_equal(out.points, cloud.points)
        assert out.frame == Frame.CENTROID

    def test_point_equal_to_centroid_maps_to_origin(self):
        cloud = PointCloud([[2.0, 1.0, 65.0]], Frame.FRUSTUM)
        out = to_centroid_frame(cloud, (2.0, 1.0, 65.0))
        np.testing.assert_array_equal(out.points, [[0, 0, 0]])

    def test_shift_unshift_round_trip(self):
        rng = np.random.default_rng(43)
        pts = rng.uniform(-80, 80, size=(25, 3))
        centroid = tuple(rng.uniform(-10, 10, 3))
        out = to_centroid_frame(PointCloud(pts, Frame.FRUSTUM), centroid)
        back = out.points + np.asarray(centroid)
        assert np.abs(back - pts).max() < 1e-15 * 80 + 1e-13

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            to_centroid_frame(PointCloud([[0, 0, 0]], Frame.CAMERA), (0, 0, 0))

    def test_bev_drops_vertical(self):
        cloud = PointCloud([[1, 5, 2]], Frame.CENTROID)
        np.testing.assert_array_equal(bev_project(cloud), [[1, 2]])

    def test_bev_empty(self):
        cloud = PointCloud(np.zeros((0, 3)), Frame.CENTROID)
        assert bev_project(cloud).shape == (0, 2)

    def test_bev_composition_oracle(self):
        rng = np.random.default_rng(47)
        pts = rng.uniform(-5, 5, size=(40, 3))
        centroid = tuple(rng.uniform(-2, 2, 3))
        got = bev_project(to_centroid_frame(PointCloud(pts, Frame.FRUSTUM), centroid))
        want = np.column_stack([pts[:, 0] - centroid[0], pts[:, 2] - centroid[2]])
        np.testing.assert_array_equal(got, want)


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
