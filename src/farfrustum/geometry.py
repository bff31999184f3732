"""Coordinate chain from raw lidar to a detection's frustum frame.

Frames: lidar -> rectified camera (rigid transform + rectification) ->
frustum (camera rotated about its vertical axis so the detection's center
ray becomes +z).

The lidar -> camera -> image step depends only on the frame, so it runs
once per frame: ``project_cloud`` keeps the camera-frame cloud, its pixel
coordinates and their validity. Each 3x4 transform is applied as an affine
map (3x3 block, then 4th column) with no homogeneous (N, 4) copy; from two
points on it rounds as the homogeneous product (BLAS sums a lone point in
another order). ``points_in_box_frustum`` and ``points_in_mask_frustum``
then cut each detection's frustum from that projection; mask pixels are
floored for the valid points only. All operations preserve point order, and
a projection is never modified after it is built, so per-detection frustum
extraction is safe to run in parallel.

Clouds are checked where they enter (``kitti_io``); a rigid transform only
re-checks that its output is finite, as a huge calibration can overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadCalibration, FrameMismatch
from .kitti_io import CalibrationSet, Detection2D, Frame, PointCloud


def rot_y(angle: float) -> np.ndarray:
    """Rotation about the camera vertical (y) axis; adds `angle` to azimuth.

    Azimuth is atan2(x, z), so rot_y(a) maps a point at azimuth t to
    azimuth t + a while preserving y and the Euclidean norm.
    """
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _require_frame(cloud: PointCloud, frame: Frame) -> None:
    if cloud.frame != frame:
        raise FrameMismatch(f"expected {frame.value} cloud, got {cloud.frame.value}")


def _affine(points: np.ndarray, m: np.ndarray) -> np.ndarray:
    """[p;1] . m^T for each row p, as a fresh (N, 3) array."""
    out = points @ m[:, :3].T
    for k in range(3):  # column by column: a broadcast (N, 3) add is 2x slower
        out[:, k] += m[k, 3]
    return out


def lidar_to_camera(cloud: PointCloud, calib: CalibrationSet) -> PointCloud:
    """Map lidar points into the rectified camera frame: R0 . (Tr . [p;1])."""
    _require_frame(cloud, Frame.LIDAR)
    with np.errstate(over="ignore", invalid="ignore"):  # with_points raises
        rect = _affine(cloud.points, calib.Tr_velo_to_cam) @ calib.R0_rect.T
    return cloud.with_points(rect, Frame.CAMERA)


def project_to_image(
    cloud: PointCloud, calib: CalibrationSet
) -> tuple[np.ndarray, np.ndarray]:
    """Project camera-frame points through P2 onto the image plane.

    Returns ((N, 2) pixel coordinates, (N,) validity). A point is valid when
    it lies in front of the camera (z > 0) and projects to finite pixels;
    invalid points keep their slot so indices stay aligned with the input.
    """
    _require_frame(cloud, Frame.CAMERA)
    uvw = _affine(cloud.points, calib.P2)
    uv = np.empty((len(cloud), 2))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(uvw[:, 0], uvw[:, 2], out=uv[:, 0])
        np.divide(uvw[:, 1], uvw[:, 2], out=uv[:, 1])
    finite = np.isfinite(uv)
    valid = (cloud.points[:, 2] > 0) & finite[:, 0] & finite[:, 1]
    return uv, valid


@dataclass(frozen=True, eq=False)
class CloudProjection:
    """One frame's cloud in the rectified camera frame and on the image plane."""

    camera: PointCloud   # camera-frame points, in input order
    uv: np.ndarray       # (N, 2) pixel coordinates
    valid: np.ndarray    # (N,) in front of the camera with finite pixels
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def box_candidates(
        self, image_size: tuple[int, int] | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Valid points that a box clamped to an (W, H) image can hold.

        A clamped box lies inside [0, W] x [0, H], so its half-open members
        lie inside [0, W) x [0, H); with no image size every valid point is
        a candidate. Returns (point indices, u, v), once per image size.
        """
        key = ("box", image_size)
        if key not in self._cache:
            keep = self.valid
            if image_size is not None:
                # full-array tests: gathering the valid points first took 2x
                # as long on a 120k-point frame with a third of them in view
                w, h = image_size
                u, v = self.uv[:, 0], self.uv[:, 1]
                with np.errstate(invalid="ignore"):
                    keep = keep & (u >= 0) & (u < w) & (v >= 0) & (v < h)
            idx = np.flatnonzero(keep)
            self._cache[key] = (idx, self.uv[idx, 0], self.uv[idx, 1])
        return self._cache[key]

    def pixel_index(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Valid points whose floor(u), floor(v) pixel lies in an (H, W) bitmap.

        Returns (point indices, row-major flat pixel indices), once per
        bitmap shape, so once per frame when every mask is image-sized.
        """
        key = ("mask", shape)
        if key not in self._cache:
            h, w = shape
            idx = np.flatnonzero(self.valid)
            with np.errstate(invalid="ignore"):  # a finite pixel can exceed int64
                iu = np.floor(self.uv[idx, 0]).astype(np.int64, copy=False)
                iv = np.floor(self.uv[idx, 1]).astype(np.int64, copy=False)
            inside = (iu >= 0) & (iu < w) & (iv >= 0) & (iv < h)
            idx = idx[inside]
            self._cache[key] = (idx, iv[inside] * w + iu[inside])
        return self._cache[key]


def project_cloud(cloud: PointCloud, calib: CalibrationSet) -> CloudProjection:
    """Project a lidar cloud once: camera-frame points, pixels and validity."""
    camera = lidar_to_camera(cloud, calib)
    uv, valid = project_to_image(camera, calib)
    return CloudProjection(camera, uv, valid)


def _clamped_bbox(det: Detection2D) -> tuple[float, float, float, float]:
    u0, v0, u1, v1 = det.bbox
    if det.image_size is not None:
        w, h = det.image_size
        u0, u1 = max(u0, 0.0), min(u1, float(w))
        v0, v1 = max(v0, 0.0), min(v1, float(h))
    return u0, v0, u1, v1


def points_in_box_frustum(projection: CloudProjection, det: Detection2D) -> PointCloud:
    """Camera-frame subset of the cloud whose projection falls in the 2D box.

    Membership uses the half-open convention u_min <= u < u_max (likewise v)
    on the image-clamped box; points behind the camera are never members.
    """
    idx, u, v = projection.box_candidates(det.image_size)
    u0, v0, u1, v1 = _clamped_bbox(det)
    inside = (u >= u0) & (u < u1) & (v >= v0) & (v < v1)
    return projection.camera.select(idx[inside])


def points_in_mask_frustum(projection: CloudProjection, det: Detection2D) -> PointCloud:
    """Camera-frame subset whose projection lands on a positive mask pixel.

    The pixel is selected by floor(u), floor(v); projections outside the
    bitmap are simply excluded. Whenever the mask's support lies inside the
    detection bbox this is a subset of the box-frustum result.
    """
    mask = det.mask.load()
    idx, flat = projection.pixel_index(mask.shape)
    hit = mask.reshape(-1)[flat] > 0
    return projection.camera.select(idx[hit])


def frustum_rotation(
    cloud: PointCloud, det: Detection2D, calib: CalibrationSet
) -> tuple[PointCloud, float]:
    """Rotate camera points so the detection's center ray becomes the z axis.

    The center ray is the bbox center pixel back-projected through the left
    3x3 of P2 at unit depth; theta = atan2(x, z) of that ray. Every point is
    rotated by -theta about the camera vertical axis (norm-preserving).
    """
    _require_frame(cloud, Frame.CAMERA)
    k = calib.P2[:, :3]
    if abs(np.linalg.det(k)) < 1e-12:
        raise BadCalibration("left 3x3 of P2 is not invertible")
    u, v = det.bbox_center
    ray = np.linalg.solve(k, np.array([u, v, 1.0]))
    theta = math.atan2(ray[0], ray[2])
    rotated = cloud.points @ rot_y(-theta).T
    return cloud.with_points(rotated, Frame.FRUSTUM), theta

