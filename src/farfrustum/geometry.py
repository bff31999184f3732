"""Coordinate chain from raw lidar to a detection's frustum frame.

Frames: lidar -> rectified camera (rigid transform + rectification) ->
frustum (camera rotated about its vertical axis so the detection's center
ray becomes +z).

The lidar -> camera -> image step depends only on the frame, so it runs
once per frame. ``project_cloud`` keeps only the points that can be frustum
members: those in front of the camera with finite pixels and, given an
image size (W, H), with 0 <= u < W and 0 <= v < H. The crop loses nothing,
since a box clamped to the image and a mask of the image's size hold no
other point. Given an image size, a pre-test first drops the points that
are certainly behind the camera or off the image, by one product with a
6x3 matrix built once per frame; its margin, 2^-40 of the magnitude each
tested value reaches on points within MAX_POINT_RANGE_M, dwarfs the
rounding of either path, so the chain alone decides which of the other
points are kept. The pre-test runs over blocks of ``BLOCK_ROWS`` rows of
the cloud, and the candidate rows it gathers go through the chain in blocks
of ``BLOCK_ROWS`` candidates, so each temporary has a block's size, not the
cloud's, and the heap reuses it from block to block. A block's points, u and
v are gathered again only when its crop drops a row, and the blocks are
concatenated only when there are several. Each 3x4 transform is
applied as an affine map (``kitti_io.apply_affine``). From two rows on it
rounds as the homogeneous product, but numpy hands a one-row product to
BLAS gemv, which rounds otherwise, so a lone tail row joins the block
before it and a lone candidate takes a neighbour along.
``points_in_box_frustum`` and ``points_in_mask_frustum`` cut each
detection's frustum from that projection and refuse a detection whose
image size differs from the crop; ``frustum_rotations`` then rotates all of
a frame's frustums, held as segments of one array, in one call. All
operations preserve point order, and a projection is never modified after
it is built.

Clouds and calibrations are checked where they are built (``kitti_io``), so
no product here overflows, and ``frustum_rotation`` can back-project through
P2 because ``CalibrationSet`` refuses a singular left 3x3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CropMismatch, FrameMismatch
from .kitti_io import CalibrationSet, Detection2D, Frame, PointCloud, apply_affine

BLOCK_ROWS = 8192  # a block's temporaries (192 kB each) stay in L2 cache
_SLACK = 2.0**-40  # >100x the relative rounding either path to a pre-test row adds


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


def lidar_to_camera(cloud: PointCloud, calib: CalibrationSet) -> PointCloud:
    """Map lidar points into the rectified camera frame: R0 . (Tr . [p;1])."""
    _require_frame(cloud, Frame.LIDAR)
    rect = apply_affine(cloud.points, calib.Tr_velo_to_cam) @ calib.R0_rect.T
    return PointCloud._wrap(rect, Frame.CAMERA)


def project_to_image(
    cloud: PointCloud, calib: CalibrationSet
) -> tuple[np.ndarray, np.ndarray]:
    """Project camera-frame points through P2 onto the image plane.

    Returns ((N, 2) pixel coordinates, (N,) validity); each pixel column is
    contiguous in memory. A point is valid when it lies in front of the
    camera (z > 0) and projects to finite pixels; invalid points keep their
    slot so indices stay aligned with the input. A tiny positive depth that
    overflows the pixel division leaves the point invalid.
    """
    _require_frame(cloud, Frame.CAMERA)
    uvw = apply_affine(cloud.points, calib.P2)
    uv = np.empty((2, len(cloud)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.divide(uvw[:, 0], uvw[:, 2], out=uv[0])
        np.divide(uvw[:, 1], uvw[:, 2], out=uv[1])
    finite = np.isfinite(uv)
    valid = (cloud.points[:, 2] > 0) & finite[0] & finite[1]
    return uv.T, valid


@dataclass(frozen=True, eq=False)
class CloudProjection:
    """The points of one frame that can be frustum members, on the image plane.

    Rows keep the input order: the points in front of the camera with
    finite pixels and, when `image_size` (W, H) is set, 0 <= u < W and
    0 <= v < H.
    """

    camera: PointCloud   # camera-frame points
    u: np.ndarray        # (N,) pixel columns, contiguous, read-only
    v: np.ndarray        # (N,) pixel rows, contiguous, read-only
    image_size: tuple[int, int] | None  # the crop (W, H), or None
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def require_crop(self, image_size: tuple[int, int] | None) -> None:
        """Raise CropMismatch unless a frustum on an image of that size lies in the crop."""
        if self.image_size is not None and image_size != self.image_size:
            raise CropMismatch(
                f"detection image size {image_size} differs from the projection's "
                f"crop {self.image_size}"
            )

    def pixel_index(self, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """Points whose floor(u), floor(v) pixel lies in an (H, W) bitmap.

        Returns (point indices, row-major flat pixel indices), once per
        bitmap shape, so once per frame when every mask is image-sized.
        """
        if shape not in self._cache:
            h, w = shape
            with np.errstate(invalid="ignore"):  # a finite pixel can exceed int64
                iu = np.floor(self.u).astype(np.int64, copy=False)
                iv = np.floor(self.v).astype(np.int64, copy=False)
            idx = np.flatnonzero((iu >= 0) & (iu < w) & (iv >= 0) & (iv < h))
            self._cache[shape] = (idx, iv[idx] * w + iu[idx])
        return self._cache[shape]


def _blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) rows of each block of n; a lone tail row joins the one before."""
    starts = list(range(0, n, BLOCK_ROWS)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _screen(
    calib: CalibrationSet, image_size: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The pre-test: a 6x3 matrix and the limit each row of its product must reach.

    Rows: camera z, w, u*w, W*w - u*w, v*w, H*w - v*w, less their offsets.
    Each limit is widened by _SLACK of the row's reach plus w's (a tiny
    negative u rounds to -0.0); the w limit is raised, to mean w > 0.
    """
    w_img, h_img = image_size
    camera = calib.R0_rect @ calib.Tr_velo_to_cam  # camera = R0 . (Tr . [p;1])
    uw, vw, w = calib.P2 @ np.vstack([camera, [0.0, 0.0, 0.0, 1.0]])
    rows = np.array([camera[2], w, uw, w_img * w - uw, vw, h_img * w - vw])
    (_, _, rz), (ru, rv, rw) = calib.reach()
    reach = np.array([rz, rw, ru, ru + w_img * rw, rv, rv + h_img * rw]) + rw
    sign = np.array([-1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    return rows[:, :3], (sign * _SLACK * reach - rows[:, 3])[:, None]


def _candidates(points: np.ndarray, matrix: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Rows not certainly behind the camera or off the image, tested block by block;
    never just one of several."""
    rows = []
    for start, stop in _blocks(len(points)):
        passed = matrix @ points[start:stop].T >= limits
        rows.append(start + np.flatnonzero(passed[0] & (~passed[1] | passed[2:].all(axis=0))))
    rows = np.concatenate(rows)
    if len(rows) == 1 < len(points):
        rows = np.arange(2) + max(rows[0] - 1, 0)
    return rows


def project_cloud(
    cloud: PointCloud, calib: CalibrationSet, image_size: tuple[int, int] | None = None
) -> CloudProjection:
    """Project a lidar cloud once, keeping the rows that can be frustum members.

    The candidate rows (every row without `image_size`) go through
    ``lidar_to_camera`` and ``project_to_image`` in blocks of BLOCK_ROWS;
    with `image_size` (W, H) only the points inside the image are kept.
    """
    rows = None if image_size is None else _candidates(cloud.points, *_screen(calib, image_size))
    kept = []  # (camera points, u, v) of each block
    for start, stop in _blocks(len(cloud) if rows is None else len(rows)):
        block = slice(start, stop) if rows is None else rows[start:stop]
        camera = lidar_to_camera(cloud.select(block), calib)
        uv, keep = project_to_image(camera, calib)
        u, v = uv[:, 0], uv[:, 1]
        if image_size is not None:
            w, h = image_size
            keep &= (u >= 0) & (u < w) & (v >= 0) & (v < h)
        if keep.all():
            kept.append((camera.points, u, v))
        else:
            idx = np.flatnonzero(keep)
            kept.append((camera.points[idx], u[idx], v[idx]))
    points, u, v = kept[0] if len(kept) == 1 else (np.concatenate(part) for part in zip(*kept))
    u.setflags(write=False)
    v.setflags(write=False)
    return CloudProjection(PointCloud._wrap(points, Frame.CAMERA), u, v, image_size)


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
    projection.require_crop(det.image_size)
    u0, v0, u1, v1 = _clamped_bbox(det)
    u, v = projection.u, projection.v
    inside = (u >= u0) & (u < u1) & (v >= v0) & (v < v1)
    return projection.camera.select(np.flatnonzero(inside))


def points_in_mask_frustum(projection: CloudProjection, det: Detection2D) -> PointCloud:
    """Camera-frame subset whose projection lands on a positive mask pixel.

    The pixel is selected by floor(u), floor(v); projections outside the
    bitmap are simply excluded. Whenever the mask's support lies inside the
    detection bbox this is a subset of the box-frustum result.
    """
    mask = det.mask.load()
    projection.require_crop((mask.shape[1], mask.shape[0]))
    idx, flat = projection.pixel_index(mask.shape)
    hit = mask.reshape(-1)[flat] > 0
    return projection.camera.select(idx[hit])


def frustum_rotations(
    points: np.ndarray,
    bounds: np.ndarray,
    detections: Sequence[Detection2D],
    calib: CalibrationSet,
) -> tuple[np.ndarray, np.ndarray]:
    """frustum_rotation of each segment points[bounds[k]:bounds[k + 1]] by detections[k].

    Returns (rotated points, (K,) theta). All center rays are solved in one
    stacked call, the same LAPACK solve per ray as a one-ray call; each
    segment is rotated by its own product, written in place.
    """
    rhs = np.array([[*det.bbox_center, 1.0] for det in detections]).reshape(-1, 3, 1)
    rays = np.linalg.solve(np.broadcast_to(calib.P2[:, :3], (len(rhs), 3, 3)), rhs)
    theta = np.array([math.atan2(x, z) for x, _, z in rays[:, :, 0]])
    rotated = np.empty_like(points)
    for angle, start, stop in zip(theta, bounds[:-1], bounds[1:]):
        np.matmul(points[start:stop], rot_y(-angle).T, out=rotated[start:stop])
    return rotated, theta


def frustum_rotation(
    cloud: PointCloud, det: Detection2D, calib: CalibrationSet
) -> tuple[PointCloud, float]:
    """Rotate camera points so the detection's center ray becomes the z axis.

    The center ray is the bbox center pixel back-projected through the left
    3x3 of P2 at unit depth; theta = atan2(x, z) of that ray. Every point is
    rotated by -theta about the camera vertical axis (norm-preserving).
    """
    _require_frame(cloud, Frame.CAMERA)
    rotated, theta = frustum_rotations(cloud.points, [0, len(cloud)], [det], calib)
    return PointCloud._wrap(rotated, Frame.FRUSTUM), float(theta[0])
