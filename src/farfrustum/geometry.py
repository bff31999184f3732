"""Coordinate chain from raw lidar to a detection's frustum frame.

Frames: lidar -> rectified camera (rigid transform + rectification) ->
frustum (camera rotated about its vertical axis so the detection's center
ray becomes +z).

The lidar -> camera -> image step depends only on the frame, so it runs
once per frame. ``project_cloud`` keeps only the points that can be frustum
members: those in front of the camera with finite pixels and, given a crop
(u0, v0, u1, v1), with u0 <= u < u1 and v0 <= v < v1. A frame's crop is
``detection_window``: the bounding rectangle of its detections' clamped
boxes, or the whole image (0, 0, W, H) when one of them is cut by its mask.
The crop loses nothing, since each box frustum lies in its clamped box and a
mask of the image's size holds no point off the image; ``frustum_rows``
refuses a frustum that leaves the crop. Given a crop, a pre-test first drops the points
that are certainly behind the camera or outside it, by one product with a
6x3 matrix built once per frame; its margin, 2^-40 of the magnitude each
tested value reaches on points within MAX_POINT_RANGE_M, dwarfs the
rounding of either path, so the chain alone decides which of the other
points are kept. The pre-test runs over blocks of ``BLOCK_ROWS`` rows of
the cloud; a chain block of ``CHAIN_ROWS`` candidates is gathered as whole
rows (one ``np.take``) and cast to float64 once, so each temporary has a
block's size, not the cloud's, and each block's kept points, u and v go
straight into arrays sized for every candidate. Each 3x4 transform is
applied as an affine map (``kitti_io.apply_affine``). From two rows on it
rounds as the homogeneous product, but numpy hands a one-row product to
BLAS gemv, which rounds otherwise, so a lone tail row joins the block
before it and a lone candidate takes a neighbour along.
``frustum_rows`` cuts each detection's frustum from that projection as rows
of its camera points (``points_in_box_frustum`` and ``points_in_mask_frustum``
cut one) and refuses a detection whose image size differs from the
projection's or whose frustum leaves its crop (``CropMismatch``);
``frustum_rotations`` then rotates all of a frame's frustums, held as segments
of one array, in one call (every matrix from one ``rot_ys``).
``regressor.frustum_chain`` is the one caller of the crop, the projection and
the cut, for ``run`` and ``train`` alike. All operations preserve point order,
and a projection is never modified after it is built.

Clouds and calibrations are checked where they are built (``kitti_io``), so
no product here overflows, and ``frustum_rotation`` can back-project through
P2 because ``CalibrationSet`` refuses a singular left 3x3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CropMismatch, FrameMismatch
from .kitti_io import CalibrationSet, Detection2D, Frame, PointCloud, apply_affine, mul_rows

BLOCK_ROWS = 8192  # a screen block's temporaries (384 kB at most) stay in L2 cache
# Half-size chain blocks, never joined, keep a run_kitti frame's heap peak 0.6 MB
# lower, so the allocator does not hand the heap top back and refault it each frame.
CHAIN_ROWS = 4096
_SLACK = 2.0**-40  # >100x the relative rounding either path to a pre-test row adds


def rot_y(angle: float) -> np.ndarray:
    """Rotation about the camera vertical (y) axis; adds `angle` to azimuth.

    Azimuth is atan2(x, z), so rot_y(a) maps a point at azimuth t to
    azimuth t + a while preserving y and the Euclidean norm.
    """
    return rot_ys([angle])[0]


def rot_ys(angles: Sequence[float]) -> np.ndarray:
    """rot_y of every angle, as one (K, 3, 3) array; each entry is math.cos or math.sin."""
    entries: list[float] = []
    for angle in angles:
        c, s = math.cos(angle), math.sin(angle)
        entries += (c, 0.0, s, 0.0, 1.0, 0.0, -s, 0.0, c)
    return np.array(entries).reshape(-1, 3, 3)


def _require_frame(cloud: PointCloud, frame: Frame) -> None:
    if cloud.frame != frame:
        raise FrameMismatch(f"expected {frame.value} cloud, got {cloud.frame.value}")


def lidar_to_camera(cloud: PointCloud, calib: CalibrationSet) -> PointCloud:
    """Map lidar points into the rectified camera frame: R0 . (Tr . [p;1])."""
    _require_frame(cloud, Frame.LIDAR)
    rect = mul_rows(apply_affine(cloud.points, calib.Tr_velo_to_cam), calib.R0_rect.T)
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
        np.divide(uvw[:, :2].T, uvw[:, 2], out=uv)
    finite = np.isfinite(uv)
    valid = (cloud.points[:, 2] > 0) & finite[0] & finite[1]
    return uv.T, valid


Window = tuple[float, float, float, float]  # a pixel rectangle (u0, v0, u1, v1)


@dataclass(frozen=True, eq=False)
class CloudProjection:
    """The points of one frame that can be frustum members, on the image plane.

    Rows keep the input order: the points in front of the camera with
    finite pixels and, when `window` (u0, v0, u1, v1) is set, u0 <= u < u1
    and v0 <= v < v1. With `image_size` (W, H) set, the window lies in
    (0, 0, W, H).
    """

    camera: PointCloud   # camera-frame points
    u: np.ndarray        # (N,) pixel columns, contiguous, read-only
    v: np.ndarray        # (N,) pixel rows, contiguous, read-only
    image_size: tuple[int, int] | None  # the image (W, H), or None
    window: Window | None  # the crop, or None

    def require_crop(self, image_size: tuple[int, int] | None, rect: Window) -> None:
        """Raise CropMismatch unless a frustum within `rect` on an image of that size
        lies in the crop; an empty `rect` always does."""
        if self.image_size is not None and image_size != self.image_size:
            raise CropMismatch(
                f"detection image size {image_size} differs from the projection's "
                f"image {self.image_size}"
            )
        u0, v0, u1, v1 = rect
        if self.window is not None and u0 < u1 and v0 < v1:
            wu0, wv0, wu1, wv1 = self.window
            if not (wu0 <= u0 and wv0 <= v0 and u1 <= wu1 and v1 <= wv1):
                raise CropMismatch(f"frustum {rect} leaves the projection's crop {self.window}")


def _clamped(det: Detection2D) -> Window:
    """The detection's box, clamped to its image when the image's size is known."""
    u0, v0, u1, v1 = det.bbox
    if det.image_size is not None:
        w, h = det.image_size
        u0, u1 = max(u0, 0.0), min(u1, float(w))
        v0, v1 = max(v0, 0.0), min(v1, float(h))
    return u0, v0, u1, v1


def detection_window(detections: Sequence[Detection2D], masks: bool) -> Window | None:
    """The crop that holds every frustum of `detections`, cut as ``frustum_rows`` cuts them.

    The bounding rectangle of their clamped boxes; a box that misses its image adds nothing
    (no box: the empty (0, 0, 0, 0)); None, for the whole image, when `masks` is set and
    a detection has a mask.
    """
    if masks and any(det.mask is not None for det in detections):
        return None
    boxes = [box for box in map(_clamped, detections) if box[0] < box[2] and box[1] < box[3]]
    if not boxes:
        return (0.0, 0.0, 0.0, 0.0)
    u0, v0, u1, v1 = zip(*boxes)
    return min(u0), min(v0), max(u1), max(v1)


def _blocks(n: int, size: int = BLOCK_ROWS) -> list[tuple[int, int]]:
    """(start, stop) rows of each block of n; a lone tail row joins the one before."""
    starts = list(range(0, n, size)) or [0]
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _screen(calib: CalibrationSet, window: Window) -> tuple[np.ndarray, np.ndarray]:
    """The pre-test: a 6x3 matrix and the limit each row of its product must reach.

    Rows: camera z, w, u*w - u0*w, u1*w - u*w, v*w - v0*w, v1*w - v*w, less
    their offsets. Each limit is widened by _SLACK of the row's reach plus w's
    (a tiny negative u rounds to -0.0); the w limit is raised, to mean w > 0.
    """
    u0, v0, u1, v1 = window
    uw, vw, w = calib._image  # built with the calibration, once per distinct text
    rows = np.array([calib._camera[2], w, uw - u0 * w, u1 * w - uw, vw - v0 * w, v1 * w - vw])
    (_, _, rz), (ru, rv, rw) = calib._reach
    reach = np.array([rz, rw, ru + abs(u0) * rw, ru + abs(u1) * rw,
                      rv + abs(v0) * rw, rv + abs(v1) * rw]) + rw
    sign = np.array([-1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
    return rows[:, :3], (sign * _SLACK * reach - rows[:, 3])[:, None]


def _candidates(points: np.ndarray, matrix: np.ndarray, limits: np.ndarray) -> np.ndarray:
    """Rows not certainly behind the camera or outside the crop, tested block by block;
    never just one of several."""
    rows = []
    for start, stop in _blocks(len(points)):  # matmul promotes a scan's float32 block
        passed = matrix @ points[start:stop].T >= limits
        rows.append(start + np.flatnonzero(passed[0] & (~passed[1] | passed[2:].all(axis=0))))
    rows = np.concatenate(rows)
    if len(rows) == 1 < len(points):
        rows = np.arange(2) + max(rows[0] - 1, 0)
    return rows


def project_cloud(
    cloud: PointCloud,
    calib: CalibrationSet,
    image_size: tuple[int, int] | None = None,
    window: Window | None = None,
) -> CloudProjection:
    """Project a lidar cloud once, keeping the rows that can be frustum members.

    The crop is `window` (u0, v0, u1, v1), clipped to the image (W, H) when
    `image_size` is given; without a window it is the whole image, or nothing
    without either. The candidate rows (every row without a crop) go through
    ``lidar_to_camera`` and ``project_to_image`` in blocks of CHAIN_ROWS; only the
    points inside the crop are kept, in arrays sized for every candidate.
    """
    if image_size is not None:
        w, h = image_size
        u0, v0, u1, v1 = (0.0, 0.0, float(w), float(h)) if window is None else window
        window = (max(u0, 0.0), max(v0, 0.0), min(u1, float(w)), min(v1, float(h)))
    rows = None if window is None else _candidates(cloud.points, *_screen(calib, window))
    n = len(cloud) if rows is None else len(rows)
    points, uv, kept = np.empty((n, 3)), np.empty((2, n)), 0
    for start, stop in _blocks(n, CHAIN_ROWS):
        records = cloud.select(slice(start, stop) if rows is None else rows[start:stop])._rows
        records = records.astype(np.float64, copy=False)  # exact, one contiguous cast
        camera = lidar_to_camera(PointCloud._wrap(records[:, :3], cloud.frame, records), calib)
        del records  # freed before the projection's temporaries
        block_uv, keep = project_to_image(camera, calib)
        u, v = block_uv[:, 0], block_uv[:, 1]
        if window is not None:
            u0, v0, u1, v1 = window
            keep &= (u >= u0) & (u < u1) & (v >= v0) & (v < v1)
        idx = np.flatnonzero(keep)
        end = kept + len(idx)
        for part, out in ((camera.points, points), (u, uv[0]), (v, uv[1])):
            out[kept:end] = part if len(idx) == len(part) else np.take(part, idx, axis=0)
        kept = end
    points, (u, v) = points[:kept], uv[:, :kept]
    u.setflags(write=False)
    v.setflags(write=False)
    return CloudProjection(PointCloud._wrap(points, Frame.CAMERA), u, v, image_size, window)


def _pixel_index(u: np.ndarray, v: np.ndarray, shape: tuple[int, int]):
    """(rows whose floor(u), floor(v) pixel lies in an (H, W) bitmap, that
    pixel's row-major flat index)."""
    h, w = shape
    with np.errstate(invalid="ignore"):  # a finite pixel can exceed int64
        iu = np.floor(u).astype(np.int64, copy=False)
        iv = np.floor(v).astype(np.int64, copy=False)
    idx = np.flatnonzero((iu >= 0) & (iu < w) & (iv >= 0) & (iv < h))
    return idx, iv[idx] * w + iu[idx]


def frustum_rows(
    projection: CloudProjection, detections: Sequence[Detection2D], masks: bool
) -> Iterator[np.ndarray]:
    """Each detection's frustum as increasing rows of projection.camera, in order.

    With `masks`, a detection that has a mask keeps the rows whose floor(u),
    floor(v) pixel is positive on it (the pixel index is built once per mask
    shape); any other keeps those in its image-clamped box, u0 <= u < u1 and
    v0 <= v < v1 (one mask, narrowed in place). A mask that fails to load, or a
    detection whose image size differs from the projection's or whose box or
    mask image leaves the crop (CropMismatch), raises after the segments before it.
    """
    u, v = projection.u, projection.v
    pixels: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for det in detections:
        if masks and det.mask is not None:
            mask = det.mask.load()
            h, w = mask.shape
            projection.require_crop((w, h), (0.0, 0.0, float(w), float(h)))
            if mask.shape not in pixels:
                pixels[mask.shape] = _pixel_index(u, v, mask.shape)
            idx, flat = pixels[mask.shape]
            yield idx[mask.reshape(-1)[flat] > 0]
        else:
            box = _clamped(det)
            projection.require_crop(det.image_size, box)
            u0, v0, u1, v1 = box
            inside = u >= u0
            inside &= u < u1
            inside &= v >= v0
            inside &= v < v1
            yield inside.nonzero()[0]


def points_in_box_frustum(projection: CloudProjection, det: Detection2D) -> PointCloud:
    """Camera-frame subset of the cloud whose projection falls in the 2D box
    (frustum_rows of the one detection, without its mask)."""
    return projection.camera.select(next(frustum_rows(projection, [det], masks=False)))


def points_in_mask_frustum(projection: CloudProjection, det: Detection2D) -> PointCloud:
    """Camera-frame subset whose projection lands on a positive mask pixel
    (frustum_rows of the one detection). Whenever the mask's support lies
    inside the detection bbox this is a subset of the box-frustum result."""
    return projection.camera.select(next(frustum_rows(projection, [det], masks=True)))


def frustum_rotations(
    points: np.ndarray,
    bounds: np.ndarray,
    detections: Sequence[Detection2D],
    calib: CalibrationSet,
) -> tuple[np.ndarray, np.ndarray]:
    """frustum_rotation of each segment points[bounds[k]:bounds[k + 1]] by detections[k].

    Returns (rotated points, (K,) theta). All center rays are solved in one
    stacked call, the same LAPACK solve per ray as a one-ray call, and every
    matrix in one ``rot_ys``; each segment is rotated by its own product,
    written in place, as in a one-segment call.
    """
    rhs = np.array([[*det.bbox_center, 1.0] for det in detections]).reshape(-1, 3, 1)
    rays = np.linalg.solve(np.broadcast_to(calib.P2[:, :3], (len(rhs), 3, 3)), rhs)
    theta = np.array([math.atan2(x, z) for x, _, z in rays[:, :, 0].tolist()])
    rotated = np.empty_like(points)
    bounds = np.asarray(bounds).tolist()
    for m, start, stop in zip(rot_ys((-theta).tolist()), bounds[:-1], bounds[1:]):
        np.matmul(points[start:stop], m.T, out=rotated[start:stop])
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
