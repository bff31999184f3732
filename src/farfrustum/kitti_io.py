"""KITTI-format file I/O.

Covers every on-disk format the pipeline exchanges with the outside world:

* calibration text files (``P2``, ``R0_rect``, ``Tr_velo_to_cam``),
* velodyne scans as little-endian float32 ``(x, y, z, intensity)`` records,
  of which only the finite ``(x, y, z)`` is kept,
* label / result text files (15 fields, optional trailing score),
* 2D detection lists with optional P5 PGM instance masks.

Parsers tolerate repeated whitespace and blank lines. ``write_results``
produces text that round-trips through ``parse_labels`` to 1e-4 on every
numeric field. All returned objects are immutable after construction, so
different frames can be parsed in parallel.

Point arrays are checked where they enter: by ``load_pointcloud`` and by
the ``PointCloud`` constructor. ``load_pointcloud`` accepts a scan whose
float32 minimum and maximum lie within MAX_POINT_RANGE_M on those two
passes alone and casts its coordinates without a second check; only a scan
that fails them goes through the per-check path. Derived clouds wrap fresh
arrays uncopied.
A calibration is checked when it is built: it is bounded, so no product of
a checked cloud and its matrices overflows, and it refuses a mount that is
not rigid (a rotation and an offset within MAX_MOUNT_OFFSET_M) and a P2
whose left 3x3 is singular. Every ``Box3D`` has its center within
MAX_POINT_RANGE_M and its sizes in [MIN_BOX_SIZE_M, MAX_POINT_RANGE_M], so
its footprint area and volume are positive and finite; ``parse_labels``
runs each box through that one check on the floats it has just read. Every
``Detection2D`` edge lies within MAX_BBOX_PIXEL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BadBBox,
    BadCalibration,
    BadScore,
    MalformedCalibLine,
    MalformedDetectionLine,
    MalformedLabelLine,
    MalformedMask,
    MaskDimMismatch,
    MissingCalibKey,
    NonFiniteBox,
    NonFinitePoint,
    PointOutOfRange,
    ShapeError,
    TruncatedPointcloud,
    ZeroAreaBox,
)

POINT_RECORD_BYTES = 16  # four little-endian float32 per point
MAX_POINT_RANGE_M = 1e4  # no lidar reaches 10 km: a farther point is a corrupt record
MIN_BOX_SIZE_M = 0.01  # the resolution of KITTI label sizes
# A 3x3 determinant or a pixel times an image size stays finite below this.
MAX_CALIBRATION_MAGNITUDE = 1e100
MAX_MOUNT_OFFSET_M = 100.0  # a lidar this far from its camera is not on the same vehicle
ROTATION_TOLERANCE = 1e-3  # largest |R R^T - I| of a calibration rotation
MAX_BBOX_PIXEL = 1e5  # a 2D box edge this far off any image is a corrupt record


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians into (-pi, pi]."""
    a = angle % (2.0 * math.pi)  # [0, 2*pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    return a


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """wrap_angle on every element, bit for bit: the same fmod, then sign fix."""
    a = np.remainder(angles, 2.0 * math.pi)
    return np.where(a > math.pi, a - 2.0 * math.pi, a)


class Frame(str, Enum):
    """Coordinate frame a pointcloud lives in."""

    LIDAR = "lidar"
    CAMERA = "camera"      # rectified camera: x right, y down, z forward
    FRUSTUM = "frustum"    # camera rotated so the frustum center ray is +z


def _readonly(arr: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # a signaling NaN: every caller refuses it
        out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PointCloud:
    """Ordered set of finite 3D points, within MAX_POINT_RANGE_M when from outside."""

    points: np.ndarray  # (N, 3) float64, read-only
    frame: Frame

    def __post_init__(self) -> None:  # copy and check an outside array
        pts = _readonly(self.points).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise NonFinitePoint("pointcloud contains non-finite coordinates")
        if len(pts) and not (pts.min() >= -MAX_POINT_RANGE_M
                             and pts.max() <= MAX_POINT_RANGE_M):
            raise PointOutOfRange(f"a coordinate lies beyond {MAX_POINT_RANGE_M:g} m")
        object.__setattr__(self, "points", pts)

    @classmethod
    def _wrap(cls, points: np.ndarray, frame: Frame) -> "PointCloud":
        """A cloud around a fresh finite (N, 3) float64 array, not copied."""
        points.setflags(write=False)
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "points", points)
        object.__setattr__(cloud, "frame", frame)
        return cloud

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, mask: np.ndarray) -> "PointCloud":
        """Subset by boolean mask, index array or slice, preserving point order."""
        return PointCloud._wrap(self.points[mask], self.frame)


@dataclass(frozen=True)
class CalibrationSet:
    """Projection and mounting matrices for one frame; BadCalibration past
    MAX_CALIBRATION_MAGNITUDE on an entry or on ``reach()``, for an R0_rect
    that is not orthonormal, for a mount that is not rigid (a rotation, each
    offset within MAX_MOUNT_OFFSET_M) and for a P2 whose left 3x3 cannot
    back-project a pixel. So every point within MAX_POINT_RANGE_M lies
    within about 17.6 km of the camera."""

    P2: np.ndarray               # 3x4 camera projection, pixels
    R0_rect: np.ndarray          # 3x3 rectification rotation
    Tr_velo_to_cam: np.ndarray   # 3x4 rigid lidar-to-camera transform, meters

    def __post_init__(self) -> None:
        object.__setattr__(self, "P2", _readonly(np.reshape(self.P2, (3, 4))))
        object.__setattr__(self, "R0_rect", _readonly(np.reshape(self.R0_rect, (3, 3))))
        object.__setattr__(
            self, "Tr_velo_to_cam", _readonly(np.reshape(self.Tr_velo_to_cam, (3, 4)))
        )
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            biggest = np.abs(np.concatenate([self.P2.ravel(), self.R0_rect.ravel(),
                                             self.Tr_velo_to_cam.ravel(), *self.reach()])).max()
        if not biggest <= MAX_CALIBRATION_MAGNITUDE:
            raise BadCalibration(f"an entry or a mapped {MAX_POINT_RANGE_M:g} m point exceeds "
                                 f"{MAX_CALIBRATION_MAGNITUDE:g}: products could turn non-finite")
        r = self.R0_rect
        err = np.abs(r @ r.T - np.eye(3)).max()
        if not err < ROTATION_TOLERANCE:
            raise BadCalibration(f"R0_rect not orthonormal (|R R^T - I| = {err:g})")
        r, offset = self.Tr_velo_to_cam[:, :3], self.Tr_velo_to_cam[:, 3]
        err, det = np.abs(r @ r.T - np.eye(3)).max(), np.linalg.det(r)
        if not (err < ROTATION_TOLERANCE and det > 0):
            raise BadCalibration(f"Tr_velo_to_cam is not a rotation "
                                 f"(|R R^T - I| = {err:g}, det = {det:g})")
        if not np.abs(offset).max() <= MAX_MOUNT_OFFSET_M:
            raise BadCalibration(f"Tr_velo_to_cam offsets the lidar beyond "
                                 f"{MAX_MOUNT_OFFSET_M:g} m")
        if abs(np.linalg.det(self.P2[:, :3])) < 1e-12:
            raise BadCalibration("left 3x3 of P2 is not invertible")

    def reach(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on |camera (x, y, z)| and |(u*w, v*w, w)| of a point within MAX_POINT_RANGE_M."""
        r = MAX_POINT_RANGE_M
        camera = np.abs(self.R0_rect) @ (np.abs(self.Tr_velo_to_cam) @ [r, r, r, 1.0])
        return camera, np.abs(self.P2) @ np.append(camera, 1.0)


def apply_affine(points: np.ndarray, m: np.ndarray) -> np.ndarray:
    """[p;1] . m^T for each row p of (N, 3) points and a 3x4 matrix, as a fresh array.

    No homogeneous (N, 4) copy: from two rows on this rounds as that product.
    """
    out = points @ m[:, :3].T
    for k in range(3):  # column by column: a broadcast (N, 3) add is 2x slower
        out[:, k] += m[k, 3]
    return out


def parse_calibration(text: str) -> CalibrationSet:
    """Parse a KITTI calibration file (``key: v v v ...`` lines).

    Only P2 (the left color camera's projection), R0_rect, and
    Tr_velo_to_cam are consumed; other keys are ignored. Raises
    MissingCalibKey / MalformedCalibLine on bad input and BadCalibration on
    matrices that CalibrationSet refuses.
    """
    wanted = {"P2": 12, "R0_rect": 9, "Tr_velo_to_cam": 12}
    found: dict[str, np.ndarray] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or ":" not in line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in wanted:
            continue
        tokens = rest.split()
        if len(tokens) != wanted[key]:
            raise MalformedCalibLine(
                f"{key}: expected {wanted[key]} values, got {len(tokens)}"
            )
        try:
            found[key] = np.array([float(t) for t in tokens], dtype=np.float64)
        except ValueError as exc:
            raise MalformedCalibLine(f"{key}: {exc}") from exc
        if not np.isfinite(found[key]).all():
            raise MalformedCalibLine(f"{key}: values must be finite")
    for key in wanted:
        if key not in found:
            raise MissingCalibKey(f"calibration is missing required key {key}")
    return CalibrationSet(
        P2=found["P2"].reshape(3, 4),
        R0_rect=found["R0_rect"].reshape(3, 3),
        Tr_velo_to_cam=found["Tr_velo_to_cam"].reshape(3, 4),
    )


def load_pointcloud(data: bytes) -> PointCloud:
    """Decode a velodyne binary: consecutive float32 LE (x, y, z, intensity).

    Every value must be finite and every coordinate within
    MAX_POINT_RANGE_M of the sensor; the intensity is checked, then dropped.
    A scan whose float32 minimum and maximum both lie within
    MAX_POINT_RANGE_M passes every check at once (a NaN fails the
    comparison), and its coordinates are cast column by column into a fresh
    C-contiguous array; any other scan goes through the checks one by one
    (intensity, then coordinate finiteness, then range) and raises the first
    that fails.
    """
    if len(data) % POINT_RECORD_BYTES != 0:
        raise TruncatedPointcloud(
            f"byte length {len(data)} is not a multiple of {POINT_RECORD_BYTES}"
        )
    raw = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    if len(raw) and -MAX_POINT_RANGE_M <= raw.min() and raw.max() <= MAX_POINT_RANGE_M:
        points = np.empty((len(raw), 3))
        for k in range(3):  # a long strided cast per column: an (N, 3) cast runs row by row
            points[:, k] = raw[:, k]
        return PointCloud._wrap(points, Frame.LIDAR)
    if not np.isfinite(raw[:, 3]).all():
        raise NonFinitePoint("pointcloud contains non-finite intensities")
    return PointCloud(raw[:, :3], Frame.LIDAR)


# --- P5 PGM masks ----------------------------------------------------------

def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary (P5) PGM file into a (H, W) uint8/uint16 array.

    Raises MalformedMask, naming the path, on a bad magic, a non-numeric or
    out-of-range header, or a raster shorter than the header declares.
    """
    data = Path(path).read_bytes()

    # Header is ASCII tokens (magic, width, height, maxval) with optional
    # '#' comments, followed by a single whitespace byte and the raster.
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while True:
            while pos < len(data) and data[pos : pos + 1].isspace():
                pos += 1
            if data[pos : pos + 1] != b"#":
                break
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise MalformedMask(f"{path}: not a P5 PGM file (magic {magic!r})")
    header = [next_token() for _ in range(3)]
    try:
        width, height, maxval = (int(tok) for tok in header)
    except ValueError:
        raise MalformedMask(f"{path}: non-numeric PGM header {header!r}") from None
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise MalformedMask(f"{path}: bad PGM header {width}x{height}, maxval {maxval}")
    pos += 1  # single whitespace after maxval
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height
    if len(data) - pos < count * dtype.itemsize:
        raise MalformedMask(f"{path}: PGM raster shorter than declared {width}x{height}")
    raster = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return raster.reshape(height, width)


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a (H, W) uint8 array as a binary (P5) PGM file."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ShapeError(f"PGM image must be 2-D, got shape {img.shape}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())


class MaskRef:
    """Lazily read P5 PGM instance mask, validated against the image size.

    Nothing is cached: each ``load`` decodes the file afresh, so a mask is
    freed as soon as its caller drops it.
    """

    def __init__(self, path: str | Path, expected_size: tuple[int, int]):
        self.path = Path(path)
        self.expected_size = (int(expected_size[0]), int(expected_size[1]))  # (W, H)

    def load(self) -> np.ndarray:
        img = read_pgm(self.path)
        h, w = img.shape
        if (w, h) != self.expected_size:
            raise MaskDimMismatch(
                f"{self.path}: mask is {w}x{h}, image is "
                f"{self.expected_size[0]}x{self.expected_size[1]}"
            )
        img.setflags(write=False)
        return img

    def __repr__(self) -> str:  # pragma: no cover
        return f"MaskRef({self.path})"


@dataclass(frozen=True)
class Detection2D:
    """One 2D detector output: class, score, pixel box, optional mask.

    An edge beyond MAX_BBOX_PIXEL or an inverted box raises BadBBox.
    """

    frame_id: str
    class_name: str
    score: float
    bbox: tuple[float, float, float, float]  # (u_min, v_min, u_max, v_max)
    mask: MaskRef | None = None
    image_size: tuple[int, int] | None = None  # (W, H), when known

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise BadScore(f"score {self.score} outside [0, 1]")
        u0, v0, u1, v1 = self.bbox
        if not all(-MAX_BBOX_PIXEL <= e <= MAX_BBOX_PIXEL for e in self.bbox):
            raise BadBBox(f"bbox edge beyond {MAX_BBOX_PIXEL:g} px or non-finite in {self.bbox}")
        if not (u0 < u1 and v0 < v1):
            raise BadBBox(f"inverted bbox {self.bbox}")

    @property
    def bbox_center(self) -> tuple[float, float]:
        u0, v0, u1, v1 = self.bbox
        return (0.5 * (u0 + u1), 0.5 * (v0 + v1))


def parse_detections(
    text: str,
    image_dims: tuple[int, int],
    mask_dir: str | Path | None = None,
) -> list[Detection2D]:
    """Parse a 2D detection list, one object per line, preserving file order.

    Line format: ``frame_id class score u_min v_min u_max v_max [mask_path]``.
    Mask paths are resolved against ``mask_dir`` and loaded lazily; their
    dimensions are checked against ``image_dims`` at load time.
    """
    out: list[Detection2D] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (7, 8):
            raise MalformedDetectionLine(
                f"expected 7 or 8 fields, got {len(tokens)}: {line!r}"
            )
        try:
            score = float(tokens[2])
            bbox = tuple(float(t) for t in tokens[3:7])
        except ValueError as exc:
            raise MalformedDetectionLine(f"{exc}: {line!r}") from exc
        mask = None
        if len(tokens) == 8:
            mask_path = Path(tokens[7])
            if mask_dir is not None and not mask_path.is_absolute():
                mask_path = Path(mask_dir) / mask_path
            mask = MaskRef(mask_path, image_dims)
        out.append(
            Detection2D(
                frame_id=tokens[0],
                class_name=tokens[1].lower(),
                score=score,
                bbox=bbox,  # type: ignore[arg-type]
                mask=mask,
                image_size=(int(image_dims[0]), int(image_dims[1])),
            )
        )
    return out


@dataclass(frozen=True)
class Box3D:
    """7-DoF upright box in the rectified camera frame.

    ``center`` is the KITTI location point: the center of the bottom face
    (y down, so the box spans y in [center.y - h, center.y]). ``size`` is
    (w, l, h) with length along the box's local x axis and width along its
    local z axis; ``yaw`` rotates about the camera vertical (y) axis.
    A center coordinate beyond MAX_POINT_RANGE_M, a size above it or a
    non-finite yaw raises NonFiniteBox; a size below MIN_BOX_SIZE_M raises
    ZeroAreaBox.
    """

    center: tuple[float, float, float]
    yaw: float
    size: tuple[float, float, float]  # (w, l, h)
    class_name: str
    score: float = 1.0

    def __post_init__(self) -> None:
        center = tuple(float(c) for c in self.center)
        size = tuple(float(s) for s in self.size)
        yaw = float(self.yaw)
        score = float(self.score)
        _check_box(center, yaw, size, score)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "yaw", wrap_angle(yaw))
        object.__setattr__(self, "score", score)

    @classmethod
    def _checked(cls, center: tuple[float, float, float], yaw: float,
                 size: tuple[float, float, float], class_name: str, score: float) -> "Box3D":
        """A box from fields that are already plain floats: checked, not converted again."""
        _check_box(center, yaw, size, score)
        box = object.__new__(cls)
        box.__dict__.update(center=center, yaw=wrap_angle(yaw), size=size,
                            class_name=class_name, score=score)
        return box

    def bev_corners(self) -> np.ndarray:
        """(4, 2) array of (x, z) ground-plane corners, counter-clockwise."""
        return bev_footprints([self])[0]

    def corners(self) -> np.ndarray:
        """(8, 3) camera-frame corners; rows 0-3 bottom face, 4-7 top face."""
        return box_corners([self])[0]


def _check_box(center: tuple[float, float, float], yaw: float,
               size: tuple[float, float, float], score: float) -> None:
    """The bounds every Box3D is built under; see Box3D."""
    r = MAX_POINT_RANGE_M
    x, y, z = center
    if not (-r <= x <= r and -r <= y <= r and -r <= z <= r and math.isfinite(yaw)):
        raise NonFiniteBox(f"box center beyond {r:g} m or non-finite yaw in "
                           f"{(*center, yaw)}")
    w, l, h = size
    if not (MIN_BOX_SIZE_M <= w <= r and MIN_BOX_SIZE_M <= l <= r and MIN_BOX_SIZE_M <= h <= r):
        if w <= r and l <= r and h <= r:
            raise ZeroAreaBox(f"box sizes must be at least {MIN_BOX_SIZE_M:g} m, got {size}")
        raise NonFiniteBox(f"box size above {r:g} m or non-finite in {size}")
    if not 0.0 <= score <= 1.0:
        raise BadScore(f"box score {score} outside [0, 1]")


_CORNER_SIGNS = np.array([1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0])  # (l, w) halves
_ROTATION_SIGNS = np.array([1.0, 1.0, -1.0, 1.0])  # [[c, s], [-s, c]]


def bev_footprints(boxes: Sequence[Box3D]) -> np.ndarray:
    """(K, 4, 2) counter-clockwise (x, z) ground-plane corners of K boxes.

    One stacked product turns every box; each box's (4, 2) @ (2, 2) product
    goes to the same BLAS call as on its own, so a box's corners do not
    depend on the boxes stacked with it.
    """
    fields = np.array(
        [(b.size[1], b.size[0], math.cos(b.yaw), math.sin(b.yaw), b.center[0], b.center[2])
         for b in boxes]
    ).reshape(-1, 6)
    half = fields[:, :2] / 2
    local = (half[:, [0, 1, 0, 1, 0, 1, 0, 1]] * _CORNER_SIGNS).reshape(-1, 4, 2)
    rot = (fields[:, [2, 3, 3, 2]] * _ROTATION_SIGNS).reshape(-1, 2, 2)
    return local @ rot.transpose(0, 2, 1) + fields[:, None, 4:]


def box_corners(boxes: Sequence[Box3D]) -> np.ndarray:
    """(K, 8, 3) camera-frame corners of K boxes; see Box3D.corners."""
    bev = bev_footprints(boxes)
    y = np.array([(b.center[1], b.center[1] - b.size[2]) for b in boxes]).reshape(-1, 2)
    corners = np.empty((len(boxes), 8, 3))
    corners[:, :4, 0::2] = corners[:, 4:, 0::2] = bev
    corners[:, :4, 1] = y[:, :1]  # bottom face
    corners[:, 4:, 1] = y[:, 1:]  # top face
    return corners


@dataclass(frozen=True)
class LabelRecord:
    """One parsed label/result line; DontCare rows carry no 3D box."""

    class_name: str
    box: Box3D | None
    bbox2d: tuple[float, float, float, float]
    dontcare: bool = False


def parse_labels(text: str) -> list[LabelRecord]:
    """Parse KITTI label/result lines, preserving file order.

    Field layout: type truncated occluded alpha bbox(4) h w l x y z
    rotation_y [score]. The on-disk (h, w, l) order is reordered into the
    Box3D (w, l, h) size convention; score defaults to 1.0 when absent.
    Truncation, occlusion and alpha must be numbers and are not kept.
    """
    out: list[LabelRecord] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (15, 16):
            raise MalformedLabelLine(
                f"expected 15 or 16 fields, got {len(tokens)}: {line!r}"
            )
        name = tokens[0].lower()
        try:
            vals = [float(t) for t in tokens[1:]]
        except ValueError as exc:
            raise MalformedLabelLine(f"{exc}: {line!r}") from exc
        bbox2d = (vals[3], vals[4], vals[5], vals[6])
        dontcare = name == "dontcare"
        box = None
        if not dontcare:
            h, w, l = vals[7], vals[8], vals[9]
            score = vals[14] if len(vals) == 15 else 1.0
            try:
                box = Box3D._checked((vals[10], vals[11], vals[12]), vals[13], (w, l, h),
                                     name, score)
            except (NonFiniteBox, ZeroAreaBox, BadScore) as exc:
                raise MalformedLabelLine(f"{exc}: {line!r}") from exc
        out.append(LabelRecord(name, box, bbox2d, dontcare))
    return out


def _projected_bboxes(
    boxes: list[Box3D], calib: CalibrationSet, image_dims: tuple[int, int]
) -> np.ndarray:
    """(K, 4) 2D bboxes of the boxes' projected corners, clamped to the image.

    Corners behind the camera are left out; a box with none in front gets
    an all-zero bbox. All corners of the frame go through one product.
    """
    corners = box_corners(boxes).reshape(-1, 3)
    uvw = apply_affine(corners, calib.P2)
    front = (corners[:, 2] > 0).reshape(-1, 8)
    with np.errstate(divide="ignore", invalid="ignore"):  # corners behind: masked
        u = (uvw[:, 0] / uvw[:, 2]).reshape(-1, 8)
        v = (uvw[:, 1] / uvw[:, 2]).reshape(-1, 8)
    w_img, h_img = image_dims
    bboxes = np.column_stack([
        np.clip(np.where(front, u, np.inf).min(axis=1), 0.0, w_img),
        np.clip(np.where(front, v, np.inf).min(axis=1), 0.0, h_img),
        np.clip(np.where(front, u, -np.inf).max(axis=1), 0.0, w_img),
        np.clip(np.where(front, v, -np.inf).max(axis=1), 0.0, h_img),
    ])
    bboxes[~front.any(axis=1)] = 0.0
    return bboxes


def write_results(
    boxes: list[Box3D], calib: CalibrationSet, image_dims: tuple[int, int]
) -> str:
    """Serialize boxes as KITTI result lines (label layout + trailing score).

    Round-trip property: ``parse_labels(write_results(boxes))`` reproduces
    every Box3D field to 1e-4 (yaw compared modulo 2*pi).
    """
    if not boxes:
        return ""
    lines = []
    for box, (u0, v0, u1, v1) in zip(boxes, _projected_bboxes(boxes, calib, image_dims)):
        x, y, z = box.center
        w, l, h = box.size
        alpha = wrap_angle(box.yaw - math.atan2(x, z))
        lines.append(
            f"{box.class_name.capitalize()} -1 -1 {alpha:.4f} "
            f"{u0:.4f} {v0:.4f} {u1:.4f} {v1:.4f} "
            f"{h:.4f} {w:.4f} {l:.4f} "
            f"{x:.4f} {y:.4f} {z:.4f} {box.yaw:.4f} {box.score:.4f}"
        )
    return "".join(line + "\n" for line in lines)
