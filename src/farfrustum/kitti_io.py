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
different frames can be parsed in parallel, and frames that repeat a
calibration text share its one parsed set.

Point arrays are checked where they enter: ``load_pointcloud`` returns a
read-only view of the file's float32 records, and its subsets stay float32;
built and computed clouds hold float64. Arithmetic promotes points to float64
first (a product with a float64 matrix does so itself), which is exact. A cloud
keeps its C-contiguous row storage (a scan's (N, 4) records): a row gather is one
``np.take`` of whole rows. A product of (N, 3) rows and a 3x3 matrix takes the
matrix C-contiguous (``mul_rows``): BLAS is about 3x slower over a transposed view.
A calibration is checked when it is built: it is bounded, so no product of
a checked cloud and its matrices overflows, and it refuses a mount that is
not rigid (a rotation and an offset within MAX_MOUNT_OFFSET_M) and a P2
whose left 3x3 is singular. Every ``Box3D`` has its center within
MAX_POINT_RANGE_M and its sizes in [MIN_BOX_SIZE_M, MAX_POINT_RANGE_M], so
its footprint area and volume are positive and finite; ``parse_labels``
runs each box through that one check on the floats it has just read. Every
edge of a ``Detection2D`` and of a label's 2D box lies within MAX_BBOX_PIXEL.
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BadBBox,
    BadCalibration,
    BadScore,
    FarFrustumError,
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
_CALIBRATION_CACHE_SIZE = 64  # distinct calibration texts kept parsed


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
    """Ordered set of finite 3D points, within MAX_POINT_RANGE_M when from outside;
    float32 for a scan from ``load_pointcloud`` and its subsets, else float64;
    ``_rows`` is the C-contiguous storage it views, a scan's (N, 4) records."""

    points: np.ndarray  # (N, 3) read-only; promote to float64 before arithmetic
    frame: Frame

    def __post_init__(self) -> None:  # copy and check an outside array
        pts = _readonly(self.points).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise NonFinitePoint("pointcloud contains non-finite coordinates")
        if len(pts) and not (pts.min() >= -MAX_POINT_RANGE_M
                             and pts.max() <= MAX_POINT_RANGE_M):
            raise PointOutOfRange(f"a coordinate lies beyond {MAX_POINT_RANGE_M:g} m")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_rows", pts)

    @classmethod
    def _wrap(cls, points: np.ndarray, frame: Frame,
              rows: np.ndarray | None = None) -> "PointCloud":
        """A cloud around a checked (N, 3) array, not copied: fresh, or a view of `rows`."""
        rows = points if rows is None else rows
        points.setflags(write=False)
        rows.setflags(write=False)
        cloud = object.__new__(cls)
        object.__setattr__(cloud, "points", points)
        object.__setattr__(cloud, "frame", frame)
        object.__setattr__(cloud, "_rows", rows)
        return cloud

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, mask: np.ndarray | slice) -> "PointCloud":
        """Subset by boolean mask, index array or slice, preserving point order;
        a slice is a view, any other subset one ``np.take`` of whole rows."""
        if isinstance(mask, slice):
            return PointCloud._wrap(self.points[mask], self.frame, self._rows[mask])
        if mask.dtype == bool:  # np.take would read it as 0/1 indices
            mask = np.flatnonzero(mask.reshape(len(self)))
        rows = np.take(self._rows, mask, axis=0)
        return PointCloud._wrap(rows[:, :3], self.frame, rows)


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
        for name, shape in (("P2", (3, 4)), ("R0_rect", (3, 3)), ("Tr_velo_to_cam", (3, 4))):
            object.__setattr__(self, name, _readonly(np.reshape(getattr(self, name), shape)))
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            reach = self.reach()
            biggest = np.abs(np.concatenate([self.P2.ravel(), self.R0_rect.ravel(),
                                             self.Tr_velo_to_cam.ravel(), *reach])).max()
        if not biggest <= MAX_CALIBRATION_MAGNITUDE:
            raise BadCalibration(f"an entry or a mapped {MAX_POINT_RANGE_M:g} m point exceeds "
                                 f"{MAX_CALIBRATION_MAGNITUDE:g}: products could turn non-finite")
        r = self.R0_rect
        err = np.abs(r @ r.T - np.eye(3)).max()
        if not err < ROTATION_TOLERANCE:
            raise BadCalibration(f"R0_rect not orthonormal (|R R^T - I| = {err:g})")
        r, offset = self.Tr_velo_to_cam[:, :3], self.Tr_velo_to_cam[:, 3]
        # a subnormal pivot makes det divide by zero; such a matrix is refused below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            err, det = np.abs(r @ r.T - np.eye(3)).max(), np.linalg.det(r)
            p2_det = np.linalg.det(self.P2[:, :3])
        if not (err < ROTATION_TOLERANCE and det > 0):
            raise BadCalibration(f"Tr_velo_to_cam is not a rotation "
                                 f"(|R R^T - I| = {err:g}, det = {det:g})")
        if not np.abs(offset).max() <= MAX_MOUNT_OFFSET_M:
            raise BadCalibration(f"Tr_velo_to_cam offsets the lidar beyond "
                                 f"{MAX_MOUNT_OFFSET_M:g} m")
        if not abs(p2_det) >= 1e-12:
            raise BadCalibration("left 3x3 of P2 is not invertible")
        camera = self.R0_rect @ self.Tr_velo_to_cam  # camera = R0 . (Tr . [p;1])
        image = self.P2 @ np.vstack([camera, [0.0, 0.0, 0.0, 1.0]])  # rows u*w, v*w, w
        for arr in (camera, image, *reach):  # geometry._screen's; one per cached text
            arr.setflags(write=False)
        self.__dict__.update(_camera=camera, _image=image, _reach=reach)

    def reach(self) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on |camera (x, y, z)| and |(u*w, v*w, w)| of a point within MAX_POINT_RANGE_M."""
        r = MAX_POINT_RANGE_M
        camera = np.abs(self.R0_rect) @ (np.abs(self.Tr_velo_to_cam) @ [r, r, r, 1.0])
        return camera, np.abs(self.P2) @ np.append(camera, 1.0)


def mul_rows(points: np.ndarray, m: np.ndarray) -> np.ndarray:
    """points @ m for (N, 3) rows and a 3x3 m, the same bits with m C-contiguous; one
    row goes to gemv, whose rounding depends on that layout, so it keeps m as given."""
    return points @ (m if len(points) == 1 else np.ascontiguousarray(m))


def apply_affine(points: np.ndarray, m: np.ndarray) -> np.ndarray:
    """[p;1] . m^T for each row p of (N, 3) points and a 3x4 matrix, as a fresh array.

    No (N, 4) copy, float32 promoted exactly, ``mul_rows``: from two rows on this
    rounds as that product.
    """
    out = mul_rows(points, m[:, :3].T)
    for k in range(3):  # column by column: a broadcast (N, 3) add is 2x slower
        out[:, k] += m[k, 3]
    return out


@functools.lru_cache(maxsize=_CALIBRATION_CACHE_SIZE)
def parse_calibration(text: str) -> CalibrationSet:
    """Parse a KITTI calibration file (``key: v v v ...`` lines).

    Only P2 (the left color camera's projection), R0_rect, and
    Tr_velo_to_cam are consumed, each once; other keys are ignored. Raises
    MissingCalibKey / MalformedCalibLine on bad input (a consumed key given
    twice, too) and BadCalibration on matrices that CalibrationSet refuses.
    The frames of one drive repeat one text: the last _CALIBRATION_CACHE_SIZE
    texts parsed map to their one read-only set; a text that raises is not kept.
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
        if key in found:
            raise MalformedCalibLine(f"{key}: repeated key")
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

    Every value must be finite and every coordinate within MAX_POINT_RANGE_M of
    the sensor; the intensity is checked, then dropped. A scan whose float32
    minimum and maximum both lie within MAX_POINT_RANGE_M passes every check at
    once (a NaN fails the comparison); any other scan goes through the checks one
    by one (intensity, coordinate finiteness, range) and raises the first that
    fails. Either way the points are a read-only float32 view of the records, its rows.
    """
    if len(data) % POINT_RECORD_BYTES != 0:
        raise TruncatedPointcloud(
            f"byte length {len(data)} is not a multiple of {POINT_RECORD_BYTES}"
        )
    raw = np.frombuffer(bytes(data), dtype="<f4").reshape(-1, 4)  # a mutable buffer is copied
    if not (len(raw) and -MAX_POINT_RANGE_M <= raw.min() and raw.max() <= MAX_POINT_RANGE_M):
        if not np.isfinite(raw[:, 3]).all():
            raise NonFinitePoint("pointcloud contains non-finite intensities")
        PointCloud(raw[:, :3], Frame.LIDAR)  # the remaining checks, in order
    return PointCloud._wrap(raw[:, :3], Frame.LIDAR, raw)


def write_whole(path: str | Path, data: str | bytes) -> None:
    """Write a file whole, as a temporary file beside it renamed onto it, or not at all:
    a failed write leaves the old file, no temporary one, and a FarFrustumError naming
    the path; any other exception (an interrupt) leaves the same and is re-raised as it
    is. An existing path that is no regular file (a pipe, a device) is written in place."""
    path = Path(path)
    special = path.exists() and not path.is_file()
    tmp = path if special else path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(data) if isinstance(data, str) else tmp.write_bytes(data)
        if not special:
            os.replace(tmp, path)
    except OSError as exc:
        raise FarFrustumError(f"{path}: cannot write ({exc.strerror or exc})") from exc
    finally:  # after a rename the temporary name is gone already
        if not special:
            tmp.unlink(missing_ok=True)


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
    """Write a (H, W) array of integers in [0, 255] as a binary (P5) PGM file."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ShapeError(f"PGM image must be 2-D, got shape {img.shape}")
    if not (img.dtype == np.uint8 or img.dtype.kind in "biuf"  # refused, not wrapped
            and np.all((np.floor(img) == img) & (img >= 0) & (img <= 255))):
        raise MalformedMask(f"{path}: PGM values must be integers in [0, 255]")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.astype(np.uint8, copy=False).tobytes())


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
        _check_detection(self.score, self.bbox)

    @classmethod
    def _checked(cls, frame_id: str, class_name: str, score: float, bbox: tuple[float, ...],
                 mask: MaskRef | None, image_size: tuple[int, int] | None) -> "Detection2D":
        """A detection from fields already of their types: checked, not converted again."""
        _check_detection(score, bbox)
        det = object.__new__(cls)
        det.__dict__.update(frame_id=frame_id, class_name=class_name, score=score, bbox=bbox,
                            mask=mask, image_size=image_size)
        return det

    @property
    def bbox_center(self) -> tuple[float, float]:
        u0, v0, u1, v1 = self.bbox
        return (0.5 * (u0 + u1), 0.5 * (v0 + v1))


def _check_detection(score: float, bbox: tuple[float, float, float, float]) -> None:
    """The bounds every Detection2D is built under; see Detection2D."""
    if not 0.0 <= score <= 1.0:
        raise BadScore(f"score {score} outside [0, 1]")
    u0, v0, u1, v1 = bbox
    if not (abs(u0) <= MAX_BBOX_PIXEL and abs(v0) <= MAX_BBOX_PIXEL
            and abs(u1) <= MAX_BBOX_PIXEL and abs(v1) <= MAX_BBOX_PIXEL):
        raise BadBBox(f"bbox edge beyond {MAX_BBOX_PIXEL:g} px or non-finite in {bbox}")
    if not (u0 < u1 and v0 < v1):
        raise BadBBox(f"inverted bbox {bbox}")


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
    size = (int(image_dims[0]), int(image_dims[1]))
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
            bbox = tuple(map(float, tokens[3:7]))
        except ValueError as exc:
            raise MalformedDetectionLine(f"{exc}: {line!r}") from exc
        mask = None
        if len(tokens) == 8:
            mask_path = Path(tokens[7])
            if mask_dir is not None and not mask_path.is_absolute():
                mask_path = Path(mask_dir) / mask_path
            mask = MaskRef(mask_path, size)
        out.append(Detection2D._checked(tokens[0], tokens[1].lower(), score, bbox, mask, size))
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
    Truncation, occlusion and alpha must be numbers and are not kept. 2D box
    edges must lie within MAX_BBOX_PIXEL; an inverted or empty 2D box is kept.
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
            vals = list(map(float, tokens[1:]))
        except ValueError as exc:
            raise MalformedLabelLine(f"{exc}: {line!r}") from exc
        u0, v0, u1, v1 = bbox2d = (vals[3], vals[4], vals[5], vals[6])
        if not (abs(u0) <= MAX_BBOX_PIXEL and abs(v0) <= MAX_BBOX_PIXEL
                and abs(u1) <= MAX_BBOX_PIXEL and abs(v1) <= MAX_BBOX_PIXEL):
            raise MalformedLabelLine(f"2D box edge not within {MAX_BBOX_PIXEL:g} px: {line!r}")
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


# type -1 -1 alpha bbox(4) h w l x y z rotation_y score: parse_labels' layout, scored
_RESULT_LINE = "%s -1 -1" + " %.4f" * 13 + "\n"


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
    for box, (u0, v0, u1, v1) in zip(boxes, _projected_bboxes(boxes, calib, image_dims).tolist()):
        x, y, z = box.center
        w, l, h = box.size
        alpha = wrap_angle(box.yaw - math.atan2(x, z))
        lines.append(_RESULT_LINE % (box.class_name.capitalize(), alpha, u0, v0, u1, v1,
                                     h, w, l, x, y, z, box.yaw, box.score))
    return "".join(lines)
