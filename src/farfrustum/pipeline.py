"""Per-frame detection pipeline and batch dataset runner.

For every 2D detection: extract its frustum points, rotate to the frustum
frame, estimate the centroid by histogram clustering, and route by the
per-class faraway depth threshold; after the frustums, each step runs as one
array pass over all of a frame's detections (regressor.frustum_chain).
Faraway objects get a regressed 3D box anchored at the clustered centroid;
near-range objects are left to an external detector whose result files are
merged in as fallback boxes.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import regressor
from .clustering import DEFAULT_BIN_WIDTH, MIN_BIN_WIDTH
from .errors import (
    ConfigError,
    FarFrustumError,
    MalformedDetectionLine,
    MissingFrameData,
    NonFiniteBox,
    ZeroAreaBox,
)
from .evaluation import faraway_filter
from .geometry import project_cloud, rot_y
from .kitti_io import (
    MAX_BBOX_PIXEL,
    Box3D,
    CalibrationSet,
    Detection2D,
    LabelRecord,
    PointCloud,
    load_pointcloud,
    parse_calibration,
    parse_detections,
    parse_labels,
    wrap_angle,
    write_results,
    write_whole,
)
from .regressor import (  # is_faraway: the routing rule, for pipeline's callers
    BoxRegression,
    RegressorParams,
    Route,
    frustum_chain,
    frustum_points,
    is_faraway,
)

DEFAULT_THRESHOLDS: dict[str, float] = {"pedestrian": 60.0, "car": 75.0}
DEFAULT_IMAGE_SIZE: tuple[int, int] = (1242, 375)


@dataclass
class PipelineConfig:
    """Tunable pipeline settings; see from_mapping for the file key names."""

    data_root: Path = Path(".")
    out_dir: Path | None = None
    thresholds: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_THRESHOLDS)
    )
    frustum_mode: str = "mask"           # "mask" or "box"
    bin_width: float = DEFAULT_BIN_WIDTH
    raster_grid: int = 32
    raster_extent: float = 4.0
    checkpoint: Path | None = None
    classes: tuple[str, ...] = regressor.DEFAULT_CLASSES
    image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE
    size_priors: dict[str, tuple[float, float, float]] = field(
        default_factory=lambda: dict(regressor.DEFAULT_SIZE_PRIORS)
    )

    def __post_init__(self) -> None:
        self.data_root = Path(self.data_root)
        self.out_dir = Path(self.out_dir) if self.out_dir is not None else None
        self.checkpoint = Path(self.checkpoint) if self.checkpoint is not None else None
        if self.frustum_mode not in ("mask", "box"):
            raise ConfigError(f"frustum_mode must be mask or box, got {self.frustum_mode!r}")
        if not all(t > 0 for t in self.thresholds.values()):
            raise ConfigError("faraway thresholds must be positive")
        if not (1 <= self.raster_grid <= regressor.MAX_RASTER_GRID
                and 0 < self.raster_extent < math.inf):
            raise ConfigError(f"raster_grid must be in [1, {regressor.MAX_RASTER_GRID}] and "
                              f"raster_extent positive and finite, got {self.raster_grid}, "
                              f"{self.raster_extent}")
        if not all(1 <= n <= MAX_BBOX_PIXEL for n in self.image_size):
            raise ConfigError(f"image_width, image_height must be in [1, {MAX_BBOX_PIXEL:g}], "
                              f"got {self.image_size}")
        if not MIN_BIN_WIDTH <= self.bin_width < math.inf:
            raise ConfigError(f"bin_width must be finite and at least {MIN_BIN_WIDTH:g} m, "
                              f"got {self.bin_width}")
        if not all(0 < v < math.inf for prior in self.size_priors.values() for v in prior):
            raise ConfigError("size priors must be positive and finite")

    @property
    def results_dir(self) -> Path:
        return self.out_dir if self.out_dir is not None else self.data_root / "results"

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "PipelineConfig":
        """Build a config from flat key=value pairs (file or CLI overrides).

        Recognized keys: data_root, out, frustum_mode, bin_width, raster_grid,
        raster_extent, checkpoint, image_width, image_height, classes (comma
        list), threshold.<class>, prior.<class> (three comma-separated meters).
        """
        cfg = cls()
        for key, value in mapping.items():
            try:
                if key == "data_root":
                    cfg.data_root = Path(value)
                elif key == "out":
                    cfg.out_dir = Path(value)
                elif key == "frustum_mode":
                    cfg.frustum_mode = value
                elif key == "bin_width":
                    cfg.bin_width = float(value)
                elif key == "raster_grid":
                    cfg.raster_grid = int(value)
                elif key == "raster_extent":
                    cfg.raster_extent = float(value)
                elif key == "checkpoint":
                    cfg.checkpoint = Path(value)
                elif key == "image_width":
                    cfg.image_size = (int(value), cfg.image_size[1])
                elif key == "image_height":
                    cfg.image_size = (cfg.image_size[0], int(value))
                elif key == "classes":
                    # a checkpoint stores the names as UTF-8, one per line
                    value.encode("utf-8")
                    cfg.classes = tuple(
                        name.strip().lower() for name in value.split(",") if name.strip()
                    )
                    if any("\n" in name for name in cfg.classes):
                        raise ValueError("a class name holds a newline")
                elif key.startswith("threshold."):
                    cfg.thresholds[key.split(".", 1)[1].lower()] = float(value)
                elif key.startswith("prior."):
                    parts = [float(v) for v in value.split(",")]
                    if len(parts) != 3:
                        raise ValueError("prior needs exactly three values (w,l,h)")
                    cfg.size_priors[key.split(".", 1)[1].lower()] = tuple(parts)
                else:
                    raise ConfigError(f"unknown config key {key!r}")
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
        cfg.__post_init__()
        return cfg


def parse_config_text(text: str) -> dict[str, str]:
    """Parse a flat key=value config file; '#' starts a comment line."""
    out: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_mapping(
    path: str | Path | None = None, overrides: Mapping[str, str] | None = None
) -> dict[str, str]:
    """The config file's keys updated by the overrides: every key set explicitly."""
    mapping = {}
    if path is not None:
        with naming(Path(path)):
            mapping = parse_config_text(Path(path).read_text())
    return {**mapping, **(overrides or {})}


def assemble_box(
    centroid: tuple[float, float, float],
    reg: BoxRegression,
    theta: float,
    class_name: str,
    score: float,
) -> Box3D:
    """Combine centroid, regression, and frustum angle into a camera-frame box.

    Only the depth component of the regressed shift is applied; the lateral
    and vertical positions come from the clustered centroid. The center is
    rotated back by +theta and the yaw converted to the camera frame.
    """
    center_frustum = np.array([centroid[0], centroid[1], centroid[2] + reg.shift[2]])
    center_cam = rot_y(theta) @ center_frustum
    return Box3D(
        center=(center_cam[0], center_cam[1], center_cam[2]),
        yaw=wrap_angle(reg.yaw + theta),
        size=reg.size,
        class_name=class_name,
        score=score,
    )


@dataclass
class RunSummary:
    """Counters accumulated over a run."""

    frames: int = 0
    detections: int = 0
    faraway: int = 0
    routed_near: int = 0
    skipped_empty_frustum: int = 0
    skipped_unknown_class: int = 0
    fallback_seen: int = 0
    fallback_kept: int = 0

    def count(self, routes: Sequence[Route]) -> None:
        """Add each detection's route to the counters."""
        self.detections += len(routes)
        self.faraway += routes.count(Route.FARAWAY)
        self.routed_near += routes.count(Route.NEAR)
        self.skipped_empty_frustum += routes.count(Route.EMPTY)
        self.skipped_unknown_class += routes.count(Route.UNKNOWN)

    def lines(self) -> list[str]:
        return [
            f"frames processed:        {self.frames}",
            f"2d detections seen:      {self.detections}",
            f"faraway boxes emitted:   {self.faraway}",
            f"routed to near range:    {self.routed_near}",
            f"skipped empty frustums:  {self.skipped_empty_frustum}",
            f"skipped unknown classes: {self.skipped_unknown_class}",
            f"fallback boxes kept:     {self.fallback_kept}/{self.fallback_seen}",
        ]


def process_frame(
    cloud: PointCloud,
    detections: Sequence[Detection2D],
    fallback_boxes: Sequence[Box3D],
    calib: CalibrationSet,
    config: PipelineConfig,
    params: RegressorParams | None = None,
    stats: RunSummary | None = None,
) -> list[Box3D]:
    """Run the faraway branch over all detections and merge with fallback.

    The cloud is projected once for the frame, cropped to config.image_size,
    and each detection's frustum is cut from that projection (CropMismatch
    for a detection of another image size). regressor.frustum_chain then
    routes all of them at once, and the faraway ones' rasters go through
    the network in one stacked pass; params default to zero weights.
    Detections whose frustum holds no points, or whose class is not listed
    or has no threshold, are skipped; near-range ones are routed to the
    fallback detector (all three are counted, never fatal). Errors raise in
    detection order: a regressed box that Box3D refuses (a size that
    overflows past 10 km or underflows below 1 cm, or a center beyond 10 km)
    raises naming the checkpoint (or the given weights, or the size-prior
    baseline), the frame and the detection, after the mask or crop error of
    any earlier detection.
    Fallback boxes survive only when their own center depth is below their
    class threshold; classes without a threshold are kept unconditionally.
    The merged list is sorted by descending score, stable on input order
    (fallback first, then faraway boxes in detection order).
    """
    stats = stats if stats is not None else RunSummary()
    # the weights, named for a refused box
    source = "given weights" if config.checkpoint is None else f"checkpoint {config.checkpoint}"
    if params is None:  # UnknownClass if a prior is missing
        source, params = "size-prior baseline", regressor.zero_params(
            config.raster_grid, config.classes, priors=config.size_priors,
            extent=config.raster_extent,
        )
    projection = project_cloud(cloud, calib, config.image_size) if detections else None
    frustums: list[PointCloud] = []
    try:
        for det in detections:
            frustums.append(frustum_points(projection, det, config))
    finally:  # a frustum that fails raises after the detections before it
        ours = _faraway_boxes(frustums, detections, calib, config, params, source, stats)

    faraway_box = faraway_filter(config.thresholds)
    kept = [box for box in fallback_boxes if not faraway_box(box)]
    stats.fallback_seen += len(fallback_boxes)
    stats.fallback_kept += len(kept)

    merged = kept + ours
    order = sorted(range(len(merged)), key=lambda i: (-merged[i].score, i))
    return [merged[i] for i in order]


def _faraway_boxes(
    frustums: Sequence[PointCloud],
    detections: Sequence[Detection2D],
    calib: CalibrationSet,
    config: PipelineConfig,
    params: RegressorParams,
    source: str,
    stats: RunSummary,
) -> list[Box3D]:
    """The boxes of the first len(frustums) detections, counting every route;
    a refused box names the weights' `source`, the frame and the detection."""
    batch = frustum_chain(frustums, detections[:len(frustums)], calib, config, config.thresholds)
    stats.count(batch.routes)
    far = [k for k, route in enumerate(batch.routes) if route is Route.FARAWAY]
    regs = regressor.forward_rasters(params, batch.rasters)
    boxes = []
    for k, theta, centroid, reg in zip(far, batch.theta, batch.centroids, regs):
        det = detections[k]
        try:
            boxes.append(assemble_box(tuple(centroid), reg, float(theta), det.class_name, det.score))
        except (NonFiniteBox, ZeroAreaBox) as exc:  # weights that overflow exp()
            raise type(exc)(
                f"{source}, frame {det.frame_id}, detection {k} ({det.class_name}): {exc}"
            ) from exc
    return boxes


# --- dataset layout -----------------------------------------------------------
#
# <root>/velodyne/<frame>.bin      float32 LE scans           (required)
# <root>/calib/<frame>.txt         calibration                (required)
# <root>/detections_2d/<frame>.txt 2D detections (+ masks/)   (required)
# <root>/fallback/<frame>.txt      near-range result files    (required when
#                                  the fallback/ directory exists)
# <root>/label_2/<frame>.txt       ground truth               (optional)

@dataclass
class FrameInputs:
    frame_id: str
    cloud: PointCloud
    detections: list[Detection2D]
    fallback_boxes: list[Box3D]
    calib: CalibrationSet
    labels: list[LabelRecord] | None


def _required(path: Path) -> Path:
    if not path.is_file():
        raise MissingFrameData(f"missing input file: {path}")
    return path


@contextmanager
def naming(path: Path) -> Iterator[None]:
    """Re-raise a FarFrustumError from the block with `path` leading its message."""
    try:
        yield
    except FarFrustumError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FarFrustumError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_boxes(path: Path) -> list[Box3D]:
    """The 3D boxes of a KITTI label or result file."""
    with naming(path):
        return [rec.box for rec in parse_labels(path.read_text()) if rec.box is not None]


def load_frame_inputs(
    root: str | Path, frame_id: str, config: PipelineConfig, labels: bool = True
) -> FrameInputs:
    """Read one frame's files from the standard layout; errors name the file.

    Labels are parsed only when `labels` is set (FrameInputs.labels is None otherwise).
    """
    root = Path(root)
    velodyne = _required(root / "velodyne" / f"{frame_id}.bin")
    with naming(velodyne):
        cloud = load_pointcloud(velodyne.read_bytes())
    calib_path = _required(root / "calib" / f"{frame_id}.txt")
    with naming(calib_path):
        calib = parse_calibration(calib_path.read_text())
    det_dir = root / "detections_2d"
    det_path = _required(det_dir / f"{frame_id}.txt")
    with naming(det_path):
        detections = parse_detections(det_path.read_text(), config.image_size, det_dir)
        for det in detections:
            if det.frame_id != frame_id:
                raise MalformedDetectionLine(f"a line of frame {det.frame_id!r}")
            if det.mask is not None and not det.mask.path.is_file():
                raise MissingFrameData(f"missing mask file: {det.mask.path}")
    fallback_boxes: list[Box3D] = []
    fallback_dir = root / "fallback"
    if fallback_dir.is_dir():
        fallback_boxes = read_boxes(_required(fallback_dir / f"{frame_id}.txt"))
    records = None
    label_path = root / "label_2" / f"{frame_id}.txt"
    if labels and label_path.is_file():
        with naming(label_path):
            records = parse_labels(label_path.read_text())
    return FrameInputs(frame_id, cloud, detections, fallback_boxes, calib, records)


def run_dataset(
    frames: Sequence[str],
    config: PipelineConfig,
    params: RegressorParams | None = None,
) -> RunSummary:
    """Process frames sequentially and write one result file per frame."""
    out_dir = config.results_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = RunSummary()
    for frame_id in frames:
        inputs = load_frame_inputs(config.data_root, frame_id, config, labels=False)
        boxes = process_frame(inputs.cloud, inputs.detections, inputs.fallback_boxes,
                              inputs.calib, config, params=params, stats=summary)
        write_whole(out_dir / f"{frame_id}.txt",
                    write_results(boxes, inputs.calib, config.image_size))
        summary.frames += 1
    return summary
