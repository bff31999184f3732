"""Box regressor for faraway objects.

Consumes the class id plus a BEV occupancy raster of the centroid-frame
frustum points and regresses a 7-vector: centroid-to-box-center shift
(dx, dy, dz), box size (w, l, h), and yaw in the frustum frame. Faraway
frustums hold around ten points, so a two-layer tanh network over a G x G
count grid is enough capacity; sizes are emitted as prior * exp(raw) so
positivity is structural. Training minimizes the unweighted sum of the
seven per-output mean-absolute errors with Adam and early stopping. At
assembly time only dz, size, and yaw are consumed; dx and dy are trained
but discarded in favor of the clustered centroid.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .clustering import modal_midpoints
from .errors import ConfigError, EmptyDataset, ShapeError, UnknownClass
from .geometry import (
    CloudProjection,
    frustum_rotations,
    points_in_box_frustum,
    points_in_mask_frustum,
    project_cloud,
    rot_y,
)
from .kitti_io import CalibrationSet, Detection2D, LabelRecord, PointCloud
from .kitti_io import wrap_angle, wrap_angles, write_whole

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import PipelineConfig

logger = logging.getLogger(__name__)

DEFAULT_CLASSES: tuple[str, ...] = ("pedestrian", "car")
# Per-class mean (w, l, h) over common KITTI training labels; overridable
# via compute_size_priors on any label set.
DEFAULT_SIZE_PRIORS: dict[str, tuple[float, float, float]] = {
    "pedestrian": (0.66, 0.84, 1.76),
    "car": (1.63, 3.88, 1.53),
}

CHECKPOINT_VERSION = 2
_OUTPUT_DIM = 7
MAX_RASTER_GRID = 256  # zero_params(256) holds 34 MB of weights; the layouts in use take 32
MAX_HIDDEN = 1024  # 16x the default width; its first layer on a 32 grid holds 8.4 MB
# tanh bounds the hidden layer, so under this bound on every weight and prior
# no product of a loaded checkpoint overflows
MAX_WEIGHT_MAGNITUDE = 1e100
_VAL_FRACTION = 0.1  # share of samples train() holds out for early stopping


@dataclass(frozen=True)
class BevRaster:
    """G x G BEV point-count grid plus the object's class, network-ready."""

    grid: np.ndarray                 # (G, G) int64, row i bins x, column j bins z
    extent: float                    # grid spans [-extent, extent] on both axes
    class_name: str
    classes: tuple[str, ...] = DEFAULT_CLASSES

    def __post_init__(self) -> None:
        grid = np.array(self.grid, dtype=np.int64, copy=True)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1] or grid.shape[0] < 1:
            raise ShapeError(f"raster grid must be square, got {grid.shape}")
        if not self.extent > 0:
            raise ShapeError(f"raster extent must be positive, got {self.extent}")
        if self.class_name not in self.classes:
            raise UnknownClass(f"{self.class_name!r} not in {self.classes}")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]

    @property
    def class_onehot(self) -> np.ndarray:
        onehot = np.zeros(len(self.classes))
        onehot[self.classes.index(self.class_name)] = 1.0
        return onehot

    def feature_vector(self) -> np.ndarray:
        """Flattened grid followed by the class one-hot."""
        return np.concatenate([self.grid.ravel().astype(np.float64), self.class_onehot])


def rasterize_bev(
    points: np.ndarray,
    class_name: str,
    grid_size: int,
    extent: float,
    classes: tuple[str, ...] = DEFAULT_CLASSES,
) -> BevRaster:
    """Count (x, z) points into a G x G grid over [-extent, extent)^2.

    Cell (i, j) covers x in [-R + i*2R/G, -R + (i+1)*2R/G) and likewise z;
    points outside the extent are dropped. BevRaster checks the extent and
    the class; PipelineConfig and load_checkpoint keep G >= 1.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    grid = bev_grids(pts, [0, len(pts)], grid_size, extent)[0]
    return BevRaster(grid=grid, extent=extent, class_name=class_name, classes=classes)


def bev_grids(
    points: np.ndarray, bounds: Sequence[int], grid_size: int, extent: float
) -> np.ndarray:
    """rasterize_bev's grid of each segment points[bounds[k]:bounds[k + 1]]: (K, G, G)."""
    cell = 2.0 * extent / grid_size
    i = np.floor((points[:, 0] + extent) / cell).astype(np.int64)
    j = np.floor((points[:, 1] + extent) / cell).astype(np.int64)
    segment = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    keep = (i >= 0) & (i < grid_size) & (j >= 0) & (j < grid_size)
    cells = (segment[keep] * grid_size + i[keep]) * grid_size + j[keep]
    counts = np.bincount(cells, minlength=(len(bounds) - 1) * grid_size * grid_size)
    return counts.reshape(len(bounds) - 1, grid_size, grid_size)


@dataclass(frozen=True)
class BoxRegression:
    """Regressor output: centroid shift, box size, and frustum-frame yaw."""

    shift: tuple[float, float, float]  # (dx, dy, dz) meters
    size: tuple[float, float, float]   # (w, l, h) meters
    yaw: float                         # radians, frustum frame

    def as_vector(self) -> np.ndarray:
        """(7,) target layout: dx dy dz w l h yaw."""
        return np.array([*self.shift, *self.size, self.yaw], dtype=np.float64)


@dataclass
class RegressorParams:
    """Network weights, per-class size priors and their input layout."""

    classes: tuple[str, ...]
    grid_size: int
    extent: float        # rasters span [-extent, extent] on both axes
    w1: np.ndarray       # (hidden, input)
    b1: np.ndarray       # (hidden,)
    w2: np.ndarray       # (7, hidden)
    b2: np.ndarray       # (7,)
    priors: np.ndarray   # (n_classes, 3) mean (w, l, h) per class

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "RegressorParams":
        return RegressorParams(
            classes=self.classes,
            grid_size=self.grid_size,
            extent=self.extent,
            w1=self.w1.copy(),
            b1=self.b1.copy(),
            w2=self.w2.copy(),
            b2=self.b2.copy(),
            priors=self.priors.copy(),
        )


def _priors_matrix(
    classes: Sequence[str], priors: Mapping[str, Sequence[float]]
) -> np.ndarray:
    rows = []
    for name in classes:
        if name not in priors:
            raise UnknownClass(f"no size prior for class {name!r}")
        rows.append([float(v) for v in priors[name]])
    return np.array(rows, dtype=np.float64).reshape(len(classes), 3)


def zero_params(
    grid_size: int,
    classes: tuple[str, ...] = DEFAULT_CLASSES,
    hidden: int = 64,
    priors: Mapping[str, Sequence[float]] = DEFAULT_SIZE_PRIORS,
    extent: float = 4.0,
) -> RegressorParams:
    """All-zero weights: forward returns zero shift, prior sizes, zero yaw."""
    d = grid_size * grid_size + len(classes)
    return RegressorParams(
        classes=tuple(classes),
        grid_size=grid_size,
        extent=extent,
        w1=np.zeros((hidden, d)),
        b1=np.zeros(hidden),
        w2=np.zeros((_OUTPUT_DIM, hidden)),
        b2=np.zeros(_OUTPUT_DIM),
        priors=_priors_matrix(classes, priors),
    )


def init_params(
    grid_size: int,
    classes: tuple[str, ...] = DEFAULT_CLASSES,
    hidden: int = 64,
    priors: Mapping[str, Sequence[float]] = DEFAULT_SIZE_PRIORS,
    seed: int = 0,
    extent: float = 4.0,
) -> RegressorParams:
    """Small random initialization, deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    d = grid_size * grid_size + len(classes)
    params = zero_params(grid_size, classes, hidden, priors, extent)
    params.w1 = rng.normal(0.0, 1.0 / math.sqrt(d), size=(hidden, d))
    params.w2 = rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(_OUTPUT_DIM, hidden))
    return params


def _forward_batch(params: RegressorParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and raw outputs for a (N, input_dim) batch."""
    hidden = np.tanh(x @ params.w1.T + params.b1)
    raw = hidden @ params.w2.T + params.b2
    return hidden, raw


def _check_layout(params: RegressorParams, raster: BevRaster) -> None:
    have = (raster.grid_size, raster.extent, raster.classes)
    if have != (params.grid_size, params.extent, params.classes):
        raise ShapeError(f"raster (G, extent, classes) {have} does not match params")


def forward(params: RegressorParams, raster: BevRaster) -> BoxRegression:
    """Deterministic forward pass; sizes are prior * exp(raw)."""
    return forward_rasters(params, [raster])[0]


def forward_rasters(
    params: RegressorParams, rasters: Sequence[BevRaster]
) -> list[BoxRegression]:
    """forward of every raster in one stacked (K, 1, D) product.

    Each raster's row is its own product, as in a one-raster call, so every
    output is bit-identical to it; one (K, D) product rounds otherwise.
    """
    for raster in rasters:
        _check_layout(params, raster)
    if not rasters:
        return []
    x = np.array([raster.feature_vector() for raster in rasters])
    _, raw = _forward_batch(params, x[:, None, :])
    raw = raw[:, 0]
    prior = params.priors[[params.classes.index(raster.class_name) for raster in rasters]]
    with np.errstate(over="ignore"):  # Box3D refuses the inf
        size = prior * np.exp(raw[:, 3:6])
    return [
        BoxRegression(shift=(y[0], y[1], y[2]), size=(s[0], s[1], s[2]),
                      yaw=wrap_angle(float(y[6])))
        for y, s in zip(raw, size)
    ]


class TrainingBatch(NamedTuple):
    """A sample list as network-ready matrices; train() builds one per split."""

    x: np.ndarray        # (N, G*G + n_classes) feature vectors
    targets: np.ndarray  # (N, 7) dx dy dz w l h yaw
    priors: np.ndarray   # (N, 3) each sample's class size prior


Samples = Sequence[tuple[BevRaster, BoxRegression]]


def training_batch(params: RegressorParams, data: Samples | TrainingBatch) -> TrainingBatch:
    """`data` as a TrainingBatch; each raster of a sample list is checked
    against the params' layout. A TrainingBatch is returned as it is."""
    if isinstance(data, TrainingBatch):
        return data
    if not data:
        raise EmptyDataset("no training samples")
    xs, ts, ps = [], [], []
    for raster, target in data:
        _check_layout(params, raster)
        xs.append(raster.feature_vector())
        ts.append(target.as_vector())
        ps.append(params.priors[params.classes.index(raster.class_name)])
    return TrainingBatch(np.array(xs), np.array(ts), np.array(ps))


def mean_loss(params: RegressorParams, data: Samples | TrainingBatch) -> float:
    """Mean summed MAE over a dataset (the quantity train() minimizes).

    `data` is a sample list or the TrainingBatch that train() builds from
    one before its epoch loop. The yaw error is wrapped into (-pi, pi], so
    opposite-signed near-pi angles are close, not 2*pi apart.
    """
    return _batch_loss(params, *training_batch(params, data))[0]


def _batch_loss(
    params: RegressorParams, x: np.ndarray, targets: np.ndarray, priors: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Mean loss plus the intermediates needed for backprop."""
    hidden, raw = _forward_batch(params, x)
    pred = raw.copy()
    pred[:, 3:6] = priors * np.exp(raw[:, 3:6])
    diff = pred - targets
    diff[:, 6] = wrap_angles(diff[:, 6])
    loss = float(np.abs(diff).sum(axis=1).mean())
    return loss, diff, hidden, pred


def loss_and_gradients(
    params: RegressorParams, data: Samples | TrainingBatch
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean summed MAE over the dataset and its gradient in each tensor.

    `data` is a sample list or the TrainingBatch that train() builds from
    one before its epoch loop. MAE derivatives are sign functions; the exp
    size mapping contributes a factor of the predicted size itself, and the
    yaw wrap has unit slope almost everywhere.
    """
    x, targets, priors = training_batch(params, data)
    loss, diff, hidden, pred = _batch_loss(params, x, targets, priors)
    n = x.shape[0]
    d_raw = np.sign(diff) / n
    d_raw[:, 3:6] *= pred[:, 3:6]  # d size / d raw = prior * exp(raw) = pred size
    grad_w2 = d_raw.T @ hidden
    grad_b2 = d_raw.sum(axis=0)
    d_hidden = d_raw @ params.w2
    d_pre = d_hidden * (1.0 - hidden**2)
    grad_w1 = d_pre.T @ x
    grad_b1 = d_pre.sum(axis=0)
    grads = {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}
    return loss, grads


def flatten_params(params: RegressorParams) -> np.ndarray:
    """Weights as one flat vector, in (w1, b1, w2, b2) order."""
    return np.concatenate(
        [params.w1.ravel(), params.b1, params.w2.ravel(), params.b2]
    )


def with_flat_params(params: RegressorParams, flat: np.ndarray) -> RegressorParams:
    """New params object with weights taken from a flat vector."""
    out = params.copy()
    offset = 0
    for name in ("w1", "b1", "w2", "b2"):
        tensor = getattr(out, name)
        size = tensor.size
        setattr(out, name, flat[offset : offset + size].reshape(tensor.shape).copy())
        offset += size
    if offset != flat.size:
        raise ShapeError(f"flat vector has {flat.size} entries, expected {offset}")
    return out


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for train(); defaults fit desk-scale datasets."""

    hidden: int = 64
    learning_rate: float = 0.01
    epochs: int = 500
    patience: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.hidden <= MAX_HIDDEN:
            raise ConfigError(f"hidden must be in [1, {MAX_HIDDEN}], got {self.hidden}")
        if not 0 <= self.learning_rate < math.inf:  # 0 keeps the initial weights
            raise ConfigError(f"learning_rate must be finite and not negative, "
                              f"got {self.learning_rate}")
        for name, low in (("epochs", 1), ("patience", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}, got {getattr(self, name)}")


def train(
    dataset: Samples,
    hyper: TrainConfig = TrainConfig(),
    priors: Mapping[str, Sequence[float]] | None = None,
) -> RegressorParams:
    """Fit the regressor with full-batch Adam and early stopping.

    The dataset is split 90/10 into train/validation (all-train below five
    samples); the monitored loss is validation when available, else train.
    Each split becomes a TrainingBatch once, before the epochs, which pass
    it to loss_and_gradients and mean_loss. The best-seen parameters are
    restored at the end. Deterministic for a fixed seed: two runs yield
    bit-identical parameters.
    """
    if not dataset:
        raise EmptyDataset("cannot train on an empty dataset")
    raster0 = dataset[0][0]
    prior_map = dict(priors) if priors is not None else dict(DEFAULT_SIZE_PRIORS)
    for name in raster0.classes:
        prior_map.setdefault(name, DEFAULT_SIZE_PRIORS.get(name, (1.0, 1.0, 1.0)))
    params = init_params(
        grid_size=raster0.grid_size,
        classes=raster0.classes,
        hidden=hyper.hidden,
        priors=prior_map,
        seed=hyper.seed,
        extent=raster0.extent,
    )

    rng = np.random.default_rng(hyper.seed)
    order = rng.permutation(len(dataset))
    n_val = int(len(dataset) * _VAL_FRACTION) if len(dataset) >= 5 else 0
    train_batch = training_batch(params, [dataset[i] for i in order[n_val:]])
    monitor = training_batch(params, [dataset[i] for i in order[:n_val]]) if n_val else train_batch

    # Adam state, one slot per weight tensor; updated in place, grads as scratch.
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moment1 = {k: np.zeros_like(getattr(params, k)) for k in ("w1", "b1", "w2", "b2")}
    moment2 = {k: np.zeros_like(v) for k, v in moment1.items()}

    best = params.copy()
    best_loss = math.inf
    stale = 0
    for step in range(1, hyper.epochs + 1):
        _, grads = loss_and_gradients(params, train_batch)
        for key, grad in grads.items():
            m, v, tensor = moment1[key], moment2[key], getattr(params, key)
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * np.square(grad, out=grad)
            # lr * m_hat first, then / (sqrt(v_hat) + eps): the order fixes the rounding
            update = np.multiply(hyper.learning_rate, m / (1.0 - beta1**step), out=grad)
            update /= np.sqrt(v / (1.0 - beta2**step)) + eps
            tensor -= update
        monitored = mean_loss(params, monitor)
        if monitored < best_loss:
            best_loss = monitored
            best = params.copy()
            stale = 0
        else:
            stale += 1
            if stale > hyper.patience:
                logger.debug("early stop at epoch %d (best %.6f)", step, best_loss)
                break
    return best


# --- checkpoint file --------------------------------------------------------
#
# Flat little-endian binary, version 2. Header: six int64 (G, n_classes,
# hidden, 7, version, name bytes), the float64 raster extent, and the class
# names in order as newline-separated UTF-8. Body: float64 weights in (w1,
# b1, w2, b2) order, then n_classes*3 float64 priors. Version 1 lacks names
# and extent; its version sits in the same place, so it is refused.

_HEADER_BYTES = 7 * 8


def save_checkpoint(params: RegressorParams, path: str | Path) -> None:
    names = "\n".join(params.classes).encode("utf-8")
    header = np.array(
        [params.grid_size, len(params.classes), params.hidden_dim,
         _OUTPUT_DIM, CHECKPOINT_VERSION, len(names)],
        dtype="<i8",
    )
    extent = np.array([params.extent], dtype="<f8").tobytes()
    body = np.concatenate([flatten_params(params), params.priors.ravel()]).astype("<f8")
    write_whole(path, header.tobytes() + extent + names + body.tobytes())


def load_checkpoint(
    path: str | Path, classes: Sequence[str] | None = None
) -> RegressorParams:
    """Read a checkpoint, layout included; given `classes` must equal its class
    names, order included. Any other file raises ShapeError naming the path."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER_BYTES:
        raise ShapeError(f"checkpoint {path} is {len(data)} bytes, shorter than a header")
    header = np.frombuffer(data, dtype="<i8", count=6)
    grid_size, n_classes, hidden, out_dim, version, name_bytes = (int(v) for v in header)
    extent = float(np.frombuffer(data, dtype="<f8", count=1, offset=48)[0])
    if version != CHECKPOINT_VERSION:
        raise ShapeError(f"checkpoint {path}: unsupported version {version}")
    if out_dim != _OUTPUT_DIM or min(grid_size, hidden, name_bytes + 1) < 1 \
            or grid_size > MAX_RASTER_GRID or not 0 < extent < math.inf:
        raise ShapeError(f"checkpoint {path}: bad header {header.tolist()}, extent {extent}")
    names_end = _HEADER_BYTES + name_bytes
    try:
        names = tuple(data[_HEADER_BYTES:names_end].decode("utf-8").split("\n"))
    except UnicodeDecodeError:
        raise ShapeError(f"checkpoint {path}: class names are not UTF-8") from None
    if len(names) != n_classes or len(set(names)) != n_classes or "" in names:
        raise ShapeError(f"checkpoint {path}: {n_classes} classes, names {names}")
    if classes is not None and names != tuple(classes):
        raise ShapeError(f"checkpoint {path} has classes {names}, config lists {classes}")
    d = grid_size * grid_size + n_classes
    n_weights = hidden * d + hidden + _OUTPUT_DIM * hidden + _OUTPUT_DIM
    if len(data) - names_end != 8 * (n_weights + n_classes * 3):
        raise ShapeError(
            f"checkpoint {path}: body has {len(data) - names_end} bytes, expected "
            f"{n_weights + n_classes * 3} 8-byte reals"
        )
    body = np.frombuffer(data, dtype="<f8", offset=names_end)
    if not (np.abs(body) <= MAX_WEIGHT_MAGNITUDE).all() or not (body[n_weights:] > 0).all():
        raise ShapeError(f"checkpoint {path}: a weight non-finite or beyond "
                         f"{MAX_WEIGHT_MAGNITUDE:g}, or a prior not positive")
    params = zero_params(
        grid_size, names, hidden, {name: (1.0, 1.0, 1.0) for name in names}, extent
    )
    params = with_flat_params(params, body[:n_weights])
    params.priors = body[n_weights:].reshape(n_classes, 3).copy()
    return params


# --- training-set assembly ---------------------------------------------------

def compute_size_priors(
    records: Iterable[LabelRecord],
) -> dict[str, tuple[float, float, float]]:
    """Per-class mean ground-truth (w, l, h), for use as size priors."""
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for rec in records:
        if rec.dontcare or rec.box is None:
            continue
        acc = sums.setdefault(rec.class_name, np.zeros(3))
        acc += np.asarray(rec.box.size)
        counts[rec.class_name] = counts.get(rec.class_name, 0) + 1
    return {
        name: tuple((sums[name] / counts[name]).tolist()) for name in sorted(sums)
    }


def bbox_iou_2d(
    a: tuple[float, float, float, float], b: tuple[float, float, float, float]
) -> float:
    """Axis-aligned IoU of two (u_min, v_min, u_max, v_max) boxes."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


class Route(Enum):
    """What the frustum chain makes of one 2D detection."""

    FARAWAY = "faraway"          # centroid and raster; in `run`, a regressed box
    NEAR = "routed near"         # depth below its class threshold: the fallback's
    EMPTY = "skipped empty"      # no frustum points
    UNKNOWN = "skipped unknown"  # no threshold for its class, or not in config.classes


class FrustumBatch(NamedTuple):
    """The chain's outcome for one frame's detections, in input order."""

    routes: list[Route]        # one per detection
    theta: np.ndarray          # (F,) frustum angle of each FARAWAY detection
    centroids: np.ndarray      # (F, 3) their frustum-frame centroids (x, y, depth)
    rasters: list[BevRaster]   # their centroid-frame BEV rasters


def is_faraway(depth: float, class_name: str, thresholds: Mapping[str, float]) -> bool:
    """True iff depth >= the class threshold (inclusive boundary)."""
    if class_name not in thresholds:
        raise UnknownClass(f"no faraway threshold for class {class_name!r}")
    return depth >= thresholds[class_name]


def frustum_points(
    projection: CloudProjection, det: Detection2D, config: "PipelineConfig"
) -> PointCloud:
    """The detection's frustum: by its mask in mask mode when it has one, else by its box."""
    if config.frustum_mode == "mask" and det.mask is not None:
        return points_in_mask_frustum(projection, det)
    return points_in_box_frustum(projection, det)


def _segments(rows: np.ndarray, bounds: np.ndarray, chosen: Sequence[int]):
    """The rows of the chosen segments, in order, and their bounds."""
    sizes = np.diff(bounds)
    picked = np.zeros(len(sizes), dtype=bool)
    picked[chosen] = True
    return rows[np.repeat(picked, sizes)], np.concatenate([[0], np.cumsum(sizes[chosen])])


def frustum_chain(
    frustums: Sequence[PointCloud],
    detections: Sequence[Detection2D],
    calib: CalibrationSet,
    config: "PipelineConfig",
    thresholds: Mapping[str, float] | None = None,
) -> FrustumBatch:
    """Every detection's chain, as array passes over all of a frame's frustums.

    frustums[k] is detections[k]'s frustum (frustum_points). Each non-empty
    frustum is rotated (frustum_rotations) and its depth histogrammed
    (modal_midpoints). Given `thresholds`, a detection whose class has none
    is UNKNOWN and one whose depth is below it NEAR; the others whose class
    is in config.classes get their x and y histograms and a raster of their
    (x, z) relative to the centroid: they are FARAWAY. No histogram passes
    MAX_BINS bins: every CalibrationSet is a rigid mount, and PipelineConfig
    keeps bin_width at MIN_BIN_WIDTH or above.
    """
    sizes = np.array([len(frustum) for frustum in frustums], dtype=np.int64)
    live = np.flatnonzero(sizes > 0)  # segment s is detection live[s]
    bounds = np.concatenate([[0], np.cumsum(sizes[live])])
    points = np.concatenate([frustums[k].points for k in live] or [np.empty((0, 3))])
    rotated, theta = frustum_rotations(points, bounds, [detections[k] for k in live], calib)
    depth = modal_midpoints(rotated[:, 2], bounds, config.bin_width)

    routes = [Route.EMPTY] * len(frustums)
    far = []  # the FARAWAY segments
    for s, k in enumerate(live):
        name = detections[k].class_name
        if thresholds is not None and name not in thresholds:
            routes[k] = Route.UNKNOWN
        elif thresholds is not None and not is_faraway(depth[s], name, thresholds):
            routes[k] = Route.NEAR
        elif name in config.classes:
            routes[k] = Route.FARAWAY
            far.append(s)
        else:
            routes[k] = Route.UNKNOWN

    rows, far_bounds = _segments(rotated, bounds, far)
    xy = modal_midpoints(np.concatenate([rows[:, 0], rows[:, 1]]),
                         np.concatenate([far_bounds, far_bounds[1:] + len(rows)]),
                         config.bin_width)
    centroids = np.column_stack([xy[:len(far)], xy[len(far):], depth[far]])
    bev = rows[:, [0, 2]] - np.repeat(centroids[:, [0, 2]], np.diff(far_bounds), axis=0)
    grids = bev_grids(bev, far_bounds, config.raster_grid, config.raster_extent)
    rasters = [
        BevRaster(grid=grid, extent=config.raster_extent,
                  class_name=detections[live[s]].class_name, classes=config.classes)
        for s, grid in zip(far, grids)
    ]
    return FrustumBatch(routes, theta[far], centroids, rasters)


def build_training_set(
    clouds: Mapping[str, PointCloud],
    detections: Mapping[str, Sequence[Detection2D]],
    labels: Mapping[str, Sequence[LabelRecord]],
    calibs: Mapping[str, CalibrationSet],
    config: "PipelineConfig",
) -> tuple[list[tuple[BevRaster, BoxRegression]], int]:
    """Pair each matched ground-truth object with its raster and targets.

    Detections are matched to same-class ground truth greedily by score at
    2D IoU >= 0.5. A frame's matched detections run frustum_chain, without
    thresholds, on its projection (one per frame, cropped to
    config.image_size); a match whose frustum is empty is skipped. Targets
    are the ground-truth center minus the estimated centroid (expressed in
    the frustum frame), the ground-truth size, and the ground-truth yaw
    minus the frustum rotation. Returns (samples, number of ground-truth
    objects skipped).
    """
    samples: list[tuple[BevRaster, BoxRegression]] = []
    skipped = 0
    frame_ids = sorted(set(clouds) & set(detections) & set(labels) & set(calibs))
    for frame_id in frame_ids:
        calib = calibs[frame_id]
        gt = [
            rec
            for rec in labels[frame_id]
            if not rec.dontcare and rec.box is not None
            and rec.class_name in config.classes
        ]
        matched_gt: set[int] = set()
        pairs: list[tuple[int, Detection2D]] = []
        for det in sorted(detections[frame_id], key=lambda d: -d.score):
            best_iou, best_idx = 0.0, -1
            for gi, rec in enumerate(gt):
                if gi in matched_gt or rec.class_name != det.class_name:
                    continue
                iou = bbox_iou_2d(det.bbox, rec.bbox2d)
                if iou > best_iou:
                    best_iou, best_idx = iou, gi
            if best_idx >= 0 and best_iou >= 0.5:
                matched_gt.add(best_idx)
                pairs.append((best_idx, det))
        skipped += len(gt) - len(matched_gt)
        if not pairs:
            continue

        projection = project_cloud(clouds[frame_id], calib, config.image_size)
        dets = [det for _, det in pairs]
        frustums = [frustum_points(projection, det, config) for det in dets]
        batch = frustum_chain(frustums, dets, calib, config)
        kept = [gi for (gi, _), route in zip(pairs, batch.routes) if route is Route.FARAWAY]
        skipped += len(pairs) - len(kept)
        for gi, angle, centroid, raster in zip(kept, batch.theta, batch.centroids, batch.rasters):
            rec, theta = gt[gi], float(angle)
            gt_center_frustum = rot_y(-theta) @ np.asarray(rec.box.center)
            shift = gt_center_frustum - centroid
            target = BoxRegression(
                shift=(shift[0], shift[1], shift[2]),
                size=rec.box.size,
                yaw=wrap_angle(rec.box.yaw - theta),
            )
            samples.append((raster, target))
        del projection, frustums  # so the next frame's are built without these alive
    return samples, skipped
