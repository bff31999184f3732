"""Box regressor for faraway objects.

Consumes the class id plus a BEV occupancy raster of the centroid-frame
frustum points and regresses a 7-vector: centroid-to-box-center shift
(dx, dy, dz), box size (w, l, h), and yaw in the frustum frame. Faraway
frustums hold around ten points, so a two-layer tanh network over a G x G
count grid is enough capacity; sizes are emitted as prior * exp(raw) so
positivity is structural. Training minimizes the unweighted sum of the
seven per-output mean-absolute errors with Adam and early stopping. At
assembly time only dz, size, and yaw are consumed; dx and dy are trained
but discarded in favor of the clustered centroid. ``frustum_chain`` takes
a frame from its lidar cloud and 2D detections to each detection's route
and raster; ``run`` (pipeline.process_frame) and ``train``
(build_training_set) share it. Each rule has one home: the centroid in
clustering.modal_midpoints, the faraway boundary in evaluation.is_faraway.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .clustering import DEFAULT_BIN_WIDTH, MIN_BIN_WIDTH, modal_midpoints
from .errors import ConfigError, EmptyDataset, FarFrustumError, ShapeError, UnknownClass
from .evaluation import _match, _overlaps, _zero_across_classes, is_faraway
from .geometry import detection_window, frustum_rotations, frustum_rows, project_cloud, rot_y
from .kitti_io import MAX_POINT_RANGE_M, CalibrationSet, Detection2D, LabelRecord, PointCloud
from .kitti_io import wrap_angle, wrap_angles, write_whole

if TYPE_CHECKING:  # pragma: no cover
    from .pipeline import PipelineConfig

DEFAULT_CLASSES: tuple[str, ...] = ("pedestrian", "car")
# Per-class mean (w, l, h) over common KITTI training labels; overridable
# via compute_size_priors on any label set.
DEFAULT_SIZE_PRIORS: dict[str, tuple[float, float, float]] = {
    "pedestrian": (0.66, 0.84, 1.76),
    "car": (1.63, 3.88, 1.53),
}

CHECKPOINT_VERSION = 3
_OUTPUT_DIM = 7
MAX_RASTER_GRID = 256  # zero_params(256) holds 34 MB of weights; the layouts in use take 32
# meters; an extent in [MIN_RASTER_EXTENT, MAX_POINT_RANGE_M] keeps the cell
# finite, and the int64 cast of the cell index of a point 35.2 km off (the
# widest frustum) below 2^30 on any grid
MIN_RASTER_EXTENT = 0.01
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
        _check_extent(self.extent)
        if self.class_name not in self.classes:
            raise UnknownClass(f"{self.class_name!r} not in {self.classes}")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]

    def feature_vector(self, out: np.ndarray | None = None) -> np.ndarray:
        """Flattened grid followed by the class one-hot, written into `out` when given."""
        cells = self.grid.size
        out = np.empty(cells + len(self.classes)) if out is None else out
        out[:cells] = self.grid.reshape(-1)
        out[cells:] = 0.0
        out[cells + self.classes.index(self.class_name)] = 1.0
        return out


def _check_extent(extent: float) -> None:
    if not MIN_RASTER_EXTENT <= extent <= MAX_POINT_RANGE_M:
        raise ShapeError(f"raster extent must be in [{MIN_RASTER_EXTENT:g}, "
                         f"{MAX_POINT_RANGE_M:g}] m, got {extent}")


def rasterize_bev(
    points: np.ndarray,
    class_name: str,
    grid_size: int,
    extent: float,
    classes: tuple[str, ...] = DEFAULT_CLASSES,
) -> BevRaster:
    """Count (x, z) points into a G x G grid over [-extent, extent)^2.

    Cell (i, j) covers x in [-R + i*2R/G, -R + (i+1)*2R/G) and likewise z;
    points outside the extent are dropped. The extent is checked before any
    point is binned, and BevRaster checks the class; G must be at least 1.
    """
    _check_extent(extent)
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
    """Network weights, per-class size priors and their input layout,
    including the centroid bin width the rasters were anchored with."""

    classes: tuple[str, ...]
    grid_size: int
    extent: float        # rasters span [-extent, extent] on both axes
    w1: np.ndarray       # (hidden, input)
    b1: np.ndarray       # (hidden,)
    w2: np.ndarray       # (7, hidden)
    b2: np.ndarray       # (7,)
    priors: np.ndarray   # (n_classes, 3) mean (w, l, h) per class
    bin_width: float = DEFAULT_BIN_WIDTH  # meters, of the centroid histogram

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    def copy(self) -> "RegressorParams":
        return replace(self, **{k: getattr(self, k).copy()
                                for k in ("w1", "b1", "w2", "b2", "priors")})


def _priors_matrix(
    classes: Sequence[str], priors: Mapping[str, Sequence[float]]
) -> np.ndarray:
    rows = []
    for name in classes:
        if name not in priors:
            raise UnknownClass(f"no size prior for class {name!r} (set prior.{name})")
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


def _features(params: RegressorParams, rasters: Sequence[BevRaster]) -> tuple[np.ndarray, list]:
    """(K, D) rows of each raster's feature_vector, checked against the params' layout,
    and each raster's class index (ints): the network input of ``run`` and ``train`` alike."""
    x = np.empty((len(rasters), params.grid_size**2 + len(params.classes)))
    for row, raster in zip(x, rasters):
        _check_layout(params, raster)
        raster.feature_vector(out=row)
    return x, [params.classes.index(raster.class_name) for raster in rasters]


def forward_rasters(
    params: RegressorParams, rasters: Sequence[BevRaster]
) -> list[BoxRegression]:
    """forward of every raster in one stacked (K, 1, D) product.

    Each raster's row is its own product, as in a one-raster call, so every
    output is bit-identical to it; one (K, D) product rounds otherwise.
    """
    x, index = _features(params, rasters)
    if not rasters:
        return []
    _, raw = _forward_batch(params, x[:, None, :])
    raw = raw[:, 0]
    with np.errstate(over="ignore"):  # Box3D refuses the inf
        size = params.priors[index] * np.exp(raw[:, 3:6])
    return [
        BoxRegression(shift=(y[0], y[1], y[2]), size=(s[0], s[1], s[2]), yaw=wrap_angle(y[6]))
        for y, s in zip(raw.tolist(), size.tolist())
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
    x, index = _features(params, [raster for raster, _ in data])
    return TrainingBatch(x, np.array([target.as_vector() for _, target in data]),
                         params.priors[index])


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
    params: RegressorParams, data: Samples | TrainingBatch, *, grad_w1: np.ndarray | None = None
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean summed MAE over the dataset and its gradient in each tensor.

    `data` is a sample list or the TrainingBatch that train() builds from
    one before its epoch loop. MAE derivatives are sign functions; the exp
    size mapping contributes a factor of the predicted size itself, and the
    yaw wrap has unit slope almost everywhere. Given a w1-shaped `grad_w1`,
    the w1 gradient is written into it, in the same product, and returned
    as grads["w1"]; without one it is a fresh array.
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
    grad_w1 = np.matmul(d_pre.T, x, out=grad_w1)
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
    priors: Mapping[str, Sequence[float]] = DEFAULT_SIZE_PRIORS,
) -> RegressorParams:
    """Fit the regressor with full-batch Adam and early stopping.

    The dataset is split 90/10 into train/validation (all-train below five
    samples); the monitored loss is validation when available, else train.
    Each split becomes a TrainingBatch once, before the epochs, which pass
    it to loss_and_gradients and mean_loss. The best-seen parameters are
    restored at the end. Every epoch runs in buffers allocated once per
    call: the w1 gradient, one Adam scratch array per weight tensor and the
    best-seen snapshot. They change no bit of the arithmetic, which is
    Adam's out-of-place update step for step. Deterministic for a fixed
    seed: two runs yield bit-identical parameters. A class of the rasters
    without a size prior raises UnknownClass.
    """
    if not dataset:
        raise EmptyDataset("cannot train on an empty dataset")
    raster0 = dataset[0][0]
    params = init_params(raster0.grid_size, raster0.classes, hyper.hidden, priors, hyper.seed,
                         raster0.extent)

    rng = np.random.default_rng(hyper.seed)
    order = rng.permutation(len(dataset))
    n_val = int(len(dataset) * _VAL_FRACTION) if len(dataset) >= 5 else 0
    train_batch = training_batch(params, [dataset[i] for i in order[n_val:]])
    monitor = training_batch(params, [dataset[i] for i in order[:n_val]]) if n_val else train_batch

    # Adam state and scratch, one slot per weight tensor, all updated in place;
    # each grad is scratch too, the w1 one a buffer that every epoch refills.
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    keys = ("w1", "b1", "w2", "b2")
    moment1 = {k: np.zeros_like(getattr(params, k)) for k in keys}
    moment2 = {k: np.zeros_like(v) for k, v in moment1.items()}
    scratch = {k: np.empty_like(v) for k, v in moment1.items()}
    grad_w1 = np.empty_like(params.w1)

    best = params.copy()
    best_loss = math.inf
    stale = 0
    # a diverging rate overflows exp() and fills the weights with inf and nan;
    # its first non-finite loss ends training as early stopping does
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, hyper.epochs + 1):
            _, grads = loss_and_gradients(params, train_batch, grad_w1=grad_w1)
            for key, grad in grads.items():
                m, v, s, tensor = moment1[key], moment2[key], scratch[key], getattr(params, key)
                m *= beta1
                m += np.multiply(1.0 - beta1, grad, out=s)
                v *= beta2
                v += np.multiply(1.0 - beta2, np.square(grad, out=grad), out=s)
                # lr * m_hat first, then / (sqrt(v_hat) + eps): the order fixes the rounding
                update = np.multiply(hyper.learning_rate,
                                     np.divide(m, 1.0 - beta1**step, out=grad), out=grad)
                np.sqrt(np.divide(v, 1.0 - beta2**step, out=s), out=s)
                s += eps
                update /= s
                tensor -= update
            monitored = mean_loss(params, monitor)
            if not math.isfinite(monitored):
                break
            if monitored < best_loss:
                best_loss = monitored
                for key in keys:
                    np.copyto(getattr(best, key), getattr(params, key))
                stale = 0
            else:
                stale += 1
                if stale > hyper.patience:
                    break
    return best


# --- checkpoint file --------------------------------------------------------
#
# Flat little-endian binary, version 3. Header: six int64 (G, n_classes,
# hidden, 7, version, name bytes), the float64 raster extent (offset 48), the
# float64 centroid bin width (offset 56), and the class names in order as
# newline-separated UTF-8 (offset 64). Body: float64 weights in (w1, b1, w2,
# b2) order, then n_classes*3 float64 priors. Version 1 lacks names and
# extent, version 2 the bin width; their version sits in the same place, so
# they are refused.

_HEADER_BYTES = 8 * 8


def save_checkpoint(params: RegressorParams, path: str | Path) -> None:
    names = "\n".join(params.classes).encode("utf-8")
    header = np.array(
        [params.grid_size, len(params.classes), params.hidden_dim,
         _OUTPUT_DIM, CHECKPOINT_VERSION, len(names)],
        dtype="<i8",
    )
    reals = np.array([params.extent, params.bin_width], dtype="<f8").tobytes()
    body = np.concatenate([flatten_params(params), params.priors.ravel()]).astype("<f8")
    write_whole(path, header.tobytes() + reals + names + body.tobytes())


def load_checkpoint(
    path: str | Path, classes: Sequence[str] | None = None
) -> RegressorParams:
    """Read a checkpoint, layout and bin width included; given `classes` must
    equal its class names, order included. Any other file raises ShapeError
    naming the path."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER_BYTES:
        raise ShapeError(f"checkpoint {path} is {len(data)} bytes, shorter than a header")
    header = np.frombuffer(data, dtype="<i8", count=6)
    grid_size, n_classes, hidden, out_dim, version, name_bytes = (int(v) for v in header)
    extent, bin_width = np.frombuffer(data, dtype="<f8", count=2, offset=48).tolist()
    if version != CHECKPOINT_VERSION:
        raise ShapeError(f"checkpoint {path}: unsupported version {version}")
    if out_dim != _OUTPUT_DIM or min(grid_size, hidden, name_bytes + 1) < 1 \
            or grid_size > MAX_RASTER_GRID \
            or not MIN_RASTER_EXTENT <= extent <= MAX_POINT_RANGE_M \
            or not MIN_BIN_WIDTH <= bin_width <= MAX_POINT_RANGE_M:
        raise ShapeError(f"checkpoint {path}: bad header {header.tolist()}, extent {extent}, "
                         f"bin width {bin_width}")
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
    params.bin_width = bin_width
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


def bbox_iou_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Axis-aligned IoU of each (u_min, v_min, u_max, v_max) row of (D, 4) `a`
    with each row of (G, 4) `b`, as (D, G).

    One broadcast; a cell without an overlap, or with one whose area
    underflows (then so does the union), is 0.
    """
    a, b = np.asarray(a, np.float64)[:, None, :], np.asarray(b, np.float64)[None, :, :]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    return np.divide(inter, area_a + area_b - inter, out=np.zeros_like(inter), where=inter > 0)


class Route(Enum):
    """What the frustum chain makes of one 2D detection."""

    FARAWAY = "faraway"          # centroid and raster; in `run`, a regressed box
    NEAR = "routed near"         # depth below its class threshold: the fallback's
    EMPTY = "skipped empty"      # no frustum points
    UNKNOWN = "skipped unknown"  # no threshold for its class, or not in config.classes


class FrustumBatch(NamedTuple):
    """The chain's outcome for one frame's detections, in input order."""

    routes: list[Route]        # one per detection, up to the failing one
    theta: np.ndarray          # (F,) frustum angle of each FARAWAY detection
    centroids: np.ndarray      # (F, 3) their frustum-frame centroids (x, y, depth)
    rasters: list[BevRaster]   # their centroid-frame BEV rasters
    error: Exception | None    # why detection len(routes) has no frustum, or None


def _segments(rows: np.ndarray, bounds: np.ndarray, chosen: Sequence[int]):
    """The rows of the chosen segments, in order, and their bounds."""
    sizes = np.diff(bounds)
    picked = np.zeros(len(sizes), dtype=bool)
    picked[chosen] = True
    return rows[np.repeat(picked, sizes)], np.concatenate([[0], np.cumsum(sizes[chosen])])


def frustum_chain(
    cloud: PointCloud,
    detections: Sequence[Detection2D],
    calib: CalibrationSet,
    config: "PipelineConfig",
    thresholds: Mapping[str, float] | None = None,
) -> FrustumBatch:
    """Every detection's chain, as array passes over all of a frame's frustums.

    The cloud is projected once, cropped to the detections' extent in
    config.image_size (geometry.detection_window), and each detection's
    frustum is cut from it as rows (geometry.frustum_rows), by its mask in
    mask mode; without detections nothing is projected. A cut that raises a
    FarFrustumError or an OSError ends the batch: it is returned as `error`,
    and the detections from that one on get no route. The frustums are
    gathered in one np.take. Each non-empty one is rotated
    (frustum_rotations) and its depth histogrammed (modal_midpoints).
    Given `thresholds`, a detection whose class has none is UNKNOWN and one
    whose depth is below it NEAR; the others whose class is in
    config.classes get their x and y histograms and a raster of their (x, z)
    relative to the centroid: they are FARAWAY. No histogram passes MAX_BINS
    bins: every CalibrationSet is a rigid mount, and PipelineConfig keeps
    bin_width at MIN_BIN_WIDTH or above.
    """
    if not detections:
        return FrustumBatch([], np.empty(0), np.empty((0, 3)), [], None)
    masks = config.frustum_mode == "mask"
    projection = project_cloud(cloud, calib, config.image_size,
                               detection_window(detections, masks))
    segments: list[np.ndarray] = []
    error = None
    try:
        for rows in frustum_rows(projection, detections, masks):
            segments.append(rows)
    except (FarFrustumError, OSError) as exc:  # detection len(segments)'s mask or crop
        error = exc
    sizes = np.array([len(rows) for rows in segments], dtype=np.int64)
    live = np.flatnonzero(sizes > 0)  # segment s is detection live[s]
    bounds = np.concatenate([[0], np.cumsum(sizes[live])])
    points = np.take(projection.camera.points,
                     np.concatenate([np.empty(0, np.intp), *segments]), axis=0)
    rotated, theta = frustum_rotations(points, bounds, [detections[k] for k in live], calib)
    depth = modal_midpoints(rotated[:, 2], bounds, config.bin_width)

    routes = [Route.EMPTY] * len(segments)
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
    return FrustumBatch(routes, theta[far], centroids, rasters, error)


def build_training_set(
    clouds: Mapping[str, PointCloud],
    detections: Mapping[str, Sequence[Detection2D]],
    labels: Mapping[str, Sequence[LabelRecord]],
    calibs: Mapping[str, CalibrationSet],
    config: "PipelineConfig",
) -> tuple[list[tuple[BevRaster, BoxRegression]], int]:
    """Pair each matched ground-truth object with its raster and targets.

    Detections, by descending score, are matched to same-class ground truth
    at 2D IoU >= 0.5 by evaluation's one greedy matcher, ``_match``, which
    also scores aIoU and AP; ``_zero_across_classes`` zeroes the table's
    cross-class cells, as for ``match_greedy``. A frame's matched detections
    run frustum_chain once, without thresholds, with their masks in mask
    mode; a match whose frustum is empty is skipped, and one whose mask or
    crop fails raises.
    Targets are the ground-truth center minus the estimated centroid
    (expressed in the frustum frame), the ground-truth size, and the
    ground-truth yaw minus the frustum rotation. Returns (samples, number of
    ground-truth objects skipped).
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
        ranked = sorted(detections[frame_id], key=lambda d: -d.score)
        table = bbox_iou_table(np.array([d.bbox for d in ranked]).reshape(-1, 4),
                               np.array([rec.bbox2d for rec in gt]).reshape(-1, 4))
        matches = _match(_overlaps(_zero_across_classes(table, ranked, gt), 0),
                         range(len(ranked)), 0.5)
        skipped += len(gt) - len(matches)
        batch = frustum_chain(clouds[frame_id], [ranked[k] for k, _, _ in matches], calib,
                              config)
        if batch.error is not None:
            raise batch.error
        kept = [gi for (_, gi, _), route in zip(matches, batch.routes) if route is Route.FARAWAY]
        skipped += len(matches) - len(kept)
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
    return samples, skipped
