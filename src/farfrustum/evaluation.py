"""Detection metrics: rotated BEV/3D IoU, faraway aIoU, 11-point AP, stats.

The faraway benchmark deliberately uses a low IoU threshold (0.1): at long
range a coarse localization is still far more useful than a miss, so the
metric rewards any overlap rather than tight fits.

Every scorer's IoU table comes from ``_iou_tables``, which builds all the
tables of a call together: one footprint pass stacks every box's
ground-plane corners, pairs whose footprint bounds are disjoint are pruned,
and one clip pass intersects every other ground-truth/prediction pair, so
each pair is clipped at most once and its BEV and 3D IoU both come from
that one intersection area. numpy sums each polygon's shoelace terms in
blocks of one vertex count, with the bits of np.sum on that polygon's row.
``evaluate_boxes`` splits the frames by class before it builds the tables
for aIoU, AP-BEV and AP-3D; ``match_greedy`` and ``ap_11point`` zero the
cross-class cells of class-blind ones (``_zero_across_classes``, as
``regressor.build_training_set`` does). ``Box3D`` bounds every box's center
and sizes where it is built, so each footprint area and volume is positive
and both tables are always defined. ``_match`` is the one greedy matcher:
aIoU runs it per frame over ground truths, AP once over the score-ranked
predictions of all frames (ground truths numbered across frames), and
``regressor.build_training_set`` over detections at 2D IoU 0.5.
``is_faraway`` is the one faraway boundary: the frustum chain routes by it,
``faraway_filter`` (``eval --faraway-only``, ``run``'s fallback) selects by it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import UnknownClass
from .geometry import lidar_to_camera, rot_y
from .kitti_io import Box3D, CalibrationSet, LabelRecord, PointCloud, bev_footprints, mul_rows

# --- rotated IoU ------------------------------------------------------------


def _intersection_areas(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Areas of the intersections of (P, 4, 2) convex polygons with CCW (P, 4, 2) ones.

    One Sutherland-Hodgman pass per clip edge runs over all P pairs at once,
    on vertex arrays padded to the longest polygon. It keeps each polygon's
    vertices in order and uses the same float expressions as a one-pair
    clip, so every area carries the same bits; a polygon that drops below 3
    vertices has area 0.
    """
    x, z = subject[:, :, 0].copy(), subject[:, :, 1].copy()  # padded past each count
    count = np.full(len(subject), subject.shape[1])
    alive = np.arange(len(subject))  # pairs still holding 3 or more vertices
    edges = np.roll(clip, -1, axis=1) - clip  # edge k runs from corner k to k + 1
    for k in range(clip.shape[1]):
        a, edge = clip[alive, k], edges[alive, k]
        # signed area of (edge, a->p); >= 0 keeps points on the inner side
        value = edge[:, :1] * (z - a[:, 1:]) - edge[:, 1:] * (x - a[:, :1])
        value_q = _following(value, count)
        valid = np.arange(x.shape[1]) < count[:, None]
        keep = valid & (value >= 0)
        cross = valid & (value * value_q < 0)  # strict sign change: a crossing point
        r, c = np.nonzero(cross)
        q = np.where(c + 1 < count[r], c + 1, 0)
        t = value[r, c] / (value[r, c] - value_q[r, c])
        cross_x = x[r, c] + t * (x[r, q] - x[r, c])
        cross_z = z[r, c] + t * (z[r, q] - z[r, c])
        # each vertex is followed by its edge's crossing point, if any
        slots = np.stack([keep, cross], axis=2).reshape(len(x), 2 * x.shape[1])
        count = slots.sum(axis=1)
        slot = np.cumsum(slots, axis=1) - 1
        new_x, new_z = np.zeros((2, len(x), max(count.max(initial=0), 1)))
        new_x[r, slot[r, 2 * c + 1]] = cross_x
        new_z[r, slot[r, 2 * c + 1]] = cross_z
        r, c = np.nonzero(keep)
        new_x[r, slot[r, 2 * c]] = x[r, c]
        new_z[r, slot[r, 2 * c]] = z[r, c]
        left = count >= 3
        x, z, count, alive = new_x[left], new_z[left], count[left], alive[left]
    area = np.zeros(len(subject))
    area[alive] = _shoelace_areas(x, z, count)
    return area


def _following(rows: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The entry after each of a row's first ``count``, the last wrapping to the first."""
    out = np.concatenate((rows[:, 1:], rows[:, :1]), axis=1)
    out[np.arange(len(rows)), count - 1] = rows[:, 0]
    return out


def _shoelace_areas(x: np.ndarray, z: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Shoelace area of each row's first ``count`` vertices, positive for
    counter-clockwise order; numpy sums the rows of one vertex count as a block,
    which rounds each row as np.sum rounds that row alone."""
    terms = x * _following(z, count) - _following(x, count) * z
    total = np.empty(len(terms))
    for n in set(count.tolist()):  # np.unique adds 1.6 MB of RSS at its first call
        rows = count == n
        total[rows] = terms[rows, :n].sum(axis=1)
    return 0.5 * total


_PRUNE_MARGIN = 1e-6  # relative pad on each footprint's axis-aligned bounds


def _clamp_unit(ratio: np.ndarray) -> np.ndarray:
    """min(max(ratio, 0.0), 1.0) elementwise, signed zeros included."""
    ratio = np.where(ratio < 0.0, 0.0, ratio)
    return np.where(ratio > 1.0, 1.0, ratio)


def _iou_tables(
    tables: Sequence[tuple[Sequence[Box3D], Sequence[Box3D]]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """BEV and 3D IoU of every (ground truth, prediction) pair of each table, class-blind.

    One stacked product builds the footprint of every box of every table.
    Within a table, pairs whose padded footprint bounds are disjoint cannot
    overlap and keep IoU 0; every other pair of every table goes to one clip
    pass, and both IoUs come from that one intersection area. 3D IoU is the
    BEV intersection times the vertical overlap, over upright boxes. The
    footprint area is measured on the corner polygon itself (not as w*l) so
    that identical boxes compare at exactly 1.0.
    """
    shapes = [(len(gt), len(preds)) for gt, preds in tables]
    out = [(np.zeros(shape), np.zeros(shape)) for shape in shapes]
    boxes = [box for gt, preds in tables for box in (*gt, *preds)]
    if not boxes:
        return out
    poly = bev_footprints(boxes)
    area = _shoelace_areas(poly[..., 0], poly[..., 1], np.full(len(poly), 4))
    # the pad dwarfs the clip's rounding, which scales with the coordinates
    pad = _PRUNE_MARGIN * np.abs(poly).max(axis=(1, 2))
    low = poly.min(axis=1) - pad[:, None]
    high = poly.max(axis=1) + pad[:, None]
    # y points down: a box spans [center_y - h, center_y]; heights via the
    # same subtractions used for the overlap keep the identical-box case exact
    bottom = np.array([box.center[1] for box in boxes])
    top = bottom - np.array([box.size[2] for box in boxes])
    vol = area * (bottom - top)
    pairs, gi, pi, start = [], [np.zeros(0, int)], [np.zeros(0, int)], 0
    for n_gt, n_pred in shapes:
        g, p = slice(start, start + n_gt), slice(start + n_gt, start + n_gt + n_pred)
        near = np.all((low[g, None] <= high[None, p]) & (low[None, p] <= high[g, None]), axis=2)
        rows, cols = np.nonzero(near)
        pairs.append((rows, cols))
        gi.append(start + rows)
        pi.append(start + n_gt + cols)
        start += n_gt + n_pred
    gi, pi = np.concatenate(gi), np.concatenate(pi)
    inter = _intersection_areas(poly[gi], poly[pi])
    bev = _clamp_unit(inter / (area[gi] + area[pi] - inter))
    lowest = np.where(bottom[pi] < bottom[gi], bottom[pi], bottom[gi])
    highest = np.where(top[pi] > top[gi], top[pi], top[gi])
    overlap = lowest - highest
    inter_vol = inter * np.where(overlap > 0.0, overlap, 0.0)
    vol_iou = _clamp_unit(inter_vol / (vol[gi] + vol[pi] - inter_vol))
    done = 0
    for (bev_table, vol_table), (rows, cols) in zip(out, pairs):
        part = slice(done, done + len(rows))
        bev_table[rows, cols] = bev[part]
        vol_table[rows, cols] = vol_iou[part]
        done += len(rows)
    return out


def bev_iou(a: Box3D, b: Box3D) -> float:
    """IoU of the two yaw-rotated ground-plane rectangles."""
    return float(_iou_tables([([a], [b])])[0][0][0, 0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU for upright boxes: BEV intersection times vertical overlap."""
    return float(_iou_tables([([a], [b])])[0][1][0, 0])


def _same_class_tables(
    frames: Sequence[tuple[Sequence[Box3D], Sequence[Box3D]]],
) -> list[np.ndarray]:
    """BEV IoU table of each (gt, preds) frame, +0.0 across classes. A pair's IoU
    does not depend on the other pairs, so same-class cells keep their bits."""
    return [_zero_across_classes(bev, gt, preds)
            for (gt, preds), (bev, _) in zip(frames, _iou_tables(frames))]


def _zero_across_classes(table: np.ndarray, rows: Sequence, cols: Sequence) -> np.ndarray:
    """`table` with +0.0 in every cell whose row and column differ in class_name."""
    differ = [[r.class_name != c.class_name for c in cols] for r in rows]
    table[np.array(differ, dtype=bool).reshape(table.shape)] = 0.0
    return table


# --- matching and aggregate metrics ------------------------------------------


def _overlaps(table: np.ndarray, offset: int) -> list[list[tuple[int, float]]]:
    """Positive entries of each row as (column + offset, IoU), in column order.

    Matching only ever takes an IoU above 0, so the pruned majority of a
    table never needs a look.
    """
    rows: list[list[tuple[int, float]]] = [[] for _ in range(len(table))]
    ri, ci = np.nonzero(table > 0.0)
    for r, c, value in zip(ri.tolist(), (ci + offset).tolist(), table[ri, ci].tolist()):
        rows[r].append((c, value))
    return rows


def _match(
    rows: Sequence[Sequence[tuple[int, float]]], order: Iterable[int], threshold: float
) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching over ``_overlaps`` rows.

    Each row of ``order`` in turn takes its highest-IoU column not yet taken
    with IoU >= threshold, a tie going to the lowest column. Returns the
    (row, column, IoU) of each match, in the order they were made.
    """
    taken: set[int] = set()
    matches = []
    for r in order:
        best, best_iou = None, 0.0
        for c, value in rows[r]:
            if value > best_iou and value >= threshold and c not in taken:
                best, best_iou = c, value
        if best is not None:
            taken.add(best)
            matches.append((r, best, best_iou))
    return matches


def _greedy(table: np.ndarray) -> list[tuple[int, int | None, float]]:
    """Greedy one-to-one matching on a (gt, pred) IoU table; see match_greedy."""
    order = np.argsort(-table.max(axis=1, initial=0.0), kind="stable")
    found = {gi: (pi, iou) for gi, pi, iou in _match(_overlaps(table, 0), order.tolist(), 0.0)}
    return [(gi, *found.get(gi, (None, 0.0))) for gi in range(len(table))]


def match_greedy(
    gt: Sequence[Box3D], preds: Sequence[Box3D]
) -> list[tuple[int, int | None, float]]:
    """One-to-one same-class matching, greedy over GTs by their best IoU.

    Ground truths are ordered once, by descending best IoU over all
    predictions (stable on index); in that order each takes its
    highest-IoU prediction not yet taken. Returns (gt index, pred index or
    None, BEV iou) per ground truth.
    """
    return _greedy(_same_class_tables([(gt, preds)])[0])


def _interp_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    """11-point interpolated AP in percent from (recall, precision) points.

    Recall never decreases, so the points at or above a level are a suffix:
    its best precision is a running maximum taken from the end.
    """
    best = np.maximum.accumulate(precision[::-1])[::-1]
    total = 0.0
    for level in np.linspace(0.0, 1.0, 11):
        first = np.searchsorted(recall, level - 1e-12)
        total += best[first] if first < len(best) else 0.0
    return 100.0 * total / 11.0


def _ap_from_tables(
    tables: Mapping[str, np.ndarray],
    preds_by_frame: Mapping[str, Sequence[Box3D]],
    n_gt: int,
    iou_threshold: float,
) -> float:
    """11-point AP from per-frame (gt, pred) IoU tables; see ap_11point."""
    pool = sorted(  # sorted() is stable: ties keep input order
        ((frame, i, box.score) for frame, boxes in preds_by_frame.items()
         for i, box in enumerate(boxes)), key=lambda t: -t[2])
    if not pool:
        return 0.0
    overlaps, start = {}, 0
    for frame, table in tables.items():
        overlaps[frame] = _overlaps(table.T, start)
        start += len(table)
    ranked = [overlaps[frame][pi] if frame in overlaps else () for frame, pi, _ in pool]
    tp = np.zeros(len(pool))
    tp[[rank for rank, _, _ in _match(ranked, range(len(pool)), iou_threshold)]] = 1.0
    cum_tp = np.cumsum(tp)
    return _interp_ap(cum_tp / n_gt, cum_tp / np.arange(1, len(pool) + 1))


def ap_11point(
    gt_by_frame: Mapping[str, Sequence[Box3D]] | Sequence[Box3D],
    preds_by_frame: Mapping[str, Sequence[Box3D]] | Sequence[Box3D],
    iou_threshold: float = 0.1,
) -> float | None:
    """11-recall-point interpolated BEV average precision, in percent.

    Predictions are sorted by descending score (stable on input order) and
    matched greedily to the highest-IoU unmatched same-class ground truth of
    their frame at IoU >= threshold. Returns None when there is no ground
    truth (absent rather than 0, matching the evaluation convention of
    skipping empty classes). Plain sequences are treated as a single frame.
    """
    if not isinstance(gt_by_frame, Mapping):
        gt_by_frame = {"": list(gt_by_frame)}
    if not isinstance(preds_by_frame, Mapping):
        preds_by_frame = {"": list(preds_by_frame)}
    n_gt = sum(len(v) for v in gt_by_frame.values())
    if n_gt == 0:
        return None
    tables = dict(zip(gt_by_frame, _same_class_tables(
        [(gt, preds_by_frame.get(frame, ())) for frame, gt in gt_by_frame.items()]
    )))
    return _ap_from_tables(tables, preds_by_frame, n_gt, iou_threshold)


# --- report ------------------------------------------------------------------


@dataclass(frozen=True)
class ClassEval:
    aiou: float | None
    ap_bev: float | None
    ap_3d: float | None
    n_gt: int
    n_pred: int


@dataclass
class EvalReport:
    """Per-class metrics plus matched-pair diagnostics."""

    per_class: dict[str, ClassEval] = field(default_factory=dict)
    matches: list[tuple[str, str, int, int | None, float]] = field(
        default_factory=list
    )  # (frame, class, gt idx, pred idx or None, iou)


def is_faraway(depth: float, class_name: str, thresholds: Mapping[str, float]) -> bool:
    """True iff depth >= the class threshold (inclusive boundary)."""
    if class_name not in thresholds:
        raise UnknownClass(f"no faraway threshold for class {class_name!r}")
    return depth >= thresholds[class_name]


def faraway_filter(
    thresholds: Mapping[str, float],
) -> Callable[[Box3D], bool]:
    """Predicate selecting the boxes whose class has a threshold and that is_faraway."""

    def check(box: Box3D) -> bool:
        return box.class_name in thresholds and is_faraway(box.center[2], box.class_name,
                                                           thresholds)

    return check


def evaluate_boxes(
    gt_by_frame: Mapping[str, Sequence[Box3D]],
    preds_by_frame: Mapping[str, Sequence[Box3D]],
    iou_threshold: float = 0.1,
    faraway: Callable[[Box3D], bool] | None = None,
) -> EvalReport:
    """Build the full per-class report over a set of frames.

    When a faraway filter is given it is applied to both ground truth and
    predictions, so near-range boxes neither count as targets nor as false
    positives.
    """
    frames = sorted(set(gt_by_frame) | set(preds_by_frame))
    gt_f = {
        f: [g for g in gt_by_frame.get(f, ()) if faraway is None or faraway(g)]
        for f in frames
    }
    pred_f = {
        f: [p for p in preds_by_frame.get(f, ()) if faraway is None or faraway(p)]
        for f in frames
    }
    classes = sorted(
        {b.class_name for boxes in gt_f.values() for b in boxes}
        | {b.class_name for boxes in pred_f.values() for b in boxes}
    )
    keys = [(cls, f) for cls in classes for f in frames]
    gt_c = {(cls, f): [g for g in gt_f[f] if g.class_name == cls] for cls, f in keys}
    pred_c = {(cls, f): [p for p in pred_f[f] if p.class_name == cls] for cls, f in keys}
    tables = dict(zip(keys, _iou_tables([(gt_c[key], pred_c[key]) for key in keys])))
    report = EvalReport()
    for cls in classes:
        n_gt = sum(len(gt_c[cls, f]) for f in frames)
        n_pred = sum(len(pred_c[cls, f]) for f in frames)
        bev_tables = {f: tables[cls, f][0] for f in frames}
        vol_tables = {f: tables[cls, f][1] for f in frames}
        preds = {f: pred_c[cls, f] for f in frames}
        iou_sum = 0.0
        for f in frames:
            for gi, pi, iou in _greedy(bev_tables[f]):
                iou_sum += iou
                report.matches.append((f, cls, gi, pi, iou))
        if n_gt:
            ap_bev = _ap_from_tables(bev_tables, preds, n_gt, iou_threshold)
            ap_3d = _ap_from_tables(vol_tables, preds, n_gt, iou_threshold)
        else:
            ap_bev = ap_3d = None
        report.per_class[cls] = ClassEval(
            aiou=(iou_sum / n_gt) if n_gt else None,
            ap_bev=ap_bev,
            ap_3d=ap_3d,
            n_gt=n_gt,
            n_pred=n_pred,
        )
    return report


def _fmt(value: float | None, decimals: int) -> str:
    return "-" if value is None else f"{value:.{decimals}f}"


def format_report(report: EvalReport) -> str:
    """Human-readable table."""
    lines = [
        f"{'class':<12} {'n_gt':>5} {'n_pred':>6} {'aIoU':>8} {'AP_bev':>8} {'AP_3d':>8}"
    ]
    for cls, ev in sorted(report.per_class.items()):
        lines.append(
            f"{cls:<12} {ev.n_gt:>5} {ev.n_pred:>6} "
            f"{_fmt(ev.aiou, 4):>8} {_fmt(ev.ap_bev, 2):>8} {_fmt(ev.ap_3d, 2):>8}"
        )
    return "\n".join(lines)


def machine_lines(report: EvalReport) -> list[str]:
    """Line-oriented ``class,metric,value`` form of the report."""
    out = []
    for cls, ev in sorted(report.per_class.items()):
        out.append(f"{cls},n_gt,{ev.n_gt}")
        out.append(f"{cls},n_pred,{ev.n_pred}")
        if ev.aiou is not None:
            out.append(f"{cls},aiou,{ev.aiou:.6f}")
        if ev.ap_bev is not None:
            out.append(f"{cls},ap_bev,{ev.ap_bev:.4f}")
        if ev.ap_3d is not None:
            out.append(f"{cls},ap_3d,{ev.ap_3d:.4f}")
    return out


# --- dataset statistics --------------------------------------------------------


def points_in_box_mask(points_cam: np.ndarray, box: Box3D) -> np.ndarray:
    """Boolean mask of camera-frame points inside an upright box (closed faces)."""
    pts = np.asarray(points_cam, dtype=np.float64).reshape(-1, 3)
    local = mul_rows(pts - np.asarray(box.center), rot_y(-box.yaw).T)
    w, l, h = box.size
    return ((np.abs(local[:, 0]) <= l / 2) & (np.abs(local[:, 2]) <= w / 2)
            & (local[:, 1] <= 0.0) & (local[:, 1] >= -h))


@dataclass(frozen=True)
class ObjectPointStat:
    frame_id: str
    class_name: str
    depth: float
    count: int


def points_per_object_stats(
    labels_by_frame: Mapping[str, Sequence[LabelRecord]],
    clouds_by_frame: Mapping[str, PointCloud],
    calibs_by_frame: Mapping[str, CalibrationSet],
) -> list[ObjectPointStat]:
    """Per ground-truth object: class, center depth, lidar points inside it.

    The clouds are in the lidar frame. The resulting (depth, count) scatter
    is what motivates choosing per-class faraway thresholds where typical
    objects drop to about ten points.
    """
    out: list[ObjectPointStat] = []
    for frame_id in sorted(labels_by_frame):
        cam = lidar_to_camera(clouds_by_frame[frame_id], calibs_by_frame[frame_id])
        for rec in labels_by_frame[frame_id]:
            if rec.dontcare or rec.box is None:
                continue
            inside = points_in_box_mask(cam.points, rec.box)
            out.append(
                ObjectPointStat(
                    frame_id=frame_id,
                    class_name=rec.class_name,
                    depth=float(rec.box.center[2]),
                    count=int(inside.sum()),
                )
            )
    return out

