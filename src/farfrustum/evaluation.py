"""Detection metrics: rotated BEV/3D IoU, faraway aIoU, 11-point AP, stats.

The faraway benchmark deliberately uses a low IoU threshold (0.1): at long
range a coarse localization is still far more useful than a miss, so the
metric rewards any overlap rather than tight fits.

Scoring builds one IoU table per (frame, class) and feeds it to aIoU,
AP-BEV and AP-3D. Pairs whose footprint bounds are disjoint are pruned;
every other ground-truth/prediction pair is clipped at most once, and its
BEV and 3D IoU both come from that one intersection area. The pairwise
``bev_iou`` and ``iou_3d`` read from the same table builder. ``Box3D``
bounds every box's center and sizes where it is built, so each footprint
area and volume is positive and both tables are always defined.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .geometry import lidar_to_camera, rot_y
from .kitti_io import Box3D, CalibrationSet, LabelRecord, PointCloud

# --- rotated IoU ------------------------------------------------------------


def _polygon_area(poly: np.ndarray) -> np.ndarray:
    """Shoelace area of (..., n, 2) polygons; positive for counter-clockwise order."""
    x, z = poly[..., 0], poly[..., 1]
    following = np.concatenate((poly[..., 1:, :], poly[..., :1, :]), axis=-2)
    return 0.5 * np.sum(x * following[..., 1] - following[..., 0] * z, axis=-1)


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by a CCW convex polygon."""
    # plain floats: the same IEEE arithmetic as numpy scalars, only faster
    output = [tuple(p) for p in subject.tolist()]
    clip = clip.tolist()
    n_clip = len(clip)
    for k in range(n_clip):
        if len(output) < 3:
            return np.zeros((0, 2))
        a = clip[k]
        b = clip[(k + 1) % n_clip]
        edge = (b[0] - a[0], b[1] - a[1])
        inputs = output
        output = []
        # signed area of (edge, a->p); >= 0 keeps points on the inner side
        values = [
            edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) for p in inputs
        ]
        for i, p in enumerate(inputs):
            q = inputs[(i + 1) % len(inputs)]
            vp, vq = values[i], values[(i + 1) % len(inputs)]
            if vp >= 0:
                output.append(p)
            if vp * vq < 0:  # strict sign change: insert the crossing point
                t = vp / (vp - vq)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return np.array(output) if len(output) >= 3 else np.zeros((0, 2))


_PRUNE_MARGIN = 1e-6  # relative pad on each footprint's axis-aligned bounds


def _footprints(
    boxes: Sequence[Box3D],
) -> tuple[list[np.ndarray], list[float], np.ndarray, np.ndarray]:
    """Corners, shoelace areas and padded axis-aligned bounds of footprints.

    The area is measured on the corner polygon itself (not as w*l) so that
    identical boxes compare at exactly 1.0: clipping a polygon by itself
    returns it verbatim, and the intersection then carries the same floats
    as each footprint.
    """
    corners = np.stack([box.bev_corners() for box in boxes])
    # the pad dwarfs the clip's rounding, which scales with the coordinates
    pad = _PRUNE_MARGIN * np.abs(corners).max(axis=(1, 2))
    low = corners.min(axis=1) - pad[:, None]
    high = corners.max(axis=1) + pad[:, None]
    return list(corners), _polygon_area(corners).tolist(), low, high


def _vertical_interval(box: Box3D) -> tuple[float, float]:
    # y points down: a box spans [center_y - h, center_y]
    return box.center[1] - box.size[2], box.center[1]


def _iou_tables(
    gt: Sequence[Box3D], preds: Sequence[Box3D]
) -> tuple[np.ndarray, np.ndarray]:
    """BEV and 3D IoU of every (ground truth, prediction) pair, class-blind.

    Each box's footprint is built once. Pairs whose padded bounds are
    disjoint cannot overlap and keep IoU 0; every other pair is clipped
    once, and both IoUs come from that one intersection area. 3D IoU is
    the BEV intersection times the vertical overlap, over upright boxes.
    """
    bev = np.zeros((len(gt), len(preds)))
    vol_iou = np.zeros_like(bev)
    if not len(gt) or not len(preds):
        return bev, vol_iou
    g_poly, g_area, g_low, g_high = _footprints(gt)
    p_poly, p_area, p_low, p_high = _footprints(preds)
    g_span = [_vertical_interval(g) for g in gt]
    p_span = [_vertical_interval(p) for p in preds]
    # heights via the same subtractions used for the overlap, keeping the
    # identical-box case exact
    g_vol = [a * (bottom - top) for a, (top, bottom) in zip(g_area, g_span)]
    p_vol = [a * (bottom - top) for a, (top, bottom) in zip(p_area, p_span)]
    near = np.all(
        (g_low[:, None, :] <= p_high[None, :, :]) & (p_low[None, :, :] <= g_high[:, None, :]),
        axis=2,
    )
    for gi, pi in zip(*(ix.tolist() for ix in np.nonzero(near))):
        inter_poly = _clip_polygon(g_poly[gi], p_poly[pi])
        inter = float(_polygon_area(inter_poly)) if len(inter_poly) else 0.0
        union = g_area[gi] + p_area[pi] - inter
        bev[gi, pi] = min(max(inter / union, 0.0), 1.0)
        top_g, bottom_g = g_span[gi]
        top_p, bottom_p = p_span[pi]
        overlap = max(0.0, min(bottom_g, bottom_p) - max(top_g, top_p))
        inter_vol = inter * overlap
        union = g_vol[gi] + p_vol[pi] - inter_vol
        vol_iou[gi, pi] = min(max(inter_vol / union, 0.0), 1.0)
    return bev, vol_iou


def bev_iou(a: Box3D, b: Box3D) -> float:
    """IoU of the two yaw-rotated ground-plane rectangles."""
    return float(_iou_tables([a], [b])[0][0, 0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volume IoU for upright boxes: BEV intersection times vertical overlap."""
    return float(_iou_tables([a], [b])[1][0, 0])


def _same_class_table(gt: Sequence[Box3D], preds: Sequence[Box3D]) -> np.ndarray:
    """BEV IoU table of one frame with each class clipped apart; 0 across classes."""
    table = np.zeros((len(gt), len(preds)))
    for cls in dict.fromkeys(g.class_name for g in gt):
        rows = [i for i, g in enumerate(gt) if g.class_name == cls]
        cols = [j for j, p in enumerate(preds) if p.class_name == cls]
        if not cols:
            continue
        bev, _ = _iou_tables([gt[i] for i in rows], [preds[j] for j in cols])
        table[np.ix_(rows, cols)] = bev
    return table


# --- matching and aggregate metrics ------------------------------------------


def _overlaps(table: np.ndarray) -> list[list[tuple[int, float]]]:
    """Positive entries of each row as (column, IoU), in column order.

    Matching only ever takes an IoU above 0, so the pruned majority of a
    table never needs a look.
    """
    rows: list[list[tuple[int, float]]] = [[] for _ in range(len(table))]
    ri, ci = np.nonzero(table > 0.0)
    for r, c, value in zip(ri.tolist(), ci.tolist(), table[ri, ci].tolist()):
        rows[r].append((c, value))
    return rows


def _greedy(table: np.ndarray) -> list[tuple[int, int | None, float]]:
    """Greedy one-to-one matching on a (gt, pred) IoU table; see match_greedy."""
    rows = _overlaps(table)
    order = sorted(
        range(len(rows)), key=lambda gi: -max((v for _, v in rows[gi]), default=0.0)
    )
    used: set[int] = set()
    result: list[tuple[int, int | None, float]] = []
    for gi in order:
        best_pi, best_iou = None, 0.0
        for pi, value in rows[gi]:
            if pi not in used and value > best_iou:
                best_pi, best_iou = pi, value
        if best_pi is not None:
            used.add(best_pi)
            result.append((gi, best_pi, best_iou))
        else:
            result.append((gi, None, 0.0))
    result.sort(key=lambda t: t[0])
    return result


def match_greedy(
    gt: Sequence[Box3D], preds: Sequence[Box3D]
) -> list[tuple[int, int | None, float]]:
    """One-to-one same-class matching, greedy over GTs by best available IoU.

    Ground truths are processed in descending order of their best IoU over
    the still-unmatched predictions; each prediction is consumed at most
    once. Returns (gt index, pred index or None, BEV iou) per ground truth.
    """
    return _greedy(_same_class_table(gt, preds))


def _interp_ap(points: list[tuple[float, float]]) -> float:
    """11-point interpolated AP in percent from (recall, precision) points."""
    total = 0.0
    for level in np.linspace(0.0, 1.0, 11):
        candidates = [p for r, p in points if r >= level - 1e-12]
        total += max(candidates) if candidates else 0.0
    return 100.0 * total / 11.0


def _ap_from_tables(
    tables: Mapping[str, np.ndarray],
    preds_by_frame: Mapping[str, Sequence[Box3D]],
    n_gt: int,
    iou_threshold: float,
) -> float:
    """11-point AP from per-frame (gt, pred) IoU tables; see ap_11point."""
    pool = [
        (frame, i, box)
        for frame in preds_by_frame
        for i, box in enumerate(preds_by_frame[frame])
    ]
    pool.sort(key=lambda t: -t[2].score)  # sort() is stable: ties keep input order
    overlaps = {frame: _overlaps(table.T) for frame, table in tables.items()}
    matched: dict[str, set[int]] = {frame: set() for frame in tables}
    tp = np.zeros(len(pool))
    for rank, (frame, pi, _) in enumerate(pool):
        if frame not in tables:
            continue
        best_gi, best_iou = None, 0.0
        for gi, value in overlaps[frame][pi]:
            if gi not in matched[frame] and value >= iou_threshold and value > best_iou:
                best_gi, best_iou = gi, value
        if best_gi is not None:
            matched[frame].add(best_gi)
            tp[rank] = 1.0
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(pool) + 1)
    points = [
        (cum_tp[i] / n_gt, cum_tp[i] / ranks[i]) for i in range(len(pool))
    ]
    if not points:
        return 0.0
    return _interp_ap(points)


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
    tables = {
        frame: _same_class_table(gt, preds_by_frame.get(frame, ()))
        for frame, gt in gt_by_frame.items()
    }
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


def faraway_filter(
    thresholds: Mapping[str, float],
) -> Callable[[Box3D], bool]:
    """Predicate selecting boxes at or beyond their class depth threshold."""

    def check(box: Box3D) -> bool:
        threshold = thresholds.get(box.class_name)
        return threshold is not None and box.center[2] >= threshold

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
    report = EvalReport()
    for cls in classes:
        gt_c = {f: [g for g in gt_f[f] if g.class_name == cls] for f in frames}
        pred_c = {f: [p for p in pred_f[f] if p.class_name == cls] for f in frames}
        n_gt = sum(len(v) for v in gt_c.values())
        n_pred = sum(len(v) for v in pred_c.values())
        bev_tables, vol_tables = {}, {}
        iou_sum = 0.0
        for f in frames:
            bev_tables[f], vol_tables[f] = _iou_tables(gt_c[f], pred_c[f])
            for gi, pi, iou in _greedy(bev_tables[f]):
                iou_sum += iou
                report.matches.append((f, cls, gi, pi, iou))
        if n_gt:
            ap_bev = _ap_from_tables(bev_tables, pred_c, n_gt, iou_threshold)
            ap_3d = _ap_from_tables(vol_tables, pred_c, n_gt, iou_threshold)
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
    local = (pts - np.asarray(box.center)) @ rot_y(-box.yaw).T
    w, l, h = box.size
    return (
        (np.abs(local[:, 0]) <= l / 2)
        & (np.abs(local[:, 2]) <= w / 2)
        & (local[:, 1] <= 0.0)
        & (local[:, 1] >= -h)
    )


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

