"""Write-only BEV scene renders and dataset-statistics plots.

Output is hand-assembled SVG (and optionally binary PPM) so that a fixed
input always produces byte-identical files; nothing here depends on a
plotting library or on wall-clock state.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .evaluation import ObjectPointStat
from .kitti_io import Box3D

# BEV canvas: camera x (right) maps to SVG x, camera z (forward) maps upward.
BEV_X_RANGE = (-40.0, 40.0)   # meters
BEV_Z_RANGE = (0.0, 110.0)    # meters
BEV_SCALE = 8.0               # pixels per meter

GT_STYLE = 'fill="none" stroke="#2f9e44" stroke-width="1.5"'
PRED_STYLE = 'fill="none" stroke="#e03131" stroke-width="1.5"'
POINT_STYLE = 'fill="#748ffc"'


def _bev_canvas_size() -> tuple[int, int]:
    width = int(round((BEV_X_RANGE[1] - BEV_X_RANGE[0]) * BEV_SCALE))
    height = int(round((BEV_Z_RANGE[1] - BEV_Z_RANGE[0]) * BEV_SCALE))
    return width, height


def _to_canvas(x: float, z: float) -> tuple[float, float]:
    cx = (x - BEV_X_RANGE[0]) * BEV_SCALE
    cy = (BEV_Z_RANGE[1] - z) * BEV_SCALE
    return cx, cy


def _box_rect(box: Box3D, style: str) -> str:
    """One rotated <rect> per box: sized (l, w), rotated by yaw about center."""
    w, l, _ = box.size
    cx, cy = _to_canvas(box.center[0], box.center[2])
    half_l = l / 2 * BEV_SCALE
    half_w = w / 2 * BEV_SCALE
    deg = math.degrees(box.yaw)
    return (
        f'<rect x="{cx - half_l:.3f}" y="{cy - half_w:.3f}" '
        f'width="{2 * half_l:.3f}" height="{2 * half_w:.3f}" '
        f'transform="rotate({deg:.6f} {cx:.3f} {cy:.3f})" {style}/>'
    )


def bev_scene_svg(
    points_xz: np.ndarray,
    gt_boxes: Sequence[Box3D] = (),
    pred_boxes: Sequence[Box3D] = (),
) -> str:
    """Render camera-frame BEV points and boxes into an SVG document."""
    width, height = _bev_canvas_size()
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<g id="points">',
    ]
    pts = np.asarray(points_xz, dtype=np.float64).reshape(-1, 2)
    for x, z in pts:
        if BEV_X_RANGE[0] <= x <= BEV_X_RANGE[1] and BEV_Z_RANGE[0] <= z <= BEV_Z_RANGE[1]:
            cx, cy = _to_canvas(x, z)
            parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="1.2" {POINT_STYLE}/>')
    parts.append("</g>")
    parts.append('<g id="gt">')
    parts.extend(_box_rect(box, GT_STYLE) for box in gt_boxes)
    parts.append("</g>")
    parts.append('<g id="pred">')
    parts.extend(_box_rect(box, PRED_STYLE) for box in pred_boxes)
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_CLASS_COLORS = {
    "pedestrian": "#e03131",
    "car": "#1971c2",
}
_FALLBACK_COLOR = "#868e96"


def stats_scatter_svg(
    stats: Sequence[ObjectPointStat],
    max_depth: float = 100.0,
    reference_count: int = 10,
) -> str:
    """Scatter of per-object point count vs depth, with a reference line.

    The horizontal line marks the point count under which clustering, not
    learned shape, is the only workable signal; thresholds are read off
    where each class's cloud crosses it.
    """
    width, height = 640, 400
    margin = 40
    max_count = max([s.count for s in stats], default=reference_count)
    max_count = max(max_count, reference_count)

    def sx(depth: float) -> float:
        return margin + (width - 2 * margin) * min(depth, max_depth) / max_depth

    def sy(count: float) -> float:
        return height - margin - (height - 2 * margin) * count / max_count

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#000" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="#000" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{sy(reference_count):.3f}" '
        f'x2="{width - margin}" y2="{sy(reference_count):.3f}" '
        'stroke="#f08c00" stroke-width="1" stroke-dasharray="6 4"/>',
        f'<text x="{width - margin + 4}" y="{sy(reference_count) + 4:.3f}" '
        f'font-size="11">{reference_count}</text>',
    ]
    for s in sorted(stats, key=lambda s: (s.frame_id, s.class_name, s.depth)):
        color = _CLASS_COLORS.get(s.class_name, _FALLBACK_COLOR)
        parts.append(
            f'<circle cx="{sx(s.depth):.3f}" cy="{sy(s.count):.3f}" r="3" '
            f'fill="{color}" fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- binary PPM raster ----------------------------------------------------------


def _draw_line(img: np.ndarray, p0: tuple[float, float], p1: tuple[float, float],
               color: tuple[int, int, int]) -> None:
    """Dense-sampled line draw; adequate for debug renders."""
    height, width = img.shape[:2]
    steps = int(max(abs(p1[0] - p0[0]), abs(p1[1] - p0[1])) * 2) + 1
    for t in np.linspace(0.0, 1.0, steps):
        x = int(round(p0[0] + t * (p1[0] - p0[0])))
        y = int(round(p0[1] + t * (p1[1] - p0[1])))
        if 0 <= x < width and 0 <= y < height:
            img[y, x] = color


def bev_scene_ppm(
    points_xz: np.ndarray,
    gt_boxes: Sequence[Box3D] = (),
    pred_boxes: Sequence[Box3D] = (),
) -> bytes:
    """Binary (P6) PPM render of the same scene as bev_scene_svg."""
    width, height = _bev_canvas_size()
    img = np.zeros((height, width, 3), dtype=np.uint8)
    pts = np.asarray(points_xz, dtype=np.float64).reshape(-1, 2)
    for x, z in pts:
        cx, cy = _to_canvas(x, z)
        ix, iy = int(round(cx)), int(round(cy))
        if 0 <= ix < width and 0 <= iy < height:
            img[iy, ix] = (116, 143, 252)
    for boxes, color in ((gt_boxes, (47, 158, 68)), (pred_boxes, (224, 49, 49))):
        for box in boxes:
            corners = box.bev_corners()
            canvas = [_to_canvas(x, z) for x, z in corners]
            for k in range(4):
                _draw_line(img, canvas[k], canvas[(k + 1) % 4], color)
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    return header + img.tobytes()
