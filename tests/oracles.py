"""Independent brute-force reference implementations used as test oracles.

Everything here is deliberately written with explicit per-element loops and
hand-rolled matrix arithmetic, sharing no code with the package under test.
"""
from __future__ import annotations

import math

import numpy as np


# --- elementary linear algebra (hand-rolled on purpose) -----------------------

def matvec(m, v):
    return [sum(m[i][k] * v[k] for k in range(len(v))) for i in range(len(m))]


def rotation_y_matrix(angle: float) -> list[list[float]]:
    c, s = math.cos(angle), math.sin(angle)
    return [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]


def inverse_rigid(rotation, translation):
    """Inverse of p -> R p + t as (R_inv, t_inv)."""
    r_inv = [[rotation[j][i] for j in range(3)] for i in range(3)]
    t_inv = [-sum(r_inv[i][k] * translation[k] for k in range(3)) for i in range(3)]
    return r_inv, t_inv


def lidar_point_to_camera(p, r0, tr):
    """R0 . (Tr . [p;1]) with explicit sums."""
    q = [
        tr[i][0] * p[0] + tr[i][1] * p[1] + tr[i][2] * p[2] + tr[i][3]
        for i in range(3)
    ]
    return matvec(r0, q)


def project_point(p_cam, p2):
    """Dehomogenized P2 . [p;1]; returns (u, v, valid)."""
    uvw = [
        p2[i][0] * p_cam[0] + p2[i][1] * p_cam[1] + p2[i][2] * p_cam[2] + p2[i][3]
        for i in range(3)
    ]
    if uvw[2] == 0.0:
        return math.nan, math.nan, False
    u = uvw[0] / uvw[2]
    v = uvw[1] / uvw[2]
    valid = p_cam[2] > 0 and math.isfinite(u) and math.isfinite(v)
    return u, v, valid


# --- frustum membership --------------------------------------------------------

def box_frustum_indices(points_lidar, r0, tr, p2, bbox, image_size=None):
    """Per-point brute-force membership in the (clamped) 2D box."""
    u0, v0, u1, v1 = bbox
    if image_size is not None:
        w, h = image_size
        u0, u1 = max(u0, 0.0), min(u1, float(w))
        v0, v1 = max(v0, 0.0), min(v1, float(h))
    kept = []
    for idx, p in enumerate(points_lidar):
        cam = lidar_point_to_camera(p, r0, tr)
        u, v, valid = project_point(cam, p2)
        if valid and u0 <= u < u1 and v0 <= v < v1:
            kept.append(idx)
    return kept


def mask_frustum_indices(points_lidar, r0, tr, p2, mask):
    """Per-point brute-force membership via floor-pixel mask lookup."""
    height, width = mask.shape
    kept = []
    for idx, p in enumerate(points_lidar):
        cam = lidar_point_to_camera(p, r0, tr)
        u, v, valid = project_point(cam, p2)
        if not valid:
            continue
        iu, iv = math.floor(u), math.floor(v)
        if 0 <= iu < width and 0 <= iv < height and mask[iv, iu] > 0:
            kept.append(idx)
    return kept


# --- histogram clustering --------------------------------------------------------

def histogram_by_scan(values, bin_width):
    """Edges, counts, and modal bin via an explicit per-value edge scan."""
    vmin = min(values)
    vmax = max(values)
    n_bins = max(1, math.ceil((vmax - vmin) / bin_width))
    left = [vmin + j * bin_width for j in range(n_bins)]
    right = [vmin + (j + 1) * bin_width for j in range(n_bins)]
    counts = [0] * n_bins
    for v in values:
        for j in range(n_bins):
            last = j == n_bins - 1
            if (v >= left[j] and v < right[j]) or (last and v >= left[j]):
                counts[j] += 1
                break
    best = 0
    for j in range(1, n_bins):
        if counts[j] > counts[best]:
            best = j
    return left, right, counts, best


def centroid_by_scan(points, bin_width):
    """Per-axis modal-bin midpoints via the scan histogram."""
    out = []
    for axis in range(3):
        left, right, _, best = histogram_by_scan([p[axis] for p in points], bin_width)
        out.append(0.5 * (left[best] + right[best]))
    return tuple(out)


# --- rotated rectangles -----------------------------------------------------------

def rect_corners(cx, cz, width, length, yaw):
    """Corners matching the (l along local x, w along local z) convention."""
    c, s = math.cos(yaw), math.sin(yaw)
    corners = []
    for lx, lz in ((length / 2, width / 2), (-length / 2, width / 2),
                   (-length / 2, -width / 2), (length / 2, -width / 2)):
        corners.append((cx + c * lx + s * lz, cz - s * lx + c * lz))
    return corners


def point_in_rect(px, pz, cx, cz, width, length, yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dz = px - cx, pz - cz
    local_x = c * dx - s * dz
    local_z = s * dx + c * dz
    return abs(local_x) <= length / 2 and abs(local_z) <= width / 2


def _in_rect_array(px, pz, box):
    cx, cz, width, length, yaw = box
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dz = px - cx, pz - cz
    local_x = c * dx - s * dz
    local_z = s * dx + c * dz
    return (np.abs(local_x) <= length / 2) & (np.abs(local_z) <= width / 2)


def monte_carlo_bev_iou(box_a, box_b, n_samples=100_000, seed=0):
    """Stratified (jittered-grid) Monte-Carlo IoU of two rotated rectangles.

    box = (cx, cz, w, l, yaw). One jittered sample per grid cell over the
    union bounding box keeps the error well under 1e-3 at 1e5 samples.
    """
    corners = rect_corners(*box_a) + rect_corners(*box_b)
    xs = [c[0] for c in corners]
    zs = [c[1] for c in corners]
    x0, x1 = min(xs), max(xs)
    z0, z1 = min(zs), max(zs)
    grid = int(math.sqrt(n_samples))
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(0.0, 1.0, size=(grid, grid, 2))
    ii, jj = np.meshgrid(np.arange(grid), np.arange(grid), indexing="ij")
    px = x0 + (x1 - x0) * (ii + jitter[:, :, 0]) / grid
    pz = z0 + (z1 - z0) * (jj + jitter[:, :, 1]) / grid
    in_a = _in_rect_array(px, pz, box_a)
    in_b = _in_rect_array(px, pz, box_b)
    n_union = int(np.sum(in_a | in_b))
    n_inter = int(np.sum(in_a & in_b))
    if n_union == 0:
        return 0.0
    return n_inter / n_union


def polygon_area(poly) -> float:
    """Shoelace area of one (n, 2) polygon, its n terms summed by np.sum.

    The per-pair reference the package's batched intersection areas must
    match bit for bit; positive for counter-clockwise order.
    """
    poly = np.asarray(poly, dtype=np.float64).reshape(-1, 2)
    x, z = poly[:, 0], poly[:, 1]
    following = np.concatenate((poly[1:], poly[:1]))
    return float(0.5 * np.sum(x * following[:, 1] - following[:, 0] * z))


def clip_polygon(subject, clip):
    """One-pair Sutherland-Hodgman clip of a convex polygon by a CCW convex one.

    Returns the intersection as an (n, 2) array with n >= 3, or (0, 2) once
    fewer than 3 vertices are left.
    """
    output = [tuple(p) for p in np.asarray(subject).tolist()]
    clip = np.asarray(clip).tolist()
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
        values = [edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) for p in inputs]
        for i, p in enumerate(inputs):
            q = inputs[(i + 1) % len(inputs)]
            vp, vq = values[i], values[(i + 1) % len(inputs)]
            if vp >= 0:
                output.append(p)
            if vp * vq < 0:  # strict sign change: insert the crossing point
                t = vp / (vp - vq)
                output.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return np.array(output) if len(output) >= 3 else np.zeros((0, 2))


def intersection_area(subject, clip) -> float:
    """Area of the one-pair clip; 0.0 when it leaves fewer than 3 vertices."""
    poly = clip_polygon(subject, clip)
    return polygon_area(poly) if len(poly) else 0.0


def bbox_iou_2d(a, b) -> float:
    """Axis-aligned IoU of two (u_min, v_min, u_max, v_max) boxes."""
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(iw, 0.0) * max(ih, 0.0)
    if inter == 0.0:  # no overlap, or one whose area underflows (then so does the union)
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def axis_aligned_bev_iou(box_a, box_b):
    """Closed-form IoU for yaw-0 boxes: (cx, cz, w, l)."""

    def bounds(box):
        cx, cz, w, l = box
        return cx - l / 2, cx + l / 2, cz - w / 2, cz + w / 2

    ax0, ax1, az0, az1 = bounds(box_a)
    bx0, bx1, bz0, bz1 = bounds(box_b)
    ix = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    iz = max(0.0, min(az1, bz1) - max(az0, bz0))
    inter = ix * iz
    area_a = (ax1 - ax0) * (az1 - az0)
    area_b = (bx1 - bx0) * (bz1 - bz0)
    return inter / (area_a + area_b - inter)


def axis_aligned_iou_3d(box_a, box_b):
    """Closed-form 3D IoU for yaw-0 boxes: (cx, cy, cz, w, l, h), y down,
    (cx, cy, cz) the bottom-face center."""

    def bounds(box):
        cx, cy, cz, w, l, h = box
        return (cx - l / 2, cx + l / 2, cy - h, cy, cz - w / 2, cz + w / 2)

    a = bounds(box_a)
    b = bounds(box_b)
    ix = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[2], b[2]))
    iz = max(0.0, min(a[5], b[5]) - max(a[4], b[4]))
    inter = ix * iy * iz
    vol_a = (a[1] - a[0]) * (a[3] - a[2]) * (a[5] - a[4])
    vol_b = (b[1] - b[0]) * (b[3] - b[2]) * (b[5] - b[4])
    return inter / (vol_a + vol_b - inter)


def point_in_box3d(p, center, size, yaw):
    """Closed-boundary membership for an upright camera-frame box."""
    w, l, h = size
    dx = p[0] - center[0]
    dy = p[1] - center[1]
    dz = p[2] - center[2]
    c, s = math.cos(yaw), math.sin(yaw)
    local_x = c * dx - s * dz
    local_z = s * dx + c * dz
    return (
        abs(local_x) <= l / 2
        and abs(local_z) <= w / 2
        and -h <= dy <= 0.0
    )


# --- greedy matching and 11-point AP -----------------------------------------------

def greedy_match_by_scan(table, order, threshold):
    """Rows of ``order`` in turn each scan every column of their ``table`` row
    (nested lists) and take the first column of highest IoU, above 0 and at
    or above ``threshold``, that no earlier row took. Returns {row: (column, iou)}.
    """
    taken = set()
    found = {}
    for r in order:
        best = None
        for c in range(len(table[r])):
            value = table[r][c]
            if c in taken or not value > 0.0 or not value >= threshold:
                continue
            if best is None or value > table[r][best]:
                best = c
        if best is not None:
            taken.add(best)
            found[r] = (best, table[r][best])
    return found


def match_gt_by_scan(table):
    """``match_greedy`` on a (gt, pred) IoU table of nested lists: ground truths
    by descending best IoU over all predictions (0 when none), index order on
    ties, each taking its best free prediction. Returns (gt, pred or None, iou)
    per ground truth."""
    best = [max([v for v in row if v > 0.0], default=0.0) for row in table]
    order = sorted(range(len(table)), key=lambda g: -best[g])
    found = greedy_match_by_scan(table, order, 0.0)
    return [(g, *found.get(g, (None, 0.0))) for g in range(len(table))]


def ap_11point_by_scan(tables, scores, n_gt, threshold):
    """11-point interpolated AP in percent over per-frame IoU tables.

    ``tables`` maps a frame to its (gt, pred) table as nested lists, and
    ``scores`` maps every frame to its predictions' scores; a frame of
    ``scores`` with no table has no ground truth. Predictions go by
    descending score, frame order then index order on ties, and each takes
    its frame's highest-IoU free ground truth at IoU >= threshold. At each
    recall level the best precision of any rank reaching it counts.
    """
    pool = []
    for frame in scores:
        for i in range(len(scores[frame])):
            pool.append((frame, i))
    pool = sorted(pool, key=lambda fp: -scores[fp[0]][fp[1]])
    if not pool:
        return 0.0
    taken = {frame: set() for frame in tables}
    hits = []
    for frame, p in pool:
        best = None
        if frame in tables:
            table = tables[frame]
            for g in range(len(table)):
                value = table[g][p]
                if g in taken[frame] or not value > 0.0 or not value >= threshold:
                    continue
                if best is None or value > table[best][p]:
                    best = g
        if best is not None:
            taken[frame].add(best)
        hits.append(best is not None)
    recall, precision, tp = [], [], 0.0
    for rank, hit in enumerate(hits):
        tp += 1.0 if hit else 0.0
        recall.append(tp / n_gt)
        precision.append(tp / (rank + 1))
    total = 0.0
    for level in range(11):
        reached = [pr for r, pr in zip(recall, precision) if r >= level / 10 - 1e-12]
        total += max(reached) if reached else 0.0
    return 100.0 * total / 11.0


# --- calculus ---------------------------------------------------------------------

def central_difference_gradient(fn, x0, step=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        plus = x0.copy()
        minus = x0.copy()
        plus[i] += step
        minus[i] -= step
        grad[i] = (fn(plus) - fn(minus)) / (2.0 * step)
    return grad


# --- BEV rasterization ---------------------------------------------------------------

def rasterize_by_scan(points_xz, grid_size, extent):
    """Per-point brute-force grid binning with explicit edge comparisons."""
    grid = [[0] * grid_size for _ in range(grid_size)]
    cell = 2.0 * extent / grid_size
    for x, z in points_xz:
        placed = False
        for i in range(grid_size):
            if not (-extent + i * cell <= x < -extent + (i + 1) * cell):
                continue
            for j in range(grid_size):
                if -extent + j * cell <= z < -extent + (j + 1) * cell:
                    grid[i][j] += 1
                    placed = True
                    break
            if placed:
                break
    return np.array(grid, dtype=np.int64)


# --- velodyne decode ------------------------------------------------------------------

def decode_velodyne(data: bytes):
    """The check-by-check velodyne decode that ``load_pointcloud`` must match.

    The one oracle built on the package: the intensity check, then the
    ``PointCloud`` constructor's copy and its finiteness and range checks, in
    that order, so its errors are the ones a scan must raise. ``data`` is
    a whole number of 16-byte records.
    """
    from farfrustum.errors import NonFinitePoint
    from farfrustum.kitti_io import Frame, PointCloud

    raw = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    if not np.isfinite(raw[:, 3]).all():
        raise NonFinitePoint("pointcloud contains non-finite intensities")
    return PointCloud(raw[:, :3], Frame.LIDAR)
