"""Seeded KITTI-scale scene generator for the benchmark.

Writes frames in the package's standard directory layout (velodyne, calib,
detections_2d, fallback, label_2) plus a ``manifest.json`` of everything it
planted, so the benchmark can check the program's outputs against ground
truth. The same (seed, parameters) always gives byte-identical files.

Routing is made unambiguous by construction, so the pipeline's counters
must match the manifest exactly:

* the pipeline routes on a point's depth along the detection's ray, which
  never exceeds its range from the camera and is close to that range for
  points near the ray;
* near objects sit within 52 m range, so none of their points lies past
  55 m, 5 m short of the lowest faraway threshold, and background clutter
  never lies beyond 45 m, so any mode a near frustum can find is near;
* faraway pedestrians sit at camera z >= 65 m and faraway cars at >= 80 m,
  5 m past their thresholds, with 10 lidar points or fewer each;
* a faraway (or empty "sky") detection box shares its pixels with no other
  object's box, and clutter that would project into it is removed, so its
  frustum holds its own points and nothing else.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from farfrustum import kitti_io, regressor, synth
from farfrustum.geometry import rot_y

IMAGE_W, IMAGE_H = synth.IMAGE_SIZE
THRESHOLDS = {"pedestrian": 60.0, "car": 75.0}   # the paper's faraway thresholds
CLASSES = ("pedestrian", "car")

NEAR_Z = (8.0, 52.0)   # range from the camera; camera z in evaluation scenes
FAR_Z = {"pedestrian": (65.0, 95.0), "car": (80.0, 120.0)}   # camera z
CLUTTER_RANGE = (3.0, 45.0)           # range from the camera
UNKNOWN_CLASS = "cyclist"   # has no threshold or prior: counted as skipped
BOX_GAP_PX = 4.0            # clearance around faraway and sky boxes
PEDESTRIAN_SHARE = 0.4
FALLBACK_FAR = 2            # faraway fallback boxes per frame, dropped by routing

# evaluation scenes, per frame
EVAL_GT_FAR = 40
EVAL_GT_NEAR = 4
EVAL_MISS_SHARE = 0.15
EVAL_FALSE_POSITIVES = 4


@dataclass(frozen=True)
class SceneParams:
    """Per-workload scene knobs; nothing here is a program setting."""

    points: int = 120_000       # lidar points per frame, exact
    detections: int = 30        # 2D detections per frame, exact
    faraway_share: float = 1 / 3
    mask_share: float = 0.0     # share of detections that carry a PGM mask
    sky: int = 1                # detections with an empty frustum
    unknown: int = 1            # detections of a class without a threshold
    fallback: bool = True       # write the fallback/ directory


@dataclass
class Planted:
    class_name: str
    location: tuple[float, float, float]  # bottom-face centre, camera frame
    size: tuple[float, float, float]      # (w, l, h)
    yaw: float
    faraway: bool
    points: np.ndarray                    # (n, 3) camera frame
    bbox: tuple[float, float, float, float]

    def box(self) -> kitti_io.Box3D:
        return kitti_io.Box3D(self.location, self.yaw, self.size, self.class_name)


def _project(points_cam: np.ndarray, calib: kitti_io.CalibrationSet) -> np.ndarray:
    uvw = points_cam @ calib.P2[:, :3].T + calib.P2[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        return uvw[:, :2] / uvw[:, 2:3]


def _bbox(points_cam: np.ndarray, calib, margin: float = 1.5):
    """Pixel box around points, clamped to the image, rounded as written."""
    uv = _project(points_cam, calib)
    u0 = max(0.0, float(uv[:, 0].min()) - margin)
    v0 = max(0.0, float(uv[:, 1].min()) - margin)
    u1 = min(float(IMAGE_W), float(uv[:, 0].max()) + margin)
    v1 = min(float(IMAGE_H), float(uv[:, 1].max()) + margin)
    return tuple(round(v, 2) for v in (u0, v0, u1, v1))


def _overlaps(a, b, gap: float) -> bool:
    return not (
        a[2] + gap <= b[0] or b[2] + gap <= a[0] or a[3] + gap <= b[1] or b[3] + gap <= a[1]
    )


def _inside_any(uv: np.ndarray, boxes, gap: float) -> np.ndarray:
    hit = np.zeros(len(uv), dtype=bool)
    with np.errstate(invalid="ignore"):
        for u0, v0, u1, v1 in boxes:
            hit |= (
                (uv[:, 0] >= u0 - gap) & (uv[:, 0] < u1 + gap)
                & (uv[:, 1] >= v0 - gap) & (uv[:, 1] < v1 + gap)
            )
    return hit


def _sample_object(rng, calib, class_name: str, faraway: bool) -> Planted | None:
    prior = np.asarray(regressor.DEFAULT_SIZE_PRIORS[class_name])
    size = prior * rng.uniform(0.92, 1.08, 3)
    if faraway:
        z = rng.uniform(*FAR_Z[class_name])
        x = z * rng.uniform(-0.6, 0.6)
        n = int(rng.integers(3, 11))
    else:
        # by range: the pipeline routes on depth along the detection's ray
        rho, azimuth = rng.uniform(*NEAR_Z), rng.uniform(-1.0, 1.0) * math.atan(0.6)
        x, z = rho * math.sin(azimuth), rho * math.cos(azimuth)
        dense = 40000.0 if class_name == "car" else 12000.0
        n = int(np.clip(dense / z**2, 40 if class_name == "car" else 20, 1500))
    y = rng.uniform(1.60, 1.72)
    yaw = rng.uniform(-math.pi, math.pi)
    w, l, h = size
    local = rng.uniform(-0.45, 0.45, (n, 3)) * np.array([l, 2 * h, w])
    local[:, 1] = -h / 2 + local[:, 1] / 2   # y spans the box height, y down
    points = local @ rot_y(yaw).T + np.array([x, y, z])
    location = (float(x), float(y), float(z))
    obj = Planted(class_name, location, tuple(float(s) for s in size), float(yaw),
                  faraway, points, (0.0, 0.0, 0.0, 0.0))
    corners = obj.box().corners()
    bbox = _bbox(np.vstack([points, corners]), calib)
    # every planted point lands in the image, so no frustum comes out empty
    uv = _project(np.vstack([points, corners]) if faraway else points, calib)
    if uv[:, 0].min() < 2 or uv[:, 0].max() > IMAGE_W - 2 or uv[:, 1].max() > IMAGE_H - 2:
        return None
    obj.bbox = bbox
    return obj


class _NoRoom(Exception):
    pass


def _place(rng, calib, class_name, faraway, blocked, tries=300) -> Planted:
    for _ in range(tries):
        obj = _sample_object(rng, calib, class_name, faraway)
        if obj is not None and not any(_overlaps(obj.bbox, b, BOX_GAP_PX) for b in blocked):
            return obj
    raise _NoRoom


def _plant_frame(seed: int, index: int, calib, params: SceneParams, n_far: int, n_near: int):
    """Faraway objects, sky boxes and near objects of one frame, plus the rng
    to continue with. A layout that leaves no room is redrawn from the next
    seed in a fixed sequence, so the result stays deterministic."""
    for attempt in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index, attempt, 0xF4]))

        def pick_class() -> str:
            return "pedestrian" if rng.uniform() < PEDESTRIAN_SHARE else "car"

        try:
            far: list[Planted] = []
            for _ in range(n_far):
                far.append(_place(rng, calib, pick_class(), True, [o.bbox for o in far]))
            sky = []
            for _ in range(params.sky):
                u0 = rng.uniform(20.0, IMAGE_W - 80.0)
                v0 = rng.uniform(4.0, 40.0)
                sky.append(tuple(round(v, 2) for v in
                                 (u0, v0, u0 + rng.uniform(25, 60), v0 + rng.uniform(15, 30))))
            clear = [o.bbox for o in far] + sky
            near = [_place(rng, calib, pick_class(), False, clear) for _ in range(n_near)]
        except _NoRoom:
            continue
        return rng, far, sky, near
    raise RuntimeError(f"no room for {n_far} faraway and {n_near} near objects in frame {index}")


def _clutter(rng, calib, n: int, clear_boxes) -> np.ndarray:
    """360-degree lidar returns within CLUTTER_RANGE: ground and structures."""
    out, have = [], 0
    while have < n:
        m = n - have + 1024
        azimuth = rng.uniform(0.0, 2.0 * math.pi, m)
        rng_m = np.exp(rng.uniform(*np.log(CLUTTER_RANGE), m))
        ground = rng.uniform(size=m) < 0.5
        y = np.where(ground, rng.normal(1.68, 0.03, m), rng.uniform(-2.5, 1.6, m))
        pts = np.column_stack([rng_m * np.sin(azimuth), y, rng_m * np.cos(azimuth)])
        uv = _project(pts, calib)
        drop = (pts[:, 2] > -0.01) & _inside_any(uv, clear_boxes, BOX_GAP_PX)
        pts = pts[~drop]
        out.append(pts)
        have += len(pts)
    return np.vstack(out)[:n]


def _label_line(box: kitti_io.Box3D, bbox) -> str:
    x, y, z = box.center
    w, l, h = box.size
    alpha = kitti_io.wrap_angle(box.yaw - math.atan2(x, z))
    return (
        f"{box.class_name.capitalize()} 0.00 0 {alpha:.4f} "
        f"{bbox[0]:.2f} {bbox[1]:.2f} {bbox[2]:.2f} {bbox[3]:.2f} "
        f"{h:.2f} {w:.2f} {l:.2f} {x:.2f} {y:.2f} {z:.2f} {box.yaw:.4f}\n"
    )


def _mask_image(bbox) -> np.ndarray:
    mask = np.zeros((IMAGE_H, IMAGE_W), dtype=np.uint8)
    u0, v0 = int(math.floor(bbox[0])), int(math.floor(bbox[1]))
    u1, v1 = int(math.ceil(bbox[2])), int(math.ceil(bbox[3]))
    mask[v0:v1, u0:u1] = 255
    return mask


def write_scenes(root: Path, seed: int, n_frames: int, params: SceneParams) -> dict:
    """Write n_frames KITTI-scale frames under root; return the manifest."""
    for sub in ("velodyne", "calib", "label_2", "detections_2d/masks"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    if params.fallback:
        (root / "fallback").mkdir(exist_ok=True)
    calib = synth.default_calibration()
    calib_text = synth.calibration_text(calib)
    n_far = round(params.detections * params.faraway_share)
    n_near = params.detections - n_far - params.sky - params.unknown
    if n_near < params.unknown or n_near < 1:
        raise ValueError("scene parameters leave too few near objects")
    n_masked = round(params.detections * params.mask_share)
    manifest = {"params": asdict(params), "seed": seed, "frames": {}}

    for index in range(n_frames):
        fid = f"{index:06d}"
        rng, far, sky, near = _plant_frame(seed, index, calib, params, n_far, n_near)
        clear = [o.bbox for o in far] + sky

        # (class, bbox) per detection, shuffled into file order
        dets = [(o.class_name, o.bbox) for o in near + far]
        dets += [("pedestrian", b) for b in sky]
        dets += [(UNKNOWN_CLASS, near[k].bbox) for k in range(params.unknown)]
        order = rng.permutation(len(dets))
        scores = np.round(rng.uniform(0.30, 0.99, len(dets)), 2)

        object_points = [o.points for o in near + far]
        n_obj = sum(len(p) for p in object_points)
        clutter = _clutter(rng, calib, params.points - n_obj, clear)
        cloud_cam = np.vstack(object_points + [clutter])
        lidar = synth.camera_to_lidar_points(cloud_cam, calib)
        intensities = rng.uniform(0.0, 1.0, len(lidar))
        (root / "velodyne" / f"{fid}.bin").write_bytes(synth.pointcloud_bytes(lidar, intensities))
        (root / "calib" / f"{fid}.txt").write_text(calib_text)

        det_lines = []
        for rank, k in enumerate(order):
            cls, bbox = dets[k]
            mask_token = ""
            if rank < n_masked:
                name = f"masks/{fid}_{rank:02d}.pgm"
                kitti_io.write_pgm(root / "detections_2d" / name, _mask_image(bbox))
                mask_token = f" {name}"
            det_lines.append(
                f"{fid} {cls} {scores[rank]:.2f} "
                f"{bbox[0]:.2f} {bbox[1]:.2f} {bbox[2]:.2f} {bbox[3]:.2f}{mask_token}\n"
            )
        (root / "detections_2d" / f"{fid}.txt").write_text("".join(det_lines))
        (root / "label_2" / f"{fid}.txt").write_text(
            "".join(_label_line(o.box(), o.bbox) for o in near + far)
        )

        fallback = []
        if params.fallback:
            for o in near + far[:FALLBACK_FAR]:
                x, y, z = o.location
                fallback.append(kitti_io.Box3D(
                    (x + rng.normal(0, 0.1), y, z + rng.normal(0, 0.1)),
                    o.yaw + rng.normal(0, 0.05), o.size, o.class_name, 0.95,
                ))
            (root / "fallback" / f"{fid}.txt").write_text(
                kitti_io.write_results(fallback, calib, synth.IMAGE_SIZE)
            )

        manifest["frames"][fid] = {
            "points": int(len(lidar)),
            "detections": len(dets),
            "faraway": n_far,
            "near": n_near,
            "sky": params.sky,
            "unknown": params.unknown,
            "masked": n_masked,
            "labeled": n_near + n_far,
            "fallback_seen": len(fallback),
            "fallback_kept": n_near if params.fallback else 0,
            "faraway_points": [len(o.points) for o in far],
            "objects": [
                {"class": o.class_name, "location": list(o.location), "size": list(o.size),
                 "yaw": o.yaw, "n_points": len(o.points), "faraway": o.faraway}
                for o in near + far
            ],
        }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


# --- evaluation scenes: labels and result files only ---------------------------

def _random_box(rng, class_name: str, z_range, score: float = 1.0) -> kitti_io.Box3D:
    prior = np.asarray(regressor.DEFAULT_SIZE_PRIORS[class_name])
    z = rng.uniform(*z_range)
    return kitti_io.Box3D(
        (z * rng.uniform(-0.35, 0.35), rng.uniform(1.60, 1.72), z),
        rng.uniform(-math.pi, math.pi),
        tuple(prior * rng.uniform(0.92, 1.08, 3)),
        class_name,
        score,
    )


def _disjoint(box: kitti_io.Box3D, others) -> bool:
    r = 0.5 * math.hypot(box.size[0], box.size[1])
    for o in others:
        ro = 0.5 * math.hypot(o.size[0], o.size[1])
        if math.hypot(box.center[0] - o.center[0], box.center[2] - o.center[2]) < r + ro + 0.2:
            return False
    return True


def _perturbed(rng, box: kitti_io.Box3D) -> kitti_io.Box3D:
    x, y, z = box.center
    sigma = 0.15 + 0.006 * z
    dx, dz = np.clip(rng.normal(0.0, sigma, 2), -3 * sigma, 3 * sigma)
    return kitti_io.Box3D(
        (x + dx, y + rng.normal(0.0, 0.05), z + dz),
        box.yaw + rng.normal(0.0, 0.25),
        tuple(np.asarray(box.size) * np.exp(np.clip(rng.normal(0.0, 0.08, 3), -0.2, 0.2))),
        box.class_name,
        round(float(np.clip(rng.normal(0.55, 0.2), 0.05, 1.0)), 4),
    )


def write_eval_scenes(root: Path, seed: int, n_frames: int) -> dict:
    """Labels plus perturbed result files; faraway counts go to the manifest.

    Ground truth does not overlap in BEV. Predictions are perturbed copies of
    ground truth (faraway and near) with misses, plus false positives in the
    faraway range. Perturbations are bounded so that no box crosses its
    class threshold.
    """
    (root / "label_2").mkdir(parents=True, exist_ok=True)
    (root / "results").mkdir(exist_ok=True)
    calib = synth.default_calibration()
    manifest = {"seed": seed, "frames": {}}
    for index in range(n_frames):
        fid = f"{index:06d}"
        rng = np.random.default_rng(np.random.SeedSequence([seed, index, 0xE5]))
        gt: list[kitti_io.Box3D] = []
        for k in range(EVAL_GT_FAR + EVAL_GT_NEAR):
            cls = CLASSES[k % 2]
            z_range = FAR_Z[cls] if k < EVAL_GT_FAR else NEAR_Z
            for _ in range(1000):
                box = _random_box(rng, cls, z_range)
                if _disjoint(box, gt):
                    break
            else:
                raise RuntimeError("could not place a disjoint ground-truth box")
            gt.append(box)
        preds = [_perturbed(rng, g) for g in gt if rng.uniform() >= EVAL_MISS_SHARE]
        for _ in range(EVAL_FALSE_POSITIVES):
            cls = CLASSES[int(rng.integers(2))]
            preds.append(_random_box(rng, cls, FAR_Z[cls],
                                     round(float(rng.uniform(0.05, 0.6)), 4)))
        preds = [preds[i] for i in rng.permutation(len(preds))]
        labels = []
        for box in gt:
            bbox = _bbox(box.corners(), calib, margin=0.0)
            labels.append(_label_line(box, bbox))
        (root / "label_2" / f"{fid}.txt").write_text("".join(labels))
        (root / "results" / f"{fid}.txt").write_text(
            kitti_io.write_results(preds, calib, synth.IMAGE_SIZE)
        )

        def far_count(boxes, cls):
            return sum(1 for b in boxes if b.class_name == cls and b.center[2] >= THRESHOLDS[cls])

        manifest["frames"][fid] = {
            "gt": len(gt),
            "pred": len(preds),
            "gt_far": {c: far_count(gt, c) for c in CLASSES},
            "pred_far": {c: far_count(preds, c) for c in CLASSES},
        }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest
