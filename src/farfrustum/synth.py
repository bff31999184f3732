"""Deterministic synthetic mini-dataset in the standard directory layout.

Builds a handful of frames with hand-placed object clusters, ground noise,
2D detections (some with PGM masks), ground-truth labels, and near-range
fallback result files. Every planted quantity is returned in a manifest so
tests can assert against ground truth instead of re-deriving it. The same
(root, seed) always produces byte-identical files.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import project_to_image, rot_y
from .kitti_io import (
    Box3D,
    CalibrationSet,
    Frame,
    PointCloud,
    mul_rows,
    wrap_angle,
    write_pgm,
    write_results,
)

IMAGE_SIZE = (1242, 375)

_FU = 721.5377
_CU = 609.5593
_CV = 172.854


def default_calibration() -> CalibrationSet:
    """KITTI-like camera intrinsics and lidar mounting."""
    p2 = np.array(
        [[_FU, 0.0, _CU, 0.0], [0.0, _FU, _CV, 0.0], [0.0, 0.0, 1.0, 0.0]]
    )
    r0 = np.eye(3)
    tr = np.array(
        [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, -0.075], [1.0, 0.0, 0.0, -0.272]]
    )
    return CalibrationSet(P2=p2, R0_rect=r0, Tr_velo_to_cam=tr)


def camera_to_lidar_points(points_cam: np.ndarray, calib: CalibrationSet) -> np.ndarray:
    """Invert the lidar->rectified-camera chain (synthesis helper)."""
    pts = np.asarray(points_cam, dtype=np.float64).reshape(-1, 3)
    rot = calib.Tr_velo_to_cam[:, :3]
    t = calib.Tr_velo_to_cam[:, 3]
    unrect = pts @ calib.R0_rect  # R0^T applied row-wise
    return mul_rows(unrect - t, rot)


def calibration_text(calib: CalibrationSet) -> str:
    def row(name: str, mat: np.ndarray) -> str:
        return name + ": " + " ".join(f"{v:.12e}" for v in mat.ravel())

    return "\n".join(
        [
            row("P2", calib.P2),
            row("R0_rect", calib.R0_rect),
            row("Tr_velo_to_cam", calib.Tr_velo_to_cam),
        ]
    ) + "\n"


def pointcloud_bytes(points_lidar: np.ndarray, intensities: np.ndarray) -> bytes:
    arr = np.column_stack([points_lidar, intensities]).astype("<f4")
    return arr.tobytes()


@dataclass
class PlantedObject:
    """Ground truth for one synthetic object."""

    class_name: str
    location: tuple[float, float, float]  # bottom-face center, camera frame
    size: tuple[float, float, float]      # (w, l, h)
    yaw: float
    n_points: int
    det_score: float | None               # None: no 2D detection for it
    masked: bool = False
    spread: tuple[float, float, float] = (0.15, 0.4, 0.15)

    @property
    def mid_center(self) -> tuple[float, float, float]:
        """Volumetric center (y is down; location sits on the bottom face)."""
        x, y, z = self.location
        return (x, y - self.size[2] / 2.0, z)

    def to_box(self, score: float = 1.0) -> Box3D:
        return Box3D(
            center=self.location,
            yaw=self.yaw,
            size=self.size,
            class_name=self.class_name,
            score=score,
        )


@dataclass
class FrameSpec:
    frame_id: str
    objects: list[PlantedObject]
    fallback: list[Box3D]
    sky_detection: tuple[str, float, tuple[float, float, float, float]] | None = None
    det_bboxes: dict[int, tuple[float, float, float, float]] = field(default_factory=dict)
    cluster_centers: dict[int, tuple[float, float, float]] = field(default_factory=dict)


@dataclass
class MiniDataset:
    root: Path
    frames: list[FrameSpec]
    image_size: tuple[int, int] = IMAGE_SIZE

    @property
    def frame_ids(self) -> list[str]:
        return [f.frame_id for f in self.frames]


def _frame_specs() -> list[FrameSpec]:
    ped_spread = (0.04, 0.35, 0.04)
    car_spread = (0.15, 0.3, 0.15)
    return [
        FrameSpec(
            "000000",
            objects=[
                PlantedObject("pedestrian", (2.0, 1.70, 65.0), (0.70, 0.90, 1.80),
                              0.0, 10, 0.90, masked=True, spread=ped_spread),
                PlantedObject("car", (-3.0, 1.60, 25.0), (1.70, 4.20, 1.50),
                              0.10, 60, 0.80, spread=car_spread),
            ],
            fallback=[
                Box3D((-2.97, 1.58, 25.15), 0.11, (1.72, 4.15, 1.48), "car", 0.95),
            ],
        ),
        FrameSpec(
            "000001",
            objects=[
                PlantedObject("pedestrian", (-1.5, 1.65, 61.5), (0.66, 0.84, 1.76),
                              0.0, 9, 0.90, spread=ped_spread),
                PlantedObject("car", (4.0, 1.70, 80.0), (1.65, 3.90, 1.55),
                              0.0, 8, 0.85, spread=car_spread),
                PlantedObject("car", (3.0, 1.55, 20.0), (1.60, 3.80, 1.45),
                              -0.15, 55, 0.80, spread=car_spread),
            ],
            fallback=[
                Box3D((3.05, 1.54, 20.2), -0.14, (1.62, 3.75, 1.44), "car", 0.95),
                Box3D((4.1, 1.70, 80.3), 0.0, (1.66, 3.88, 1.54), "car", 0.60),
            ],
        ),
        FrameSpec(
            "000002",
            objects=[
                PlantedObject("pedestrian", (0.5, 1.75, 68.0), (0.72, 0.92, 1.85),
                              0.0, 11, 0.90, masked=True, spread=ped_spread),
                PlantedObject("car", (-6.0, 1.60, 30.0), (1.70, 4.00, 1.50),
                              0.05, 50, None, spread=car_spread),
            ],
            fallback=[
                Box3D((-6.02, 1.61, 30.1), 0.06, (1.69, 4.02, 1.51), "car", 0.95),
            ],
            sky_detection=("pedestrian", 0.55, (100.0, 50.0, 140.0, 90.0)),
        ),
        FrameSpec(
            "000003",
            objects=[
                PlantedObject("car", (-5.0, 1.65, 78.0), (1.60, 3.85, 1.48),
                              0.20, 8, 0.85, spread=car_spread),
                PlantedObject("car", (1.0, 1.58, 22.0), (1.62, 3.95, 1.52),
                              0.0, 58, 0.80, spread=car_spread),
            ],
            fallback=[
                Box3D((1.02, 1.57, 22.1), 0.01, (1.60, 3.90, 1.50), "car", 0.95),
            ],
        ),
        FrameSpec(
            "000004",
            objects=[
                PlantedObject("pedestrian", (3.0, 1.68, 69.5), (0.68, 0.88, 1.78),
                              0.0, 10, 0.90, masked=True, spread=ped_spread),
                PlantedObject("car", (-2.0, 1.62, 28.0), (1.68, 4.10, 1.55),
                              -0.08, 62, 0.80, spread=car_spread),
            ],
            fallback=[
                Box3D((-1.98, 1.61, 28.2), -0.07, (1.66, 4.08, 1.53), "car", 0.95),
            ],
        ),
    ]


def _object_points_cam(obj: PlantedObject, rng: np.random.Generator) -> np.ndarray:
    """Points uniform in a spread box around the object's mid center."""
    local = rng.uniform(-1.0, 1.0, size=(obj.n_points, 3)) * np.asarray(obj.spread)
    rotated = local @ rot_y(obj.yaw).T
    return rotated + np.asarray(obj.mid_center)


def _projected_bbox_cam(
    points_cam: np.ndarray, calib: CalibrationSet, margin: float = 1.5
) -> tuple[float, float, float, float]:
    cloud = PointCloud(points_cam, Frame.CAMERA)
    uv, valid = project_to_image(cloud, calib)
    uv = uv[valid]
    return (
        float(uv[:, 0].min() - margin),
        float(uv[:, 1].min() - margin),
        float(uv[:, 0].max() + margin),
        float(uv[:, 1].max() + margin),
    )


def _label_line(obj: PlantedObject, bbox: tuple[float, float, float, float]) -> str:
    x, y, z = obj.location
    w, l, h = obj.size
    alpha = wrap_angle(obj.yaw - math.atan2(x, z))
    return (
        f"{obj.class_name.capitalize()} 0.00 0 {alpha:.4f} "
        f"{bbox[0]:.2f} {bbox[1]:.2f} {bbox[2]:.2f} {bbox[3]:.2f} "
        f"{h:.2f} {w:.2f} {l:.2f} {x:.2f} {y:.2f} {z:.2f} {obj.yaw:.4f}"
    )


_DONTCARE_LINE = (
    "DontCare -1 -1 -10 500.00 160.00 520.00 175.00 -1 -1 -1 -1000 -1000 -1000 -10"
)


def _ground_noise(
    rng: np.random.Generator,
    calib: CalibrationSet,
    det_bboxes: list[tuple[float, float, float, float]],
    n: int = 120,
) -> np.ndarray:
    """Ground-plane clutter kept clear of every detection's image box."""
    out: list[np.ndarray] = []
    while len(out) < n:
        z = rng.uniform(5.0, 15.0) if rng.uniform() < 0.5 else rng.uniform(35.0, 50.0)
        x = rng.uniform(-18.0, 18.0)
        y = rng.uniform(1.45, 1.65)
        p = np.array([x, y, z])
        uv, valid = project_to_image(PointCloud(p[None, :], Frame.CAMERA), calib)
        u, v = uv[0]
        clear = True
        if valid[0]:
            for u0, v0, u1, v1 in det_bboxes:
                if u0 - 2 <= u < u1 + 2 and v0 - 2 <= v < v1 + 2:
                    clear = False
                    break
        if clear:
            out.append(p)
    return np.array(out)


def build_mini_dataset(root: str | Path, seed: int = 0) -> MiniDataset:
    """Write the synthetic dataset under root and return its manifest."""
    root = Path(root)
    for sub in ("velodyne", "calib", "label_2", "detections_2d/masks", "fallback"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    calib = default_calibration()
    frames = _frame_specs()
    for spec in frames:
        spec_rng = np.random.default_rng(
            np.random.SeedSequence([seed, int(spec.frame_id)])
        )
        clusters: list[np.ndarray] = []
        det_lines: list[str] = []
        label_lines: list[str] = []
        bboxes: list[tuple[float, float, float, float]] = []
        for oi, obj in enumerate(spec.objects):
            pts = _object_points_cam(obj, spec_rng)
            clusters.append(pts)
            spec.cluster_centers[oi] = tuple(np.asarray(obj.mid_center).tolist())
            bbox = _projected_bbox_cam(pts, calib)
            corners_bbox = _projected_bbox_cam(obj.to_box().corners(), calib, margin=0.5)
            bbox = (
                min(bbox[0], corners_bbox[0]),
                min(bbox[1], corners_bbox[1]),
                max(bbox[2], corners_bbox[2]),
                max(bbox[3], corners_bbox[3]),
            )
            spec.det_bboxes[oi] = bbox
            bboxes.append(bbox)
            label_lines.append(_label_line(obj, bbox))
            if obj.det_score is None:
                continue
            mask_token = ""
            if obj.masked:
                mask_name = f"masks/{spec.frame_id}_{oi}.pgm"
                mask = np.zeros((IMAGE_SIZE[1], IMAGE_SIZE[0]), dtype=np.uint8)
                u0 = max(0, int(math.floor(bbox[0])))
                v0 = max(0, int(math.floor(bbox[1])))
                u1 = min(IMAGE_SIZE[0], int(math.ceil(bbox[2])))
                v1 = min(IMAGE_SIZE[1], int(math.ceil(bbox[3])))
                mask[v0:v1, u0:u1] = 255
                write_pgm(root / "detections_2d" / mask_name, mask)
                mask_token = f" {mask_name}"
            det_lines.append(
                f"{spec.frame_id} {obj.class_name} {obj.det_score:.2f} "
                f"{bbox[0]:.2f} {bbox[1]:.2f} {bbox[2]:.2f} {bbox[3]:.2f}"
                f"{mask_token}"
            )
        if spec.sky_detection is not None:
            cls, score, bbox = spec.sky_detection
            bboxes.append(bbox)
            det_lines.append(
                f"{spec.frame_id} {cls} {score:.2f} "
                f"{bbox[0]:.2f} {bbox[1]:.2f} {bbox[2]:.2f} {bbox[3]:.2f}"
            )
        label_lines.append(_DONTCARE_LINE)

        noise = _ground_noise(spec_rng, calib, bboxes)
        behind = np.column_stack(
            [
                spec_rng.uniform(2.0, 20.0, 20),   # camera x
                spec_rng.uniform(0.5, 1.5, 20),    # camera y
                spec_rng.uniform(-30.0, -5.0, 20), # behind the camera
            ]
        )
        points_cam = np.vstack(clusters + [noise, behind])
        points_lidar = camera_to_lidar_points(points_cam, calib)
        intensities = spec_rng.uniform(0.0, 1.0, len(points_lidar))

        (root / "velodyne" / f"{spec.frame_id}.bin").write_bytes(
            pointcloud_bytes(points_lidar, intensities)
        )
        (root / "calib" / f"{spec.frame_id}.txt").write_text(calibration_text(calib))
        (root / "label_2" / f"{spec.frame_id}.txt").write_text(
            "".join(line + "\n" for line in label_lines)
        )
        (root / "detections_2d" / f"{spec.frame_id}.txt").write_text(
            "".join(line + "\n" for line in det_lines)
        )
        (root / "fallback" / f"{spec.frame_id}.txt").write_text(
            write_results(spec.fallback, calib, IMAGE_SIZE)
        )

    dataset = MiniDataset(root=root, frames=frames)
    (root / "frames.txt").write_text(
        "".join(fid + "\n" for fid in dataset.frame_ids)
    )
    (root / "config.txt").write_text(
        f"data_root={root}\nfrustum_mode=mask\nthreshold.pedestrian=60\n"
        "threshold.car=75\nbin_width=0.1\nraster_grid=32\nraster_extent=4.0\n"
    )
    manifest = {
        "image_size": list(IMAGE_SIZE),
        "frames": {
            spec.frame_id: [
                {
                    "class": obj.class_name,
                    "location": list(obj.location),
                    "size": list(obj.size),
                    "yaw": obj.yaw,
                    "n_points": obj.n_points,
                    "cluster_center": list(spec.cluster_centers[oi]),
                }
                for oi, obj in enumerate(spec.objects)
            ]
            for spec in frames
        },
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return dataset


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin wrapper
    import argparse

    parser = argparse.ArgumentParser(description="write the synthetic demo dataset")
    parser.add_argument("out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    dataset = build_mini_dataset(args.out, seed=args.seed)
    print(f"wrote {len(dataset.frames)} frames under {dataset.root}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
