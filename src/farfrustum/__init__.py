"""Frustum-based 3D/BEV detection of faraway objects.

2D detections from an image-space detector are extruded into pointcloud
frustums; a histogram-mode cluster gives the object centroid; objects past
a per-class depth threshold get a 3D box from a small BEV regressor, while
near-range objects are merged in from an external detector's result files.
"""

from .clustering import AxisHistogram, axis_histogram, estimate_centroid
from .errors import FarFrustumError
from .evaluation import (
    EvalReport,
    ap_11point,
    average_iou,
    bev_iou,
    evaluate_boxes,
    iou_3d,
    points_per_object_stats,
)
from .geometry import (
    CloudProjection,
    bev_project,
    frustum_rotation,
    lidar_to_camera,
    points_in_box_frustum,
    points_in_mask_frustum,
    project_cloud,
    project_to_image,
    rot_y,
    to_centroid_frame,
)
from .kitti_io import (
    Box3D,
    CalibrationSet,
    Detection2D,
    Frame,
    LabelRecord,
    PointCloud,
    load_pointcloud,
    parse_calibration,
    parse_detections,
    parse_labels,
    wrap_angle,
    write_results,
)
from .pipeline import (
    PipelineConfig,
    RunSummary,
    assemble_box,
    is_faraway,
    load_config,
    process_frame,
    run_dataset,
)
from .regressor import (
    BevRaster,
    BoxRegression,
    RegressorParams,
    TrainConfig,
    build_training_set,
    forward,
    frustum_raster,
    mae_loss,
    rasterize_bev,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AxisHistogram",
    "BevRaster",
    "Box3D",
    "BoxRegression",
    "CalibrationSet",
    "CloudProjection",
    "Detection2D",
    "EvalReport",
    "FarFrustumError",
    "Frame",
    "LabelRecord",
    "PipelineConfig",
    "PointCloud",
    "RegressorParams",
    "RunSummary",
    "TrainConfig",
    "ap_11point",
    "assemble_box",
    "average_iou",
    "axis_histogram",
    "bev_iou",
    "bev_project",
    "build_training_set",
    "estimate_centroid",
    "evaluate_boxes",
    "forward",
    "frustum_raster",
    "frustum_rotation",
    "iou_3d",
    "is_faraway",
    "lidar_to_camera",
    "load_config",
    "load_pointcloud",
    "mae_loss",
    "parse_calibration",
    "parse_detections",
    "parse_labels",
    "points_in_box_frustum",
    "points_in_mask_frustum",
    "points_per_object_stats",
    "process_frame",
    "project_cloud",
    "project_to_image",
    "rasterize_bev",
    "rot_y",
    "run_dataset",
    "to_centroid_frame",
    "train",
    "wrap_angle",
    "write_results",
]
