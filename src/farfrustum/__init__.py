"""Frustum-based 3D/BEV detection of faraway objects.

2D detections from an image-space detector are extruded into pointcloud
frustums; a histogram-mode cluster gives the object centroid; objects past
a per-class depth threshold get a 3D box from a small BEV regressor, while
near-range objects are merged in from an external detector's result files.
"""

from .clustering import estimate_centroid
from .errors import FarFrustumError
from .geometry import detection_window, frustum_rotation, points_in_box_frustum, project_cloud
from .kitti_io import load_pointcloud, parse_calibration, parse_detections

__version__ = "0.1.0"

__all__ = [
    "FarFrustumError",
    "detection_window",
    "estimate_centroid",
    "frustum_rotation",
    "load_pointcloud",
    "parse_calibration",
    "parse_detections",
    "points_in_box_frustum",
    "project_cloud",
]
