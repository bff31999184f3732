"""Exception types shared across the package."""


class FarFrustumError(Exception):
    """Base class for every error raised by this package."""


# --- file ingestion -------------------------------------------------------

class MissingCalibKey(FarFrustumError):
    """A required calibration key (P2, R0_rect, Tr_velo_to_cam) is absent."""


class MalformedCalibLine(FarFrustumError):
    """A calibration key carries the wrong number of values or bad numbers."""


class TruncatedPointcloud(FarFrustumError):
    """Velodyne binary length is not a multiple of the 16-byte record size."""


class NonFinitePoint(FarFrustumError):
    """A velodyne value or a pointcloud coordinate is NaN or infinite."""


class PointOutOfRange(FarFrustumError):
    """A velodyne point lies farther from the sensor than any lidar reaches."""


class BadScore(FarFrustumError):
    """A detection or box score lies outside [0, 1]."""


class BadBBox(FarFrustumError):
    """A 2D bounding box is inverted or has an edge far off any image."""


class MaskDimMismatch(FarFrustumError):
    """An instance mask's bitmap dimensions differ from the image dimensions."""


class MalformedMask(FarFrustumError):
    """A PGM file has a bad header or short raster, or an image to write a non-byte value."""


class MalformedDetectionLine(FarFrustumError):
    """A detection line does not have 7 or 8 whitespace-separated fields."""


class MalformedLabelLine(FarFrustumError):
    """A label/result line does not follow the KITTI field layout."""


class NonFiniteBox(FarFrustumError):
    """A 3D box has a center coordinate beyond MAX_POINT_RANGE_M (10 km), a
    size above it, or a yaw that is NaN or infinite."""


class ZeroAreaBox(FarFrustumError):
    """A 3D box has a size below MIN_BOX_SIZE_M (1 cm), the resolution of
    KITTI label sizes."""


# --- geometry / calibration ----------------------------------------------

class FrameMismatch(FarFrustumError):
    """A pointcloud arrived in a different coordinate frame than required."""


class BadCalibration(FarFrustumError):
    """Calibration matrices are degenerate or violate rigidity constraints."""


class CropMismatch(FarFrustumError):
    """A detection's image size differs from the crop of its frame's projection."""


# --- clustering / regression ----------------------------------------------

class EmptyCluster(FarFrustumError):
    """Centroid estimation was asked to run on zero points."""


class UnknownClass(FarFrustumError):
    """An object class is missing from the configured class list or priors."""


class ShapeError(FarFrustumError):
    """An array is not 2-D for a PGM image or misfits the regressor's shapes."""


class EmptyDataset(FarFrustumError):
    """Training was asked to run on an empty sample list."""


# --- pipeline / evaluation --------------------------------------------------

class MissingFrameData(FarFrustumError):
    """A listed frame is missing one of its required input files."""


class ConfigError(FarFrustumError):
    """A configuration file or override contains an unknown or invalid key."""
