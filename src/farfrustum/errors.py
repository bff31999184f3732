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
    """A pointcloud contains NaN or infinite coordinates."""


class BadScore(FarFrustumError):
    """A detection score lies outside [0, 1]."""


class BadBBox(FarFrustumError):
    """A 2D bounding box has inverted or degenerate extents."""


class MaskDimMismatch(FarFrustumError):
    """An instance mask's bitmap dimensions differ from the image dimensions."""


class MalformedMask(FarFrustumError):
    """A PGM mask file has a bad magic, a non-numeric header or a short raster."""


class MalformedDetectionLine(FarFrustumError):
    """A detection line does not have 7 or 8 whitespace-separated fields."""


class MalformedLabelLine(FarFrustumError):
    """A label/result line does not follow the KITTI field layout."""


class NonFiniteBox(FarFrustumError):
    """A 3D box contains NaN or infinite fields."""


# --- geometry / calibration ----------------------------------------------

class FrameMismatch(FarFrustumError):
    """A pointcloud arrived in a different coordinate frame than required."""


class BadCalibration(FarFrustumError):
    """Calibration matrices are degenerate or violate rigidity constraints."""


# --- clustering / regression ----------------------------------------------

class EmptyCluster(FarFrustumError):
    """Centroid estimation was asked to run on zero points."""


class UnknownClass(FarFrustumError):
    """An object class is missing from the configured class list or priors."""


class ShapeError(FarFrustumError):
    """Array dimensions do not match the regressor's parameter shapes."""


class EmptyDataset(FarFrustumError):
    """Training was asked to run on an empty sample list."""


# --- pipeline / evaluation --------------------------------------------------

class MissingFrameData(FarFrustumError):
    """A listed frame is missing one of its required input files."""


class ZeroAreaBox(FarFrustumError):
    """IoU was asked to compare a box with zero footprint area or volume."""


class ConfigError(FarFrustumError):
    """A configuration file or override contains an unknown or invalid key."""
