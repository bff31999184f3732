import errno
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from farfrustum.kitti_io import CalibrationSet
from farfrustum.pipeline import PipelineConfig
from farfrustum.synth import IMAGE_SIZE, build_mini_dataset, default_calibration

# Every hypothesis test draws the same examples on every run (and keeps no
# example database): a run fails or passes as the last one did, and a failing
# example reproduces. A test's own @settings keep its example count.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# one malformed P5 file per read_pgm failure
BAD_PGMS = {
    "bad_magic": b"P2\n4 2\n255\n" + bytes(8),
    "non_numeric_header": b"P5\n4 two\n255\n" + bytes(8),
    "short_raster": b"P5\n4 2\n255\n" + bytes(5),
}


@pytest.fixture(scope="session")
def mini_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini_dataset")
    return build_mini_dataset(root)


@pytest.fixture()
def mini_config(mini_dataset, tmp_path):
    return PipelineConfig(
        data_root=mini_dataset.root,
        out_dir=tmp_path / "results",
        image_size=IMAGE_SIZE,
    )


@pytest.fixture()
def simple_calib():
    return default_calibration()


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish proper rotation from a random axis-angle."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-math.pi, math.pi)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def random_calibration(rng: np.random.Generator) -> CalibrationSet:
    """Random rigid mounting + small rectification rotation + generic P2."""
    focal = rng.uniform(400.0, 900.0)
    p2 = np.array(
        [
            [focal, 0.0, rng.uniform(500.0, 700.0), rng.uniform(-50.0, 50.0)],
            [0.0, focal, rng.uniform(150.0, 250.0), rng.uniform(-5.0, 5.0)],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    small = np.random.default_rng(rng.integers(1 << 31))
    axis = small.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = small.uniform(-0.02, 0.02)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    r0 = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    tr = np.hstack([random_rotation(rng), rng.uniform(-2, 2, size=(3, 1))])
    return CalibrationSet(P2=p2, R0_rect=r0, Tr_velo_to_cam=tr)


def cut_writes(monkeypatch, directory, error=None):
    """Make every write of a file in `directory` stop halfway with ENOSPC (or `error`)."""
    for method in ("write_text", "write_bytes"):
        real = getattr(Path, method)

        def cut(path, data, *args, _real=real, **kwargs):
            if path.parent != directory:
                return _real(path, data, *args, **kwargs)
            _real(path, data[: len(data) // 2], *args, **kwargs)
            raise error or OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(Path, method, cut)
