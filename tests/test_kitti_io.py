import gc
import itertools
import math
import os
import re
import stat
import struct
import weakref
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfrustum.errors import (
    BadBBox,
    BadCalibration,
    BadScore,
    FarFrustumError,
    MalformedCalibLine,
    MalformedDetectionLine,
    MalformedLabelLine,
    MalformedMask,
    MaskDimMismatch,
    MissingCalibKey,
    NonFiniteBox,
    NonFinitePoint,
    PointOutOfRange,
    ShapeError,
    TruncatedPointcloud,
    ZeroAreaBox,
)
from farfrustum.kitti_io import (
    _CALIBRATION_CACHE_SIZE,
    MAX_BBOX_PIXEL,
    MAX_POINT_RANGE_M,
    Box3D,
    CalibrationSet,
    Detection2D,
    Frame,
    MaskRef,
    PointCloud,
    load_pointcloud,
    parse_calibration,
    parse_detections,
    parse_labels,
    read_pgm,
    wrap_angle,
    write_pgm,
    write_results,
    write_whole,
)
from farfrustum.geometry import lidar_to_camera, project_to_image
from farfrustum.synth import default_calibration

import oracles
from conftest import BAD_PGMS, cut_writes, random_calibration

CALIB_TEXT = """\
P2: 700 0 600 0 0 700 180 0 0 0 1 0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0
"""


def _built(**matrices):
    """CALIB_TEXT's calibration built in code, with the given matrices replaced."""
    fields = {"P2": "700 0 600 0 0 700 180 0 0 0 1 0", "R0_rect": "1 0 0 0 1 0 0 0 1",
              "Tr_velo_to_cam": "0 -1 0 0 0 0 -1 0 1 0 0 0", **matrices}
    return CalibrationSet(**{k: np.array(v.split(), dtype=float) for k, v in fields.items()})


class TestParseCalibration:
    def test_identity_rectification(self):
        calib = parse_calibration(CALIB_TEXT)
        assert np.allclose(calib.R0_rect, np.eye(3))
        assert calib.P2.shape == (3, 4)
        assert calib.Tr_velo_to_cam.shape == (3, 4)

    def test_missing_key(self):
        text = "\n".join(CALIB_TEXT.splitlines()[:2])
        with pytest.raises(MissingCalibKey):
            parse_calibration(text)

    def test_wrong_value_count(self):
        text = CALIB_TEXT.replace("P2: 700 0 600 0 0 700 180 0 0 0 1 0",
                                  "P2: 700 0 600 0 0 700 180 0 0 0 1")
        with pytest.raises(MalformedCalibLine):
            parse_calibration(text)

    def test_unknown_keys_ignored(self):
        calib = parse_calibration("P0: 1 2\ncomment_line\n" + CALIB_TEXT)
        assert calib.P2[0, 0] == 700

    def test_non_numeric_value(self):
        with pytest.raises(MalformedCalibLine):
            parse_calibration(CALIB_TEXT.replace("700 0 600", "abc 0 600"))

    @pytest.mark.parametrize("key", ["P2", "R0_rect", "Tr_velo_to_cam"])
    def test_repeated_key_refused(self, key):
        # the last line used to win silently; an ignored key may repeat
        line = next(line for line in CALIB_TEXT.splitlines() if line.startswith(f"{key}:"))
        with pytest.raises(MalformedCalibLine, match=f"^{key}: repeated key$"):
            parse_calibration(CALIB_TEXT + line + "\n")
        assert parse_calibration("P0: 1\nP0: 2\n" + CALIB_TEXT).P2[0, 0] == 700

    def test_a_repeated_text_returns_its_one_read_only_set(self):
        parse_calibration.cache_clear()
        calib = parse_calibration(CALIB_TEXT)
        assert parse_calibration(CALIB_TEXT) is calib
        assert parse_calibration.cache_info().hits == 1
        arrays = [calib.P2, calib.R0_rect, calib.Tr_velo_to_cam, calib._camera, calib._image,
                  *calib._reach]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(FrozenInstanceError):
            calib.P2 = calib.P2

    def test_a_text_that_raises_raises_on_every_call(self):
        parse_calibration.cache_clear()
        bad = CALIB_TEXT.replace("R0_rect: 1 0 0 0 1 0 0 0 1", "R0_rect: 1 0 0 0 1 0 0 0 2")
        for _ in range(3):
            with pytest.raises(BadCalibration, match="not orthonormal"):
                parse_calibration(bad)
        assert parse_calibration.cache_info().currsize == 0

    def test_the_cache_stays_at_its_bound(self):
        parse_calibration.cache_clear()
        texts = [f"P0: {k}\n{CALIB_TEXT}" for k in range(_CALIBRATION_CACHE_SIZE + 10)]
        sets = [parse_calibration(text) for text in texts]
        info = parse_calibration.cache_info()
        assert info.currsize == info.maxsize == _CALIBRATION_CACHE_SIZE
        assert info.misses == len(texts) and len({id(c) for c in sets}) == len(texts)
        assert parse_calibration(texts[-1]) is sets[-1]
        assert parse_calibration(texts[0]) is not sets[0]  # the oldest went first

    @pytest.mark.parametrize("seed", range(5))
    def test_screen_rows_are_the_calibrations_products(self, seed):
        # geometry._screen reads these in place of the products it computed per frame
        calib = random_calibration(np.random.default_rng(seed))
        camera = calib.R0_rect @ calib.Tr_velo_to_cam
        assert np.array_equal(calib._camera, camera)
        assert np.array_equal(calib._image,
                              calib.P2 @ np.vstack([camera, [0.0, 0.0, 0.0, 1.0]]))
        for got, want in zip(calib._reach, calib.reach()):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value(self, value):
        text = CALIB_TEXT.replace("R0_rect: 1 0 0", f"R0_rect: 1 {value} 0")
        with pytest.raises(MalformedCalibLine, match="R0_rect"):
            parse_calibration(text)

    def test_non_orthonormal_rectification_rejected(self):
        text = CALIB_TEXT.replace("R0_rect: 1 0 0 0 1 0 0 0 1",
                                  "R0_rect: 1 0 0 0 1 0 0 0 2")
        with pytest.raises(BadCalibration):
            parse_calibration(text)

    @pytest.mark.parametrize("tr, message", [
        ("0 -2 0 0 0 0 -2 0 2 0 0 0", "not a rotation"),        # scaled
        ("0 1 0 0 0 0 -1 0 1 0 0 0", "not a rotation"),         # a reflection
        ("0 -1 0 100.5 0 0 -1 0 1 0 0 0", "beyond 100 m"),      # lidar off the vehicle
        ("0 -3e3 0 0 0 0 -3e3 0 3e3 0 0 0", "not a rotation"),  # the mount scaled
        ("0 -3e6 0 0 0 0 -3e6 0 3e6 0 0 0", "not a rotation"),
        ("0 -1e20 0 0 0 0 -1e20 0 1e20 0 0 0", "not a rotation"),
    ])
    def test_non_rigid_mount_rejected(self, tr, message):
        text = CALIB_TEXT.replace("Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0",
                                  f"Tr_velo_to_cam: {tr}")
        with pytest.raises(BadCalibration, match=message):
            parse_calibration(text)
        with pytest.raises(BadCalibration, match=message):
            _built(Tr_velo_to_cam=tr)

    @pytest.mark.parametrize("key, value, message", [
        ("R0_rect", "1 0 0 0 1 0 0 0 2", "R0_rect not orthonormal"),
        ("P2", "1 0 0 0 2 0 0 0 0 0 1 0", "left 3x3 of P2 is not invertible"),
    ])
    def test_calibration_built_in_code_is_checked(self, key, value, message):
        with pytest.raises(BadCalibration, match=message):
            _built(**{key: value})

    def test_mount_offset_of_100_m_accepted(self):
        calib = parse_calibration(CALIB_TEXT.replace("0 -1 0 0 0 0 -1 0 1 0 0 0",
                                                     "0 -1 0 -100 0 0 -1 100 1 0 0 100"))
        assert calib.Tr_velo_to_cam[:, 3].tolist() == [-100.0, 100.0, 100.0]

    def test_repeated_whitespace_and_blank_lines(self):
        text = CALIB_TEXT.replace(" ", "   ") + "\n\n"
        calib = parse_calibration(text)
        assert calib.P2[0, 2] == 600

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("focal", [1e97, 1e305])
    def test_calibration_past_the_magnitude_bound_is_refused(self, focal):
        # a 10 km point would reach u*w = 1e101 or overflow
        text = CALIB_TEXT.replace("700 0 600 0 0 700", f"{focal!r} 0 600 0 0 {focal!r}")
        with pytest.raises(BadCalibration, match="non-finite"):
            parse_calibration(text)
        with pytest.raises(BadCalibration, match="non-finite"):
            _built(P2=f"{focal!r} 0 600 0 0 {focal!r} 180 0 0 0 1 0")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_accepted_calibration_projects_finitely(self):
        calib = parse_calibration(CALIB_TEXT.replace("700 0 600 0 0 700", "1e94 0 600 0 0 1e94"))
        r = MAX_POINT_RANGE_M
        corners = PointCloud(list(itertools.product([-r, r], repeat=3)), Frame.LIDAR)
        uv, valid = project_to_image(lidar_to_camera(corners, calib), calib)
        assert valid.sum() == 4 and np.isfinite(uv).all()


_CALIB_TOKEN = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10).map(str),
    st.text(max_size=4),
)
_CALIB_LINE = st.builds(
    lambda key, sep, tokens: key + sep + " ".join(tokens),
    st.sampled_from(["P2", "R0_rect", "Tr_velo_to_cam", "P3", "", "#"]),
    st.sampled_from([": ", ":", " ", ""]),
    st.lists(_CALIB_TOKEN, max_size=13),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_CALIB_LINE, max_size=5),
    keep=st.lists(st.booleans(), min_size=3, max_size=3),
    noise=st.text(max_size=20),
)
def test_calibration_fuzz_raises_only_package_errors(lines, keep, noise):
    valid = [line for line, k in zip(CALIB_TEXT.splitlines(), keep) if k]
    text = "\n".join(valid + lines) + noise
    try:
        parse_calibration(text)
    except FarFrustumError:
        pass


def _f32_bits(value: float) -> int:
    return int(np.float32(value).view("<u4"))


def _f32_neighbours(value: float) -> list[int]:
    """The bits of a float32 value and of its neighbours on either side."""
    v = np.float32(value)
    return [_f32_bits(np.nextafter(v, np.float32(-np.inf))), _f32_bits(v),
            _f32_bits(np.nextafter(v, np.float32(np.inf)))]


# float32 bit patterns at every edge of the velodyne checks
SPECIAL_F32_BITS = [
    0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFBFFFFF,  # quiet and signaling NaNs
    0x7F800000, 0xFF800000,  # +-inf
    0x00000000, 0x80000000,  # +-0.0
    0x00000001, 0x80000001, 0x007FFFFF,  # subnormals
    0x7F7FFFFF, 0xFF7FFFFF,  # +-FLT_MAX: a huge finite intensity is accepted
    *_f32_neighbours(MAX_POINT_RANGE_M), *_f32_neighbours(-MAX_POINT_RANGE_M),
]


@st.composite
def velodyne_scans(draw):
    """Scans of in-range records with a few values replaced by edge or random bits;
    the multi-block sizes get one replacement in their last 8192-record block."""
    n = draw(st.one_of(st.integers(0, 40), st.sampled_from([8191, 8193, 16385])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(-100.0, 100.0, size=(n, 4)).astype("<f4")
    if n == 0:
        return raw.tobytes()
    bits = raw.view("<u4")
    last_block = (n - 1) // 8192 * 8192
    rows = [draw(st.integers(last_block, n - 1))]
    rows += draw(st.lists(st.integers(0, n - 1), max_size=3))
    for row in rows:
        value = draw(st.one_of(st.sampled_from(SPECIAL_F32_BITS),
                               st.integers(0, 2**32 - 1), st.just(None)))
        if value is not None:
            bits[row, draw(st.integers(0, 3))] = value
    return raw.tobytes()


def _assert_scan_view(points: np.ndarray, data: bytes) -> None:
    """A decoded scan's storage: a read-only (N, 3) float32 view of data's records."""
    records = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    assert points.dtype == np.float32 and points.shape == (len(records), 3)
    assert points.strides == (16, 4) and not points.flags.writeable
    assert len(records) == 0 or points.base is not None and np.shares_memory(points, records)


def _decoded(decode, data: bytes):
    """(frame, shape, float64 bytes) of a decoded scan, or (error type, message).

    A scan that ``load_pointcloud`` accepts must also be stored as a view of
    the records; the oracle's cloud holds float64.
    """
    try:
        cloud = decode(data)
    except FarFrustumError as exc:
        return type(exc), str(exc)
    if decode is load_pointcloud:
        _assert_scan_view(cloud.points, data)
    else:
        assert cloud.points.flags.c_contiguous and not cloud.points.flags.writeable
    return cloud.frame, cloud.points.shape, np.asarray(cloud.points, np.float64).tobytes()


class TestLoadPointcloud:
    def test_two_point_decode(self):
        data = struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.1)
        cloud = load_pointcloud(data)
        assert len(cloud) == 2
        assert cloud.frame == Frame.LIDAR
        np.testing.assert_allclose(cloud.points, [[1, 2, 3], [4, 5, 6]], atol=1e-6)

    def test_empty(self):
        cloud = load_pointcloud(b"")
        assert len(cloud) == 0

    def test_truncated(self):
        with pytest.raises(TruncatedPointcloud):
            load_pointcloud(b"\x00" * 17)

    def test_non_finite(self):
        data = struct.pack("<4f", 1, math.nan, 3, 0.5)
        with pytest.raises(NonFinitePoint):
            load_pointcloud(data)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_total_on_well_formed_input(self, n):
        data = np.zeros((n, 4), dtype="<f4").tobytes()
        assert len(load_pointcloud(data)) == n

    def test_non_finite_intensity(self):
        data = struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, math.inf)
        with pytest.raises(NonFinitePoint):
            load_pointcloud(data)

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_point_beyond_lidar_range(self, column, sign):
        record = [1.0, 2.0, 3.0, 0.5]
        record[column] = sign * MAX_POINT_RANGE_M
        assert len(load_pointcloud(struct.pack("<8f", 0, 0, 0, 0, *record))) == 2
        record[column] = sign * 2 * MAX_POINT_RANGE_M
        with pytest.raises(PointOutOfRange):
            load_pointcloud(struct.pack("<8f", 0, 0, 0, 0, *record))

    def test_outside_cloud_beyond_lidar_range_is_refused(self):
        PointCloud([[0.0, MAX_POINT_RANGE_M, 0.0]], Frame.CAMERA)
        with pytest.raises(PointOutOfRange):
            PointCloud([[0.0, 2 * MAX_POINT_RANGE_M, 0.0]], Frame.CAMERA)

    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_random_bytes_raises_only_package_errors(self, data):
        try:
            cloud = load_pointcloud(data)
        except FarFrustumError:
            return
        assert cloud.points.shape == (len(data) // 16, 3)
        assert np.isfinite(cloud.points).all()

    @given(
        records=st.lists(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                  min_size=4, max_size=4), min_size=1, max_size=10),
        row=st.integers(min_value=0),
        column=st.integers(min_value=0, max_value=3),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzz_non_finite_in_any_column(self, records, row, column, bad):
        records[row % len(records)][column] = bad
        values = [v for record in records for v in record]
        with pytest.raises(NonFinitePoint):
            load_pointcloud(struct.pack(f"<{len(values)}f", *values))

    @given(velodyne_scans())
    @settings(max_examples=300, deadline=None)
    def test_decode_matches_the_check_by_check_oracle(self, data):
        assert _decoded(load_pointcloud, data) == _decoded(oracles.decode_velodyne, data)

    @pytest.mark.parametrize("n", [1, 8191, 8193, 16385])
    @pytest.mark.parametrize("column", [0, 1, 2, 3])
    def test_edge_value_in_the_last_record(self, n, column):
        raw = np.random.default_rng(n).uniform(-100.0, 100.0, size=(n, 4)).astype("<f4")
        for bits in SPECIAL_F32_BITS:
            raw.view("<u4")[-1, column] = bits
            data = raw.tobytes()
            assert _decoded(load_pointcloud, data) == _decoded(oracles.decode_velodyne, data)

    @pytest.mark.parametrize("as_memoryview", [False, True])
    def test_decoded_cloud_does_not_alias_a_callers_buffer(self, as_memoryview):
        records = np.array([[1.0, 2.0, 3.0, 0.5], [4.0, 5.0, 6.0, 0.5]], dtype="<f4")
        buffer = bytearray(records.tobytes())
        cloud = load_pointcloud(memoryview(buffer) if as_memoryview else buffer)
        buffer[:] = np.full((2, 4), 7.0, dtype="<f4").tobytes()
        assert cloud.points.tolist() == records[:, :3].tolist()
        assert not cloud.points.flags.writeable


@st.composite
def _subsets(draw, n):
    """An index array (empty, negative or repeated rows), a boolean mask or a slice of n rows."""
    kind = draw(st.sampled_from(["index", "mask", "slice"]))
    if kind == "index":
        rows = draw(st.lists(st.integers(-n, n - 1), max_size=12)) if n else []
        return np.array(rows, dtype=np.intp)
    if kind == "mask":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    bound = st.none() | st.integers(-n - 2, n + 2)
    return slice(draw(bound), draw(bound), draw(st.sampled_from([None, 1, 2, -1, -3])))


@given(data=st.data(), n=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_select_matches_indexing_the_points(data, n, seed):
    # the same values, dtype and shape as points[subset]; read-only, and sharing
    # no memory with the caller's array or index
    rng = np.random.default_rng(seed)
    records = rng.uniform(-100, 100, size=(n, 4))
    callers = records[:, :3].copy()
    scan = load_pointcloud(records.astype("<f4").tobytes())
    built = PointCloud(callers, Frame.CAMERA)
    clouds = [scan, built, scan.select(slice(None, None, -1)), built.select(np.arange(n)[::-1])]
    for cloud in clouds:
        for _ in range(2):  # a subset, then a subset of it
            subset = data.draw(_subsets(len(cloud)))
            want = cloud.points[subset]
            got = cloud.select(subset)
            assert got.frame == cloud.frame and got.points.dtype == want.dtype
            assert got.points.shape == want.shape and got.points.tobytes() == want.tobytes()
            assert not got.points.flags.writeable
            assert not np.shares_memory(got.points, callers)
            if isinstance(subset, np.ndarray):
                assert not np.shares_memory(got.points, subset)
            cloud = got


def test_select_reads_a_boolean_mask_as_a_mask():
    cloud = PointCloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], Frame.LIDAR)
    assert cloud.select(np.array([False, True, True])).points[:, 0].tolist() == [1.0, 2.0]
    assert cloud.select(np.zeros(3, dtype=bool)).points.shape == (0, 3)
    with pytest.raises(ValueError):
        cloud.select(np.array([False, True]))  # not one flag per point


def test_a_scans_subset_stays_float32_records():
    records = np.arange(20, dtype="<f4").reshape(5, 4)
    scan = load_pointcloud(records.tobytes())
    for subset in (np.array([4, 0, 4]), np.array([True, False, True, False, False]), slice(1, 3)):
        got = scan.select(subset)
        assert got.points.dtype == np.float32
        assert got.points.tolist() == records[:, :3][subset].tolist()
        assert got.select(np.array([-1])).points.tolist() == [records[:, :3][subset][-1].tolist()]


@pytest.mark.parametrize("data", ["new text\n" * 50, b"new bytes" * 50])
def test_write_whole_replaces_the_file_or_leaves_it(tmp_path, monkeypatch, data):
    target = tmp_path / "out.bin"
    for before in (None, b"old"):
        if before is not None:
            target.write_bytes(before)
        with monkeypatch.context() as m:
            cut_writes(m, tmp_path)
            with pytest.raises(FarFrustumError, match=re.escape(str(target))):
                write_whole(target, data)
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["out.bin"])
        assert before is None or target.read_bytes() == before
    interrupt = KeyboardInterrupt()  # cut mid-write: re-raised as it is, the old file kept
    with monkeypatch.context() as m:
        cut_writes(m, tmp_path, interrupt)
        with pytest.raises(KeyboardInterrupt) as raised:
            write_whole(target, data)
    assert raised.value is interrupt
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert target.read_bytes() == b"old"
    write_whole(target, data)
    assert target.read_bytes() == (data.encode() if isinstance(data, str) else data)
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_write_whole_names_a_path_it_cannot_write(tmp_path):
    for target in (tmp_path / "missing" / "out.svg", tmp_path):  # no directory; a directory
        with pytest.raises(FarFrustumError, match=re.escape(f"{target}: cannot write")):
            write_whole(target, "text")
    assert list(tmp_path.iterdir()) == []


def test_write_whole_writes_into_a_pipe_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a rename would leave it unread
    try:
        write_whole(fifo, b"through the pipe")
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert os.read(reader, 100) == b"through the pipe"
    finally:
        os.close(reader)


class TestParseDetections:
    DIMS = (1242, 375)

    def test_maskless_line(self):
        dets = parse_detections("000001 pedestrian 0.9 100 50 120 110", self.DIMS)
        assert len(dets) == 1
        det = dets[0]
        assert det.frame_id == "000001"
        assert det.class_name == "pedestrian"
        assert det.score == 0.9
        assert det.bbox == (100, 50, 120, 110)
        assert det.mask is None

    def test_order_preserved(self):
        text = "\n".join(
            f"000001 car 0.{9 - i} {100 + i} 50 {200 + i} 110" for i in range(5)
        )
        dets = parse_detections(text, self.DIMS)
        assert [d.bbox[0] for d in dets] == [100, 101, 102, 103, 104]

    def test_inverted_bbox(self):
        with pytest.raises(BadBBox):
            parse_detections("000001 car 0.9 200 50 100 110", self.DIMS)

    def test_bad_score(self):
        with pytest.raises(BadScore):
            parse_detections("000001 car 1.5 100 50 120 110", self.DIMS)

    @pytest.mark.parametrize("edge", ["1.7e308", "inf", "nan", "100001", "-1e6"])
    @pytest.mark.parametrize("column", [3, 4, 5, 6])
    def test_bbox_edge_far_off_any_image_is_refused(self, edge, column):
        # checked before the order of the edges
        tokens = "000001 car 0.9 -100 -100 120 110".split()
        tokens[column] = edge
        with pytest.raises(BadBBox, match="beyond"):
            parse_detections(" ".join(tokens), self.DIMS)

    def test_bbox_edges_at_the_pixel_bound_are_kept(self):
        b = MAX_BBOX_PIXEL
        (det,) = parse_detections(f"000001 car 0.9 {-b} {-b} {b} {b}", self.DIMS)
        assert det.bbox == (-b, -b, b, b)

    def test_wrong_field_count(self):
        with pytest.raises(MalformedDetectionLine):
            parse_detections("000001 car 0.9 100 50 120", self.DIMS)

    def test_parsed_detections_are_the_ones_the_constructor_builds(self, tmp_path):
        text = ("000001 Car 0.9 -10.5 50 120 110.25\n"
                "000001 pedestrian 1 100 50 120.5 110 m.pgm\n"
                f"000001 car 0 0 0 1 1 {tmp_path / 'sub' / 'abs.pgm'}\n")
        dets = parse_detections(text, (1242.0, 375.0), mask_dir=tmp_path)
        masks = [None, tmp_path / "m.pgm", tmp_path / "sub" / "abs.pgm"]
        for det, line, mask in zip(dets, text.splitlines(), masks, strict=True):
            frame_id, name, score, *edges = line.split()[:7]
            want = Detection2D(frame_id, name.lower(), float(score), tuple(map(float, edges)),
                               image_size=(1242, 375))
            assert replace(det, mask=None) == want
            assert all(type(v) is float for v in (det.score, *det.bbox))
            assert all(type(n) is int for n in det.image_size)  # 1242.0 == 1242
            if mask is None:
                assert det.mask is None and det == want and hash(det) == hash(want)
            else:
                assert (det.mask.path, det.mask.expected_size) == (mask, (1242, 375))

    @pytest.mark.parametrize("score, bbox", [
        (1.5, (100.0, 50.0, 120.0, 110.0)),
        (0.9, (100.0, math.nan, 120.0, 110.0)),
        (0.9, (100.0, 50.0, 2e5, 110.0)),
        (0.9, (200.0, 50.0, 100.0, 110.0)),
        (math.nan, (200.0, 50.0, 100.0, 110.0)),  # the score is checked first
    ], ids=["score", "nan edge", "far edge", "inverted", "score then box"])
    def test_a_parsed_detection_is_refused_as_the_constructor_refuses_it(self, score, bbox):
        with pytest.raises((BadScore, BadBBox)) as built:
            Detection2D("000001", "car", score, bbox, image_size=self.DIMS)
        line = f"000001 car {score} " + " ".join(map(repr, bbox))
        with pytest.raises(built.type, match=f"^{re.escape(str(built.value))}$"):
            parse_detections(line, self.DIMS)

    def test_mask_dim_mismatch(self, tmp_path):
        write_pgm(tmp_path / "m.pgm", np.ones((10, 10), dtype=np.uint8))
        dets = parse_detections(
            "000001 car 0.9 100 50 120 110 m.pgm", self.DIMS, mask_dir=tmp_path
        )
        with pytest.raises(MaskDimMismatch):
            dets[0].mask.load()

    def test_mask_loads_when_dims_match(self, tmp_path):
        mask = np.zeros((self.DIMS[1], self.DIMS[0]), dtype=np.uint8)
        mask[50:110, 100:120] = 255
        write_pgm(tmp_path / "m.pgm", mask)
        dets = parse_detections(
            "000001 car 0.9 100 50 120 110 m.pgm", self.DIMS, mask_dir=tmp_path
        )
        loaded = dets[0].mask.load()
        assert loaded.shape == (self.DIMS[1], self.DIMS[0])
        assert loaded[60, 110] == 255

    def test_mask_ref_keeps_no_array(self, tmp_path):
        write_pgm(tmp_path / "m.pgm", np.ones((self.DIMS[1], self.DIMS[0]), dtype=np.uint8))
        dets = parse_detections(
            "000001 car 0.9 100 50 120 110 m.pgm", self.DIMS, mask_dir=tmp_path
        )
        loaded = weakref.ref(dets[0].mask.load())
        gc.collect()
        assert loaded() is None
        assert not any(isinstance(v, np.ndarray) for v in vars(dets[0].mask).values())


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, size=(37, 54), dtype=np.uint8)
    write_pgm(tmp_path / "x.pgm", img)
    back = read_pgm(tmp_path / "x.pgm")
    np.testing.assert_array_equal(img, back)


@pytest.mark.parametrize("shape", [(6,), (2, 3, 1)])
def test_write_pgm_rejects_non_2d_image(tmp_path, shape):
    with pytest.raises(ShapeError):
        write_pgm(tmp_path / "x.pgm", np.zeros(shape, dtype=np.uint8))
    assert not (tmp_path / "x.pgm").exists()


@pytest.mark.parametrize("image", [
    [[300, -1], [1.7, 255]],  # each would wrap: 44, 255, 1
    [[256, 0]], [[-1, 0]], [[0.5, 0]], [[math.nan, 0]], [[math.inf, 0]], [["a", "b"]],
])
def test_write_pgm_refuses_values_it_cannot_hold(tmp_path, image):
    path = tmp_path / "x.pgm"
    with pytest.raises(MalformedMask, match="x.pgm"):
        write_pgm(path, image)
    assert not path.exists()


@pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
def test_write_pgm_keeps_whole_values_of_any_dtype(tmp_path, dtype):
    mask = np.zeros((3, 4), dtype=np.uint8)
    mask[1:, 2:] = 1 if dtype is bool else 255
    write_pgm(tmp_path / "a.pgm", mask)
    write_pgm(tmp_path / "b.pgm", mask.astype(dtype))
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()


def test_pgm_header_comments(tmp_path):
    # one comment line per token gap, and more comment lines than the
    # interpreter's recursion limit
    body = b"#c\n" * 5000
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n" + body + b"3 #w\n2\n# h\n255\n" + bytes(range(6)))
    assert read_pgm(path).tolist() == [[0, 1, 2], [3, 4, 5]]


@pytest.mark.parametrize("case", sorted(BAD_PGMS))
def test_malformed_pgm_names_the_path(tmp_path, case):
    path = tmp_path / f"{case}.pgm"
    path.write_bytes(BAD_PGMS[case])
    with pytest.raises(MalformedMask, match=case):
        MaskRef(path, (4, 2)).load()


class TestParseLabels:
    def test_car_line_field_reordering(self):
        line = ("Car 0 0 -1.58 100.0 120.0 180.0 160.0 "
                "1.50 1.62 3.88 2.1 1.6 70.2 -1.55")
        (rec,) = parse_labels(line)
        assert rec.class_name == "car"
        assert not rec.dontcare
        assert rec.box.size == (1.62, 3.88, 1.50)
        assert rec.box.center == (2.1, 1.6, 70.2)
        assert rec.box.yaw == pytest.approx(-1.55)
        assert rec.box.score == 1.0

    def test_dontcare_flagged_without_box(self):
        line = ("DontCare -1 -1 -10 503.89 169.71 590.61 190.13 "
                "-1 -1 -1 -1000 -1000 -1000 -10")
        (rec,) = parse_labels(line)
        assert rec.dontcare
        assert rec.box is None
        assert rec.bbox2d == (503.89, 169.71, 590.61, 190.13)

    def test_trailing_score(self):
        line = ("Pedestrian 0 0 0.0 10 20 30 40 "
                "1.8 0.7 0.9 2.0 1.7 65.0 0.0 0.87")
        (rec,) = parse_labels(line)
        assert rec.box.score == pytest.approx(0.87)

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLabelLine):
            parse_labels("Car 0 0 -1.58 100 120 180 160 1.5 1.62 3.88 2.1 1.6")

    def test_order_preserved(self):
        lines = "\n".join(
            f"Car 0 0 0.0 10 20 30 40 1.5 1.6 3.9 {float(i)} 1.6 50.0 0.0"
            for i in range(4)
        )
        recs = parse_labels(lines)
        assert [r.box.center[0] for r in recs] == [0.0, 1.0, 2.0, 3.0]


_R = MAX_POINT_RANGE_M
# any float, or a value at or just past a bound
_EDGY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-_R, _R, math.nextafter(_R, math.inf), -0.0, 0.0, 0.01,
                     math.nextafter(0.01, 0.0), 1.0, math.nextafter(1.0, 2.0), 1e300]),
)


def _mostly(valid):
    return st.one_of(valid, valid, valid, _EDGY)


@settings(max_examples=500, deadline=None)
@given(st.tuples(*[_mostly(st.floats(0.01, _R))] * 3, *[_mostly(st.floats(-_R, _R))] * 3,
                 _mostly(st.floats(-10.0, 10.0)), _mostly(st.floats(0.0, 1.0))),
       st.booleans(), st.sampled_from(["Car", "Pedestrian", "cyclist"]))
def test_label_boxes_are_the_boxes_box3d_builds(numbers, scored, name):
    # h w l x y z rotation_y score, as repr'd floats in a label line
    h, w, l, x, y, z, yaw, score = numbers
    line = f"{name} 0 0 0 1 2 3 4 {h!r} {w!r} {l!r} {x!r} {y!r} {z!r} {yaw!r}"
    if scored:
        line += f" {score!r}"
    else:
        score = 1.0
    try:
        want = Box3D((x, y, z), yaw, (w, l, h), name.lower(), score)
    except (NonFiniteBox, ZeroAreaBox, BadScore) as exc:
        with pytest.raises(MalformedLabelLine) as refused:
            parse_labels(line)
        assert str(refused.value) == f"{exc}: {line!r}"
        return
    (rec,) = parse_labels(line)
    got = rec.box
    for field in ("center", "yaw", "size", "score"):
        assert np.array(getattr(got, field)).tobytes() == np.array(getattr(want, field)).tobytes()
        assert type(getattr(got, field)) is type(getattr(want, field))
    assert got == want and got.class_name == want.class_name


LABEL_LINE = ("Car 0.0 {occlusion} -1.58 587.0 173.3 614.1 200.1 "
              "1.5 1.62 3.88 2.1 1.6 70.2 -1.55 0.9")


_OVER = math.nextafter(MAX_BBOX_PIXEL, math.inf)


@pytest.mark.parametrize("name", ["Car", "DontCare"])
@pytest.mark.parametrize("edges, kept", [
    ((-MAX_BBOX_PIXEL, 0.0, MAX_BBOX_PIXEL, 1.0), True),
    ((0.0, 0.0, 0.0, 0.0), True),  # a result box with no corner in front of the camera
    ((614.1, 200.1, 587.0, 173.3), True),  # inverted
    ((_OVER, 0.0, 1.0, 1.0), False),
    ((0.0, -_OVER, 1.0, 1.0), False),
    ((0.0, 0.0, 1e300, 1.0), False),
    ((0.0, 0.0, 1.0, math.nan), False),
    ((math.inf, 0.0, 1.0, 1.0), False),
])
def test_label_2d_box_edges_lie_within_the_pixel_bound(name, edges, kept):
    line = f"{name} 0 0 0 {' '.join(map(repr, edges))} 1.5 1.62 3.88 2.1 1.6 70.2 -1.55"
    if kept:
        (rec,) = parse_labels(line)
        assert rec.bbox2d == edges
    else:
        with pytest.raises(MalformedLabelLine, match="2D box edge"):
            parse_labels(line)


@pytest.mark.parametrize("occlusion", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_occlusion_parses_like_zero(occlusion):
    got = parse_labels(LABEL_LINE.format(occlusion=occlusion))
    assert got == parse_labels(LABEL_LINE.format(occlusion="0"))


@pytest.fixture(scope="module")
def pgm_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm_fuzz") / "m.pgm"


def _load_mask(path, data, size):
    path.write_bytes(data)
    try:
        return MaskRef(path, size).load()
    except FarFrustumError:
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=300))
def test_pgm_fuzz_random_bytes_raises_only_package_errors(pgm_path, data):
    _load_mask(pgm_path, data, (4, 2))
    _load_mask(pgm_path, b"P5 " + data, (4, 2))


_PGM_TOKEN = st.one_of(
    st.integers(-2, 70000).map(lambda n: str(n).encode()),
    st.sampled_from([b"-0", b"+3", b"1e3", b"0x10", b"1_0", b"9" * 5000, b"\xff", b"P5"]),
    st.binary(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 6), height=st.integers(1, 6),
    maxval=st.sampled_from([0, 1, 255, 256, 65535, 65536]),
    edits=st.lists(st.tuples(st.integers(0, 3), _PGM_TOKEN), max_size=2),
    comments=st.lists(
        st.tuples(st.integers(1, 3), st.binary(max_size=8).map(lambda b: b.replace(b"\n", b""))),
        max_size=3,
    ),
    sep=st.sampled_from([b" ", b"\n", b"\t", b"\r\n"]),
    cut=st.integers(0, 80),
)
def test_pgm_fuzz_mutated_p5_raises_only_package_errors(
    pgm_path, width, height, maxval, edits, comments, sep, cut
):
    tokens = [b"P5", str(width).encode(), str(height).encode(), str(maxval).encode()]
    for index, token in edits:
        tokens[index] = token
    header = tokens[0]
    for index in (1, 2, 3):
        lines = b"".join(b"#" + body + b"\n" for at, body in comments if at == index)
        header += sep + lines + tokens[index]
    itemsize = 2 if maxval > 255 else 1
    data = header + b"\n" + bytes(range(256))[: width * height * itemsize]
    data = data[: len(data) - cut]
    img = _load_mask(pgm_path, data, (width, height))
    if not edits and not cut and 0 < maxval < 65536:
        assert img is not None and img.shape == (height, width)


_FUZZ_TOKEN = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "-0", "1_0", "0x10", "DontCare"]),
    st.text(max_size=4),
)


def _mutated(line, keep, edits, noise):
    """The first `keep` tokens of a valid line, some replaced, plus noise."""
    tokens = line.split()[:keep]
    for index, token in edits:
        if tokens:
            tokens[index % len(tokens)] = token
    return " ".join(tokens) + noise


_EDITS = st.lists(st.tuples(st.integers(0, 20), _FUZZ_TOKEN), max_size=3)


@settings(max_examples=300, deadline=None)
@given(keep=st.one_of(st.just(16), st.integers(0, 17)), edits=_EDITS,
       noise=st.text(max_size=12))
def test_label_fuzz_raises_only_package_errors(keep, edits, noise):
    try:
        parse_labels(_mutated(LABEL_LINE.format(occlusion=0), keep, edits, noise))
    except FarFrustumError:
        pass


@settings(max_examples=300, deadline=None)
@given(keep=st.one_of(st.just(8), st.integers(0, 9)), edits=_EDITS,
       noise=st.text(max_size=12))
def test_detection_fuzz_raises_only_package_errors(keep, edits, noise):
    line = "000001 car 0.9 100 50 120 110 masks/a.pgm"
    try:
        parse_detections(_mutated(line, keep, edits, noise), (1242, 375))
    except FarFrustumError:
        pass


class TestWriteResults:
    def test_empty(self, simple_calib):
        assert write_results([], simple_calib, (1242, 375)) == ""

    def test_single_car_line_shape(self, simple_calib):
        box = Box3D(center=(2.0, 1.6, 40.0), yaw=0.3, size=(1.6, 3.9, 1.5),
                    class_name="car", score=0.75)
        text = write_results([box], simple_calib, (1242, 375))
        assert text.startswith("Car ")
        tokens = text.split()
        assert len(tokens) == 16  # label layout plus trailing score

    def test_round_trip_random_boxes(self, simple_calib):
        rng = np.random.default_rng(11)
        boxes = []
        for _ in range(50):
            boxes.append(
                Box3D(
                    center=(rng.uniform(-20, 20), rng.uniform(0, 3), rng.uniform(5, 90)),
                    yaw=rng.uniform(-math.pi, math.pi),
                    size=tuple(rng.uniform(0.5, 5.0, 3)),
                    class_name=rng.choice(["car", "pedestrian", "cyclist"]),
                    score=float(np.round(rng.uniform(0, 1), 4)),
                )
            )
        text = write_results(boxes, simple_calib, (1242, 375))
        parsed = parse_labels(text)
        assert len(parsed) == len(boxes)
        for rec, box in zip(parsed, boxes):
            assert rec.class_name == box.class_name
            np.testing.assert_allclose(rec.box.center, box.center, atol=1e-4)
            np.testing.assert_allclose(rec.box.size, box.size, atol=1e-4)
            assert abs(wrap_angle(rec.box.yaw - box.yaw)) < 1e-4
            assert abs(rec.box.score - box.score) < 1e-4


def test_box3d_yaw_wrapped_into_interval():
    box = Box3D(center=(0, 0, 10), yaw=3 * math.pi + 0.1, size=(1, 1, 1),
                class_name="car")
    assert -math.pi < box.yaw <= math.pi
    assert box.yaw == pytest.approx(wrap_angle(3 * math.pi + 0.1))


def test_wrap_angle_boundaries():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)


def _reference_bbox(box, calib, image_dims):
    """One box's homogeneous projection, the form write_results must reproduce."""
    corners = box.corners()
    uvw = np.hstack([corners, np.ones((8, 1))]) @ calib.P2.T
    front = corners[:, 2] > 0
    if not front.any():
        return (0.0, 0.0, 0.0, 0.0)
    uv = uvw[front, :2] / uvw[front, 2:3]
    w, h = image_dims
    return (float(np.clip(uv[:, 0].min(), 0.0, w)), float(np.clip(uv[:, 1].min(), 0.0, h)),
            float(np.clip(uv[:, 0].max(), 0.0, w)), float(np.clip(uv[:, 1].max(), 0.0, h)))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_written_2d_boxes_match_the_per_box_projection(seed, n):
    rng = np.random.default_rng(seed)
    calib = default_calibration()
    if rng.uniform() < 0.5:  # KITTI's P2 carries a non-zero 4th column
        p2 = calib.P2.copy()
        p2[:, 3] = [44.857, 0.2163, 0.002746]
        calib = CalibrationSet(P2=p2, R0_rect=calib.R0_rect,
                               Tr_velo_to_cam=calib.Tr_velo_to_cam)
    boxes = []
    for _ in range(n):
        w, l, h = rng.uniform(0.5, 5.0, 3)
        # in view, past an image edge, straddling the image plane, behind it,
        # or with corners exactly on it (yaw 0 puts corners at z +- w/2)
        z = rng.choice([rng.uniform(1.0, 80.0), rng.uniform(-3.0, 3.0), -20.0, w / 2])
        yaw = 0.0 if z == w / 2 else rng.uniform(-math.pi, math.pi)
        center = (rng.uniform(-30.0, 30.0), rng.uniform(-2.0, 4.0), z)
        boxes.append(Box3D(center, yaw, (w, l, h), "car", 0.5))
    lines = write_results(boxes, calib, (1242, 375)).splitlines()
    assert len(lines) == n
    for line, box in zip(lines, boxes):
        want = " ".join(f"{c:.4f}" for c in _reference_bbox(box, calib, (1242, 375)))
        assert " ".join(line.split()[4:8]) == want


def test_default_calibration_is_valid():
    calib = default_calibration()  # the constructor runs every check
    for r in (calib.R0_rect, calib.Tr_velo_to_cam[:, :3]):
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-9
