import gc
import math
import struct
import weakref

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
    NonFinitePoint,
    TruncatedPointcloud,
)
from farfrustum.kitti_io import (
    Box3D,
    Frame,
    MaskRef,
    load_pointcloud,
    parse_calibration,
    parse_detections,
    parse_labels,
    read_pgm,
    wrap_angle,
    write_pgm,
    write_results,
)
from farfrustum.synth import default_calibration

from conftest import BAD_PGMS

CALIB_TEXT = """\
P2: 700 0 600 0 0 700 180 0 0 0 1 0
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0
"""


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

    def test_repeated_whitespace_and_blank_lines(self):
        text = CALIB_TEXT.replace(" ", "   ") + "\n\n"
        calib = parse_calibration(text)
        assert calib.P2[0, 2] == 600

    def test_alternate_camera_key(self):
        text = CALIB_TEXT.replace("P2:", "P3:")
        calib = parse_calibration(text, camera_key="P3")
        assert calib.P2[0, 0] == 700
        with pytest.raises(MissingCalibKey):
            parse_calibration(text)  # default still wants P2


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


class TestLoadPointcloud:
    def test_two_point_decode(self):
        data = struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.1)
        cloud = load_pointcloud(data)
        assert len(cloud) == 2
        assert cloud.frame == Frame.LIDAR
        np.testing.assert_allclose(cloud.points, [[1, 2, 3], [4, 5, 6]], atol=1e-6)
        np.testing.assert_allclose(cloud.intensities, [0.5, 0.1], atol=1e-6)

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

    def test_wrong_field_count(self):
        with pytest.raises(MalformedDetectionLine):
            parse_detections("000001 car 0.9 100 50 120", self.DIMS)

    def test_mask_dim_mismatch(self, tmp_path):
        write_pgm(tmp_path / "m.pgm", np.ones((10, 10), dtype=np.uint8))
        dets = parse_detections(
            "000001 car 0.9 100 50 120 110 m.pgm", self.DIMS, mask_dir=tmp_path
        )
        with pytest.raises(MaskDimMismatch):
            dets[0].load_mask()

    def test_mask_loads_when_dims_match(self, tmp_path):
        mask = np.zeros((self.DIMS[1], self.DIMS[0]), dtype=np.uint8)
        mask[50:110, 100:120] = 255
        write_pgm(tmp_path / "m.pgm", mask)
        dets = parse_detections(
            "000001 car 0.9 100 50 120 110 m.pgm", self.DIMS, mask_dir=tmp_path
        )
        loaded = dets[0].load_mask()
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


def test_default_calibration_is_valid():
    default_calibration().validate(tol=1e-9)
