import math
import re
import shutil
from collections import Counter

import numpy as np
import pytest

from farfrustum import geometry
from farfrustum.errors import (
    ConfigError,
    MalformedDetectionLine,
    MissingFrameData,
    NonFiniteBox,
    UnknownClass,
)
from farfrustum.geometry import rot_y
from farfrustum.kitti_io import Box3D, Detection2D, Frame, PointCloud
from farfrustum.pipeline import (
    DEFAULT_THRESHOLDS,
    PipelineConfig,
    RunSummary,
    assemble_box,
    config_mapping,
    is_faraway,
    load_frame_inputs,
    parse_config_text,
    process_frame,
    run_dataset,
)
from farfrustum.regressor import BoxRegression, build_training_set
from farfrustum.synth import camera_to_lidar_points


class TestIsFaraway:
    @pytest.mark.parametrize(
        "cls,depth,expected",
        [
            ("pedestrian", 61.0, True),
            ("pedestrian", 60.0, True),   # inclusive boundary
            ("pedestrian", 59.999, False),
            ("car", 74.9, False),
            ("car", 75.0, True),
            ("car", 75.001, True),
        ],
    )
    def test_boundaries(self, cls, depth, expected):
        assert is_faraway(depth, cls, DEFAULT_THRESHOLDS) is expected

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            is_faraway(50.0, "tram", DEFAULT_THRESHOLDS)


class TestAssembleBox:
    def test_depth_shift_applied_at_zero_angle(self):
        reg = BoxRegression((0.0, 0.0, 0.5), (0.7, 0.9, 1.8), 0.0)
        box = assemble_box((5.0, 1.0, 70.0), reg, 0.0, "pedestrian", 0.9)
        assert box.center == pytest.approx((5.0, 1.0, 70.5))
        assert box.score == 0.9

    def test_lateral_shifts_ignored(self):
        reg = BoxRegression((9.0, 9.0, 0.0), (0.7, 0.9, 1.8), 0.0)
        box = assemble_box((5.0, 1.0, 70.0), reg, 0.0, "pedestrian", 0.9)
        assert box.center == pytest.approx((5.0, 1.0, 70.0))

    def test_rotate_back_matches_matrix_oracle(self):
        theta = math.pi / 6
        centroid = (2.0, 0.5, 66.0)
        reg = BoxRegression((0.0, 0.0, 0.7), (0.7, 0.9, 1.8), 0.25)
        box = assemble_box(centroid, reg, theta, "pedestrian", 0.8)
        want = rot_y(theta) @ np.array([2.0, 0.5, 66.7])
        np.testing.assert_allclose(box.center, want, atol=1e-12)
        assert box.yaw == pytest.approx(0.25 + theta)

    def test_non_finite_rejected(self):
        reg = BoxRegression((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)
        with pytest.raises(NonFiniteBox):
            assemble_box((math.nan, 0.0, 70.0), reg, 0.0, "car", 0.5)


def _planted_scene(calib, cls="pedestrian", depth=65.0, x=2.0, n=10, score=0.9):
    """Cluster of n points around (x, 0.8, depth) plus its enclosing bbox."""
    rng = np.random.default_rng(0)
    center = np.array([x, 0.8, depth])
    pts_cam = center + rng.uniform(-0.04, 0.04, size=(n, 3))
    cloud = PointCloud(camera_to_lidar_points(pts_cam, calib), Frame.LIDAR)
    from farfrustum.geometry import project_to_image

    uv, _ = project_to_image(PointCloud(pts_cam, Frame.CAMERA), calib)
    bbox = (
        float(uv[:, 0].min() - 2), float(uv[:, 1].min() - 2),
        float(uv[:, 0].max() + 2), float(uv[:, 1].max() + 2),
    )
    det = Detection2D("f", cls, score, bbox, image_size=(1242, 375))
    return cloud, det, center


class TestProcessFrame:
    def test_empty_inputs(self, simple_calib):
        cloud = PointCloud(np.zeros((0, 3)), Frame.LIDAR)
        config = PipelineConfig()
        assert process_frame(cloud, [], [], simple_calib, config) == []

    def test_planted_faraway_pedestrian_prior_params(self, simple_calib):
        cloud, det, center = _planted_scene(simple_calib)
        config = PipelineConfig(frustum_mode="box")
        boxes = process_frame(cloud, [det], [], simple_calib, config)
        assert len(boxes) == 1
        box = boxes[0]
        assert box.class_name == "pedestrian"
        assert box.size == config.size_priors["pedestrian"]
        assert abs(box.center[0] - center[0]) <= 0.06
        assert abs(box.center[2] - center[2]) <= 0.06
        assert box.score == det.score

    def test_near_detection_contributes_nothing(self, simple_calib):
        cloud, det, _ = _planted_scene(simple_calib, depth=30.0)
        config = PipelineConfig(frustum_mode="box")
        assert process_frame(cloud, [det], [], simple_calib, config) == []

    def test_far_fallback_excluded(self, simple_calib):
        far_car = Box3D((4.0, 1.7, 80.0), 0.0, (1.6, 3.9, 1.5), "car", 0.6)
        near_car = Box3D((1.0, 1.6, 30.0), 0.0, (1.6, 3.9, 1.5), "car", 0.9)
        cloud = PointCloud(np.zeros((0, 3)), Frame.LIDAR)
        config = PipelineConfig()
        out = process_frame(cloud, [], [far_car, near_car], simple_calib, config)
        assert out == [near_car]

    def test_empty_cloud_output_is_depth_filtered_fallback(self, simple_calib):
        cloud = PointCloud(np.zeros((0, 3)), Frame.LIDAR)
        fallback = [
            Box3D((0.0, 1.6, 20.0), 0.0, (1.6, 3.9, 1.5), "car", 0.5),
            Box3D((0.0, 1.6, 80.0), 0.0, (1.6, 3.9, 1.5), "car", 0.9),
            Box3D((0.0, 1.6, 59.0), 0.0, (0.7, 0.9, 1.8), "pedestrian", 0.8),
            Box3D((0.0, 1.6, 61.0), 0.0, (0.7, 0.9, 1.8), "pedestrian", 0.7),
        ]
        dets = [
            Detection2D("f", "pedestrian", 0.9, (10, 10, 20, 20),
                        image_size=(1242, 375))
        ]
        config = PipelineConfig()
        out = process_frame(cloud, dets, fallback, simple_calib, config)
        want = [b for b in fallback if b.center[2] < DEFAULT_THRESHOLDS[b.class_name]]
        assert out == sorted(want, key=lambda b: -b.score)

    def test_unknown_class_detection_skipped_with_counter(self, simple_calib):
        cloud, det, _ = _planted_scene(simple_calib, cls="cyclist")
        config = PipelineConfig(frustum_mode="box")
        stats = RunSummary()
        out = process_frame(cloud, [det], [], simple_calib, config, stats=stats)
        assert out == []
        assert stats.skipped_unknown_class == 1

    def test_listed_class_without_prior_fails_at_start(self, simple_calib):
        # the prior baseline is forward on zero weights, built before any
        # detection is looked at
        cloud, det, _ = _planted_scene(simple_calib)
        config = PipelineConfig(frustum_mode="box", classes=("pedestrian", "cyclist"))
        with pytest.raises(UnknownClass, match="'cyclist'"):
            process_frame(cloud, [det], [], simple_calib, config)

    def test_fallback_without_threshold_kept(self, simple_calib):
        cyclist = Box3D((0.0, 1.6, 90.0), 0.0, (0.6, 1.8, 1.7), "cyclist", 0.4)
        cloud = PointCloud(np.zeros((0, 3)), Frame.LIDAR)
        out = process_frame(cloud, [], [cyclist], simple_calib, PipelineConfig())
        assert out == [cyclist]

    def test_min_frustum_points_gate(self, simple_calib):
        cloud, det, _ = _planted_scene(simple_calib, n=3)
        config = PipelineConfig(frustum_mode="box", min_frustum_points=5)
        stats = RunSummary()
        out = process_frame(cloud, [det], [], simple_calib, config, stats=stats)
        assert out == []
        assert stats.skipped_empty_frustum == 1

    def test_permutation_invariance_as_multiset(self, simple_calib):
        rng = np.random.default_rng(9)
        clouds, dets = [], []
        merged_cloud = []
        for i, (x, depth, score) in enumerate(
            [(2.0, 65.0, 0.9), (-6.0, 70.0, 0.8), (5.0, 63.0, 0.7)]
        ):
            cloud, det, _ = _planted_scene(
                simple_calib, depth=depth, x=x, score=score
            )
            merged_cloud.append(cloud.points)
            dets.append(det)
        cloud = PointCloud(np.vstack(merged_cloud), Frame.LIDAR)
        config = PipelineConfig(frustum_mode="box")
        base = process_frame(cloud, dets, [], simple_calib, config)
        shuffled = process_frame(cloud, dets[::-1], [], simple_calib, config)
        assert sorted(map(repr, base)) == sorted(map(repr, shuffled))
        scores = [b.score for b in base]
        assert scores == sorted(scores, reverse=True)


def _reconciles(stats: RunSummary) -> bool:
    return stats.detections == (
        stats.faraway + stats.routed_near
        + stats.skipped_empty_frustum + stats.skipped_unknown_class
    )


def test_mixed_range_frame_counters_reconcile(simple_calib):
    scenes = [
        _planted_scene(simple_calib, depth=65.0, x=2.0),                  # faraway
        _planted_scene(simple_calib, depth=30.0, x=-4.0),                 # near
        _planted_scene(simple_calib, depth=70.0, x=-8.0, cls="cyclist"),  # unknown
    ]
    cloud = PointCloud(np.vstack([c.points for c, _, _ in scenes]), Frame.LIDAR)
    sky = Detection2D("f", "car", 0.5, (10, 10, 20, 20), image_size=(1242, 375))
    dets = [det for _, det, _ in scenes] + [sky]
    stats = RunSummary()
    process_frame(cloud, dets, [], simple_calib, PipelineConfig(frustum_mode="box"),
                  stats=stats)
    assert (stats.faraway, stats.routed_near, stats.skipped_unknown_class,
            stats.skipped_empty_frustum) == (1, 1, 1, 1)
    assert _reconciles(stats)
    assert "routed to near range:    1" in stats.lines()


def _count_projections(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for name in ("lidar_to_camera", "project_to_image"):
        def counted(*args, _name=name, _fn=getattr(geometry, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(geometry, name, counted)
    return calls


@pytest.mark.parametrize("n_dets", [1, 3, 30])
def test_process_frame_projects_once(simple_calib, monkeypatch, n_dets):
    cloud, det, _ = _planted_scene(simple_calib)
    calls = _count_projections(monkeypatch)
    boxes = process_frame(cloud, [det] * n_dets, [], simple_calib,
                          PipelineConfig(frustum_mode="box"))
    assert len(boxes) == n_dets
    assert calls == {"lidar_to_camera": 1, "project_to_image": 1}


@pytest.mark.parametrize("mode", ["mask", "box"])
def test_build_training_set_projects_once_per_frame(mini_dataset, monkeypatch, mode):
    config = PipelineConfig(data_root=mini_dataset.root, frustum_mode=mode)
    frames = {f: load_frame_inputs(mini_dataset.root, f, config)
              for f in mini_dataset.frame_ids}
    calls = _count_projections(monkeypatch)
    samples, _ = build_training_set(
        {f: i.cloud for f, i in frames.items()},
        {f: i.detections for f, i in frames.items()},
        {f: i.labels for f, i in frames.items()},
        {f: i.calib for f, i in frames.items()},
        config,
    )
    assert len(samples) == 10 > len(frames)
    assert calls == {"lidar_to_camera": len(frames), "project_to_image": len(frames)}


class TestConfig:
    def test_parse_config_text(self):
        mapping = parse_config_text(
            "# comment\nthreshold.pedestrian=55\nfrustum_mode=box\n\nbin_width=0.2\n"
        )
        assert mapping == {
            "threshold.pedestrian": "55",
            "frustum_mode": "box",
            "bin_width": "0.2",
        }

    def test_precedence_default_file_flag(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("threshold.pedestrian=60\nbin_width=0.2\n")
        config = PipelineConfig.from_mapping(
            config_mapping(path, {"threshold.pedestrian": "50"})
        )
        assert config.thresholds["pedestrian"] == 50.0   # flag wins
        assert config.bin_width == 0.2                   # file wins over default
        assert config.thresholds["car"] == 75.0          # default preserved

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"no_such_key": "1"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"min_frustum_points": "0"})
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"frustum_mode": "sphere"})

    def test_unencodable_class_name_rejected(self):
        # what Python makes of an undecodable byte in a command-line argument
        with pytest.raises(ConfigError, match="classes"):
            PipelineConfig.from_mapping({"classes": "car,\udcff"})

    def test_class_name_with_a_newline_rejected(self):
        # a checkpoint stores one class name per line
        with pytest.raises(ConfigError, match="classes"):
            PipelineConfig.from_mapping({"classes": "car,a\nb"})

    @pytest.mark.parametrize("key", ["raster_extent", "bin_width"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_non_positive_or_non_finite_raster_setting_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_mapping({key: value})

    @pytest.mark.parametrize("prior", ["0,1,1", "1,-1,1", "1,1,inf", "nan,1,1"])
    def test_non_positive_or_non_finite_prior_rejected(self, prior):
        with pytest.raises(ConfigError, match="prior"):
            PipelineConfig.from_mapping({"prior.car": prior})

    def test_priors_and_classes_keys(self):
        config = PipelineConfig.from_mapping(
            {"classes": "pedestrian,car,cyclist", "prior.cyclist": "0.6,1.8,1.7"}
        )
        assert config.classes == ("pedestrian", "car", "cyclist")
        assert config.size_priors["cyclist"] == (0.6, 1.8, 1.7)


class TestRunDataset:
    def test_summary_counts(self, mini_dataset, mini_config):
        summary = run_dataset(mini_dataset.frame_ids, mini_config)
        assert summary.frames == 5
        assert summary.detections == 11
        assert summary.faraway == 6       # 4 pedestrians + 2 far cars
        assert summary.routed_near == 4
        assert summary.skipped_empty_frustum == 1  # the sky detection
        assert _reconciles(summary)
        assert summary.fallback_seen == 6
        assert summary.fallback_kept == 5  # the 80.3 m duplicate is dropped
        for frame_id in mini_dataset.frame_ids:
            assert (mini_config.results_dir / f"{frame_id}.txt").is_file()

    def test_byte_identical_reruns(self, mini_dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            config = PipelineConfig(
                data_root=mini_dataset.root, out_dir=tmp_path / name
            )
            run_dataset(mini_dataset.frame_ids, config)
            outs.append(
                {
                    f: (tmp_path / name / f"{f}.txt").read_bytes()
                    for f in mini_dataset.frame_ids
                }
            )
        assert outs[0] == outs[1]

    def test_missing_velodyne_file(self, mini_dataset, tmp_path):
        config = PipelineConfig(data_root=mini_dataset.root, out_dir=tmp_path / "r")
        with pytest.raises(MissingFrameData) as err:
            run_dataset(["999999"], config)
        assert "999999" in str(err.value)
        assert "velodyne" in str(err.value)

    def test_zero_frames(self, mini_dataset, tmp_path):
        config = PipelineConfig(data_root=mini_dataset.root, out_dir=tmp_path / "r")
        summary = run_dataset([], config)
        assert summary.frames == 0
        assert summary.detections == 0

    def test_mask_and_box_modes_differ_only_in_frustum(self, mini_dataset, tmp_path):
        for mode in ("mask", "box"):
            config = PipelineConfig(
                data_root=mini_dataset.root, out_dir=tmp_path / mode,
                frustum_mode=mode,
            )
            summary = run_dataset(mini_dataset.frame_ids, config)
            assert summary.faraway == 6


def test_detection_of_another_frame_names_the_file(mini_dataset, tmp_path):
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    path = root / "detections_2d" / "000000.txt"
    path.write_text(path.read_text().replace("000000 ", "999999 ", 1))
    with pytest.raises(MalformedDetectionLine, match=re.escape(str(path))):
        load_frame_inputs(root, "000000", PipelineConfig(data_root=root))


def test_load_frame_inputs_reads_all_parts(mini_dataset, mini_config):
    inputs = load_frame_inputs(mini_dataset.root, "000001", mini_config)
    assert len(inputs.cloud) > 0
    assert len(inputs.detections) == 3
    assert len(inputs.fallback_boxes) == 2
    assert inputs.labels is not None
    assert inputs.calib.frame_id == "000001"
