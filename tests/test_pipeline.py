import errno
import gc
import itertools
import math
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfrustum import geometry, regressor, synth
from farfrustum.errors import (
    BadCalibration,
    ConfigError,
    CropMismatch,
    FarFrustumError,
    MalformedDetectionLine,
    MaskDimMismatch,
    MissingFrameData,
    NonFiniteBox,
    UnknownClass,
)
from farfrustum.geometry import rot_y
from farfrustum.kitti_io import (
    Box3D,
    Detection2D,
    Frame,
    MaskRef,
    PointCloud,
    parse_calibration,
    write_pgm,
)
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


def test_process_frame_histograms_x_and_y_only_for_faraway_detections(
    simple_calib, monkeypatch
):
    scenes = [  # sizes tell the frustums apart
        _planted_scene(simple_calib, depth=65.0, x=2.0, n=10),                  # faraway
        _planted_scene(simple_calib, depth=30.0, x=-4.0, n=12),                 # near
        _planted_scene(simple_calib, depth=70.0, x=-8.0, n=14, cls="cyclist"),  # unknown
    ]
    cloud = PointCloud(np.vstack([c.points for c, _, _ in scenes]), Frame.LIDAR)
    dets = [det for _, det, _ in scenes] + [
        Detection2D("f", cls, 0.5, (10, 10, 20, 20), image_size=(1242, 375))
        for cls in ("car", "cyclist")  # empty frustums, one of an unknown class
    ]
    passes = []

    def recorded(values, bounds, bin_width, _fn=regressor.modal_midpoints):
        passes.append(np.diff(bounds).tolist())
        return _fn(values, bounds, bin_width)

    monkeypatch.setattr(regressor, "modal_midpoints", recorded)
    stats = RunSummary()
    process_frame(cloud, dets, [], simple_calib, PipelineConfig(frustum_mode="box"),
                  stats=stats)
    # the depth pass sees the three non-empty frustums; the x and y pass sees
    # the faraway one's points, once per axis
    assert passes == [[10, 12, 14], [10, 10]]
    assert (stats.faraway, stats.routed_near, stats.skipped_unknown_class,
            stats.skipped_empty_frustum) == (1, 1, 1, 2)
    assert _reconciles(stats)


def _mixed_frame(calib):
    """A faraway, a near and an unknown-class detection, and two empty frustums."""
    scenes = [
        _planted_scene(calib, depth=65.0, x=2.0),                  # faraway
        _planted_scene(calib, depth=30.0, x=-4.0),                 # near
        _planted_scene(calib, depth=70.0, x=-8.0, cls="cyclist"),  # unknown
    ]
    cloud = PointCloud(np.vstack([c.points for c, _, _ in scenes]), Frame.LIDAR)
    dets = [det for _, det, _ in scenes] + [
        Detection2D("f", cls, 0.5, (10, 10, 20, 20), image_size=(1242, 375))
        for cls in ("car", "cyclist")
    ]
    return cloud, dets


def test_process_frame_and_build_training_set_leave_no_reference_cycles(
    simple_calib, mini_dataset
):
    # an outcome kept as a caught exception would hold its traceback, and
    # with it the frame's arrays, in a cycle only the collector frees
    cloud, dets = _mixed_frame(simple_calib)
    config = PipelineConfig(data_root=mini_dataset.root)
    frames = {f: load_frame_inputs(mini_dataset.root, f, config)
              for f in mini_dataset.frame_ids}
    gc.collect()
    gc.disable()
    try:
        for mode in ("mask", "box"):
            config = PipelineConfig(data_root=mini_dataset.root, frustum_mode=mode)
            process_frame(cloud, dets, [], simple_calib, config)
            for inputs in frames.values():
                process_frame(inputs.cloud, inputs.detections, inputs.fallback_boxes,
                              inputs.calib, config)
            build_training_set(
                {f: i.cloud for f, i in frames.items()},
                {f: i.detections for f, i in frames.items()},
                {f: i.labels for f, i in frames.items()},
                {f: i.calib for f, i in frames.items()},
                config,
            )
        assert gc.collect() == 0
    finally:
        gc.enable()


def _exploding_params():
    """Weights whose size output overflows exp(): every faraway box is refused."""
    params = regressor.zero_params(32)
    params.b2[3] = 800.0
    return params


def test_process_frame_raises_the_first_failing_detection(simple_calib, tmp_path):
    # `far` regresses a box Box3D refuses, and `bad_mask`'s mask fails to load
    cloud, far, _ = _planted_scene(simple_calib, depth=65.0, x=2.0)
    write_pgm(tmp_path / "m.pgm", np.zeros((10, 10), dtype=np.uint8))
    bad_mask = Detection2D("f", "car", 0.5, far.bbox, image_size=(1242, 375),
                           mask=MaskRef(tmp_path / "m.pgm", (1242, 375)))

    def first_error(dets, config=PipelineConfig(checkpoint="w.ckpt"),
                    params=_exploding_params()):
        with pytest.raises(FarFrustumError) as info:
            process_frame(cloud, dets, [], simple_calib, config, params=params)
        return info.value

    error = first_error([far, bad_mask])
    assert isinstance(error, NonFiniteBox)
    assert "checkpoint w.ckpt, frame f, detection 0 (pedestrian)" in str(error)
    assert isinstance(first_error([bad_mask, far]), MaskDimMismatch)
    # a box detection of another image size fails its crop in turn
    boxes = PipelineConfig(checkpoint="w.ckpt", frustum_mode="box")
    bad_size = Detection2D("f", "car", 0.5, far.bbox, image_size=(1242, 376))
    assert isinstance(first_error([far, bad_size], boxes), NonFiniteBox)
    assert isinstance(first_error([bad_size, far], boxes), CropMismatch)
    # with no checkpoint, a prior past 10 km is the size-prior baseline's fault
    huge = PipelineConfig(size_priors={"pedestrian": (2e4, 1.0, 1.0), "car": (1.0, 1.0, 1.0)})
    error = first_error([far, bad_mask], huge, None)
    assert isinstance(error, NonFiniteBox) and "checkpoint" not in str(error)
    assert "size-prior baseline, frame f, detection 0 (pedestrian)" in str(error)


def _concatenated_chain(projection, segments, detections, calib, config, thresholds):
    """frustum_chain as it ran on one cloud per detection: each frustum gathered
    by camera.select, the live ones joined by np.concatenate. Returns routes,
    theta, centroids and grids."""
    frustums = [projection.camera.select(rows) for rows in segments]
    sizes = np.array([len(frustum) for frustum in frustums], dtype=np.int64)
    live = np.flatnonzero(sizes > 0)
    bounds = np.concatenate([[0], np.cumsum(sizes[live])])
    points = np.concatenate([frustums[k].points for k in live] or [np.empty((0, 3))])
    rotated, theta = geometry.frustum_rotations(points, bounds, [detections[k] for k in live],
                                                calib)
    depth = regressor.modal_midpoints(rotated[:, 2], bounds, config.bin_width)
    routes, far = [regressor.Route.EMPTY] * len(frustums), []
    for s, k in enumerate(live):
        name = detections[k].class_name
        if thresholds is not None and name not in thresholds:
            routes[k] = regressor.Route.UNKNOWN
        elif thresholds is not None and depth[s] < thresholds[name]:
            routes[k] = regressor.Route.NEAR
        elif name in config.classes:
            routes[k] = regressor.Route.FARAWAY
            far.append(s)
        else:
            routes[k] = regressor.Route.UNKNOWN
    rows, far_bounds = regressor._segments(rotated, bounds, far)
    xy = regressor.modal_midpoints(np.concatenate([rows[:, 0], rows[:, 1]]),
                                   np.concatenate([far_bounds, far_bounds[1:] + len(rows)]),
                                   config.bin_width)
    centroids = np.column_stack([xy[:len(far)], xy[len(far):], depth[far]])
    bev = rows[:, [0, 2]] - np.repeat(centroids[:, [0, 2]], np.diff(far_bounds), axis=0)
    grids = regressor.bev_grids(bev, far_bounds, config.raster_grid, config.raster_extent)
    return routes, theta[far], centroids, grids


def test_frustum_chain_over_row_segments_keeps_the_concatenated_bits(
    simple_calib, mini_dataset
):
    mixed, mixed_dets = _mixed_frame(simple_calib)
    far, far_det, _ = _planted_scene(simple_calib, depth=80.0, x=-3.0, cls="car", n=30)
    cloud = PointCloud(np.vstack([mixed.points, far.points]), Frame.LIDAR)
    frames = [(cloud, dets, simple_calib) for dets in (
        mixed_dets + [far_det], [far_det, *mixed_dets[::-1]], mixed_dets[3:])]
    for fid in mini_dataset.frame_ids:
        inputs = load_frame_inputs(mini_dataset.root, fid, PipelineConfig())
        frames.append((inputs.cloud, inputs.detections, inputs.calib))
    seen = set()
    for (cloud, dets, calib), mode, thresholds in itertools.product(
            frames, ("mask", "box"), (None, DEFAULT_THRESHOLDS)):
        config = PipelineConfig(frustum_mode=mode)
        got = regressor.frustum_chain(cloud, dets, calib, config, thresholds)
        assert got.error is None
        projection = geometry.project_cloud(cloud, calib, config.image_size)  # uncropped
        segments = list(geometry.frustum_rows(projection, dets, mode == "mask"))
        routes, theta, centroids, grids = _concatenated_chain(
            projection, segments, dets, calib, config, thresholds)
        assert got.routes == routes
        assert got.theta.tobytes() == theta.tobytes()
        assert got.centroids.tobytes() == centroids.tobytes()
        assert [r.grid.tobytes() for r in got.rasters] == [g.tobytes() for g in grids]
        seen.update(routes)
    assert seen == set(regressor.Route)  # empty, near, faraway and unknown-class


def test_frustum_chain_ends_the_batch_at_a_failing_cut(simple_calib, tmp_path, monkeypatch):
    cloud, far, _ = _planted_scene(simple_calib, depth=65.0, x=2.0)
    write_pgm(tmp_path / "m.pgm", np.zeros((10, 10), dtype=np.uint8))
    bad_mask = Detection2D("f", "car", 0.5, far.bbox, image_size=(1242, 375),
                           mask=MaskRef(tmp_path / "m.pgm", (1242, 375)))
    batch = regressor.frustum_chain(cloud, [far, bad_mask, far], simple_calib,
                                    PipelineConfig(), DEFAULT_THRESHOLDS)
    assert batch.routes == [regressor.Route.FARAWAY] and len(batch.rasters) == 1
    assert isinstance(batch.error, MaskDimMismatch)
    monkeypatch.setattr(regressor, "project_cloud", None)  # a frame without detections
    empty = regressor.frustum_chain(cloud, [], simple_calib, PipelineConfig())
    assert empty.routes == [] and empty.rasters == [] and empty.error is None


def test_process_frame_builds_no_cloud_per_detection(simple_calib, monkeypatch, tmp_path):
    cloud, det, _ = _planted_scene(simple_calib)
    clouds = []
    real_wrap, real_check = PointCloud._wrap.__func__, PointCloud.__post_init__
    monkeypatch.setattr(PointCloud, "_wrap", classmethod(
        lambda cls, *args: clouds.append(1) or real_wrap(cls, *args)))
    monkeypatch.setattr(PointCloud, "__post_init__",
                        lambda self: clouds.append(1) or real_check(self))
    built = []
    for n in (1, 30):
        clouds.clear()
        assert len(process_frame(cloud, [det] * n, [], simple_calib,
                                 PipelineConfig(frustum_mode="box"))) == n
        built.append(len(clouds))
    assert built[0] == built[1]  # the projection's clouds only
    # in mask mode the pixel index is built once for the frame's image-sized masks
    bitmap = np.zeros((375, 1242), dtype=np.uint8)
    u0, v0, u1, v1 = (int(e) for e in det.bbox)
    bitmap[v0:v1 + 1, u0:u1 + 1] = 255
    write_pgm(tmp_path / "m.pgm", bitmap)
    masked = Detection2D("f", "pedestrian", 0.9, det.bbox, image_size=(1242, 375),
                         mask=MaskRef(tmp_path / "m.pgm", (1242, 375)))
    indexed = []
    monkeypatch.setattr(geometry, "_pixel_index",
                        lambda *args, _fn=geometry._pixel_index: indexed.append(1) or _fn(*args))
    assert len(process_frame(cloud, [masked, det, masked, masked], [], simple_calib,
                             PipelineConfig(frustum_mode="mask"))) == 4
    assert len(indexed) == 1


def test_refused_box_of_weights_given_without_a_checkpoint_names_them(simple_calib):
    cloud, far, _ = _planted_scene(simple_calib, depth=65.0, x=2.0)
    with pytest.raises(NonFiniteBox) as info:
        process_frame(cloud, [far], [], simple_calib, PipelineConfig(),
                      params=_exploding_params())
    assert str(info.value).startswith("given weights, frame f, detection 0 (pedestrian): ")


def test_process_frame_takes_no_determinant_per_detection(simple_calib, monkeypatch):
    cloud, det, _ = _planted_scene(simple_calib)
    calls = []
    monkeypatch.setattr(np.linalg, "det", lambda m, _fn=np.linalg.det: calls.append(m) or _fn(m))
    assert len(process_frame(cloud, [det] * 5, [], simple_calib,
                             PipelineConfig(frustum_mode="box"))) == 5
    assert calls == []


def test_run_dataset_parses_no_labels(mini_dataset, tmp_path):
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    for path in (root / "label_2").iterdir():
        path.write_text("Car 0 0 0\n")  # malformed: run must not read it
    config = PipelineConfig(data_root=root, out_dir=tmp_path / "out")
    assert run_dataset(mini_dataset.frame_ids, config).frames == len(mini_dataset.frame_ids)


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


def test_process_frame_passes_every_candidate_row_through_lidar_to_camera_once(
    simple_calib, monkeypatch
):
    planted, det, _ = _planted_scene(simple_calib)
    rng = np.random.default_rng(3)
    clutter = rng.uniform(-40.0, 40.0, size=(3 * geometry.BLOCK_ROWS + 7, 3))
    cloud = PointCloud(np.vstack([clutter, planted.points]), Frame.LIDAR)
    # the rows the whole-cloud chain keeps in the image, and in the detection's box
    uv, valid = geometry.project_to_image(
        geometry.lidar_to_camera(cloud, simple_calib), simple_calib)
    (w, h), (u, v) = PipelineConfig().image_size, uv.T
    in_image = np.flatnonzero(valid & (u >= 0) & (u < w) & (v >= 0) & (v < h))
    u0, v0, u1, v1 = det.bbox  # inside the image, so clamping leaves it
    in_box = np.flatnonzero(valid & (u >= u0) & (u < u1) & (v >= v0) & (v < v1))
    blocks = []

    def recorded(block, calib, _fn=geometry.lidar_to_camera):
        blocks.append(block.points)
        return _fn(block, calib)

    monkeypatch.setattr(geometry, "lidar_to_camera", recorded)
    process_frame(cloud, [det], [], simple_calib, PipelineConfig(frustum_mode="box"))
    assert len(blocks) == 1  # fewer candidates than BLOCK_ROWS share one block
    row_of = {p.tobytes(): k for k, p in enumerate(cloud.points)}
    sent = np.array([row_of[p.tobytes()] for p in np.vstack(blocks)])
    assert (np.diff(sent) > 0).all()  # each candidate once, in cloud order
    assert len(in_box) >= len(planted) and np.isin(in_box, sent).all()
    # the screen is the detection's box, not the image: most in-image rows stay out
    assert len(np.setdiff1d(in_image, sent)) > len(in_image) / 2


def test_process_frame_refuses_a_detection_sized_otherwise(simple_calib):
    cloud, det, _ = _planted_scene(simple_calib)
    config = PipelineConfig(frustum_mode="box", image_size=(1242, 376))
    with pytest.raises(CropMismatch):
        process_frame(cloud, [det], [], simple_calib, config)


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
            PipelineConfig.from_mapping({"frustum_mode": "sphere"})

    def test_unencodable_class_name_rejected(self):
        # what Python makes of an undecodable byte in a command-line argument
        with pytest.raises(ConfigError, match="classes"):
            PipelineConfig.from_mapping({"classes": "car,\udcff"})

    def test_class_name_with_a_newline_rejected(self):
        # a checkpoint stores one class name per line
        with pytest.raises(ConfigError, match="classes"):
            PipelineConfig.from_mapping({"classes": "car,a\nb"})

    @pytest.mark.parametrize("value, key", [
        *itertools.product(["0", "-1", "nan", "inf"], ["raster_extent", "bin_width"]),
        # a finer extent overflows the int64 cell index, a wider one the cell, a wider
        # bin the bin edges
        ("5e-324", "raster_extent"), ("1e-300", "raster_extent"), ("0.0099", "raster_extent"),
        ("1e308", "raster_extent"), ("1e308", "bin_width"), ("10000.1", "bin_width"),
    ])
    def test_non_positive_or_non_finite_raster_setting_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_mapping({key: value})

    @pytest.mark.parametrize("value", ["0.01", "1e-5", "0.0499"])
    def test_bin_width_below_the_floor_rejected(self, value):
        # a finer width could split a frustum of a rigid mount past MAX_BINS bins
        with pytest.raises(ConfigError, match="bin_width"):
            PipelineConfig.from_mapping({"bin_width": value})
        assert PipelineConfig.from_mapping({"bin_width": "0.05"}).bin_width == 0.05

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


_CONFIG_KEYS = [
    "data_root", "out", "frustum_mode", "bin_width", "raster_grid", "raster_extent",
    "min_frustum_points", "checkpoint", "image_width", "image_height", "classes",
    "threshold.car", "threshold.pedestrian", "threshold.", "prior.car", "prior.",
    "prior.cyclist", "no_such_key", "", "#threshold.car",
]
_CONFIG_VALUE = st.one_of(
    st.sampled_from([
        "nan", "inf", "-inf", "-1", "0", "1e400", "-0", "1_0", "0x10", "9" * 5000,
        "1,1", "1,1,1", "0.6,1.8,nan", "1,-1,1", "1,1,1,1", "1,,1", "car,,pedestrian",
        ",", "box", "mask", "car,\udcff", "a\x0bb",
    ]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.text(max_size=8),
)
_CONFIG_LINE = st.builds(
    lambda key, sep, value: key + sep + value,
    st.sampled_from(_CONFIG_KEYS), st.sampled_from(["=", " = ", "", "=="]), _CONFIG_VALUE,
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(max_size=60),
    st.builds(lambda lines, noise: "\n".join(lines) + noise,
              st.lists(_CONFIG_LINE, max_size=6), st.text(max_size=12)),
))
def test_config_fuzz_raises_only_config_errors(text):
    try:
        PipelineConfig.from_mapping(parse_config_text(text))
    except ConfigError:
        pass


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

    def test_a_write_cut_partway_leaves_no_partial_file_or_stale_line(
        self, mini_dataset, mini_config, monkeypatch
    ):
        frames, out = mini_dataset.frame_ids, mini_config.results_dir
        run_dataset(frames, mini_config)
        whole = {p.name: p.read_bytes() for p in out.iterdir()}
        name = max(whole, key=lambda n: len(whole[n]))  # the frame with the most lines
        real_write_text = Path.write_text

        def cut_write_text(path, text, *args, **kwargs):
            if path.parent != out or Path(name).stem not in path.name.split("."):
                return real_write_text(path, text, *args, **kwargs)
            with open(path, "w") as f:  # half the text reaches the disk, then ENOSPC
                f.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        stale = "Car 0 0 0 0 0 1 1 1 1 1 1 1 1 1 0.5\n" * 40  # longer than the new file
        for before in (None, stale):  # a new file, then one over a previous run's
            shutil.rmtree(out)
            if before is not None:
                out.mkdir()
                (out / name).write_text(before)
            with monkeypatch.context() as m:
                m.setattr(Path, "write_text", cut_write_text)
                with pytest.raises(FarFrustumError, match=re.escape(str(out / name))):
                    run_dataset(frames, mini_config)
            assert not any(p.name.startswith(".") for p in out.iterdir())
            if before is None:
                assert not (out / name).exists()
            else:
                assert (out / name).read_text() == before
            run_dataset(frames, mini_config)  # a rerun replaces it whole
            assert {p.name: p.read_bytes() for p in out.iterdir()} == whole

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


def _result_files(config: PipelineConfig, frames, out_dir: Path) -> dict[str, bytes]:
    config.out_dir = out_dir
    run_dataset(frames, config)
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_result_files_do_not_depend_on_the_calibration_cache(mini_dataset, mini_config, tmp_path):
    frames = mini_dataset.frame_ids
    parse_calibration.cache_clear()
    first = _result_files(mini_config, frames, tmp_path / "first")
    info = parse_calibration.cache_info()
    assert (info.hits, info.misses) == (len(frames) - 1, 1)  # the demo repeats one text
    warm = _result_files(mini_config, frames, tmp_path / "warm")
    parse_calibration.cache_clear()
    cleared = _result_files(mini_config, frames, tmp_path / "cleared")
    backwards = _result_files(mini_config, frames[::-1], tmp_path / "backwards")
    assert len(first) == len(frames)
    assert warm == first and cleared == first and backwards == first
    # each frame's text made its own by an ignored line: a miss on every frame
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    for k, fid in enumerate(frames):
        path = root / "calib" / f"{fid}.txt"
        path.write_text(f"P0: {k}\n" + path.read_text())
    mini_config.data_root = root
    before = parse_calibration.cache_info()
    distinct = _result_files(mini_config, frames, tmp_path / "distinct")
    after = parse_calibration.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + len(frames))
    assert distinct == first


def test_frames_sharing_a_bad_calibration_each_name_their_own_file(
    mini_dataset, mini_config, tmp_path
):
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    frames = mini_dataset.frame_ids[:2]
    text = (root / "calib" / f"{frames[0]}.txt").read_text()
    r0 = next(line for line in text.splitlines() if line.startswith("R0_rect:"))
    bad = text.replace(r0, "R0_rect: 1 0 0 0 1 0 0 0 2")
    for fid in frames:
        (root / "calib" / f"{fid}.txt").write_text(bad)
    for fid in frames * 2:  # a text that raises is never kept
        with pytest.raises(BadCalibration) as exc:
            load_frame_inputs(root, fid, mini_config)
        assert str(exc.value).startswith(f"{root / 'calib' / fid}.txt: R0_rect not orthonormal")


def _bits(boxes: list[Box3D]) -> list[tuple]:
    return [(b.class_name, *map(float.hex, (*b.center, b.yaw, *b.size, b.score)))
            for b in boxes]


@pytest.mark.parametrize("checkpoint", [False, True], ids=["priors", "checkpoint"])
@pytest.mark.parametrize("mode", ["box", "mask"])
def test_a_box_does_not_depend_on_its_frame_mates(kitti_scale, tmp_path, mode, checkpoint):
    """Every box of a frame keeps its bits when its detection runs alone, although the
    frame's crop, its CHAIN_ROWS blocks and the stacked network pass depend on them all."""
    root, scans = kitti_scale
    config = PipelineConfig(data_root=root, frustum_mode=mode)
    params = None
    if checkpoint:
        config.checkpoint = tmp_path / "m.ckpt"
        regressor.save_checkpoint(regressor.init_params(config.raster_grid, config.classes,
                                                        seed=5), config.checkpoint)
        params = regressor.load_checkpoint(config.checkpoint, config.classes)
    boxes = 0
    for fid in sorted(scans):
        inputs = load_frame_inputs(root, fid, config, labels=False)
        together = process_frame(inputs.cloud, inputs.detections, [], inputs.calib, config,
                                 params=params)
        alone = [box for det in inputs.detections
                 for box in process_frame(inputs.cloud, [det], [], inputs.calib, config,
                                          params=params)]
        alone.sort(key=lambda box: -box.score)  # stable, as process_frame sorts
        assert _bits(alone) == _bits(together)
        boxes += len(together)
    assert boxes >= 40


def test_load_frame_inputs_reads_all_parts(mini_dataset, mini_config):
    inputs = load_frame_inputs(mini_dataset.root, "000001", mini_config)
    assert len(inputs.cloud) > 0
    assert len(inputs.detections) == 3
    assert len(inputs.fallback_boxes) == 2
    assert inputs.labels is not None


def _kitti_scale_frames(root: Path, seed: int, n_frames: int = 4, n_points: int = 120_000,
                        n_detections: int = 30) -> dict[str, np.ndarray]:
    """Frames of a KITTI-sized 360-degree scan with 30 detections of planted objects,
    half of them planted faraway and every other one cut by an elliptic mask;
    returns each frame's velodyne records."""
    calib = synth.default_calibration()
    (root / "detections_2d" / "masks").mkdir(parents=True)
    for sub in ("velodyne", "calib"):
        (root / sub).mkdir()
    width, height = synth.IMAGE_SIZE
    vv, uu = np.mgrid[0:height, 0:width] + 0.5  # pixel centres
    rng = np.random.default_rng(seed)
    scans = {}
    for f in range(n_frames):
        fid = f"{f:06d}"
        objects, lines = [], []
        for k in range(n_detections):
            cls = "car" if k % 3 else "pedestrian"
            z = rng.uniform(*((80.0, 115.0) if cls == "car" else (65.0, 95.0))) if k % 4 < 2 \
                else rng.uniform(8.0, 50.0)
            center = np.array([rng.uniform(-0.35, 0.35) * z, rng.uniform(0.5, 1.2), z])
            spread = (0.8, 0.7, 0.4) if cls == "car" else (0.3, 0.9, 0.3)
            pts = center + rng.uniform(-1, 1, (rng.integers(10, 20) if z > 60 else 80, 3)) * spread
            objects.append(pts)
            uv, _ = geometry.project_to_image(PointCloud(pts, Frame.CAMERA), calib)
            u0, v0 = uv.min(axis=0) - 2.0
            u1, v1 = uv.max(axis=0) + 2.0
            mask = ""
            if k % 2 == 0:
                inside = ((uu - (u0 + u1) / 2) / ((u1 - u0) / 2)) ** 2 \
                    + ((vv - (v0 + v1) / 2) / ((v1 - v0) / 2)) ** 2 <= 1.0
                write_pgm(root / "detections_2d" / "masks" / f"{fid}_{k}.pgm",
                          np.where(inside, 255, 0).astype(np.uint8))
                mask = f" masks/{fid}_{k}.pgm"
            lines.append(f"{fid} {cls} {rng.uniform(0.3, 1.0):.2f} "
                         f"{u0:.2f} {v0:.2f} {u1:.2f} {v1:.2f}{mask}\n")
        planted = synth.camera_to_lidar_points(np.vstack(objects), calib)
        n_scan = n_points - len(planted)
        azimuth, reach = rng.uniform(-math.pi, math.pi, n_scan), rng.uniform(3.0, 80.0, n_scan)
        scan = np.column_stack([reach * np.cos(azimuth), reach * np.sin(azimuth),
                                rng.uniform(-1.8, 2.0, n_scan)])
        cloud = np.vstack([scan, planted])
        scans[fid] = np.column_stack([cloud, rng.uniform(0, 1, len(cloud))]).astype("<f4")
        (root / "velodyne" / f"{fid}.bin").write_bytes(scans[fid].tobytes())
        (root / "calib" / f"{fid}.txt").write_text(synth.calibration_text(calib))
        (root / "detections_2d" / f"{fid}.txt").write_text("".join(lines))
    return scans


@pytest.fixture(scope="module")
def kitti_scale(tmp_path_factory):
    root = tmp_path_factory.mktemp("kitti_scale")
    return root, _kitti_scale_frames(root, seed=11)


def _behind_the_camera(rng, n: int) -> np.ndarray:
    """n velodyne records whose points lie behind the camera, many of them on the
    image once the depth's sign is dropped."""
    calib = synth.default_calibration()
    cam = np.column_stack([rng.uniform(-40, 40, n), rng.uniform(-3, 3, n),
                           rng.uniform(-60, -0.5, n)])
    records = np.column_stack([synth.camera_to_lidar_points(cam, calib),
                               rng.uniform(0, 1, n)]).astype("<f4")
    camera = geometry.lidar_to_camera(PointCloud(records[:, :3], Frame.LIDAR), calib).points
    assert (camera[:, 2] < 0).all()
    return records


@pytest.mark.parametrize("mode", ["box", "mask"])
def test_a_scan_is_a_set_of_points_end_to_end(kitti_scale, tmp_path, mode):
    """The result files keep their bytes when the velodyne rows are permuted, and when
    5,000 points behind the camera are inserted mid-scan."""
    root, scans = kitti_scale
    config = PipelineConfig(data_root=root, frustum_mode=mode)
    params = regressor.init_params(config.raster_grid, config.classes, seed=5)
    rng = np.random.default_rng(12)
    variants = {
        "permuted": {f: s[rng.permutation(len(s))] for f, s in scans.items()},
        "behind": {f: np.insert(s, len(s) // 2, _behind_the_camera(rng, 5000), axis=0)
                   for f, s in scans.items()},
    }
    results = {}
    try:
        for name, variant in {"original": scans, **variants}.items():
            for f, records in variant.items():
                (root / "velodyne" / f"{f}.bin").write_bytes(records.tobytes())
            config.out_dir = tmp_path / name
            summary = run_dataset(sorted(scans), config, params=params)
            assert summary.faraway >= 40 and summary.detections == 120
            results[name] = [p.read_bytes() for p in sorted(config.out_dir.iterdir())]
    finally:
        for f, records in scans.items():
            (root / "velodyne" / f"{f}.bin").write_bytes(records.tobytes())
    assert len(results["original"]) == len(scans)
    assert results["permuted"] == results["original"]
    assert results["behind"] == results["original"]
