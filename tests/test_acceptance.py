"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and runtime budgets are asserted, not just reported.
"""
import math
import time

import numpy as np
import pytest

from farfrustum.clustering import estimate_centroid
from farfrustum.evaluation import (
    ap_11point,
    bev_iou,
    evaluate_boxes,
    faraway_filter,
    points_per_object_stats,
)
from farfrustum.geometry import (
    frustum_rotation,
    lidar_to_camera,
    points_in_box_frustum,
    points_in_mask_frustum,
    project_cloud,
)
from farfrustum.kitti_io import (
    Box3D,
    Detection2D,
    Frame,
    MaskRef,
    PointCloud,
    parse_labels,
    write_pgm,
)
from farfrustum.pipeline import (
    DEFAULT_THRESHOLDS,
    PipelineConfig,
    is_faraway,
    load_frame_inputs,
    run_dataset,
)
from farfrustum.plots import bev_scene_svg
from farfrustum.regressor import (
    BoxRegression,
    TrainConfig,
    flatten_params,
    forward,
    init_params,
    loss_and_gradients,
    mean_loss,
    rasterize_bev,
    train,
    with_flat_params,
    zero_params,
)

import oracles
from conftest import random_calibration

CLASSES = ("pedestrian", "car")
PRIORS = {"pedestrian": (0.66, 0.84, 1.76), "car": (1.63, 3.88, 1.53)}


def report(criterion: int, name: str, ok: bool) -> None:
    print(f"[criterion {criterion:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} ({name}) failed"


def test_criterion_01_transform_chain():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    max_round_trip = 0.0
    max_norm_drift = 0.0
    det = Detection2D("a", "car", 0.9, (200.0, 100.0, 900.0, 350.0),
                      image_size=(1242, 375))
    for i in range(1000):
        calib = random_calibration(rng)
        pts = rng.uniform(-60, 60, size=(5, 3))
        cam = lidar_to_camera(PointCloud(pts, Frame.LIDAR), calib)
        rot = calib.Tr_velo_to_cam[:, :3]
        t = calib.Tr_velo_to_cam[:, 3]
        back = (cam.points @ calib.R0_rect - t) @ rot
        max_round_trip = max(max_round_trip, np.abs(back - pts).max())
        if i % 10 == 0:
            rotated, _ = frustum_rotation(cam, det, calib)
            drift = np.abs(
                np.linalg.norm(rotated.points, axis=1) - np.linalg.norm(cam.points, axis=1)
            ).max()
            max_norm_drift = max(max_norm_drift, drift)
    elapsed = time.perf_counter() - start
    ok = max_round_trip < 1e-9 and max_norm_drift < 1e-12 and elapsed < 1.0
    print(f"  round-trip {max_round_trip:.2e} m, norm drift {max_norm_drift:.2e}, "
          f"{elapsed:.2f}s")
    report(1, "transform chain", ok)


def test_criterion_02_frustum_membership(tmp_path):
    rng = np.random.default_rng(1002)
    width, height = 300, 160
    start = time.perf_counter()
    all_equal = True
    subset_holds = True
    for scene in range(100):
        calib = random_calibration(rng)
        pts = rng.uniform(-50, 50, size=(150, 3))
        cloud = PointCloud(pts, Frame.LIDAR)
        u0, u1 = sorted(rng.uniform(0, width, 2))
        v0, v1 = sorted(rng.uniform(0, height, 2))
        u1, v1 = max(u1, u0 + 2.0), max(v1, v0 + 2.0)
        bbox = (float(u0), float(v0), float(u1), float(v1))
        # random mask whose support lies inside the bbox
        mask = np.zeros((height, width), dtype=np.uint8)
        iu0, iv0 = int(math.ceil(u0)), int(math.ceil(v0))
        iu1, iv1 = int(math.floor(u1)), int(math.floor(v1))
        if iu1 > iu0 and iv1 > iv0:
            block = (rng.uniform(size=(iv1 - iv0, iu1 - iu0)) < 0.5).astype(np.uint8)
            mask[iv0:iv1, iu0:iu1] = block * 255
        mask_path = tmp_path / f"m{scene}.pgm"
        write_pgm(mask_path, mask)
        det = Detection2D(
            "f", "car", 0.9, bbox,
            mask=MaskRef(mask_path, (width, height)), image_size=(width, height),
        )

        projection = project_cloud(cloud, calib)
        got_box = points_in_box_frustum(projection, det)
        want_box = oracles.box_frustum_indices(
            pts.tolist(), calib.R0_rect.tolist(), calib.Tr_velo_to_cam.tolist(),
            calib.P2.tolist(), bbox, (width, height),
        )
        cam_all = lidar_to_camera(cloud, calib)
        if not np.array_equal(got_box.points, cam_all.points[want_box]):
            all_equal = False
        got_mask = points_in_mask_frustum(projection, det)
        want_mask = oracles.mask_frustum_indices(
            pts.tolist(), calib.R0_rect.tolist(), calib.Tr_velo_to_cam.tolist(),
            calib.P2.tolist(), mask,
        )
        if not np.array_equal(got_mask.points, cam_all.points[want_mask]):
            all_equal = False
        if not set(want_mask) <= set(want_box):
            subset_holds = False
    elapsed = time.perf_counter() - start
    ok = all_equal and subset_holds and elapsed < 5.0
    print(f"  100 scenes exact={all_equal}, mask-subset={subset_holds}, {elapsed:.2f}s")
    report(2, "frustum membership vs brute force", ok)


def test_criterion_03_clustering():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    agree = 0
    total = 0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        center = rng.uniform(-40, 80, size=3)
        pts = center + rng.uniform(-1.5, 1.5, size=(n, 3))
        got = estimate_centroid(PointCloud(pts, Frame.FRUSTUM), 0.1)
        want = oracles.centroid_by_scan(pts.tolist(), 0.1)
        total += 1
        if got == tuple(want):
            agree += 1
    bimodal = [[10.0, 0.0, 60.0 + d] for d in (0.0, 0.01, -0.01, 0.02, 0.03,
                                               -0.02, 0.015, -0.015)]
    bimodal += [[10.0, 0.0, 40.0], [10.0, 0.0, 40.05]]
    z_est = estimate_centroid(PointCloud(bimodal, Frame.FRUSTUM), 0.1)[2]
    elapsed = time.perf_counter() - start
    ok = agree == total and abs(z_est - 60.0) <= 0.05 + 1e-12 and elapsed < 2.0
    print(f"  bin agreement {agree}/{total}, bimodal z {z_est:.3f}, {elapsed:.2f}s")
    report(3, "histogram clustering vs brute force", ok)


def test_criterion_04_faraway_routing_constants():
    checks = [
        ("pedestrian", 59.999, False),
        ("pedestrian", 60.0, True),
        ("pedestrian", 60.001, True),
        ("car", 74.999, False),
        ("car", 75.0, True),
        ("car", 75.001, True),
    ]
    ok = DEFAULT_THRESHOLDS == {"pedestrian": 60.0, "car": 75.0}
    for cls, depth, expected in checks:
        ok = ok and is_faraway(depth, cls, DEFAULT_THRESHOLDS) is expected
    report(4, "faraway thresholds 60 m / 75 m with >= boundary", ok)


def test_criterion_05_rotated_iou():
    rng = np.random.default_rng(1005)
    start = time.perf_counter()

    def make(cx, cz, w, l, yaw):
        return Box3D((cx, 1.0, cz), yaw, (w, l, 1.5), "car")

    identical = all(
        bev_iou(make(1.0, 2.0, 2.0, 4.5, yaw), make(1.0, 2.0, 2.0, 4.5, yaw)) == 1.0
        for yaw in (-2.5, -0.3, 0.0, 0.7, 1.0, math.pi / 2)
    )
    disjoint = bev_iou(make(0, 0, 2, 4, 0.3), make(100, 0, 2, 4, 1.0)) == 0.0

    closed_form_ok = True
    for _ in range(100):
        a = make(rng.uniform(-5, 5), rng.uniform(-5, 5),
                 rng.uniform(0.5, 3), rng.uniform(0.5, 5), 0.0)
        b = make(rng.uniform(-5, 5), rng.uniform(-5, 5),
                 rng.uniform(0.5, 3), rng.uniform(0.5, 5), 0.0)
        want = oracles.axis_aligned_bev_iou(
            (a.center[0], a.center[2], a.size[0], a.size[1]),
            (b.center[0], b.center[2], b.size[0], b.size[1]),
        )
        if abs(bev_iou(a, b) - want) >= 1e-12:
            closed_form_ok = False

    max_mc_err = 0.0
    for i in range(200):
        a = make(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.8, 3),
                 rng.uniform(0.8, 5), rng.uniform(-math.pi, math.pi))
        b = make(a.center[0] + rng.uniform(-2, 2), a.center[2] + rng.uniform(-2, 2),
                 rng.uniform(0.8, 3), rng.uniform(0.8, 5),
                 rng.uniform(-math.pi, math.pi))
        mc = oracles.monte_carlo_bev_iou(
            (a.center[0], a.center[2], a.size[0], a.size[1], a.yaw),
            (b.center[0], b.center[2], b.size[0], b.size[1], b.yaw),
            n_samples=100_000, seed=i,
        )
        max_mc_err = max(max_mc_err, abs(bev_iou(a, b) - mc))
    elapsed = time.perf_counter() - start
    ok = (identical and disjoint and closed_form_ok
          and max_mc_err < 2e-3 and elapsed < 30.0)
    print(f"  identical={identical}, disjoint={disjoint}, "
          f"closed-form={closed_form_ok}, MC err {max_mc_err:.2e}, {elapsed:.1f}s")
    report(5, "rotated IoU", ok)


def test_criterion_06_eleven_point_ap():
    def gt_box(score=1.0):
        return Box3D((0.0, 1.0, 50.0), 0.0, (2.0, 4.0, 1.5), "car", score)

    def fp_box(score):
        return Box3D((60.0, 1.0, 50.0), 0.0, (2.0, 4.0, 1.5), "car", score)

    case1 = ap_11point([gt_box()], [gt_box(0.9)], 0.1)
    case2 = ap_11point([gt_box()], [gt_box(0.9), fp_box(0.5)], 0.1)
    case3 = ap_11point([gt_box()], [fp_box(0.9), gt_box(0.5)], 0.1)
    hand_cases = (
        case1 == pytest.approx(100.0, abs=1e-12)
        and case2 == pytest.approx(100.0, abs=1e-12)
        and case3 == pytest.approx(50.0, abs=1e-12)
    )

    rng = np.random.default_rng(1006)
    invariant = True
    transforms = [
        lambda s: 0.37 * s,
        lambda s: s**3,
        lambda s: 1.0 - (1.0 - s) ** 2,
        lambda s: s / (1.0 + s),
    ]
    for trial in range(50):
        n_gt = int(rng.integers(1, 6))
        gt = [Box3D((10.0 * i, 1.0, 50.0), 0.0, (2, 4, 1.5), "car")
              for i in range(n_gt)]
        preds = [
            Box3D((rng.uniform(-5, 10 * n_gt), 1.0, 50.0), 0.0, (2, 4, 1.5),
                  "car", float(np.round(rng.uniform(0.05, 0.95), 3)))
            for _ in range(int(rng.integers(1, 9)))
        ]
        base = ap_11point(gt, preds, 0.1)
        fn = transforms[trial % len(transforms)]
        rescaled = [Box3D(p.center, p.yaw, p.size, p.class_name, fn(p.score))
                    for p in preds]
        if ap_11point(gt, rescaled, 0.1) != pytest.approx(base, abs=1e-12):
            invariant = False
    ok = hand_cases and invariant
    print(f"  hand cases (100/100/50)={hand_cases}, monotone-rescale invariant={invariant}")
    report(6, "11-point interpolated AP", ok)


def test_criterion_07_regressor():
    rng = np.random.default_rng(1007)
    start = time.perf_counter()

    def random_raster(grid=6):
        pts = rng.uniform(-4, 4, size=(int(rng.integers(1, 12)), 2))
        cls = "pedestrian" if rng.uniform() < 0.5 else "car"
        return rasterize_bev(pts, cls, grid, 4.0, CLASSES)

    max_rel = 0.0
    for draw in range(20):
        params = init_params(6, CLASSES, hidden=5, priors=PRIORS, seed=2000 + draw)
        dataset = [
            (random_raster(), BoxRegression(
                shift=tuple(rng.uniform(-1, 1, 3)),
                size=tuple(rng.uniform(0.5, 4.0, 3)),
                yaw=float(rng.uniform(-1.2, 1.2)),
            ))
            for _ in range(int(rng.integers(1, 4)))
        ]
        _, grads = loss_and_gradients(params, dataset)
        analytic = np.concatenate(
            [grads["w1"].ravel(), grads["b1"], grads["w2"].ravel(), grads["b2"]]
        )
        numeric = oracles.central_difference_gradient(
            lambda flat: mean_loss(with_flat_params(params, flat), dataset),
            flatten_params(params), step=1e-6,
        )
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        max_rel = max(max_rel, float(rel.max()))
    grad_ok = max_rel < 1e-4

    zero = zero_params(8, CLASSES, hidden=16, priors=PRIORS)
    prior_ok = True
    for cls in CLASSES:
        raster = rasterize_bev(rng.uniform(-4, 4, (5, 2)), cls, 8, 4.0, CLASSES)
        reg = forward(zero, raster)
        prior_ok = prior_ok and reg.size == PRIORS[cls] and reg.shift == (0, 0, 0)

    raster = rasterize_bev(rng.uniform(-4, 4, (8, 2)), "car", 8, 4.0, CLASSES)
    target = BoxRegression((0.4, -0.3, 0.6), (1.2, 3.1, 1.9), 0.5)
    dataset = [(raster, target)]
    initial = mean_loss(init_params(8, CLASSES, hidden=16, priors=PRIORS, seed=0),
                        dataset)
    hyper = TrainConfig(hidden=16, learning_rate=0.003, epochs=500, patience=50,
                        seed=0)
    fitted = train(dataset, hyper, priors=PRIORS)
    final = mean_loss(fitted, dataset)
    overfit_ok = final < 0.05 * initial

    h2 = TrainConfig(hidden=8, learning_rate=0.01, epochs=60, patience=10, seed=3)
    data2 = [(random_raster(8), BoxRegression(
        tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.5, 4, 3)), 0.1))
        for _ in range(5)]
    seed_ok = np.array_equal(
        flatten_params(train(data2, h2, priors=PRIORS)),
        flatten_params(train(data2, h2, priors=PRIORS)),
    )
    elapsed = time.perf_counter() - start
    ok = grad_ok and prior_ok and overfit_ok and seed_ok and elapsed < 60.0
    print(f"  grad rel err {max_rel:.2e}, priors-exact={prior_ok}, "
          f"overfit {final / initial:.3f} of initial, seed-reproducible={seed_ok}, "
          f"{elapsed:.1f}s")
    report(7, "regressor gradients/priors/overfit/determinism", ok)


def test_criterion_08_end_to_end_determinism(mini_dataset, tmp_path):
    run_bytes = []
    plot_bytes = []
    for name in ("first", "second"):
        out = tmp_path / name
        config = PipelineConfig(data_root=mini_dataset.root, out_dir=out)
        run_dataset(mini_dataset.frame_ids, config)
        run_bytes.append(
            {f: (out / f"{f}.txt").read_bytes() for f in mini_dataset.frame_ids}
        )
        inputs = load_frame_inputs(mini_dataset.root, "000000", config)
        cam = lidar_to_camera(inputs.cloud, inputs.calib)
        gt = [r.box for r in inputs.labels if not r.dontcare and r.box is not None]
        preds = [r.box for r in parse_labels((out / "000000.txt").read_text())
                 if r.box is not None]
        plot_bytes.append(bev_scene_svg(cam.points[:, [0, 2]], gt, preds).encode())
    deterministic = run_bytes[0] == run_bytes[1] and plot_bytes[0] == plot_bytes[1]

    planted = next(
        obj for obj in mini_dataset.frames[0].objects if obj.class_name == "pedestrian"
    )
    cluster = planted.mid_center
    results = parse_labels(
        (tmp_path / "first" / "000000.txt").read_text()
    )
    peds = [r.box for r in results if r.class_name == "pedestrian"]
    one_ped = len(peds) == 1
    config = PipelineConfig(data_root=mini_dataset.root)
    tol = config.bin_width / 2 + 0.0  # prior params: regressed depth shift is 0
    centered = (
        one_ped
        and abs(peds[0].center[0] - cluster[0]) <= tol + 1e-3
        and abs(peds[0].center[2] - cluster[2]) <= tol + 1e-3
    )
    ok = deterministic and one_ped and centered
    print(f"  byte-identical={deterministic}, one pedestrian={one_ped}, "
          f"BEV-centered within {tol:.3f} m={centered}")
    report(8, "end-to-end determinism + planted pedestrian", ok)


def test_criterion_09_self_evaluation(mini_dataset):
    config = PipelineConfig(data_root=mini_dataset.root)
    gt_by_frame = {}
    for frame_id in mini_dataset.frame_ids:
        inputs = load_frame_inputs(mini_dataset.root, frame_id, config)
        gt_by_frame[frame_id] = [
            r.box for r in inputs.labels if not r.dontcare and r.box is not None
        ]
    far = faraway_filter(config.thresholds)
    self_report = evaluate_boxes(gt_by_frame, gt_by_frame, 0.1, faraway=far)
    perfect = all(
        ev.aiou == pytest.approx(1.0, abs=1e-12)
        and ev.ap_bev == pytest.approx(100.0, abs=1e-12)
        and ev.ap_3d == pytest.approx(100.0, abs=1e-12)
        for ev in self_report.per_class.values()
    ) and set(self_report.per_class) == {"pedestrian", "car"}
    empty = evaluate_boxes(
        gt_by_frame, {f: [] for f in gt_by_frame}, 0.1, faraway=far
    )
    all_zero = all(
        ev.aiou == 0.0 and ev.ap_bev == 0.0 and ev.ap_3d == 0.0
        for ev in empty.per_class.values()
    )
    ok = perfect and all_zero
    print(f"  self-eval perfect={perfect}, empty-results zero={all_zero}")
    report(9, "self-evaluation sanity", ok)


def test_criterion_10_stats(mini_dataset, capsys):
    config = PipelineConfig(data_root=mini_dataset.root)
    labels, clouds, calibs = {}, {}, {}
    for frame_id in mini_dataset.frame_ids:
        inputs = load_frame_inputs(mini_dataset.root, frame_id, config)
        labels[frame_id] = inputs.labels
        clouds[frame_id] = inputs.cloud
        calibs[frame_id] = inputs.calib
    stats = points_per_object_stats(labels, clouds, calibs)
    by_key = {(s.frame_id, s.class_name, round(s.depth, 2)): s.count for s in stats}
    counts_exact = True
    for spec in mini_dataset.frames:
        for obj in spec.objects:
            key = (spec.frame_id, obj.class_name, round(obj.location[2], 2))
            if by_key.get(key) != obj.n_points:
                counts_exact = False

    from farfrustum.cli import main

    code = main(["stats", f"data_root={mini_dataset.root}"])
    out = capsys.readouterr().out
    rows_consistent = code == 0
    for s in stats:
        line = f"{s.frame_id:<10} {s.class_name:<12} {s.depth:>8.2f} {s.count:>7}"
        if line not in out:
            rows_consistent = False
    ok = counts_exact and rows_consistent
    print(f"  planted counts exact={counts_exact}, CLI rows consistent={rows_consistent}")
    report(10, "points-per-object stats", ok)
