import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from farfrustum.errors import EmptyDataset, FarFrustumError, ShapeError, UnknownClass
from farfrustum import regressor
from farfrustum.kitti_io import parse_labels, wrap_angle, wrap_angles
from farfrustum.pipeline import PipelineConfig
from farfrustum.regressor import (
    MAX_HIDDEN,
    MAX_RASTER_GRID,
    BoxRegression,
    TrainConfig,
    build_training_set,
    bbox_iou_2d,
    compute_size_priors,
    flatten_params,
    forward,
    forward_rasters,
    frustum_chain,
    frustum_points,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    mean_loss,
    rasterize_bev,
    save_checkpoint,
    train,
    with_flat_params,
    zero_params,
)
import oracles

CLASSES = ("pedestrian", "car")
PRIORS = {"pedestrian": (0.66, 0.84, 1.76), "car": (1.63, 3.88, 1.53)}


def random_raster(rng, grid_size=8, extent=4.0, cls="car"):
    pts = rng.uniform(-extent, extent, size=(int(rng.integers(1, 15)), 2))
    return rasterize_bev(pts, cls, grid_size, extent, CLASSES)


def random_target(rng):
    return BoxRegression(
        shift=tuple(rng.uniform(-1, 1, 3)),
        size=tuple(rng.uniform(0.5, 4.0, 3)),
        yaw=float(rng.uniform(-1.2, 1.2)),
    )


class TestRasterize:
    def test_origin_point_center_cell_odd_grid(self):
        raster = rasterize_bev(np.array([[0.0, 0.0]]), "car", 7, 4.0, CLASSES)
        grid = raster.grid
        assert grid[3, 3] == 1
        assert grid.sum() == 1

    def test_out_of_extent_dropped(self):
        raster = rasterize_bev(np.array([[5.0, 0.0]]), "car", 8, 4.0, CLASSES)
        assert raster.grid.sum() == 0

    def test_unknown_class(self):
        with pytest.raises(UnknownClass):
            rasterize_bev(np.zeros((0, 2)), "tram", 8, 4.0, CLASSES)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.uniform(-5, 5, size=(100, 2))
            raster = rasterize_bev(pts, "car", 16, 4.0, CLASSES)
            want = oracles.rasterize_by_scan(pts.tolist(), 16, 4.0)
            np.testing.assert_array_equal(raster.grid, want)

    @pytest.mark.parametrize("extent", [0.0, -1.0, math.nan])
    def test_bad_extent_is_a_shape_error(self, extent):
        with pytest.raises(ShapeError, match="extent"):
            rasterize_bev(np.zeros((0, 2)), "car", 4, extent, CLASSES)

    def test_feature_vector_layout(self):
        raster = rasterize_bev(np.array([[0.0, 0.0]]), "pedestrian", 4, 4.0, CLASSES)
        feat = raster.feature_vector()
        assert feat.shape == (4 * 4 + 2,)
        np.testing.assert_array_equal(feat[-2:], [1.0, 0.0])


class TestPriorRegress:
    """The size-prior baseline: forward on zero weights."""

    def test_constant_output(self):
        rng = np.random.default_rng(5)
        params = zero_params(8, CLASSES, priors=PRIORS)
        reg = forward(params, random_raster(rng, cls="car"))
        assert reg.shift == (0.0, 0.0, 0.0)
        assert reg.size == PRIORS["car"]
        assert reg.yaw == 0.0

    def test_empty_raster_still_valid(self):
        raster = rasterize_bev(np.zeros((0, 2)), "pedestrian", 8, 4.0, CLASSES)
        reg = forward(zero_params(8, CLASSES, priors=PRIORS), raster)
        assert reg.size == PRIORS["pedestrian"]

    def test_missing_prior(self):
        with pytest.raises(UnknownClass, match="'car'"):
            zero_params(8, CLASSES, priors={"pedestrian": (1, 1, 1)})

    def test_priors_from_labels_mean(self):
        lines = "\n".join(
            [
                "Pedestrian 0 0 0.0 10 20 30 40 1.8 0.6 0.8 0.0 1.7 65.0 0.0",
                "Pedestrian 0 0 0.0 10 20 30 40 1.6 0.8 1.0 0.0 1.7 61.0 0.0",
                "Car 0 0 0.0 10 20 30 40 1.5 1.6 3.9 0.0 1.7 30.0 0.0",
            ]
        )
        priors = compute_size_priors(parse_labels(lines))
        assert priors["pedestrian"] == pytest.approx((0.7, 0.9, 1.7))
        assert priors["car"] == pytest.approx((1.6, 3.9, 1.5))


class TestForward:
    def test_zero_weights_return_priors_exactly(self):
        params = zero_params(8, CLASSES, hidden=16, priors=PRIORS)
        rng = np.random.default_rng(7)
        for cls in CLASSES:
            reg = forward(params, random_raster(rng, cls=cls))
            assert reg.shift == (0.0, 0.0, 0.0)
            assert reg.size == PRIORS[cls]
            assert reg.yaw == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        params = init_params(8, CLASSES, hidden=16, priors=PRIORS, seed=4)
        raster = random_raster(rng)
        a = forward(params, raster)
        b = forward(params, raster)
        assert a == b

    def test_shape_mismatch(self):
        params = zero_params(8, CLASSES, hidden=16, priors=PRIORS)
        rng = np.random.default_rng(13)
        with pytest.raises(ShapeError):
            forward(params, random_raster(rng, grid_size=16))

    def test_extent_mismatch(self):
        params = zero_params(8, CLASSES, hidden=16, priors=PRIORS, extent=4.0)
        rng = np.random.default_rng(13)
        forward(params, random_raster(rng, extent=4.0))
        with pytest.raises(ShapeError, match="extent"):
            forward(params, random_raster(rng, extent=6.0))

    def test_sizes_positive_under_random_weights(self):
        rng = np.random.default_rng(17)
        params = init_params(8, CLASSES, hidden=16, priors=PRIORS, seed=9)
        for _ in range(20):
            reg = forward(params, random_raster(rng))
            assert all(s > 0 for s in reg.size)


def _forward_one_row(params, raster):
    """The per-raster reference: one (1, D) product, shift, size and yaw."""
    x = raster.feature_vector()[None, :]
    raw = (np.tanh(x @ params.w1.T + params.b1) @ params.w2.T + params.b2)[0]
    prior = params.priors[params.classes.index(raster.class_name)]
    with np.errstate(over="ignore"):
        size = prior * np.exp(raw[3:6])
    return raw[:3], size, wrap_angle(float(raw[6]))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       hidden=st.sampled_from([1, 7, 64]), scale=st.sampled_from([0.01, 1.0, 40.0]))
@settings(max_examples=40, deadline=None)
def test_forward_rasters_equal_per_row_forward_bit_for_bit(seed, n, hidden, scale):
    rng = np.random.default_rng(seed)
    params = init_params(32, CLASSES, hidden=hidden, priors=PRIORS, seed=seed % 997)
    params.w1 *= scale
    params.b1 = rng.normal(0.0, scale, hidden)
    params.w2 = rng.normal(0.0, scale, params.w2.shape)
    params.b2 = rng.normal(0.0, scale, 7)
    rasters = [random_raster(rng, grid_size=32, cls=str(rng.choice(CLASSES)))
               for _ in range(n)]
    batched = forward_rasters(params, rasters)
    assert len(batched) == n
    for raster, reg in zip(rasters, batched):
        shift, size, yaw = _forward_one_row(params, raster)
        assert np.array(reg.shift).tobytes() == shift.tobytes()
        assert np.array(reg.size).tobytes() == size.tobytes()
        assert reg.yaw == yaw
        assert forward(params, raster) == reg


class TestTranslationConsistency:
    def test_shifted_frustum_cloud_gives_identical_raster_and_output(self):
        # absolute position never reaches the network: frustum_chain rasters
        # the points relative to their centroid, so shifting the whole cloud
        # leaves the grid (and hence the output) bit-identical
        from farfrustum.geometry import project_cloud
        from farfrustum.kitti_io import CalibrationSet, Detection2D, Frame, PointCloud

        calib = CalibrationSet(
            P2=np.array([[700.0, 0, 600, 0], [0, 700.0, 180, 0], [0, 0, 1, 0]]),
            R0_rect=np.eye(3),
            Tr_velo_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))]),
        )
        # centered on the principal point: the frustum rotation is the identity
        det = Detection2D("t", "pedestrian", 0.9, (0.0, 0.0, 1200.0, 360.0),
                          image_size=(1242, 375))
        config = PipelineConfig(frustum_mode="box", raster_grid=8, raster_extent=4.0,
                                bin_width=0.1, classes=CLASSES)
        rng = np.random.default_rng(61)
        params = init_params(8, CLASSES, hidden=8, priors=PRIORS, seed=2)
        for _ in range(10):
            pts = rng.uniform(-0.5, 0.5, size=(12, 3)) + np.array([2.0, 0.8, 65.0])
            offset = rng.uniform(-8, 8, size=3)

            def raster_of(points):
                projection = project_cloud(PointCloud(points, Frame.LIDAR), calib)
                frustum = frustum_points(projection, det, config)
                batch = frustum_chain([frustum], [det], calib, config)
                assert batch.routes == [regressor.Route.FARAWAY]
                raster = batch.rasters[0]
                assert batch.theta[0] == 0.0 and raster.grid.sum() == len(points)
                return raster

            base = raster_of(pts)
            shifted = raster_of(pts + offset)
            np.testing.assert_array_equal(base.grid, shifted.grid)
            assert forward(params, base) == forward(params, shifted)


def mae_loss(pred: BoxRegression, target: BoxRegression) -> float:
    """The training loss of one sample on a network whose output is `pred`.

    Zero weights leave the output bias as the raw output; a zero raw size
    times a prior equal to pred's size gives pred's size exactly.
    """
    params = zero_params(1, ("car",), hidden=1, priors={"car": pred.size}, extent=1.0)
    params.b2 = np.array([*pred.shift, 0.0, 0.0, 0.0, pred.yaw])
    raster = rasterize_bev(np.zeros((0, 2)), "car", 1, 1.0, ("car",))
    return mean_loss(params, [(raster, target)])


class TestMaeLoss:
    def test_zero_when_equal(self):
        reg = BoxRegression((1, 2, 3), (1, 2, 3), 0.5)
        assert mae_loss(reg, reg) == 0.0

    def test_unit_shift_difference(self):
        a = BoxRegression((1, 0, 0), (1, 1, 1), 0.0)
        b = BoxRegression((2, 0, 0), (1, 1, 1), 0.0)
        assert mae_loss(a, b) == pytest.approx(1.0)

    def test_yaw_wrap(self):
        a = BoxRegression((0, 0, 0), (1, 1, 1), math.pi - 0.1)
        b = BoxRegression((0, 0, 0), (1, 1, 1), -math.pi + 0.1)
        assert mae_loss(a, b) == pytest.approx(0.2)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            a, b = random_target(rng), random_target(rng)
            total = mae_loss(a, b)
            assert total >= 0.0
            if total == 0.0:
                assert a == b


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(23)
        for draw in range(20):
            params = init_params(6, CLASSES, hidden=5, priors=PRIORS, seed=draw)
            dataset = [
                (random_raster(rng, grid_size=6), random_target(rng))
                for _ in range(int(rng.integers(1, 4)))
            ]
            _, grads = loss_and_gradients(params, dataset)
            analytic = np.concatenate(
                [grads["w1"].ravel(), grads["b1"], grads["w2"].ravel(), grads["b2"]]
            )

            def loss_at(flat):
                return mean_loss(with_flat_params(params, flat), dataset)

            numeric = oracles.central_difference_gradient(
                loss_at, flatten_params(params), step=1e-6
            )
            rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
            assert rel.max() < 1e-4


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(29)
        dataset = [(random_raster(rng), random_target(rng)) for _ in range(3)]
        hyper = TrainConfig(hidden=8, learning_rate=0.0, epochs=2, patience=5, seed=1)
        params = train(dataset, hyper, priors=PRIORS)
        fresh = init_params(8, CLASSES, hidden=8, priors=PRIORS, seed=1)
        np.testing.assert_array_equal(flatten_params(params), flatten_params(fresh))

    def test_overfits_single_sample(self):
        rng = np.random.default_rng(31)
        raster = random_raster(rng)
        target = BoxRegression((0.4, -0.3, 0.6), (1.2, 3.1, 1.9), 0.5)
        dataset = [(raster, target)]
        hyper = TrainConfig(hidden=16, learning_rate=0.003, epochs=500,
                            patience=50, seed=0)
        initial = mean_loss(
            init_params(8, CLASSES, hidden=16, priors=PRIORS, seed=0), dataset
        )
        params = train(dataset, hyper, priors=PRIORS)
        final = mean_loss(params, dataset)
        assert final < 0.05 * initial

    def test_seed_reproducibility_bit_identical(self):
        rng = np.random.default_rng(37)
        dataset = [(random_raster(rng), random_target(rng)) for _ in range(6)]
        hyper = TrainConfig(hidden=8, learning_rate=0.01, epochs=40, patience=10, seed=3)
        a = train(dataset, hyper, priors=PRIORS)
        b = train(dataset, hyper, priors=PRIORS)
        assert np.array_equal(flatten_params(a), flatten_params(b))
        assert np.array_equal(a.priors, b.priors)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train([], TrainConfig())

    def test_bounds_are_inclusive(self):
        # a config holds no weights, so the widest layer costs nothing to build
        TrainConfig(hidden=MAX_HIDDEN, learning_rate=0.0, epochs=1, patience=0, seed=0)
        TrainConfig(hidden=1)
        TrainConfig(epochs=150, patience=150, seed=0)  # the benchmark's train_mask job

    def test_params_take_the_rasters_layout(self):
        rng = np.random.default_rng(41)
        dataset = [(random_raster(rng, grid_size=5, extent=6.0), random_target(rng))]
        params = train(dataset, TrainConfig(hidden=4, epochs=2), priors=PRIORS)
        assert (params.classes, params.grid_size, params.extent) == (CLASSES, 5, 6.0)


def reference_train(dataset, hyper, priors):
    """train() as it ran before its matrices were built once per call: every
    epoch converts each sample, wraps each yaw error in Python and updates
    Adam out of place. Its parameters are the ones train() must return."""
    raster0 = dataset[0][0]
    params = init_params(raster0.grid_size, raster0.classes, hyper.hidden, priors,
                         hyper.seed, raster0.extent)

    def loss(params, samples):
        x = np.array([raster.feature_vector() for raster, _ in samples])
        targets = np.array([target.as_vector() for _, target in samples])
        prior = np.array([params.priors[params.classes.index(raster.class_name)]
                          for raster, _ in samples])
        hidden = np.tanh(x @ params.w1.T + params.b1)
        raw = hidden @ params.w2.T + params.b2
        pred = raw.copy()
        pred[:, 3:6] = prior * np.exp(raw[:, 3:6])
        diff = pred - targets
        diff[:, 6] = np.array([wrap_angle(d) for d in diff[:, 6]])
        return float(np.abs(diff).sum(axis=1).mean()), diff, hidden, pred, x

    def gradients(params, samples):
        _, diff, hidden, pred, x = loss(params, samples)
        d_raw = np.sign(diff) / x.shape[0]
        d_raw[:, 3:6] *= pred[:, 3:6]
        d_pre = (d_raw @ params.w2) * (1.0 - hidden**2)
        return {"w1": d_pre.T @ x, "b1": d_pre.sum(axis=0),
                "w2": d_raw.T @ hidden, "b2": d_raw.sum(axis=0)}

    order = np.random.default_rng(hyper.seed).permutation(len(dataset))
    n_val = int(len(dataset) * 0.1) if len(dataset) >= 5 else 0
    train_set = [dataset[i] for i in order[n_val:]]
    val_set = [dataset[i] for i in order[:n_val]]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    moment1 = {k: np.zeros_like(getattr(params, k)) for k in ("w1", "b1", "w2", "b2")}
    moment2 = {k: np.zeros_like(v) for k, v in moment1.items()}
    best, best_loss, stale = params.copy(), math.inf, 0
    for step in range(1, hyper.epochs + 1):
        for key, grad in gradients(params, train_set).items():
            moment1[key] = beta1 * moment1[key] + (1.0 - beta1) * grad
            moment2[key] = beta2 * moment2[key] + (1.0 - beta2) * grad**2
            m_hat = moment1[key] / (1.0 - beta1**step)
            v_hat = moment2[key] / (1.0 - beta2**step)
            setattr(params, key, getattr(params, key)
                    - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + eps))
        monitored = loss(params, val_set or train_set)[0]
        if monitored < best_loss:
            best, best_loss, stale = params.copy(), monitored, 0
        else:
            stale += 1
            if stale > hyper.patience:
                break
    return best


def two_class_samples(rng, n):
    """n samples alternating the two classes, yaw targets anywhere on the circle."""
    return [
        (random_raster(rng, cls=CLASSES[i % 2]),
         BoxRegression(tuple(rng.uniform(-1, 1, 3)), tuple(rng.uniform(0.5, 4.0, 3)),
                       float(rng.uniform(-math.pi, math.pi))))
        for i in range(n)
    ]


class TestTrainMatchesReference:
    @pytest.mark.parametrize("n, epochs, patience", [
        (12, 60, 60),   # one validation sample monitored
        (23, 80, 3),    # two validation samples, early stop
        (3, 60, 60),    # under five samples: the training set is monitored
        (4, 80, 2),
    ])
    def test_parameters_bit_identical(self, n, epochs, patience):
        rng = np.random.default_rng(43 + n)
        dataset = two_class_samples(rng, n)
        hyper = TrainConfig(hidden=8, learning_rate=0.02, epochs=epochs,
                            patience=patience, seed=n)
        got = train(dataset, hyper, priors=PRIORS)
        want = reference_train(dataset, hyper, PRIORS)
        assert np.array_equal(flatten_params(got), flatten_params(want))
        assert np.array_equal(got.priors, want.priors)

    def test_each_sample_converted_once_per_call(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in [(regressor, "loss_and_gradients"), (regressor, "mean_loss"),
                            (regressor, "_check_layout"), (regressor.BevRaster, "feature_vector")]:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        dataset = two_class_samples(np.random.default_rng(47), 12)
        train(dataset, TrainConfig(hidden=4, epochs=7, patience=7), priors=PRIORS)
        assert calls == {"loss_and_gradients": 7, "mean_loss": 7,
                         "_check_layout": 12, "feature_vector": 12}


def _wrap_edges():
    """0, -0.0, multiples of pi and 2*pi, and one ulp either side of each."""
    edges = [0.0, -0.0]
    for k in range(-6, 7):
        for v in (k * math.pi, k * 2.0 * math.pi):
            edges += [v, np.nextafter(v, -math.inf), np.nextafter(v, math.inf)]
    return [float(v) for v in edges]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_wrap_edges()),
                          st.floats(-40.0, 40.0),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=40))
def test_wrap_angles_is_wrap_angle_bit_for_bit(values):
    angles = np.array(values)
    want = np.array([wrap_angle(a) for a in angles])
    assert wrap_angles(angles).tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = init_params(8, CLASSES, hidden=8, priors=PRIORS, seed=5, extent=6.5)
        path = tmp_path / "reg.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path, CLASSES)
        assert back.grid_size == 8
        assert back.classes == CLASSES
        assert back.extent == 6.5
        np.testing.assert_array_equal(flatten_params(back), flatten_params(params))
        np.testing.assert_array_equal(back.priors, params.priors)

    def test_header_layout(self, tmp_path):
        params = zero_params(4, CLASSES, hidden=3, priors=PRIORS, extent=6.5)
        path = tmp_path / "reg.ckpt"
        save_checkpoint(params, path)
        data = path.read_bytes()
        names = b"pedestrian\ncar"
        header = np.frombuffer(data, dtype="<i8", count=6)
        assert header.tolist() == [4, 2, 3, 7, 2, len(names)]
        assert np.frombuffer(data, dtype="<f8", count=1, offset=48).tolist() == [6.5]
        assert data[56 : 56 + len(names)] == names
        body = np.frombuffer(data, dtype="<f8", offset=56 + len(names))
        np.testing.assert_array_equal(
            body, np.concatenate([flatten_params(params), params.priors.ravel()])
        )

    def test_class_count_mismatch(self, tmp_path):
        params = zero_params(4, CLASSES, hidden=3, priors=PRIORS)
        path = tmp_path / "reg.ckpt"
        save_checkpoint(params, path)
        with pytest.raises(ShapeError, match=re.escape(str(path))):
            load_checkpoint(path, ("pedestrian",))

    def test_class_order_mismatch(self, tmp_path):
        path = tmp_path / "reg.ckpt"
        save_checkpoint(zero_params(4, CLASSES, hidden=3, priors=PRIORS), path)
        assert load_checkpoint(path).classes == CLASSES
        with pytest.raises(ShapeError, match=re.escape(str(path))):
            load_checkpoint(path, ("car", "pedestrian"))

    def test_version_1_refused(self, tmp_path):
        # v1: five int64 (G, n_classes, hidden, 7, 1), then the reals
        path = tmp_path / "v1.ckpt"
        n_reals = 3 * (4 * 4 + 2) + 3 + 7 * 3 + 7 + 2 * 3
        path.write_bytes(np.array([4, 2, 3, 7, 1], "<i8").tobytes() + bytes(8 * n_reals))
        with pytest.raises(ShapeError, match=re.escape(str(path)) + ".*version 1"):
            load_checkpoint(path, CLASSES)

    @pytest.mark.parametrize("slot, value", [(0, -4), (3, 6)])  # G=-4 fits G=4's body
    def test_bad_header_refused(self, tmp_path, slot, value):
        path = tmp_path / "reg.ckpt"
        save_checkpoint(zero_params(4, CLASSES, hidden=3, priors=PRIORS), path)
        data = bytearray(path.read_bytes())
        data[8 * slot : 8 * slot + 8] = np.array([value], "<i8").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(ShapeError, match=re.escape(str(path)) + ".*bad header"):
            load_checkpoint(path)

    def test_raster_grid_past_the_bound_refused(self, tmp_path):
        path = tmp_path / "reg.ckpt"
        save_checkpoint(zero_params(MAX_RASTER_GRID, CLASSES, hidden=1, priors=PRIORS), path)
        assert load_checkpoint(path).grid_size == MAX_RASTER_GRID
        save_checkpoint(zero_params(MAX_RASTER_GRID + 1, CLASSES, hidden=1, priors=PRIORS), path)
        with pytest.raises(ShapeError, match=re.escape(str(path)) + ".*bad header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("where", ["w2", "prior"])
    def test_weight_beyond_the_magnitude_bound_refused(self, tmp_path, where):
        params = zero_params(4, CLASSES, hidden=3, priors=PRIORS)
        params.b1[:] = 1.0
        if where == "w2":
            params.w2[2, :] = 1e307  # the product with tanh(1) would overflow
        else:
            params.priors[1, 0] = math.nextafter(regressor.MAX_WEIGHT_MAGNITUDE, math.inf)
        path = tmp_path / "reg.ckpt"
        save_checkpoint(params, path)
        with pytest.raises(ShapeError, match=re.escape(str(path)) + ".*beyond 1e\\+100"):
            load_checkpoint(path)

    def test_weights_at_the_magnitude_bound_forward_finitely(self, tmp_path):
        bound = regressor.MAX_WEIGHT_MAGNITUDE
        params = zero_params(4, CLASSES, hidden=3, priors=PRIORS)
        for array in (params.w1, params.b1, params.w2, params.b2):
            array[...] = bound
        path = tmp_path / "reg.ckpt"
        save_checkpoint(params, path)
        raster = rasterize_bev(np.zeros((50, 2)), "car", 4, 4.0, CLASSES)
        with np.errstate(all="raise"):  # forward lets only its size exp overflow
            reg = forward(load_checkpoint(path), raster)
        assert np.isfinite(reg.shift).all() and math.isfinite(reg.yaw)

    def test_undecodable_names_refused(self, tmp_path):
        path = tmp_path / "reg.ckpt"
        save_checkpoint(zero_params(4, CLASSES, hidden=3, priors=PRIORS), path)
        data = bytearray(path.read_bytes())
        data[56] = 0xFF  # first byte of the class names
        path.write_bytes(bytes(data))
        with pytest.raises(ShapeError, match=re.escape(str(path))):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [13, 40 + 3, -3, -8])
    def test_truncated_checkpoint_names_the_path(self, tmp_path, cut):
        params = zero_params(4, CLASSES, hidden=3, priors=PRIORS)
        path = tmp_path / "reg.ckpt"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:cut])
        with pytest.raises(ShapeError, match=re.escape(str(path))):
            load_checkpoint(path, CLASSES)


_NAMES = st.lists(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"),
            min_size=1, max_size=4),
    min_size=1, max_size=3, unique=True,
)


@settings(max_examples=200, deadline=None)
@given(
    names=_NAMES,
    grid=st.integers(1, 3),
    extent=st.one_of(st.floats(0.5, 8.0), st.floats()),
    edit=st.sampled_from(["none", "truncate", "mutate", "extend", "header_int"]),
    where=st.integers(0, 10_000),
    value=st.one_of(st.integers(-4, 300), st.integers(-(2**63), 2**63 - 1)),
    expect=st.booleans(),
)
def test_checkpoint_fuzz_raises_only_package_errors(
    names, grid, extent, edit, where, value, expect
):
    """Truncated, mutated and extended checkpoints, non-ASCII class names,
    wrong name lengths and bad extents fail with a package error only."""
    params = zero_params(grid, tuple(names), hidden=2,
                         priors={n: (1.0, 2.0, 3.0) for n in names}, extent=extent)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reg.ckpt"
        save_checkpoint(params, path)
        data = bytearray(path.read_bytes())
        at = where % len(data)
        if edit == "truncate":
            del data[at:]
        elif edit == "mutate":
            data[at] = value & 0xFF
        elif edit == "extend":
            data += value.to_bytes(8, "little", signed=True)[: 1 + where % 8]
        elif edit == "header_int":  # G, n_classes, hidden, 7, version or name bytes
            slot = 8 * (where % 6)
            data[slot : slot + 8] = value.to_bytes(8, "little", signed=True)
        path.write_bytes(bytes(data))
        try:
            back = load_checkpoint(path, tuple(names) if expect else None)
        except FarFrustumError:
            assert edit != "none" or not 0 < extent < math.inf
        else:  # a loaded layout is one the raster accepts
            rasterize_bev(np.zeros((0, 2)), back.classes[0], back.grid_size,
                          back.extent, back.classes)
            if edit == "none":
                assert (back.classes, back.extent) == (tuple(names), extent)


def test_bbox_iou_2d_basics():
    a = (0.0, 0.0, 10.0, 10.0)
    assert bbox_iou_2d(a, a) == pytest.approx(1.0)
    assert bbox_iou_2d(a, (20.0, 20.0, 30.0, 30.0)) == 0.0
    assert bbox_iou_2d(a, (5.0, 0.0, 15.0, 10.0)) == pytest.approx(1.0 / 3.0)


class TestBuildTrainingSet:
    def _config(self, root):
        return PipelineConfig(data_root=root, frustum_mode="box",
                              raster_grid=16, raster_extent=4.0)

    def test_fixture_targets(self, mini_dataset):
        from farfrustum.pipeline import load_frame_inputs

        config = self._config(mini_dataset.root)
        clouds, dets, labels, calibs = {}, {}, {}, {}
        for frame_id in mini_dataset.frame_ids:
            inputs = load_frame_inputs(mini_dataset.root, frame_id, config)
            clouds[frame_id] = inputs.cloud
            dets[frame_id] = inputs.detections
            labels[frame_id] = inputs.labels
            calibs[frame_id] = inputs.calib
        samples, skipped = build_training_set(clouds, dets, labels, calibs, config)
        # every detected object matches its own label; the undetected car in
        # frame 000002 is the only skip
        n_detected = sum(
            1 for spec in mini_dataset.frames for obj in spec.objects
            if obj.det_score is not None
        )
        assert len(samples) == n_detected == 10
        assert skipped == 1
        for raster, target in samples:
            assert raster.grid.sum() > 0
            assert np.linalg.norm(target.shift) < 1.5

    def test_target_yaw_is_gt_minus_theta(self, mini_dataset):
        from farfrustum.geometry import (
            frustum_rotation, points_in_box_frustum, project_cloud,
        )
        from farfrustum.pipeline import load_frame_inputs

        config = self._config(mini_dataset.root)
        inputs = load_frame_inputs(mini_dataset.root, "000003", config)
        clouds = {"000003": inputs.cloud}
        dets = {"000003": inputs.detections}
        labels = {"000003": inputs.labels}
        calibs = {"000003": inputs.calib}
        samples, _ = build_training_set(clouds, dets, labels, calibs, config)
        far_det = max(inputs.detections, key=lambda d: d.score)
        frustum = points_in_box_frustum(project_cloud(inputs.cloud, inputs.calib), far_det)
        _, theta = frustum_rotation(frustum, far_det, inputs.calib)
        far_rec = next(
            rec for rec in inputs.labels
            if not rec.dontcare and rec.box is not None and rec.box.center[2] > 75
        )
        want = wrap_angle(far_rec.box.yaw - theta)
        yaws = [t.yaw for _, t in samples]
        assert any(abs(wrap_angle(y - want)) < 1e-9 for y in yaws)

    def test_constructed_depth_offset(self, simple_calib):
        # single GT whose center sits 0.5 m deeper than the planted cluster
        from farfrustum.kitti_io import Detection2D, Frame, PointCloud, Box3D, LabelRecord
        from farfrustum.geometry import project_to_image
        from farfrustum.synth import camera_to_lidar_points

        center = np.array([0.0, 1.0, 80.0])
        cluster = center + np.array([0.0, -0.75, 0.0])  # mid height
        pts_cam = cluster + np.random.default_rng(0).uniform(-0.02, 0.02, (12, 3))
        cloud = PointCloud(camera_to_lidar_points(pts_cam, simple_calib), Frame.LIDAR)
        uv, _ = project_to_image(PointCloud(pts_cam, Frame.CAMERA), simple_calib)
        bbox = (uv[:, 0].min() - 2, uv[:, 1].min() - 2,
                uv[:, 0].max() + 2, uv[:, 1].max() + 2)
        det = Detection2D("f", "car", 0.9, bbox, image_size=(1242, 375))
        gt_center = center + np.array([0.0, -0.75, 0.5])  # 0.5 m deeper
        box = Box3D(tuple(gt_center), 0.0, (1.6, 3.9, 1.5), "car")
        rec = LabelRecord("car", box, bbox, False)
        config = PipelineConfig(frustum_mode="box", raster_grid=16)
        samples, skipped = build_training_set(
            {"f": cloud}, {"f": [det]}, {"f": [rec]}, {"f": simple_calib}, config
        )
        assert skipped == 0
        (_, target), = samples
        # clustered centroid sits within half a bin of the cluster center,
        # so the depth target is 0.5 up to that quantization
        assert target.shift[2] == pytest.approx(0.5, abs=0.05 + 1e-9)
