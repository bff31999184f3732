import math
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from farfrustum import regressor
from farfrustum.cli import main
from farfrustum.kitti_io import Box3D
from farfrustum.evaluation import points_per_object_stats
from farfrustum.pipeline import PipelineConfig, load_frame_inputs
from farfrustum.plots import bev_scene_ppm, bev_scene_svg, stats_scatter_svg

from conftest import BAD_PGMS


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture()
def dataset_args(mini_dataset, tmp_path):
    out = tmp_path / "results"
    return mini_dataset, [
        "--frames", ",".join(mini_dataset.frame_ids),
        f"data_root={mini_dataset.root}", f"out={out}",
    ], out


class TestRun:
    def test_run_writes_result_files(self, dataset_args, capsys):
        mini_dataset, args, out = dataset_args
        assert run_cli("run", *args) == 0
        captured = capsys.readouterr().out
        assert "frames processed:        5" in captured
        files = sorted(out.glob("*.txt"))
        assert len(files) == 5

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli("run", "--config", tmp_path / "nope.txt")
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_unknown_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--no-such-flag")
        assert err.value.code == 2

    def test_malformed_override_is_usage_error(self, capsys):
        assert run_cli("run", "not_a_pair") == 2
        assert "key=value" in capsys.readouterr().err

    def test_unknown_config_key_is_runtime_error(self, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("no_such_key=1\n")
        assert run_cli("run", "--config", config) == 1
        assert "no_such_key" in capsys.readouterr().err

    def test_nan_faraway_threshold_is_runtime_error(self, dataset_args, capsys):
        _, args, out = dataset_args
        assert run_cli("run", *args, "threshold.car=nan") == 1
        assert "threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("image_width", "0"), ("image_width", "-5"), ("image_height", "0"),
        ("image_height", "100001"), ("raster_grid", "257"), ("raster_grid", "100000"),
    ])
    def test_image_size_or_raster_grid_out_of_range_is_runtime_error(
            self, dataset_args, capsys, key, value):
        _, args, out = dataset_args
        assert run_cli("run", "frustum_mode=box", *args, f"{key}={value}") == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_config_file(self, mini_dataset, tmp_path, capsys):
        config_path = tmp_path / "config.txt"
        config_path.write_text(
            f"data_root={mini_dataset.root}\nthreshold.pedestrian=60\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", config_path, f"out={out_a}") == 0
        # pedestrians planted at 61.5-69.5 m stop being faraway at 70 m
        assert run_cli(
            "run", "--config", config_path, f"out={out_b}",
            "threshold.pedestrian=70",
        ) == 0
        text_a = "".join((out_a / f).read_text() for f in ("000000.txt", "000004.txt"))
        text_b = "".join((out_b / f).read_text() for f in ("000000.txt", "000004.txt"))
        assert "Pedestrian" in text_a
        assert "Pedestrian" not in text_b

    def test_frames_file_list(self, mini_dataset, tmp_path, capsys):
        frames_file = mini_dataset.root / "frames.txt"
        out = tmp_path / "r"
        assert run_cli(
            "run", "--frames", frames_file,
            f"data_root={mini_dataset.root}", f"out={out}",
        ) == 0
        assert len(list(out.glob("*.txt"))) == 5


class TestEval:
    def test_self_evaluation_is_perfect(self, mini_dataset, tmp_path, capsys):
        # use the ground-truth labels as results
        results = tmp_path / "results"
        shutil.copytree(mini_dataset.root / "label_2", results)
        code = run_cli(
            "eval", "--results", results, "--faraway-only", "--machine",
            f"data_root={mini_dataset.root}",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "car,aiou,1.000000" in out
        assert "pedestrian,aiou,1.000000" in out
        assert "car,ap_bev,100.0000" in out
        assert "pedestrian,ap_bev,100.0000" in out

    def test_overrides_may_follow_options(self, mini_dataset, tmp_path, capsys):
        results = tmp_path / "results"
        shutil.copytree(mini_dataset.root / "label_2", results)
        outputs = []
        for argv in (
            ["eval", "--iou", "0.2", "threshold.car=70", "--faraway-only",
             "raster_grid=8", "--results", results, "--machine",
             f"data_root={mini_dataset.root}", "threshold.pedestrian=1000"],
            ["eval", "threshold.car=70", "raster_grid=8",
             f"data_root={mini_dataset.root}", "threshold.pedestrian=1000",
             "--iou", "0.2", "--faraway-only", "--results", results, "--machine"],
        ):
            assert run_cli(*argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # the last override, placed after the options, took effect
        assert "car,n_gt," in outputs[0]
        assert "pedestrian," not in outputs[0]

    @pytest.mark.parametrize("token", ["stray", "--no-such-flag", "--no-such=1"])
    def test_leftover_non_override_is_usage_error(self, mini_dataset, token, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("eval", f"data_root={mini_dataset.root}", "--faraway-only", token)
        assert err.value.code == 2
        assert token in capsys.readouterr().err

    def test_empty_results_scores_zero(self, mini_dataset, tmp_path, capsys):
        results = tmp_path / "empty"
        results.mkdir()
        code = run_cli(
            "eval", "--results", results, "--machine",
            f"data_root={mini_dataset.root}",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "car,aiou,0.000000" in out
        assert "car,ap_bev,0.0000" in out

    @pytest.mark.parametrize("iou", ["0", "-0.1", "1.5", "nan", "inf"])
    def test_iou_outside_unit_interval_is_usage_error(self, mini_dataset, iou, capsys):
        assert run_cli("eval", "--iou", iou, f"data_root={mini_dataset.root}") == 2
        assert "--iou" in capsys.readouterr().err

    def test_missing_label_dir(self, tmp_path, capsys):
        (tmp_path / "velodyne").mkdir()
        code = run_cli("eval", "--frames", "000000", f"data_root={tmp_path}")
        assert code == 1
        assert "label" in capsys.readouterr().err

    def test_iou_threshold_flag_flips_marginal_prediction(
        self, mini_dataset, tmp_path, capsys
    ):
        from farfrustum.kitti_io import parse_labels, write_results
        from farfrustum.synth import default_calibration

        calib = default_calibration()
        labels = parse_labels(
            (mini_dataset.root / "label_2" / "000000.txt").read_text()
        )
        ped = next(r.box for r in labels if r.class_name == "pedestrian")
        # shift the prediction so BEV IoU lands strictly between 0.1 and 0.5
        shifted = Box3D(
            (ped.center[0] + 0.45, ped.center[1], ped.center[2]),
            ped.yaw, ped.size, ped.class_name, 0.9,
        )
        results = tmp_path / "r"
        results.mkdir()
        (results / "000000.txt").write_text(write_results([shifted], calib, (1242, 375)))
        outputs = {}
        for iou in ("0.1", "0.5"):
            code = run_cli(
                "eval", "--results", results, "--frames", "000000",
                "--faraway-only", "--iou", iou, "--machine",
                f"data_root={mini_dataset.root}",
            )
            assert code == 0
            outputs[iou] = capsys.readouterr().out
        assert "pedestrian,ap_bev,100.0000" in outputs["0.1"]
        assert "pedestrian,ap_bev,0.0000" in outputs["0.5"]


class TestStats:
    def test_rows_match_library_and_manifest(self, mini_dataset, tmp_path, capsys):
        svg_path = tmp_path / "scatter.svg"
        code = run_cli(
            "stats", f"data_root={mini_dataset.root}", "--out", svg_path
        )
        assert code == 0
        out = capsys.readouterr().out
        config = PipelineConfig(data_root=mini_dataset.root)
        labels, clouds, calibs = {}, {}, {}
        for frame_id in mini_dataset.frame_ids:
            inputs = load_frame_inputs(mini_dataset.root, frame_id, config)
            labels[frame_id] = inputs.labels
            clouds[frame_id] = inputs.cloud
            calibs[frame_id] = inputs.calib
        stats = points_per_object_stats(labels, clouds, calibs)
        for s in stats:
            pattern = rf"{s.frame_id}\s+{s.class_name}\s+{s.depth:.2f}\s+{s.count}"
            assert re.search(pattern, out), pattern
        assert svg_path.is_file()
        assert "<svg" in svg_path.read_text()

    def test_empty_labels_ok(self, tmp_path, capsys):
        (tmp_path / "label_2").mkdir()
        (tmp_path / "velodyne").mkdir()
        code = run_cli("stats", "--frames", "000000", f"data_root={tmp_path}")
        assert code == 0


class TestPlot:
    def test_svg_structure_and_determinism(self, mini_dataset, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            code = run_cli(
                "plot", "--frame", "000001", "--out", path,
                f"data_root={mini_dataset.root}",
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        n_boxes = sum(
            1 for spec in mini_dataset.frames if spec.frame_id == "000001"
            for _ in spec.objects
        )
        assert text.count("<rect") == n_boxes

    def test_rotation_transform_angle(self, tmp_path):
        box = Box3D((0.0, 1.0, 50.0), math.pi / 4, (2.0, 4.0, 1.5), "car")
        svg = bev_scene_svg(np.zeros((0, 2)), [box], [])
        match = re.search(r'rotate\((-?\d+\.\d+)', svg)
        assert match is not None
        assert abs(float(match.group(1)) - 45.0) < 1e-6

    def test_ppm_render(self, mini_dataset, tmp_path):
        svg = tmp_path / "x.svg"
        ppm = tmp_path / "x.ppm"
        code = run_cli(
            "plot", "--frame", "000000", "--out", svg, "--ppm", ppm,
            f"data_root={mini_dataset.root}",
        )
        assert code == 0
        data = ppm.read_bytes()
        assert data.startswith(b"P6\n")

    def test_missing_frame(self, mini_dataset, tmp_path, capsys):
        code = run_cli(
            "plot", "--frame", "777777", "--out", tmp_path / "x.svg",
            f"data_root={mini_dataset.root}",
        )
        assert code == 1
        assert "777777" in capsys.readouterr().err

    def test_predictions_overlaid(self, mini_dataset, tmp_path):
        out = tmp_path / "results"
        assert run_cli(
            "run", "--frames", "000000",
            f"data_root={mini_dataset.root}", f"out={out}",
        ) == 0
        svg_path = tmp_path / "x.svg"
        assert run_cli(
            "plot", "--frame", "000000", "--out", svg_path, "--results", out,
            f"data_root={mini_dataset.root}",
        ) == 0
        text = svg_path.read_text()
        pred_section = text.split('<g id="pred">')[1]
        assert pred_section.count("<rect") == 2  # fallback car + faraway ped


class TestTrainCommand:
    def test_train_writes_checkpoint_and_run_uses_it(
        self, mini_dataset, tmp_path, capsys
    ):
        ckpt = tmp_path / "reg.ckpt"
        code = run_cli(
            "train", f"data_root={mini_dataset.root}",
            "--out", ckpt, "--epochs", "40", "--hidden", "8", "--seed", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "samples: 10" in out
        assert ckpt.is_file()
        results = tmp_path / "results"
        code = run_cli(
            "run", f"data_root={mini_dataset.root}", f"out={results}",
            f"checkpoint={ckpt}",
        )
        assert code == 0
        assert len(list(results.glob("*.txt"))) == 5

    def test_train_deterministic_checkpoints(self, mini_dataset, tmp_path):
        paths = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            assert run_cli(
                "train", f"data_root={mini_dataset.root}",
                "--out", path, "--epochs", "15", "--hidden", "8", "--seed", "7",
            ) == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("option, value, field", [
        ("--hidden", "0", "hidden"),
        ("--hidden", "-3", "hidden"),
        ("--hidden", str(regressor.MAX_HIDDEN + 1), "hidden"),  # refused before any weight exists
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--lr", "-1", "learning_rate"),
        ("--epochs", "0", "epochs"),
        ("--epochs", "-1", "epochs"),
        ("--patience", "-1", "patience"),
        ("--seed", "-1", "seed"),
    ])
    def test_malformed_training_option_exits_1_naming_it(
        self, mini_dataset, tmp_path, capsys, option, value, field
    ):
        ckpt = tmp_path / "reg.ckpt"
        code = run_cli("train", f"data_root={mini_dataset.root}", "--out", ckpt, option, value)
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {field} must" in err and "Traceback" not in err
        assert not ckpt.exists()


@pytest.mark.parametrize("verb", ["train", "run"])
@pytest.mark.parametrize("case", sorted(BAD_PGMS))
def test_malformed_mask_exits_1_naming_the_path(
    mini_dataset, tmp_path, capsys, verb, case
):
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    mask = sorted((root / "detections_2d" / "masks").glob("*.pgm"))[0]
    mask.write_bytes(BAD_PGMS[case])
    code = run_cli(
        verb, f"data_root={root}", "frustum_mode=mask", "--out", tmp_path / "out",
    )
    err = capsys.readouterr().err
    assert code == 1
    assert str(mask) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("size", [0, 13, 43])
def test_truncated_checkpoint_exits_1_naming_the_path(
    mini_dataset, tmp_path, capsys, size
):
    ckpt = tmp_path / "reg.ckpt"
    ckpt.write_bytes(bytes(size))
    code = run_cli(
        "run", f"data_root={mini_dataset.root}", f"checkpoint={ckpt}",
        "--out", tmp_path / "out",
    )
    err = capsys.readouterr().err
    assert code == 1
    assert str(ckpt) in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def trained(mini_dataset, tmp_path_factory):
    """Checkpoints trained on the default layout and on a non-default one."""
    out = tmp_path_factory.mktemp("trained")
    layouts = {
        "default": [],
        "custom": ["classes=car,pedestrian", "raster_grid=16", "raster_extent=6"],
    }
    for name, keys in layouts.items():
        assert run_cli(
            "train", f"data_root={mini_dataset.root}", "--out", out / f"{name}.ckpt",
            "--epochs", "15", "--hidden", "8", *keys,
        ) == 0
    return out, layouts


def test_run_takes_the_layout_from_the_checkpoint(mini_dataset, trained, tmp_path):
    out, layouts = trained
    ckpt = out / "custom.ckpt"
    results = {}
    for name, keys in (("bare", []), ("repeated", layouts["custom"])):
        assert run_cli(
            "run", f"data_root={mini_dataset.root}", f"checkpoint={ckpt}",
            f"out={tmp_path / name}", *keys,
        ) == 0
        results[name] = {
            f.name: f.read_bytes() for f in sorted((tmp_path / name).glob("*.txt"))
        }
    assert len(results["bare"]) == 5
    assert results["bare"] == results["repeated"]


@pytest.mark.parametrize(
    "key, value",
    [("classes", "car,pedestrian"), ("raster_grid", "16"), ("raster_extent", "9")],
)
@pytest.mark.parametrize("where", ["override", "config file"])
def test_run_refuses_a_layout_key_the_checkpoint_contradicts(
    mini_dataset, trained, tmp_path, capsys, key, value, where
):
    ckpt = trained[0] / "default.ckpt"
    args = ["run", f"data_root={mini_dataset.root}", f"checkpoint={ckpt}",
            "--out", tmp_path / "out"]
    if where == "override":
        args.append(f"{key}={value}")
    else:
        (tmp_path / "config.txt").write_text(f"{key}={value}\n")
        args += ["--config", tmp_path / "config.txt"]
    code = run_cli(*args)
    err = capsys.readouterr().err
    assert code == 1
    assert str(ckpt) in err and key in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("*.txt"))


@pytest.mark.parametrize("raw_width", [1000.0, -1000.0])
def test_overflowing_checkpoint_exits_1_naming_frame_and_detection(
    mini_dataset, trained, tmp_path, capsys, raw_width
):
    # exp(+1000) overflows the width to inf, exp(-1000) underflows it to 0
    params = regressor.load_checkpoint(trained[0] / "default.ckpt")
    params.b2[3] = raw_width
    ckpt = tmp_path / "overflow.ckpt"
    regressor.save_checkpoint(params, ckpt)
    out = tmp_path / "out"
    code = run_cli("run", f"data_root={mini_dataset.root}", f"checkpoint={ckpt}",
                   "--out", out)
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert str(ckpt) in err
    frame = re.search(r"frame (\d+), detection \d+ \((pedestrian|car)\)", err).group(1)
    assert not (out / f"{frame}.txt").exists()


def test_checkpoint_weight_past_the_bound_exits_1_at_load(mini_dataset, trained, tmp_path, capsys):
    # once two overflow RuntimeWarnings, from the network and from assemble_box,
    # came before the error naming the frame
    params = regressor.load_checkpoint(trained[0] / "default.ckpt")
    params.w2[2, :] = 1e307
    params.b1[:] = 1.0
    ckpt = tmp_path / "huge.ckpt"
    regressor.save_checkpoint(params, ckpt)
    code = run_cli("run", f"data_root={mini_dataset.root}", f"checkpoint={ckpt}",
                   "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: checkpoint {ckpt}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_unencodable_class_name_exits_1_before_training(mini_dataset, tmp_path, capsys):
    ckpt = tmp_path / "reg.ckpt"
    code = run_cli("train", f"data_root={mini_dataset.root}", "classes=car,\udcff",
                   "--out", ckpt, "--epochs", "2")
    err = capsys.readouterr().err
    assert code == 1
    assert "classes" in err and "Traceback" not in err
    assert not ckpt.exists()


def test_newline_in_a_class_name_exits_1_before_training(mini_dataset, tmp_path, capsys):
    ckpt = tmp_path / "reg.ckpt"
    code = run_cli("train", f"data_root={mini_dataset.root}", "classes=car,a\nb",
                   "--out", ckpt, "--epochs", "2")
    err = capsys.readouterr().err
    assert code == 1
    assert "classes" in err and "Traceback" not in err
    assert not ckpt.exists()


@pytest.mark.parametrize("verb", ["run", "eval", "train"])
@pytest.mark.parametrize("option, content", [
    ("--config", b"threshold.car=7\xff\n"),
    ("--frames", b"000000\n\xff\n"),
], ids=["config", "frames"])
def test_non_utf8_config_or_frame_list_exits_1_naming_the_file(
    mini_dataset, tmp_path, capsys, verb, option, content
):
    path = tmp_path / "listed.txt"
    path.write_bytes(content)
    extra = {"run": ["--out", tmp_path / "out"], "eval": ["--results", tmp_path / "out"],
             "train": ["--out", tmp_path / "reg.ckpt", "--epochs", "2"]}[verb]
    code = run_cli(verb, option, path, f"data_root={mini_dataset.root}", *extra)
    err = capsys.readouterr().err
    assert code == 1
    assert str(path) in err and "not UTF-8" in err
    assert "Traceback" not in err


def test_version_1_checkpoint_exits_1_naming_the_path(mini_dataset, tmp_path, capsys):
    ckpt = tmp_path / "v1.ckpt"
    n_reals = 64 * (32 * 32 + 2) + 64 + 7 * 64 + 7 + 2 * 3
    ckpt.write_bytes(np.array([32, 2, 64, 7, 1], "<i8").tobytes() + bytes(8 * n_reals))
    code = run_cli("run", f"data_root={mini_dataset.root}", f"checkpoint={ckpt}",
                   "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 1
    assert str(ckpt) in err and "version 1" in err
    assert "Traceback" not in err


# the entries scaled: Tr's rotation block, or P2's two focal lengths
OVERFLOWED = {"Tr_velo_to_cam": ((0, 1, 2, 4, 5, 6, 8, 9, 10), 1e308), "P2": ((0, 5), 1e305)}


def _scale_calibration(path, key, entries, scale):
    """Multiply the given entries of one matrix of a calibration file by `scale`."""
    lines = path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith(f"{key}:"))
    values = [float(t) for t in lines[k].split(":")[1].split()]
    for i in entries:
        values[i] *= scale
    lines[k] = f"{key}: " + " ".join(map(repr, values))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb, key", [
    ("run", "Tr_velo_to_cam"), ("train", "Tr_velo_to_cam"), ("stats", "Tr_velo_to_cam"),
    ("plot", "Tr_velo_to_cam"), ("run", "P2"), ("train", "P2"),
], ids=["run", "train", "stats", "plot", "run P2", "train P2"])
def test_overflowing_calibration_exits_1_naming_the_file(
    mini_dataset, tmp_path, capsys, verb, key
):
    # finite, parseable and right-handed, but points map out of float range
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    path = root / "calib" / "000000.txt"
    _scale_calibration(path, key, *OVERFLOWED[key])
    extra = {"run": ["--out", tmp_path / "out"], "stats": [],
             "train": ["--out", tmp_path / "reg.ckpt", "--epochs", "2"],
             "plot": ["--frame", "000000", "--out", tmp_path / "bev.svg"]}[verb]
    code = run_cli(verb, f"data_root={root}", *extra)
    err = capsys.readouterr().err
    assert code == 1
    assert str(path) in err and "non-finite" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_p2_exits_1_on_a_frame_without_detections(mini_dataset, tmp_path, capsys):
    # no detection projects the cloud, yet the fallback boxes' 2D boxes would
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    (root / "detections_2d" / "000000.txt").write_text("")
    path = root / "calib" / "000000.txt"
    _scale_calibration(path, "P2", *OVERFLOWED["P2"])
    code = run_cli("run", f"data_root={root}", "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 1
    assert str(path) in err and "non-finite" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("verb", ["run", "train"])
@pytest.mark.parametrize("key, size, scale", [
    ("Tr_velo_to_cam", 12, 3e3), ("Tr_velo_to_cam", 12, 3e6), ("R0_rect", 9, 3e3),
])
def test_non_rigid_mount_exits_1_naming_the_file(
    mini_dataset, tmp_path, capsys, verb, key, size, scale
):
    # inside the magnitude bound, but a frustum could spread past MAX_BINS bins
    # or its centroid past 10 km: refused where the calibration is read
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    path = root / "calib" / "000000.txt"
    _scale_calibration(path, key, range(size), scale)
    extra = {"run": ["--out", tmp_path / "out"],
             "train": ["--out", tmp_path / "reg.ckpt", "--epochs", "2"]}[verb]
    code = run_cli(verb, f"data_root={root}", *extra)
    _assert_refused(code, capsys.readouterr().err, path)


@pytest.mark.parametrize("verb", ["run", "train", "stats", "plot"])
def test_only_the_verbs_that_read_labels_parse_them(mini_dataset, tmp_path, capsys, verb):
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    path = root / "label_2" / "000000.txt"
    path.write_text("Car 0 0 0\n")
    extra = {"run": ["--out", tmp_path / "out"], "stats": [],
             "train": ["--out", tmp_path / "reg.ckpt", "--epochs", "2"],
             "plot": ["--frame", "000000", "--out", tmp_path / "bev.svg"]}[verb]
    code = run_cli(verb, f"data_root={root}", *extra)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if verb == "run":
        assert code == 0 and err == ""
    else:
        assert code == 1 and str(path) in err


def _assert_refused(code, err, path):
    """Exit 1 with one stderr line: an error that names `path` first."""
    assert code == 1 and err.startswith(f"error: {path}: ") and err.count("\n") == 1, (code, err)


BAD_FILES = {
    "calib": ("run", "calib/000000.txt", b"R0_rect: 1 0\n"),
    "velodyne": ("run", "velodyne/000000.bin", bytes(13)),
    "velodyne intensity": ("run", "velodyne/000000.bin", struct.pack("<4f", 1, 2, 3, math.nan)),
    # a signaling NaN x once printed a cast RuntimeWarning before the error
    "velodyne signaling NaN": ("run", "velodyne/000000.bin",
                               struct.pack("<I3f", 0x7F800001, 2, 3, 1)),
    "detections": ("run", "detections_2d/000000.txt", b"000000 car 0.9 1 2\n"),
    # an edge this far off once made a frustum turned away from its points
    "detection edge far off": ("run", "detections_2d/000000.txt",
                               b"000000 car 0.9 100 100 1.7e308 200\n"),
    "detection edge inf": ("run", "detections_2d/000000.txt", b"000000 car 0.9 100 100 inf 200\n"),
    "missing mask": ("run", "detections_2d/000000.txt", b"000000 car 0.9 1 2 3 4 no.pgm\n"),
    "mask of another size": ("run", "detections_2d/masks/000000_0.pgm",
                             b"P5\n4 2\n255\n" + bytes(8)),
    "mask path with NUL": ("run", "detections_2d/000000.txt",
                           b"000000 car 0.9 1 2 3 4 m\x00.pgm\n"),
    "fallback": ("run", "fallback/000000.txt", b"Car 0 0\n"),
    "labels": ("eval", "label_2/000000.txt", b"Car 0 0 0\n"),
    "labels not text": ("eval", "label_2/000000.txt", b"Car \xff\xfe\n"),
    "results": ("eval", "results/000000.txt", b"Car 1 2 3\n"),
    "plotted results": ("plot", "results/000000.txt", b"Car 1 2 3\n"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_malformed_input_file_exits_1_naming_the_file(
    mini_dataset, tmp_path, capsys, case
):
    verb, name, content = BAD_FILES[case]
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    (root / "results").mkdir()
    path = root / name
    path.write_bytes(content)
    extra = {"run": ["--out", tmp_path / "out"], "eval": [],
             "plot": ["--frame", "000000", "--out", tmp_path / "bev.svg"]}[verb]
    code = run_cli(verb, f"data_root={root}", *extra)
    _assert_refused(code, capsys.readouterr().err, path)


def _assert_each_verb_passes_or_names(path, root, tmp_path, capsys):
    """run, eval and train each exit 0 saying nothing, or are refused naming `path`."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    for verb, extra in (
        ("run", ["--out", out]),
        ("eval", ["--results", out]),
        ("train", ["--out", tmp_path / "reg.ckpt", "--epochs", "2"]),
    ):
        code = run_cli(verb, f"data_root={root}", *extra)
        err = capsys.readouterr().err
        if code == 0:
            assert err == "", verb
        else:
            _assert_refused(code, err, path)


INPUT_DIRS = ("velodyne", "calib", "detections_2d", "fallback", "label_2")


@given(data=st.data())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupted_input_file_exits_0_or_1_naming_it(mini_dataset, tmp_path, capsys, data):
    """Overwrite a byte range of one dataset file: never a traceback, a warning or another code."""
    root = tmp_path / "data"
    if not root.exists():  # one copy for every example; each restores its file
        shutil.copytree(mini_dataset.root, root)
    names = sorted(str(p.relative_to(root)) for sub in INPUT_DIRS
                   for p in (root / sub).rglob("*") if p.is_file())
    path = root / data.draw(st.sampled_from(names), label="file")
    original = path.read_bytes()
    start = data.draw(st.integers(0, len(original)), label="start")
    stop = data.draw(st.integers(start, min(len(original), start + 16)), label="stop")
    junk = data.draw(st.binary(max_size=16), label="bytes")
    path.write_bytes(original[:start] + junk + original[stop:])
    try:
        _assert_each_verb_passes_or_names(path, root, tmp_path, capsys)
    finally:
        path.write_bytes(original)


def _number_spans(text):
    """(start, stop) of each whitespace-separated token of `text` that is a number."""
    spans = []
    for match in re.finditer(r"\S+", text):
        try:
            float(match.group())
        except ValueError:
            continue
        spans.append(match.span())
    return spans


@given(data=st.data())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_number_scaled_out_of_range_exits_0_or_1_naming_it(mini_dataset, tmp_path, capsys, data):
    """Scale one number of a calibration, label or fallback file by 1e300 or 1e-300."""
    root = tmp_path / "data"
    if not root.exists():  # one copy for every example; each restores its file
        shutil.copytree(mini_dataset.root, root)
    names = sorted(str(p.relative_to(root)) for sub in ("calib", "label_2", "fallback")
                   for p in (root / sub).glob("*.txt"))
    path = root / data.draw(st.sampled_from(names), label="file")
    original = path.read_text()
    start, stop = data.draw(st.sampled_from(_number_spans(original)), label="number")
    scale = data.draw(st.sampled_from([1e300, 1e-300]), label="scale")
    path.write_text(original[:start] + repr(float(original[start:stop]) * scale) + original[stop:])
    try:
        _assert_each_verb_passes_or_names(path, root, tmp_path, capsys)
    finally:
        path.write_text(original)


def _set_first_line_field(path, index, value):
    lines = path.read_text().splitlines()
    tokens = lines[0].split()
    tokens[index] = value
    lines[0] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")


def test_far_fallback_box_exits_1_naming_the_file(mini_dataset, tmp_path, capsys):
    # x = 1e300 was once written back as a 300-digit x with a 1242 ... 1242 bbox
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    path = root / "fallback" / "000000.txt"
    _set_first_line_field(path, 11, "1e300")
    out = tmp_path / "out"
    code = run_cli("run", f"data_root={root}", "--out", out)
    _assert_refused(code, capsys.readouterr().err, path)
    assert not (out / "000000.txt").exists()


def test_box_whose_footprint_rounds_to_zero_exits_1_naming_the_file(
    mini_dataset, tmp_path, capsys
):
    # sides of 0.35 um at x = -46 m: the shoelace area rounds to 0, which once
    # divided by zero in eval
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    line = ("Car 0 0 0 100 100 110 110 3.5305856304085927e-07 3.5305856304085927e-07 "
            "3.5305856304085927e-07 -45.90264760638053 1.0 2770.6186795485523 "
            "-2.9008341868288254")
    path = root / "label_2" / "000000.txt"
    path.write_text(line + "\n")
    results = tmp_path / "results"
    results.mkdir()
    (results / "000000.txt").write_text(line + " 0.9\n")
    code = run_cli("eval", f"data_root={root}", "--results", results)
    _assert_refused(code, capsys.readouterr().err, path)


def test_far_label_box_exits_1_naming_the_file(mini_dataset, tmp_path, capsys):
    # once "error: box has zero volume", naming no file
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    results = tmp_path / "results"
    assert run_cli("run", f"data_root={root}", "--out", results) == 0
    capsys.readouterr()
    path = root / "label_2" / "000000.txt"
    _set_first_line_field(path, 11, "1e300")
    code = run_cli("eval", f"data_root={root}", "--results", results)
    _assert_refused(code, capsys.readouterr().err, path)


def test_singular_p2_exits_1_naming_the_file(mini_dataset, tmp_path, capsys):
    # P2's second row [0, f, c_v, 0] made [0, 0, c_v, 0]: once "error: left 3x3
    # of P2 is not invertible", naming no file
    root = tmp_path / "data"
    shutil.copytree(mini_dataset.root, root)
    path = root / "calib" / "000000.txt"
    lines = path.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("P2:"))
    tokens = lines[k].split()
    tokens[5:9] = ["0", "0", tokens[7], "0"]
    lines[k] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = run_cli("run", f"data_root={root}", "--out", out)
    _assert_refused(code, capsys.readouterr().err, path)
    assert not (out / "000000.txt").exists()


def test_stats_scatter_contains_reference_line():
    from farfrustum.evaluation import ObjectPointStat

    stats = [ObjectPointStat("f", "pedestrian", 65.0, 7)]
    svg = stats_scatter_svg(stats)
    assert 'stroke-dasharray' in svg
    assert svg.count("<circle") == 1


def test_ppm_deterministic():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-30, 30, size=(50, 2)) + np.array([0, 50.0])
    box = Box3D((0.0, 1.0, 50.0), 0.4, (2.0, 4.0, 1.5), "car")
    assert bev_scene_ppm(pts, [box], []) == bev_scene_ppm(pts, [box], [])
