"""Command-line entry points: run, train, eval, stats, plot.

Exit codes: 0 success, 1 runtime error (diagnostic on stderr naming the
failing path/frame), 2 usage error. Configuration precedence per key is
built-in default < config file < key=value override on the command line.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluation, plots, regressor
from .errors import ConfigError, FarFrustumError
from .geometry import lidar_to_camera
from .kitti_io import write_whole
from .pipeline import PipelineConfig, config_mapping, load_frame_inputs, naming, read_boxes
from .pipeline import run_dataset
from .regressor import TrainConfig, build_training_set


class UsageError(Exception):
    """Bad command-line input; maps to exit status 2 like argparse errors."""


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"override must be key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _config_mapping(args: argparse.Namespace) -> dict[str, str]:
    overrides = _parse_overrides(args.overrides)
    if getattr(args, "frustum_mode", None):
        overrides["frustum_mode"] = args.frustum_mode
    if getattr(args, "out", None):
        overrides["out"] = args.out
    if args.config is not None and not Path(args.config).is_file():
        raise FarFrustumError(f"config file not found: {args.config}")
    return config_mapping(args.config, overrides)


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig.from_mapping(_config_mapping(args))


def _frame_list(args: argparse.Namespace, config: PipelineConfig) -> list[str]:
    if args.frames:
        path = Path(args.frames)
        if path.is_file():
            with naming(path):
                return [line.strip() for line in path.read_text().splitlines() if line.strip()]
        return [f.strip() for f in args.frames.split(",") if f.strip()]
    velo = config.data_root / "velodyne"
    if not velo.is_dir():
        raise FarFrustumError(f"no frame list given and no velodyne dir at {velo}")
    return sorted(p.stem for p in velo.glob("*.bin"))


def _load_params(
    config: PipelineConfig, explicit: dict[str, str]
) -> regressor.RegressorParams | None:
    """The checkpoint's weights. Its layout sets the config's classes,
    raster_grid and raster_extent; an explicit key must hold the same value."""
    if config.checkpoint is None:
        return None
    if not config.checkpoint.is_file():
        raise FarFrustumError(f"checkpoint not found: {config.checkpoint}")
    params = regressor.load_checkpoint(config.checkpoint)
    for key, value in (("classes", params.classes), ("raster_grid", params.grid_size),
                       ("raster_extent", params.extent)):
        if key not in explicit:
            setattr(config, key, value)
        elif getattr(config, key) != value:
            raise ConfigError(f"checkpoint {config.checkpoint} has {key}={value}, "
                              f"the config sets {getattr(config, key)}")
    return params


def cmd_run(args: argparse.Namespace) -> int:
    mapping = _config_mapping(args)
    config = PipelineConfig.from_mapping(mapping)
    params = _load_params(config, mapping)
    frames = _frame_list(args, config)
    summary = run_dataset(frames, config, params=params)
    for line in summary.lines():
        print(line)
    print(f"results written to: {config.results_dir}")
    return 0


def _labeled_frames(config: PipelineConfig, frames: list[str]) -> list[str]:
    """The listed frames that have a ground-truth label file."""
    label_dir = config.data_root / "label_2"
    if not label_dir.is_dir():
        raise FarFrustumError(f"label directory missing: {label_dir}")
    return [f for f in frames if (label_dir / f"{f}.txt").is_file()]


def _labeled_inputs(args: argparse.Namespace, config: PipelineConfig) -> dict:
    return {
        f: load_frame_inputs(config.data_root, f, config)
        for f in _labeled_frames(config, _frame_list(args, config))
    }


def cmd_eval(args: argparse.Namespace) -> int:
    if not 0.0 < args.iou <= 1.0:
        raise UsageError(f"--iou must lie in (0, 1], got {args.iou}")
    config = _build_config(args)
    results_dir = Path(args.results) if args.results else config.results_dir
    gt_by_frame = {
        f: read_boxes(config.data_root / "label_2" / f"{f}.txt")
        for f in _labeled_frames(config, _frame_list(args, config))
    }
    preds_by_frame = {}
    for frame_id in gt_by_frame:
        path = results_dir / f"{frame_id}.txt"
        preds_by_frame[frame_id] = read_boxes(path) if path.is_file() else []
    faraway = (
        evaluation.faraway_filter(config.thresholds) if args.faraway_only else None
    )
    report = evaluation.evaluate_boxes(
        gt_by_frame, preds_by_frame, iou_threshold=args.iou, faraway=faraway
    )
    print(evaluation.format_report(report))
    if args.machine:
        for line in evaluation.machine_lines(report):
            print(line)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    config = _build_config(args)
    inputs = _labeled_inputs(args, config)
    stats = evaluation.points_per_object_stats(
        {f: i.labels for f, i in inputs.items()},
        {f: i.cloud for f, i in inputs.items()},
        {f: i.calib for f, i in inputs.items()},
    )
    print(f"{'frame':<10} {'class':<12} {'depth_m':>8} {'points':>7}")
    for s in stats:
        print(f"{s.frame_id:<10} {s.class_name:<12} {s.depth:>8.2f} {s.count:>7}")
    if args.out:
        write_whole(args.out, plots.stats_scatter_svg(stats))
        print(f"scatter written to: {args.out}")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    config = _build_config(args)
    inputs = load_frame_inputs(config.data_root, args.frame, config)
    cam = lidar_to_camera(inputs.cloud, inputs.calib)
    points_xz = cam.points[:, [0, 2]]
    gt_boxes = []
    if inputs.labels:
        gt_boxes = [
            rec.box for rec in inputs.labels if not rec.dontcare and rec.box is not None
        ]
    results_dir = Path(args.results) if args.results else config.results_dir
    result_path = results_dir / f"{args.frame}.txt"
    pred_boxes = read_boxes(result_path) if result_path.is_file() else []
    out = Path(args.plot_out)
    write_whole(out, plots.bev_scene_svg(points_xz, gt_boxes, pred_boxes))
    print(f"plot written to: {out}")
    if args.ppm:
        write_whole(args.ppm, plots.bev_scene_ppm(points_xz, gt_boxes, pred_boxes))
        print(f"ppm written to: {args.ppm}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    hyper = TrainConfig(hidden=args.hidden, learning_rate=args.lr, epochs=args.epochs,
                        patience=args.patience, seed=args.seed)
    config = _build_config(args)
    inputs = _labeled_inputs(args, config)
    priors = regressor.compute_size_priors(
        rec for i in inputs.values() for rec in i.labels
    )
    for name in config.classes:
        priors.setdefault(name, config.size_priors.get(name, (1.0, 1.0, 1.0)))
    samples, skipped = build_training_set(
        {f: i.cloud for f, i in inputs.items()},
        {f: i.detections for f, i in inputs.items()},
        {f: i.labels for f, i in inputs.items()},
        {f: i.calib for f, i in inputs.items()},
        config,
    )
    if not samples:
        raise FarFrustumError("no training samples could be built from the dataset")
    params = regressor.train(samples, hyper, priors=priors)
    out = Path(args.out) if args.out else (
        config.checkpoint if config.checkpoint else config.data_root / "regressor.ckpt"
    )
    regressor.save_checkpoint(params, out)
    final = regressor.mean_loss(params, samples)
    print(f"samples: {len(samples)} (skipped {skipped})")
    print(f"final training loss: {final:.4f}")
    print(f"checkpoint written to: {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farfrustum",
        description="faraway-object 3D/BEV detection over KITTI-format data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--frames", help="comma-separated frame ids or a list file")
        p.add_argument(
            "overrides", nargs="*", metavar="key=value",
            help="config overrides, e.g. threshold.pedestrian=50",
        )

    p_run = sub.add_parser("run", help="run the detection pipeline over frames")
    common(p_run)
    p_run.add_argument("--frustum-mode", choices=("mask", "box"))
    p_run.add_argument("--out", help="results directory")
    p_run.set_defaults(func=cmd_run)

    p_train = sub.add_parser("train", help="fit the box regressor on labeled frames")
    common(p_train)
    p_train.add_argument("--frustum-mode", choices=("mask", "box"))
    p_train.add_argument("--out", help="checkpoint output path")
    p_train.add_argument("--seed", type=int, default=TrainConfig.seed)
    p_train.add_argument("--hidden", type=int, default=TrainConfig.hidden)
    p_train.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p_train.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p_train.add_argument("--patience", type=int, default=TrainConfig.patience)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score result files against labels")
    common(p_eval)
    p_eval.add_argument("--results", help="directory of result files")
    p_eval.add_argument("--iou", type=float, default=0.1)
    p_eval.add_argument("--faraway-only", action="store_true")
    p_eval.add_argument("--machine", action="store_true",
                        help="also print class,metric,value lines")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="per-object point counts vs depth")
    common(p_stats)
    p_stats.add_argument("--out", help="optional scatter SVG path")
    p_stats.set_defaults(func=cmd_stats)

    p_plot = sub.add_parser("plot", help="BEV render of one frame")
    common(p_plot)
    p_plot.add_argument("--frame", required=True)
    p_plot.add_argument("--results", help="directory of result files to overlay")
    p_plot.add_argument("--out", dest="plot_out", required=True, help="SVG path")
    p_plot.add_argument("--ppm", help="optional binary PPM path")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # key=value overrides may also follow options; argparse leaves those over
    args, extra = parser.parse_known_args(argv)
    unknown = [token for token in extra if token.startswith("-") or "=" not in token]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args.overrides = [*args.overrides, *extra]
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FarFrustumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:  # pragma: no cover - console-script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
