"""The three benchmark workloads: set-up, one operation, output checks.

Every operation goes through the package's public entry points the way the
matching CLI verb does, and functions are looked up on their modules at
call time so that a traced run sees the same calls.

* run_kitti  -- ``farfrustum run`` in box mode, one frame per operation.
* eval_dense -- ``farfrustum eval --faraway-only``, one batch of frames
  per operation: parse labels and results, then score.
* train_mask -- ``farfrustum train`` in mask mode, one training job (load,
  build the training set, Adam epochs, checkpoint) per operation.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from farfrustum import evaluation, kitti_io, pipeline, regressor

import scene


@dataclass(frozen=True)
class Op:
    key: str                  # request id: a frame id or "first-last"
    frames: tuple[str, ...]


@dataclass
class Outcome:
    digest: str               # hash of the operation's output bytes
    items: int                # frames, or faraway ground-truth boxes (eval)
    values: dict = field(default_factory=dict)
    train_s: float = 0.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _boxes(text: str) -> list[kitti_io.Box3D]:
    return [rec.box for rec in kitti_io.parse_labels(text)
            if not rec.dontcare and rec.box is not None]


def _batches(frame_ids: list[str], size: int) -> list[Op]:
    return [Op(f"{chunk[0]}-{chunk[-1]}", tuple(chunk))
            for chunk in (frame_ids[i:i + size] for i in range(0, len(frame_ids), size))]


class Workload:
    """Common shape; subclasses fill in the workload-specific parts."""

    name = ""
    item_unit = ""
    op_name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.data = work / "data"
        self.seed = seed
        self.manifest: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        """Read the manifest that setup() wrote in another process."""
        self.manifest = json.loads((self.data / "manifest.json").read_text())

    def prepare(self) -> None:
        """Once per run, after set-up and before the first operation."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        raise NotImplementedError

    def check(self, outcomes: dict[str, list[Outcome]]) -> list[str]:
        """Failures of the workload's own output checks; empty when correct."""
        return []

    def report(self, times: dict[str, list[float]],
               outcomes: dict[str, list[Outcome]]) -> dict[str, tuple]:
        """The workload's named metrics: name -> (value, unit, note)."""
        return {}


class RunKitti(Workload):
    name = "run_kitti"
    item_unit = "frames"
    op_name = "frame"
    frames = 8
    params = scene.SceneParams()

    def setup(self) -> None:
        self.manifest = scene.write_scenes(self.data, self.seed, self.frames, self.params)
        # zero weights reproduce the size-prior baseline through forward()
        regressor.save_checkpoint(regressor.zero_params(32), self.data / "zero.ckpt")

    def prepare(self) -> None:
        self.config = pipeline.PipelineConfig(
            data_root=self.data, out_dir=self.data / "results",
            frustum_mode="box", checkpoint=self.data / "zero.ckpt",
        )
        self.weights = regressor.load_checkpoint(self.config.checkpoint, self.config.classes)

    def ops(self) -> list[Op]:
        return [Op(fid, (fid,)) for fid in sorted(self.manifest["frames"])]

    def run(self, op: Op) -> Outcome:
        summary = pipeline.run_dataset(list(op.frames), self.config, params=self.weights)
        data = (self.config.results_dir / f"{op.key}.txt").read_bytes()
        skipped = summary.skipped_empty_frustum + summary.skipped_unknown_class
        return Outcome(_sha(data), len(op.frames), {
            "detections": summary.detections,
            "faraway": summary.faraway,
            "routed_near": summary.detections - summary.faraway - skipped,
            "skipped_empty": summary.skipped_empty_frustum,
            "skipped_unknown": summary.skipped_unknown_class,
            "fallback_seen": summary.fallback_seen,
            "fallback_kept": summary.fallback_kept,
            "result_lines": data.count(b"\n"),
        })

    def expected(self, fid: str) -> dict:
        planted = self.manifest["frames"][fid]
        return {
            "detections": planted["detections"],
            "faraway": planted["faraway"],
            "routed_near": planted["near"],
            "skipped_empty": planted["sky"],
            "skipped_unknown": planted["unknown"],
            "fallback_seen": planted["fallback_seen"],
            "fallback_kept": planted["fallback_kept"],
            "result_lines": planted["faraway"] + planted["fallback_kept"],
        }

    def check(self, outcomes):
        failures = []
        for key, outs in outcomes.items():
            want = self.expected(key)
            for out in outs:
                if out.values != want:
                    failures.append(f"{key}: counters {out.values} != manifest {want}")
                    break
        return failures

    def quality(self) -> dict[str, float]:
        """Faraway aIoU and mean AP-BEV of the written results (untimed)."""
        gt, preds = {}, {}
        for fid in self.manifest["frames"]:
            gt[fid] = _boxes((self.data / "label_2" / f"{fid}.txt").read_text())
            preds[fid] = _boxes((self.config.results_dir / f"{fid}.txt").read_text())
        report = evaluation.evaluate_boxes(
            gt, preds, iou_threshold=0.1,
            faraway=evaluation.faraway_filter(self.config.thresholds),
        )
        classes = [c for c in report.per_class.values() if c.n_gt]
        n_gt = sum(c.n_gt for c in classes)
        return {
            "aiou": sum(c.aiou * c.n_gt for c in classes) / n_gt,
            "ap_bev": sum(c.ap_bev for c in classes) / len(classes),
            "n_gt": n_gt,
        }

    def report(self, times, outcomes):
        samples = [t for ts in times.values() for t in ts]
        q = self.quality()
        return {
            "run.frames_per_s": (len(samples) / sum(samples), "frames/s",
                                 f"{self.params.points} points, {self.params.detections} box "
                                 "detections per frame"),
            "run.aiou_far": (q["aiou"], "ratio", f"{q['n_gt']} faraway ground-truth boxes"),
            "run.ap_bev_far": (q["ap_bev"], "%", "mean over classes, IoU 0.1"),
        }


class EvalDense(Workload):
    name = "eval_dense"
    item_unit = "faraway ground-truth boxes"
    op_name = "batch of 4 frames"
    frames = 16
    batch = 4

    def setup(self) -> None:
        self.manifest = scene.write_eval_scenes(self.data, self.seed, self.frames)

    def prepare(self) -> None:
        self.faraway = evaluation.faraway_filter(scene.THRESHOLDS)

    def ops(self) -> list[Op]:
        return _batches(sorted(self.manifest["frames"]), self.batch)

    def run(self, op: Op) -> Outcome:
        gt, preds = {}, {}
        for fid in op.frames:
            gt[fid] = _boxes((self.data / "label_2" / f"{fid}.txt").read_text())
            preds[fid] = _boxes((self.data / "results" / f"{fid}.txt").read_text())
        report = evaluation.evaluate_boxes(gt, preds, iou_threshold=0.1, faraway=self.faraway)
        values = {
            cls: [ev.n_gt, ev.n_pred, ev.aiou, ev.ap_bev, ev.ap_3d]
            for cls, ev in sorted(report.per_class.items())
        }
        n_gt = sum(v[0] for v in values.values())
        return Outcome(_sha(json.dumps(values).encode()), n_gt, values)

    def check(self, outcomes):
        # repeated scores are compared byte for byte through Outcome.digest
        failures = []
        for op in self.ops():
            planted = [self.manifest["frames"][f] for f in op.frames]
            for cls, (n_gt, n_pred, aiou, ap_bev, ap_3d) in outcomes[op.key][0].values.items():
                want_gt = sum(f["gt_far"][cls] for f in planted)
                want_pred = sum(f["pred_far"][cls] for f in planted)
                if (n_gt, n_pred) != (want_gt, want_pred):
                    failures.append(f"{op.key}/{cls}: scored {n_gt} gt, {n_pred} pred; "
                                    f"planted {want_gt}, {want_pred}")
                if not (0.0 < aiou <= 1.0 and 0.0 < ap_bev <= 100.0 and 0.0 <= ap_3d <= 100.0):
                    failures.append(f"{op.key}/{cls}: metrics out of range "
                                    f"{aiou}, {ap_bev}, {ap_3d}")
        return failures

    def report(self, times, outcomes):
        per_1k = [t * 1000.0 / outcomes[key][0].items
                  for key, ts in times.items() for t in ts]
        return {
            "eval.s_per_1k_gt": (statistics.median(per_1k), "s",
                                 f"median of {len(per_1k)} batches, parse plus score"),
        }


class TrainMask(Workload):
    name = "train_mask"
    item_unit = "frames"
    op_name = "training job of 3 frames"
    frames = 6
    job = 3
    epochs = 150
    params = scene.SceneParams(mask_share=1.0, sky=0, unknown=0, fallback=False)

    def setup(self) -> None:
        self.manifest = scene.write_scenes(self.data, self.seed, self.frames, self.params)

    def prepare(self) -> None:
        self.config = pipeline.PipelineConfig(data_root=self.data, frustum_mode="mask")
        # patience >= epochs: early stopping never fires, the epoch count is fixed
        self.hyper = regressor.TrainConfig(epochs=self.epochs, patience=self.epochs, seed=0)
        (self.work / "checkpoints").mkdir(exist_ok=True)

    def ops(self) -> list[Op]:
        return _batches(sorted(self.manifest["frames"]), self.job)

    def run(self, op: Op) -> Outcome:
        clouds, detections, labels, calibs = {}, {}, {}, {}
        for fid in op.frames:
            inputs = pipeline.load_frame_inputs(self.data, fid, self.config)
            clouds[fid], detections[fid] = inputs.cloud, inputs.detections
            labels[fid], calibs[fid] = inputs.labels, inputs.calib
        priors = regressor.compute_size_priors(rec for recs in labels.values() for rec in recs)
        for name in self.config.classes:
            priors.setdefault(name, self.config.size_priors[name])
        samples, skipped = regressor.build_training_set(
            clouds, detections, labels, calibs, self.config)
        t0 = time.perf_counter()
        params = regressor.train(samples, self.hyper, priors=priors)
        train_s = time.perf_counter() - t0
        path = self.work / "checkpoints" / f"{op.key}.ckpt"
        regressor.save_checkpoint(params, path)
        return Outcome(_sha(path.read_bytes()), len(op.frames),
                       {"samples": len(samples), "skipped": skipped}, train_s)

    def check(self, outcomes):
        failures = []
        for op in self.ops():
            want = {"samples": sum(self.manifest["frames"][f]["labeled"] for f in op.frames),
                    "skipped": 0}
            if outcomes[op.key][0].values != want:
                failures.append(f"{op.key}: built {outcomes[op.key][0].values}, planted {want}")
        return failures

    def report(self, times, outcomes):
        walls = [t for ts in times.values() for t in ts]
        epoch_ms = [out.train_s * 1000.0 / self.epochs
                    for outs in outcomes.values() for out in outs]
        return {
            "train.wall_s": (statistics.median(walls), "s",
                             f"median of {len(walls)} jobs, {self.job} frames each"),
            "train.epoch_ms": (statistics.median(epoch_ms), "ms",
                               f"{self.epochs} epochs per job, median of {len(epoch_ms)}"),
        }


WORKLOADS = {w.name: w for w in (RunKitti, EvalDense, TrainMask)}
