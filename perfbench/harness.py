"""Measurement loop, checks, metrics and report for one benchmark run."""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import hostspeed
import tracing
import workloads

SETUP_REPEATS = 5


# --- machine info ------------------------------------------------------------

def machine_info(threads: dict[str, str], seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):   # numpy without mode="dicts"
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
    }


# --- statistics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it.

    None below 20 samples, where that percentile would not exceed the median.
    """
    n = len(samples)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct < 50:
        return None
    ranked = sorted(samples)
    below = math.ceil(pct / 100 * n)   # nearest-rank: samples at or below
    return pct, ranked[below - 1]


# --- measurement -----------------------------------------------------------------

class Run:
    """Operations executed in one run, with their timings and outputs."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = defaultdict(list)
        self.traced_times: dict[str, list[float]] = defaultdict(list)
        # time net of host sampling / reference time sampled during the operation
        self.costs: dict[str, list[float]] = defaultdict(list)
        self.traced_costs: dict[str, list[float]] = defaultdict(list)
        self.reference_s: list[float] = []
        self.outcomes: dict[str, list[workloads.Outcome]] = defaultdict(list)
        self.traced_outcomes: list[tuple[workloads.Op, workloads.Outcome]] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.missing: set[str] = set()

    def attempt(self, wl, op, tracer=None) -> tuple[float, float] | None:
        """Run one operation; its start and end, or None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.root("bench.op", op.key) if tracer else nullcontext():
                outcome = wl.run(op)
        except Exception as exc:   # counted as a failed operation, never dropped
            self.errors.append(f"{op.key}: {exc!r}")
            if len(self.errors) == 1:
                traceback.print_exc()
            return None
        t1 = time.perf_counter()
        self.outcomes[op.key].append(outcome)
        if tracer:
            self.traced_outcomes.append((op, outcome))
        return t0, t1


def measure(wl, seconds: float, tracer: tracing.Tracer | None) -> Run:
    """Closed loop over the workload's operations for `seconds`.

    One untimed warm-up operation comes first. Without a tracer every pass
    over the operations is timed; with one, passes alternate untraced and
    traced, and at least one pass of each is made. The host's speed is
    sampled throughout (see hostspeed.py).
    """
    ops = wl.ops()
    run = Run()
    run.attempt(wl, ops[0])
    min_ops = len(ops) * (2 if tracer else 1)
    timed = []   # (key, traced, start, end, seconds spent sampling the host)
    with hostspeed.HostSpeed() as host:
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < seconds:
            op = ops[i % len(ops)]
            traced = tracer is not None and (i // len(ops)) % 2 == 1
            busy = host.busy
            if traced:
                run.missing.update(tracer.install())
                try:
                    span = run.attempt(wl, op, tracer)
                finally:
                    tracer.uninstall()
            else:
                span = run.attempt(wl, op)
            if span:
                timed.append((op.key, traced, *span, host.busy - busy))
            i += 1
    for key, traced, t0, t1, sampling in timed:
        (run.traced_times if traced else run.times)[key].append(t1 - t0)
        (run.traced_costs if traced else run.costs)[key].append(
            (t1 - t0 - sampling) / host.reference_s(t0, t1))
    run.reference_s = host.took
    return run


def common_checks(run: Run) -> list[str]:
    failures = []
    for key, outs in run.outcomes.items():
        if len({out.digest for out in outs}) != 1:
            failures.append(f"{key}: output bytes differ between repetitions"
                            " (traced and untraced included)")
    return failures


# --- per-layer metrics from spans ---------------------------------------------------

class SpanTotals:
    def __init__(self, tracer: tracing.Tracer) -> None:
        self.self_ns = tracer.self_times()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_by: dict[str, int] = defaultdict(int)
        self.total_by: dict[str, int] = defaultdict(int)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        for index, (name, start, end, _, _) in enumerate(tracer.spans):
            self.calls[name] += 1
            self.self_by[name] += self.self_ns[index]
            self.total_by[name] += end - start
            for key, value in tracer.counts.get(index, {}).items():
                self.counts[(name, key)] += value
        self.root_ns = self.total_by.get("bench.op", 0)

    def ms(self, *names) -> float:
        return sum(self.self_by.get(n, 0) for n in names) / 1e6

    def n(self, *names) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def count(self, key: str, *names) -> int:
        return sum(self.counts.get((n, key), 0) for n in names)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


L2C, BOX, MASK = "geometry.lidar_to_camera", "geometry.points_in_box_frustum", \
    "geometry.points_in_mask_frustum"
IOU = ("evaluation.bev_iou", "evaluation.iou_3d")

# name, unit, traced functions it needs, value from (totals, frames, pipeline counters)
LAYER_METRICS = [
    ("kitti_io.load_pointcloud.ms", "ms/frame", ["kitti_io.load_pointcloud"],
     lambda t, f, p: t.ms("kitti_io.load_pointcloud") / f),
    ("kitti_io.load_pointcloud.mb", "MB/frame", ["kitti_io.load_pointcloud"],
     lambda t, f, p: t.count("bytes", "kitti_io.load_pointcloud") / 1e6 / f),
    ("kitti_io.read_pgm.calls", "count/frame", ["kitti_io.read_pgm"],
     lambda t, f, p: t.n("kitti_io.read_pgm") / f),
    ("kitti_io.read_pgm.ms", "ms/frame", ["kitti_io.read_pgm"],
     lambda t, f, p: t.ms("kitti_io.read_pgm") / f),
    ("kitti_io.read_pgm.mb", "MB/frame", ["kitti_io.read_pgm"],
     lambda t, f, p: t.count("bytes", "kitti_io.read_pgm") / 1e6 / f),
    ("kitti_io.parse_labels.ms", "ms/frame", ["kitti_io.parse_labels"],
     lambda t, f, p: t.ms("kitti_io.parse_labels") / f),
    ("kitti_io.parse_detections.ms", "ms/frame", ["kitti_io.parse_detections"],
     lambda t, f, p: t.ms("kitti_io.parse_detections") / f),
    ("kitti_io.write_results.ms", "ms/frame", ["kitti_io.write_results"],
     lambda t, f, p: t.ms("kitti_io.write_results") / f),
    ("geometry.lidar_to_camera.calls", "count/frame", [L2C],
     lambda t, f, p: t.n(L2C) / f),
    ("geometry.lidar_to_camera.points", "count/frame", [L2C],
     lambda t, f, p: t.count("points", L2C) / f),
    ("geometry.lidar_to_camera.ms", "ms/frame", [L2C],
     lambda t, f, p: t.ms(L2C) / f),
    ("geometry.project_to_image.calls", "count/frame", ["geometry.project_to_image"],
     lambda t, f, p: t.n("geometry.project_to_image") / f),
    ("geometry.project_to_image.points", "count/frame", ["geometry.project_to_image"],
     lambda t, f, p: t.count("points", "geometry.project_to_image") / f),
    ("geometry.project_to_image.ms", "ms/frame", ["geometry.project_to_image"],
     lambda t, f, p: t.ms("geometry.project_to_image") / f),
    ("geometry.frustum.ms", "ms/frame", [BOX, MASK],
     lambda t, f, p: t.ms(BOX, MASK) / f),
    ("geometry.frustum.selectivity", "ratio", [BOX, MASK, "geometry.project_to_image"],
     lambda t, f, p: _ratio(t.count("selected", BOX, MASK),
                            t.count("points", "geometry.project_to_image"))),
    ("geometry.frustum_rotation.ms", "ms/frame", ["geometry.frustum_rotation"],
     lambda t, f, p: t.ms("geometry.frustum_rotation") / f),
    ("clustering.estimate_centroid.calls", "count/frame", ["clustering.estimate_centroid"],
     lambda t, f, p: t.n("clustering.estimate_centroid") / f),
    ("clustering.estimate_centroid.ms", "ms/frame", ["clustering.estimate_centroid"],
     lambda t, f, p: t.ms("clustering.estimate_centroid") / f),
    ("clustering.axis_histogram.bins_per_point", "ratio", ["clustering.axis_histogram"],
     lambda t, f, p: _ratio(t.count("bins", "clustering.axis_histogram"),
                            t.count("values", "clustering.axis_histogram"))),
    ("regressor.rasterize_bev.ms", "ms/frame", ["regressor.rasterize_bev"],
     lambda t, f, p: t.ms("regressor.rasterize_bev") / f),
    ("regressor.forward.calls", "count/frame", ["regressor.forward"],
     lambda t, f, p: t.n("regressor.forward") / f),
    ("regressor.forward.ms", "ms/frame", ["regressor.forward"],
     lambda t, f, p: t.ms("regressor.forward") / f),
    ("regressor.build_training_set.ms", "ms/frame", ["regressor.build_training_set"],
     lambda t, f, p: t.ms("regressor.build_training_set") / f),
    ("regressor.samples", "count/frame", ["regressor.build_training_set"],
     lambda t, f, p: t.count("samples", "regressor.build_training_set") / f),
    ("regressor.loss_and_gradients.ms", "ms/frame", ["regressor.loss_and_gradients"],
     lambda t, f, p: t.ms("regressor.loss_and_gradients") / f),
    ("regressor.mean_loss.ms", "ms/frame", ["regressor.mean_loss"],
     lambda t, f, p: t.ms("regressor.mean_loss") / f),
    ("regressor.train.epochs", "count/call", ["regressor.train", "regressor.loss_and_gradients"],
     lambda t, f, p: _ratio(t.n("regressor.loss_and_gradients"), t.n("regressor.train"))),
    ("pipeline.load_frame_inputs.ms", "ms/frame", ["pipeline.load_frame_inputs"],
     lambda t, f, p: t.ms("pipeline.load_frame_inputs") / f),
    ("pipeline.process_frame.ms", "ms/frame", ["pipeline.process_frame"],
     lambda t, f, p: t.ms("pipeline.process_frame") / f),
    ("pipeline.detections", "count/frame", ["pipeline.run_dataset"],
     lambda t, f, p: p["detections"] / f),
    ("pipeline.faraway", "count/frame", ["pipeline.run_dataset"],
     lambda t, f, p: p["faraway"] / f),
    ("pipeline.routed_near", "count/frame", ["pipeline.run_dataset"],
     lambda t, f, p: p["routed_near"] / f),
    ("pipeline.skipped", "count/frame", ["pipeline.run_dataset"],
     lambda t, f, p: (p["skipped_empty"] + p["skipped_unknown"]) / f),
    ("pipeline.faraway_share", "ratio", ["pipeline.run_dataset"],
     lambda t, f, p: _ratio(p["faraway"], p["detections"])),
    ("evaluation.iou.calls", "count/frame", list(IOU),
     lambda t, f, p: t.n(*IOU) / f),
    ("evaluation.iou.nonzero_share", "ratio", list(IOU),
     lambda t, f, p: _ratio(t.count("nonzero", *IOU), t.n(*IOU))),
    ("evaluation.iou.ms", "ms/frame", list(IOU),
     lambda t, f, p: t.ms(*IOU) / f),
    ("evaluation.match_greedy.ms", "ms/frame", ["evaluation.match_greedy"],
     lambda t, f, p: t.ms("evaluation.match_greedy") / f),
    ("evaluation.ap_11point.ms", "ms/frame", ["evaluation.ap_11point"],
     lambda t, f, p: t.ms("evaluation.ap_11point") / f),
    ("evaluation.evaluate_boxes.ms", "ms/frame", ["evaluation.evaluate_boxes"],
     lambda t, f, p: t.ms("evaluation.evaluate_boxes") / f),
]


def overhead_pct(run: Run) -> float:
    keys = [k for k in run.traced_costs if run.costs.get(k)]
    traced = sum(statistics.median(run.traced_costs[k]) for k in keys)
    plain = sum(statistics.median(run.costs[k]) for k in keys)
    return 100.0 * (traced / plain - 1.0)


def layer_metrics(run: Run, totals: SpanTotals) -> dict[str, dict]:
    frames = sum(len(op.frames) for op, _ in run.traced_outcomes) or 1
    pipe = defaultdict(int)
    for _, out in run.traced_outcomes:
        for key in ("detections", "faraway", "routed_near", "skipped_empty", "skipped_unknown"):
            pipe[key] += out.values.get(key, 0)
    metrics = {}
    for name, unit, needs, fn in LAYER_METRICS:
        if run.missing.intersection(needs):
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": fn(totals, frames, pipe), "unit": unit}
    metrics["trace.overhead_pct"] = {"value": overhead_pct(run), "unit": "%"}
    return metrics


def self_time_table(tracer: tracing.Tracer, totals: SpanTotals) -> list[str]:
    """Per-function and per-layer self time, plus the process_frame breakdown."""
    root = totals.root_ns or 1
    lines = [f"{'span':<36} {'calls':>8} {'total_ms':>11} {'self_ms':>11} {'self%':>7}"]
    for name in sorted(totals.self_by, key=lambda n: -totals.self_by[n]):
        lines.append(f"{name:<36} {totals.calls[name]:>8} {totals.total_by[name] / 1e6:>11.2f} "
                     f"{totals.self_by[name] / 1e6:>11.2f} "
                     f"{100 * totals.self_by[name] / root:>6.2f}%")
    layers: dict[str, int] = defaultdict(int)
    in_frame: dict[str, int] = defaultdict(int)
    inside = [False] * len(tracer.spans)
    for index, (name, _, _, parent, _) in enumerate(tracer.spans):
        layer = name.split(".")[0]
        layers[layer] += totals.self_ns[index]
        inside[index] = name == "pipeline.process_frame" or (parent >= 0 and inside[parent])
        if inside[index]:
            in_frame[layer] += totals.self_ns[index]
    lines.append("")
    lines.append(f"{'layer':<12} {'self_ms':>11} {'self%':>7}")
    for layer in sorted(layers, key=lambda n: -layers[n]):
        lines.append(f"{layer:<12} {layers[layer] / 1e6:>11.2f} "
                     f"{100 * layers[layer] / root:>6.2f}%")
    frame_ns = sum(in_frame.values())
    if frame_ns:
        lines.append("")
        lines.append("self time inside pipeline.process_frame, by layer:")
        for layer in sorted(in_frame, key=lambda n: -in_frame[n]):
            lines.append(f"  {layer:<12} {in_frame[layer] / 1e6:>11.2f} ms "
                         f"{100 * in_frame[layer] / frame_ns:>6.2f}%")
    return lines


# --- entry -------------------------------------------------------------------------

def _flush(work: Path) -> None:
    """Write the generated inputs back to disk before timing starts, so that
    writeback of set-up files does not compete with the measured operations."""
    for path in work.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def setup_once(name: str, work: str, seed: int) -> float:
    """Generate the workload's inputs under `work`; the seconds it took."""
    shutil.rmtree(work, ignore_errors=True)
    Path(work).mkdir(parents=True)
    wl = workloads.WORKLOADS[name](Path(work), seed)
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def setup_in_child(name: str, work: Path, seed: int) -> float:
    """setup_once in a fresh interpreter, waited for."""
    bench = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(bench.parent / "src"), str(bench)])}
    code = f"import harness; print(harness.setup_once({name!r}, {str(work)!r}, {seed}))"
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1])


def main(args, work_root: Path, threads: dict[str, str]) -> int:
    wl_cls = workloads.WORKLOADS[args.workload]
    work = work_root / args.workload
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    machine = machine_info(threads, args.seed)

    # Each set-up runs in a fresh process. Generating scenes in the measuring
    # process would leave its allocator in a seed-dependent state: for some
    # seeds glibc then maps and page-faults every multi-megabyte temporary of
    # every operation, which made identical frames 40 % slower.
    setup_s = [setup_in_child(args.workload, work, args.seed) for _ in range(SETUP_REPEATS)]
    wl = wl_cls(work, args.seed)
    wl.load()
    _flush(work)
    wl.prepare()

    tracer = tracing.Tracer() if args.trace else None
    run = measure(wl, args.seconds, tracer)
    failed = len(run.errors)
    timed = [t for ts in run.times.values() for t in ts]
    if not timed or len(run.outcomes) < len(wl.ops()):
        print("\n".join(f"error {e}" for e in run.errors[:5]))
        print("error: operations failed, nothing to measure or check")
        return 1
    failures = common_checks(run) + wl.check(run.outcomes)
    items = sum(run.outcomes[k][0].items * len(ts) for k, ts in run.times.items())

    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}",
             "machine " + json.dumps(machine, sort_keys=True),
             f"setup_s {statistics.median(setup_s):.4f} s (median of "
             + ", ".join(f"{s:.4f}" for s in setup_s) + ")",
             f"ops_failed_frac {failed / run.attempted:.4f} ratio "
             f"({failed} of {run.attempted} operations raised)"]
    lines += [f"  error {e}" for e in run.errors[:5]]

    if args.trace:
        totals = SpanTotals(tracer)
        metrics = layer_metrics(run, totals)
        residual = sum(totals.self_ns) - totals.root_ns
        if residual != 0:
            failures.append(f"self times sum to the root spans {residual} ns off")
        if args.workload == "train_mask":
            epochs = metrics["regressor.train.epochs"]["value"]
            if epochs != wl.epochs:
                failures.append(f"regressor.train ran {epochs} epochs, expected {wl.epochs}")
        table = self_time_table(tracer, totals)
        tracer.write_spans(results / f"spans-{args.workload}-seed{args.seed}.jsonl")
        (results / f"selftime-{args.workload}-seed{args.seed}.txt").write_text(
            "\n".join(table) + "\n")
        lines.append(f"spans {len(tracer.spans)} written to "
                     f"{results.relative_to(work_root.parent)}/spans-{args.workload}-"
                     f"seed{args.seed}.jsonl; self times sum to the root spans "
                     f"(residual {residual} ns)")
        if run.missing:
            lines.append("missing traced functions: " + ", ".join(sorted(run.missing)))
        lines += table
        for name, m in metrics.items():
            shown = "MISSING" if m.get("missing") else f"{m['value']:.6g}"
            lines.append(f"{name:<44} {shown:>14} {m['unit']}")
    else:
        costs = [c for cs in run.costs.values() for c in cs]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_cost.p50": {"value": statistics.median(costs), "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        named = wl.report(run.times, run.outcomes)
        lines.append(f"op = {wl.op_name}; items = {wl.item_unit}; {len(timed)} timed operations; "
                     f"ref = one pass of the reference loop, median "
                     f"{statistics.median(run.reference_s) * 1000:.4g} ms over "
                     f"{len(run.reference_s)} samples")
        for name, m in metrics.items():
            lines.append(f"{name:<22} {m['value']:>14.6g} {m['unit']}")
        for name, samples, unit in (("op_cost", costs, "ref"),
                                    ("op_ms", [t * 1000 for t in timed], "ms")):
            pct_tail = tail(samples)
            if name == "op_ms":
                lines.append(f"{'op_ms.p50':<22} {statistics.median(samples):>14.6g} ms")
            lines.append(f"{name + '.tail':<22} " + (
                f"{pct_tail[1]:>14.6g} {unit} (p{pct_tail[0]}, n={len(samples)})" if pct_tail
                else f"{'n/a':>14} (n={len(samples)}, needs at least 20)"))
        lines.append(f"{'items_per_s':<22} {items / sum(timed):>14.6g} 1/s")
        for name, (value, unit, note) in named.items():
            lines.append(f"{name:<22} {value:>14.6g} {unit} ({note})")

    correct = not failures and failed == 0
    lines += [f"check FAILED: {f}" for f in failures] or ["checks passed"]
    for line in lines:
        print(line)
    record = {"correct": correct, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(
        {**record, "machine": machine, "setup_s": setup_s, "op_s": run.times,
         "traced_op_s": run.traced_times, "op_cost": run.costs,
         "reference_s": run.reference_s,
         "report": lines}, indent=1))
    print(json.dumps(record))
    return 0 if correct else 1
