"""Span tracing from outside the program.

``Tracer.install`` swaps each traced public function, in every
``farfrustum`` module namespace that binds it, for a wrapper that records a
span: name, start, end, parent span and request id (a frame id, or a range
of frame ids for a batch). Callers look their functions up by name at call
time, so the program's code runs unchanged. ``uninstall`` puts the
originals back. Spans stay in memory until ``write_spans``.

Self time is a span's duration minus the part of it its child spans cover,
so the self times of every span under a root add up to the root exactly.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

import numpy as np

# (module, function, measure). A measure maps (args, result) to counts that
# are stored on the span; it runs after the span has ended.
Measure = Callable[[tuple, Any], dict]


def _len0(args, result) -> dict:
    return {"points": len(args[0])}


TRACED: list[tuple[str, str, Measure | None]] = [
    ("kitti_io", "load_pointcloud", lambda a, r: {"bytes": len(a[0])}),
    ("kitti_io", "parse_calibration", None),
    ("kitti_io", "parse_detections", None),
    ("kitti_io", "parse_labels", None),
    ("kitti_io", "read_pgm", lambda a, r: {"bytes": int(r.nbytes)}),
    ("kitti_io", "write_results", None),
    ("geometry", "lidar_to_camera", _len0),
    ("geometry", "project_to_image", _len0),
    ("geometry", "points_in_box_frustum", lambda a, r: {"selected": len(r)}),
    ("geometry", "points_in_mask_frustum", lambda a, r: {"selected": len(r)}),
    ("geometry", "frustum_rotation", None),
    ("geometry", "to_centroid_frame", None),
    ("geometry", "bev_project", None),
    ("clustering", "estimate_centroid", None),
    ("clustering", "axis_histogram",
     lambda a, r: {"bins": len(r.counts), "values": int(np.size(a[0]))}),
    ("regressor", "rasterize_bev", None),
    ("regressor", "forward", None),
    ("regressor", "build_training_set", lambda a, r: {"samples": len(r[0])}),
    ("regressor", "train", None),
    ("regressor", "loss_and_gradients", None),
    ("regressor", "mean_loss", None),
    ("regressor", "save_checkpoint", None),
    ("pipeline", "run_dataset", None),
    ("pipeline", "load_frame_inputs", None),
    ("pipeline", "process_frame", None),
    ("evaluation", "evaluate_boxes", None),
    ("evaluation", "match_greedy", None),
    ("evaluation", "ap_11point", None),
    ("evaluation", "bev_iou", lambda a, r: {"nonzero": int(r > 0.0)}),
    ("evaluation", "iou_3d", lambda a, r: {"nonzero": int(r > 0.0)}),
]

PACKAGE = "farfrustum"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        # span: [name, start_ns, end_ns, parent index or -1, request id]
        self.spans: list[list] = []
        self.counts: dict[int, dict] = {}
        self.request = ""
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.request])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, request: str):
        """A benchmark-side span around one operation."""
        self.request = request
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn: Callable, measure: Measure | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if measure is not None:
                self.counts[index] = measure(args, result)
            return result

        return traced

    # -- swapping -----------------------------------------------------------

    def install(self) -> list[str]:
        """Swap every traced function in; return the names that do not exist."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        missing = []
        for module_name, func_name, measure in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._swapped.append((module, attr, original))
        return missing

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._swapped):
            setattr(module, attr, original)
        self._swapped.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time in ns of every span, by span index."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0, start
            for child in sorted(children.get(index, ()), key=lambda c: self.spans[c][1]):
                c_start, c_end = max(self.spans[child][1], reach), min(self.spans[child][2], end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            for index, (name, start, end, parent, request) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start - t0,
                          "end_ns": end - t0, "parent": parent if parent >= 0 else None,
                          "request": request}
                if index in self.counts:
                    record["counts"] = self.counts[index]
                fh.write(json.dumps(record) + "\n")
