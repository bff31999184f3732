"""farfrustum benchmark entry point.

    python3 perfbench/run.py --workload run_kitti --seed 1 --seconds 30 --trace 0

Generates seeded KITTI-layout inputs under .perfbench-work/ in the checkout,
runs one workload through the package in ``src/`` for --seconds (closed
loop, one client, one operation at a time, one process), checks the
outputs and prints a human-readable report followed, as the last line, by
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes over the same operations and reports the per-layer metrics
from the traced passes, the tracing overhead, a self-time table and a span
file. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _pin_threads() -> dict[str, str]:
    """Run BLAS/OpenMP on one thread: the load is one client in one process,
    and idle BLAS threads spin on a second CPU of the shared host."""
    settings = {}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
        settings[var] = os.environ[var]
    return settings


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("run_kitti", "eval_dense", "train_mask"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "farfrustum" / "__init__.py").is_file():
        print(f"error: no farfrustum package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = _pin_threads()   # before numpy is imported
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import harness

    return harness.main(args, ROOT / ".perfbench-work", threads)


if __name__ == "__main__":
    sys.exit(main())
