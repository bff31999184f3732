import ast
import builtins
import importlib
import re
from pathlib import Path

import farfrustum
from farfrustum.cli import UsageError
from farfrustum.errors import FarFrustumError

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert farfrustum.__all__
    for name in farfrustum.__all__:
        assert getattr(farfrustum, name) is not None


def test_readme_library_example_runs(mini_dataset, monkeypatch):
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(mini_dataset.root)
    names: dict = {}
    exec(compile(code, "README.md", "exec"), names)
    assert len(names["frustum"]) > 0
    assert len(names["centroid"]) == 3


def _parents(tree: ast.AST) -> dict:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _names(expr: ast.expr | None) -> list[str]:
    """The plain names in `X` or `(X, Y)`; the callee's name in `X(...)`."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    items = expr.elts if isinstance(expr, ast.Tuple) else [expr]
    return [n.id for n in items if isinstance(n, ast.Name)]


def _raised_classes(node: ast.Raise, parents: dict, module) -> list:
    """The exception classes a raise statement names.

    `raise type(exc)(...)` and a bare `raise` re-raise what the enclosing
    handler caught, so they name that handler's classes.
    """
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if exc is None or isinstance(exc, ast.Call):  # bare raise, or type(exc)(...)
        name = None if exc is None else exc.args[0].id
        handler = parents[node]
        while not (isinstance(handler, ast.ExceptHandler)
                   and (name is None or handler.name == name)):
            handler = parents[handler]
        exc = handler.type
    return [vars(module).get(name) or getattr(builtins, name) for name in _names(exc)]


def _handled_as_config_error(node: ast.Raise, parents: dict) -> bool:
    """True inside a try body whose ValueError handler raises ConfigError."""
    child, outer = node, parents[node]
    while not isinstance(outer, ast.Module):
        if isinstance(outer, ast.Try) and child in outer.body:
            for handler in outer.handlers:
                raised = [n for r in ast.walk(handler) if isinstance(r, ast.Raise)
                          for n in _names(r.exc)]
                if "ValueError" in _names(handler.type) and "ConfigError" in raised:
                    return True
        child, outer = outer, parents[outer]
    return False


def test_every_raise_names_a_package_error():
    src = Path(farfrustum.__file__).parent
    bad = []
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(f"farfrustum.{path.stem}")
        tree = ast.parse(path.read_text(), str(path))
        parents = _parents(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            for cls in _raised_classes(node, parents, module):
                if issubclass(cls, (FarFrustumError, UsageError)):
                    continue
                if cls is ValueError and _handled_as_config_error(node, parents):
                    continue
                bad.append(f"{path.name}:{node.lineno} raises {cls.__name__}")
    assert not bad, bad


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_function_a_benchmark_metric_traces_exists(monkeypatch):
    # the benchmark traces these by name; a missing one would read null in a
    # run that still ends correct, so each stays until the benchmark drops it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = importlib.import_module("harness")
    needs = sorted({name for _, _, names, _ in harness.LAYER_METRICS for name in names})
    assert len(needs) == 26
    for name in needs:
        module, function = name.split(".")
        module = importlib.import_module(f"farfrustum.{module}")
        assert callable(getattr(module, function, None)), name


def test_each_frames_calibration_lookup_stays_traceable(mini_dataset, mini_config, monkeypatch):
    # the benchmark's tracer swaps kitti_io.parse_calibration by name in every module that
    # binds it; the per-text cache sits behind that name, so each frame's lookup is a span
    from farfrustum import kitti_io, pipeline

    assert callable(kitti_io.parse_calibration)
    assert pipeline.parse_calibration is kitti_io.parse_calibration
    assert farfrustum.parse_calibration is kitti_io.parse_calibration
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        pipeline.run_dataset(mini_dataset.frame_ids, mini_config)
    finally:
        tracer.uninstall()
    assert pipeline.parse_calibration is kitti_io.parse_calibration
    names = [span[0] for span in tracer.spans]
    assert names.count("kitti_io.parse_calibration") == len(mini_dataset.frame_ids)
