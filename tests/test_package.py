import re
from pathlib import Path

import farfrustum

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
