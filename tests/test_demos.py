import re
import runpy
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # demo 05's mkdtemp
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_example_runs(capsys):
    """The README's Library block runs as written against the exports."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
