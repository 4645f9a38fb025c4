"""README's quick start runs, and every public name resolves."""

import re
from pathlib import Path

import squidw

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    """The first fenced python block of README runs as written."""
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[:1]
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert float(lines[0]) > 0.9999


def test_every_public_name_resolves():
    for name in squidw.__all__:
        assert hasattr(squidw, name), name
