"""README's quick start runs, its CLI table lists each command's flags, and
every public name resolves."""

import argparse
import re
from pathlib import Path

import squidw
from squidw import cli

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


def test_cli_table_lists_each_commands_flags():
    """The flags README's CLI table gives each command are the option
    strings of that command's subparser, so README claims no flag the code
    does not take and omits none it does."""
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)[^`]*` \| (`-.*?) \|", text, re.M)
    listed = {
        command: {f for cell in re.findall(r"`([^`]+)`", flags) for f in cell.split("/")}
        for command, flags in rows
    }
    actions = cli._build_parser()._actions
    [commands] = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    taken = {
        command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for command, p in commands.choices.items()
    }
    assert listed == taken
