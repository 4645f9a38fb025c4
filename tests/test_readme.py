"""README's quick start runs, its CLI table lists each command's flags, its
claims table names only verdicts that the checks produce, and every public
name resolves."""

import re
from pathlib import Path

import squidw
from squidw import cli, experiments

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
    _, commands = cli._build_parser()
    taken = {
        command: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for command, p in commands.items()
    }
    assert listed == taken


def test_claims_table_names_only_verdicts_the_checks_produce():
    """Every label in README's table of the abstract's claims is the label
    of a verdict that `reproduce all` or `verify` prints."""
    text = README.read_text(encoding="utf-8")
    table = text.split("### The abstract's claims and their checks")[1].split("\n## ")[0]
    rows = re.findall(r"^\| (.+?) \| (.+?) \|$", table, re.M)[2:]
    named = {label for _, verdicts in rows for label in re.findall(r"`([^`]+)`", verdicts)}
    # every reproduce target in one run_points call, as `reproduce all` runs them
    checks = [check for name, check in experiments.CHECKS.items() if name != "verify"]
    outputs = experiments._run_plans([check.plan(1000, "rescale") for check in checks], None)
    produced = {v.label for check, out in zip(checks, outputs) for v in check.judge(out)}
    produced |= {v.label for v in experiments.CHECKS["verify"](n_steps=1000)}
    assert named and named <= produced, named - produced
