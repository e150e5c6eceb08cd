"""Every `qddsim` command of the README's command-line block runs cleanly."""

import re
import shlex

import pytest

from qddsim.cli import main

from conftest import ROOT


def readme_commands():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```\n(.*?)```", section, re.S)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qddsim ")]


def test_readme_commands_exit_zero(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "couplings", "schedule", "simulate", "sweep", "table", "magnus", "symmetry-check"
    ]
    monkeypatch.chdir(tmp_path)  # the commands write couplings.json, runs/ and table.csv
    for argv in commands:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "runs" / "low" / "cell_nx3_nz3.json").exists()
