"""Every `qddsim` command of the README's command-line block runs cleanly, and
every code name the README quotes exists."""

import dataclasses
import importlib
import pkgutil
import re
import shlex

import qddsim
from qddsim.cli import main

from conftest import ROOT

# names the README writes call-shaped as mathematics, not as code
MATH_NOTATION = {
    "Hbar2", "Hbar3", "diag", "exp", "eye", "kron", "len", "min", "p_nu", "popcount", "x"
}


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


def _roots():
    """Where a quoted name may live: qddsim's modules (and the test oracle
    module `reference`) by name, and qddsim with its public classes unqualified."""
    modules = {
        info.name: importlib.import_module(f"qddsim.{info.name}")
        for info in pkgutil.iter_modules(qddsim.__path__)
    }
    modules["reference"] = importlib.import_module("reference")
    classes = [v for n, v in vars(qddsim).items() if isinstance(v, type) and n[0] != "_"]
    return modules, [qddsim, *modules.values(), *classes]


def _has(owner, name):
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, name) or name in {f.name for f in fields}


def _resolves(name, modules, unqualified):
    head, *rest = name.removeprefix("qddsim.").split(".")
    if head in modules:
        owner = modules[head]
    else:
        owner = next((o for o in unqualified if _has(o, head)), None)
        rest = [head, *rest]
    for part in rest:
        if owner is None or not _has(owner, part):
            return False
        owner = getattr(owner, part, None)
    return True


def unresolved_references(text):
    """The module-qualified names and the call-shaped `name(...)` names quoted in
    backticks in `text` that name nothing in qddsim."""
    modules, unqualified = _roots()
    spans = re.findall(r"`([^`\n]+)`", text)
    qualified = r"(?<![\w./])((?:qddsim\.)?(?:%s)\.[A-Za-z_][\w.]*)" % "|".join(modules)
    names = [m.rstrip(".") for span in spans for m in re.findall(qualified, span)]
    calls = [m for span in spans for m in re.findall(r"(?<![\w./])([A-Za-z_][\w.]*)\(", span)]
    names += [name for name in calls if name not in MATH_NOTATION]
    return sorted({name for name in names if not _resolves(name, modules, unqualified)})


def test_readme_names_resolve():
    assert unresolved_references((ROOT / "README.md").read_text()) == []


def test_a_stale_name_is_reported():
    text = (
        "`pulse_operator(n_x, n_z)` and `metrics.gone`, "
        "beside `linalg.rotate(op, nu)` and `exp(x)`"
    )
    assert unresolved_references(text) == ["metrics.gone", "pulse_operator"]
