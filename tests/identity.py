"""Digest manifest of qddsim's outputs, to show that a change moves none of them.

A script, not a test module. From the repository root:

    python tests/identity.py                    # the manifest of this checkout, as JSON
    python tests/identity.py --against HEAD~1   # every entry that differs from HEAD~1

Each entry is the sha256 digest of one output, formed from its exact bits,
and the numbers behind it, where it has any:

- the 16 adaptive 4x4 exponent tables of draws 42 and 271828, both symmetry
  classes, both baths and M = 3 and 6, one entry per cell: `float.hex` of
  zeta and r^2 and `kept.tobytes()`, or the failure text (numbers: zeta,
  r^2 and the kept rows);
- 48 `symmetry_report` JSONs: M = 2, 3 and 4, both classes, both baths,
  four cells at tau = 0.5, draw 42 (numbers: every number of the JSON);
- 48 Magnus order-check slopes (`float.hex`): M = 2 and 3, both classes,
  four cells, orders 1 to 3, draw 42 (numbers: the slope);
- the exit code, stdout, stderr and written files of 13 CLI runs;
- each [PASS]/[FAIL] line that `tests/test_acceptance.py -s` prints.

The manifest of a checkout is formed in a child process whose PYTHONPATH is
that checkout's `src` and whose working directory is its root, so each side
imports its own package and runs its own acceptance suite with the same
inputs. `--against REV` extracts REV with `git archive` into a temporary
directory (no network, and nothing is registered in the repository's git
metadata, even if the run is cut short), forms its manifest there, removes
the directory, and lists every entry that differs, with the largest absolute
and relative deviation of its numbers; the exit code is 1 if any entry
differs. The working tree, uncommitted changes included, is the other side.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DRAWS = (42, 271828)
CELLS = ((1, 1), (2, 1), (1, 2), (3, 3))


def _entry(numbers: list[float], *chunks) -> dict:
    """The sha256 digest of `chunks`, with the numbers behind it."""
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
        h.update(b"\0")
    return {"sha": h.hexdigest(), "numbers": numbers}


def _numbers(doc) -> list[float]:
    """Every number of a parsed JSON document, in document order."""
    if isinstance(doc, dict):
        return [x for value in doc.values() for x in _numbers(value)]
    if isinstance(doc, list):
        return [x for value in doc for x in _numbers(value)]
    return [float(doc)] if isinstance(doc, (int, float)) else []


def _settings(q, ms):
    """(M, symmetry class, bath kind) over `ms`, both classes and both baths."""
    for m in ms:
        for sym in q.SymmetryClass:
            for kind in q.BathKind:
                yield m, sym, kind


def _tables(q) -> dict[str, dict]:
    entries = {}
    for seed in DRAWS:
        for m, sym, kind in _settings(q, (3, 6)):
            couplings = q.random_couplings(seed, m, sym)
            directions = q.default_directions(m) if kind is q.BathKind.PRODUCT else None
            table = q.exponent_table(q.SweepSpec(couplings, kind, directions))
            label = f"table/{seed}/M{m}/{sym.value}/{kind.value}"
            for (nx, nz), cell in sorted(table.cells.items()):
                entries[f"{label}/{nx},{nz}"] = _entry(
                    [cell.zeta, cell.r_squared, *cell.kept.ravel().tolist()],
                    cell.zeta.hex(), cell.r_squared.hex(), cell.kept.tobytes(),
                )
            for (nx, nz), message in sorted(table.failures.items()):
                entries[f"{label}/{nx},{nz}"] = _entry([], "failed", message)
    return entries


def _reports(q) -> dict[str, dict]:
    entries = {}
    for m, sym, kind in _settings(q, (2, 3, 4)):
        parts = q.build_hamiltonian(q.random_couplings(DRAWS[0], m, sym))
        directions = q.default_directions(m) if kind is q.BathKind.PRODUCT else None
        r = q.make_states(kind, m, directions)
        for nx, nz in CELLS:
            blocks = q.qdd_decomposition(parts, nx, nz, 0.5)
            report = q.symmetry_report(blocks, r, m).to_json()
            key = f"report/M{m}/{sym.value}/{kind.value}/{nx},{nz}"
            entries[key] = _entry(_numbers(json.loads(report)), report)
    return entries


def _slopes(q) -> dict[str, dict]:
    import numpy as np

    entries = {}
    taus = np.geomspace(0.02, 0.2, 6)
    for m in (2, 3):
        for sym in q.SymmetryClass:
            parts = q.build_hamiltonian(q.random_couplings(DRAWS[0], m, sym))
            for nx, nz in CELLS:
                for order in (1, 2, 3):
                    try:
                        slope = q.magnus_order_check(parts, nx, nz, taus, order)
                        entry = _entry([slope], slope.hex())
                    except q.DegenerateFitWindowError as err:
                        entry = _entry([], f"degenerate: {err}")
                    entries[f"magnus/M{m}/{sym.value}/{nx},{nz}/order{order}"] = entry
    return entries


def _cli_runs(work: Path) -> list[tuple[str, list[str], Path | None]]:
    """(label, argv, the file or directory the run writes) of each CLI run."""
    c = str(work / "c.json")
    fixed = ["--tau-min", "2e-3", "--tau-max", "5e-2", "--points", "10"]
    return [
        ("couplings-aniso", ["couplings", "--seed", "42", "--M", "3", "-o", c], Path(c)),
        ("couplings-chain", ["couplings", "--seed", "271828", "--M", "4", "--class",
                             "isotropic", "--topology", "chain", "--alpha", "0.5"], None),
        ("schedule", ["schedule", "--nx", "2", "--nz", "3", "--tau", "1.0"], None),
        ("magnus", ["magnus", "--nx", "2", "--nz", "1", "--tau", "2"], None),
        ("simulate-product", ["simulate", "--couplings", c, "--bath", "product", "--nx", "1",
                              "--nz", "1", "--tau-min", "1e-3", "--tau-max", "1e-1",
                              "--points", "12"], None),
        ("simulate-mixed", ["simulate", "--seed", "42", "--M", "4", "--class", "isotropic",
                            "--bath", "mixed", "--nx", "2", "--nz", "2", "--points", "8"], None),
        ("simulate-directions", ["simulate", "--couplings", c, "--directions", "x+,y-,z",
                                 "--nx", "1", "--nz", "2", "--points", "8"], None),
        ("table-mixed", ["table", "--seed", "42", "--M", "3", "--class", "isotropic",
                         "--bath", "mixed", "--nx-max", "2", "--nz-max", "2"], None),
        ("table-fixed", ["table", "--seed", "42", "--M", "4", *fixed], None),
        ("table-bundles", ["table", "--seed", "271828", "--M", "3", "--nx-max", "1",
                           "--bundle-dir", str(work / "bundles")], work / "bundles"),
        ("sweep", ["sweep", "--seed", "42", "--M", "3", "--nx-max", "1", "--nz-max", "2",
                   "--out-dir", str(work / "sweep")], work / "sweep"),
        ("symmetry-mixed", ["symmetry-check", "--seed", "42", "--M", "3", "--class",
                            "isotropic", "--bath", "mixed"], None),
        ("symmetry-product", ["symmetry-check", "--seed", "271828", "--M", "2", "--nx", "2",
                              "--nz", "1", "--tau", "0.7"], None),
    ]


def _cli() -> dict[str, dict]:
    from qddsim.cli import main

    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, argv, written in _cli_runs(work):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if written is None:
                files = []
            else:
                files = sorted(written.iterdir()) if written.is_dir() else [written]
            chunks = [code, out.getvalue(), err.getvalue()]
            chunks += [x for f in files for x in (f.name, f.read_bytes())]
            entries[f"cli/{label}"] = _entry([], *chunks)
    return entries


def _acceptance() -> dict[str, dict]:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        capture_output=True,
        text=True,
    )
    entries = {"acceptance/exit": _entry([], proc.returncode)}
    for match in re.finditer(r"\[(?:PASS|FAIL)\] ([^:\n]*):[^\n]*", proc.stdout):
        entries[f"acceptance/{match[1]}"] = _entry([], match[0])
    return entries


def _emit() -> None:
    """Write this process's manifest to stdout: the package on PYTHONPATH, the
    acceptance suite of the working directory."""
    import qddsim as q

    entries = {}
    for part in (_tables(q), _reports(q), _slopes(q), _cli(), _acceptance()):
        entries.update(part)
    json.dump(entries, sys.stdout, indent=1, sort_keys=True)


def manifest(root: Path) -> dict[str, dict]:
    """The manifest of the checkout at `root`, formed in a child process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        raise SystemExit(f"the manifest of {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def manifest_at(rev: str) -> dict[str, dict]:
    """The manifest of revision `rev`, extracted with `git archive` into a temporary directory."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        return manifest(Path(tmp))


def differences(ours: dict[str, dict], theirs: dict[str, dict]) -> list[str]:
    """The entries whose digests differ, or that only one manifest has, in sorted order."""
    return sorted(
        key
        for key in ours.keys() | theirs.keys()
        if ours.get(key, {}).get("sha") != theirs.get(key, {}).get("sha")
    )


def deviation(ours: list[float], theirs: list[float]) -> tuple[float, float] | None:
    """The largest absolute and relative deviation of the numbers `ours` from `theirs`,
    pair by pair (relative to |theirs|, infinite where that is 0 and ours is not), or
    None when they do not pair up: no numbers, or not as many on both sides."""
    if not ours or len(ours) != len(theirs):
        return None
    gaps = [abs(a - b) for a, b in zip(ours, theirs)]
    relative = [gap / abs(b) if b else (math.inf if gap else 0.0) for gap, b in zip(gaps, theirs)]
    return max(gaps), max(relative)


def compare(ours: dict[str, dict], theirs: dict[str, dict], rev: str) -> list[str]:
    """The report of `--against rev`: one line per moved entry, then the count."""
    lines = []
    for key in differences(ours, theirs):
        moved = deviation(*(side[key]["numbers"] if key in side else [] for side in (ours, theirs)))
        size = "" if moved is None else " (largest deviation: abs %.3g, rel %.3g)" % moved
        lines.append(f"differs: {key}{size}")
    lines.append(f"{len(lines)} of {len(ours)} entries differ from {rev}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--against", metavar="REV", help="list the entries that differ from REV")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        _emit()
        return 0
    ours = manifest(ROOT)
    if not args.against:
        sys.stdout.write(json.dumps(ours, indent=1, sort_keys=True) + "\n")
        return 0
    lines = compare(ours, manifest_at(args.against), args.against)
    print("\n".join(lines))
    return 1 if len(lines) > 1 else 0  # a line per moved entry, then the count


if __name__ == "__main__":
    sys.exit(main())
