import json
import subprocess
import sys

import numpy as np
import pytest

import qddsim as q
from qddsim.cli import main

from conftest import subprocess_env


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_couplings_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["couplings", "--seed", "42", "--M", "3", "--class", "anisotropic"]
    assert main(args + ["-o", str(f1)]) == 0
    assert main(args + ["-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_couplings_isotropic_structure(capsys):
    code, out, _ = run_cli(
        ["couplings", "--seed", "5", "--M", "2", "--class", "isotropic"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    for entry in doc["J0"] + doc["J1"]:
        mat = np.array(entry["matrix"])
        assert np.array_equal(mat, np.diag(np.diag(mat)))
        assert mat[0, 0] == mat[1, 1] == mat[2, 2]


def test_couplings_m_zero_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "qddsim.cli", "couplings", "--M", "0"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode != 0
    assert "usage" in proc.stderr.lower()


@pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--alpha", "nan"), ("--lambda", "inf")])
def test_table_rejects_aliased_seeds_and_non_finite_scales(flag, value, capsys):
    code, out, err = run_cli(["table", "--M", "2", flag, value], capsys)
    assert code == 1 and out == ""
    assert "seed" in err or "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--M", "1", "--nx", "1"],  # a prefix of --nx-max
        ["table", "--M", "1", "--work", "2"],  # a prefix of --workers
        ["simulate", "--M", "1", "--nx", "1", "--nz", "1", "--tau", "0.2"],  # two flags
    ],
)
def test_flags_match_exactly(argv, capsys):
    # a prefix of a longer flag is no flag
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_coupling_file_exits_one(tmp_path, capsys):
    f = tmp_path / "c.json"
    doc = json.loads(q.random_couplings(9, 2).to_json())
    del doc["J1"]
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(["couplings", "--couplings", str(f)], capsys)
    assert (code, out) == (1, "")
    assert "missing keys ['J1']" in err


def test_couplings_file_round_trip(tmp_path, capsys):
    f = tmp_path / "c.json"
    assert main(["couplings", "--seed", "9", "--M", "2", "-o", str(f)]) == 0
    code, out, _ = run_cli(["couplings", "--couplings", str(f)], capsys)
    assert code == 0
    assert json.loads(out) == json.loads(f.read_text())


@pytest.mark.parametrize(
    "flags,config,names",
    [
        (["--M", "5", "--seed", "77", "--class", "isotropic"], {}, "--seed, --M, --class"),
        (["--topology", "chain", "--alpha", "2", "--lambda", "3"], {},
         "--topology, --alpha, --lambda"),
        ([], {"seed": 77}, "--seed"),
        (["--M", "2"], {"symmetry_class": "isotropic"}, "--M, --class"),
    ],
)
def test_couplings_file_excludes_the_draw_options(tmp_path, capsys, flags, config, names):
    f, cfg = tmp_path / "c.json", tmp_path / "cfg.json"
    f.write_text(q.random_couplings(9, 2).to_json())
    cfg.write_text(json.dumps(config))
    argv = ["table", "--couplings", str(f), "--nx-max", "1", "--nz-max", "1", *flags]
    code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: --couplings reads the model from its file; "
        f"drop the draw options {names}\n"
    )


def test_schedule_json(capsys):
    code, out, _ = run_cli(["schedule", "--nx", "2", "--nz", "2", "--tau", "1.0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["events"]) == 8  # N_x + N_z + N_x N_z


def test_magnus_values(capsys):
    code, out, _ = run_cli(["magnus", "--nx", "1", "--nz", "1", "--tau", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["I2_mu"]["y"] == pytest.approx(1.0, rel=1e-12)
    assert doc["I2_mu"]["z"] == pytest.approx(2.0, rel=1e-12)
    assert doc["I2_munu"]["x,z"] == pytest.approx(-1.0, rel=1e-12)
    assert doc["I2_munu"]["z,x"] == pytest.approx(1.0, rel=1e-12)


def test_symmetry_check_isotropic_mixed(capsys):
    code, out, _ = run_cli(
        ["symmetry-check", "--seed", "42", "--M", "3", "--class", "isotropic",
         "--bath", "mixed", "--nx", "1", "--nz", "1", "--tau", "0.5"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_abs_b_vector"] <= 1e-12
    assert doc["max_abs_b_offdiag"] <= 1e-12
    assert max(doc["t_residuals"].values()) <= 1e-12


def test_symmetry_check_anisotropic_product(capsys):
    code, out, _ = run_cli(
        ["symmetry-check", "--seed", "42", "--M", "3", "--class", "anisotropic",
         "--bath", "product", "--nx", "1", "--nz", "1", "--tau", "0.5"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["max_abs_b_vector"] > 1e-6


def test_json_keys_follow_ndindex_order(capsys):
    # every axis-indexed entry is keyed "x", "x,y", "x,y,z", ... in np.ndindex
    # order of its array, and holds that array entry
    def keys(shape):
        return [",".join("xyz"[i] for i in index) for index in np.ndindex(shape)]

    code, out, _ = run_cli(["magnus", "--nx", "3", "--nz", "2", "--tau", "0.7"], capsys)
    assert code == 0
    doc = json.loads(out)
    report = q.nested_integrals(q.switching_profile(q.qdd_schedule(3, 2, 0.7)))
    assert list(doc) == ["tau", "I1", "I2_mu", "I2_munu", "I3"]
    for name, array in [("I1", report.i1), ("I2_mu", report.i2_mu),
                        ("I2_munu", report.i2_munu), ("I3", report.i3)]:
        assert list(doc[name]) == keys(array.shape)
        assert list(doc[name].values()) == [float(array[i]) for i in np.ndindex(array.shape)]
    assert [len(doc[name]) for name in ("I2_munu", "I3")] == [9, 27]

    code, out, _ = run_cli(
        ["symmetry-check", "--seed", "42", "--M", "2", "--class", "anisotropic",
         "--bath", "mixed", "--nx", "2", "--nz", "1", "--tau", "0.3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    parts = q.build_hamiltonian(q.random_couplings(42, 2, q.SymmetryClass.ANISOTROPIC))
    r = q.make_states(q.BathKind.MAXIMALLY_MIXED, 2)
    report = q.symmetry_report(q.qdd_decomposition(parts, 2, 1, 0.3), r, 2)
    for name, array in [("b_vector", report.b_vector), ("b_matrix", report.b_matrix)]:
        assert list(doc[name]) == keys(array.shape)
        assert list(doc[name].values()) == [
            [float(array[i].real), float(array[i].imag)] for i in np.ndindex(array.shape)
        ]


def test_simulate_series(capsys):
    code, out, _ = run_cli(
        ["simulate", "--seed", "42", "--M", "2", "--nx", "1", "--nz", "1",
         "--bath", "mixed", "--tau-min", "0.01", "--tau-max", "0.1", "--points", "6"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau,d,dx,dy,dz"
    assert len(lines) == 7
    ds = [float(l.split(",")[1]) for l in lines[1:]]
    assert ds[0] < ds[-1]


@pytest.mark.parametrize(
    "bath,symmetry_class,m,points",
    [
        ("product", "anisotropic", 3, 30),  # 2 columns a duration: chains of 20 and 10
        ("mixed", "isotropic", 2, 9),  # 2D = 8 columns a duration: chains of 5 and 4
    ],
)
def test_simulate_prints_one_qdd_distance_per_tau(bath, symmetry_class, m, points, capsys):
    # the whole grid goes through one batched call; each row must still be
    # the one-duration d, bit for bit
    code, out, _ = run_cli(
        ["simulate", "--seed", "42", "--M", str(m), "--class", symmetry_class,
         "--bath", bath, "--nx", "2", "--nz", "3", "--points", str(points)],
        capsys,
    )
    assert code == 0
    parts = q.build_hamiltonian(
        q.random_couplings(42, m, q.SymmetryClass(symmetry_class))
    )
    kind = q.BathKind.PRODUCT if bath == "product" else q.BathKind.MAXIMALLY_MIXED
    r = q.make_states(kind, m, q.default_directions(m) if bath == "product" else None)
    ev = q.TogglingEvolver(parts)
    taus = q.GeometricGrid(1e-3, 1.0, points).taus()
    assert out == q.series_csv([q.qdd_distance(parts, r, 2, 3, tau, ev) for tau in taus])


def test_simulate_help_states_fixed_default_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "from 1e-3 to 1 (the adaptive grid of sweep and table is not used)" in text
    assert "--d-lo" not in text and "--d-hi" not in text  # simulate has no d window


def test_table_deterministic_across_workers(tmp_path):
    base = ["table", "--seed", "42", "--M", "2", "--class", "anisotropic",
            "--bath", "product", "--nx-max", "1", "--nz-max", "1"]
    f1, f2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(base + ["--workers", "1", "-o", str(f1)]) == 0
    assert main(base + ["--workers", "3", "-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    rows = f1.read_text().strip().split("\n")
    assert rows[0] == "nz\\nx,0,1"
    assert float(rows[2].split(",")[2]) == pytest.approx(2.0, abs=0.15)


def test_sweep_writes_bundles(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--seed", "42", "--M", "2", "--bath", "product",
         "--nx-max", "1", "--nz-max", "0", "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    assert code == 0
    assert err == ""
    for nx in (0, 1):
        csv = (tmp_path / "out" / f"cell_nx{nx}_nz0.csv").read_text()
        assert csv.startswith("tau,d,dx,dy,dz")
        doc = json.loads((tmp_path / "out" / f"cell_nx{nx}_nz0.json").read_text())
        assert doc["seed"] == 42
        assert doc["r_squared"] >= 0.999


def test_table_bundle_dir_writes_the_sweep_json(tmp_path, capsys):
    # one JSON bundle per fitted cell, the one sweep writes, and no series CSV
    flags = ["--seed", "42", "--M", "2", "--bath", "product", "--nx-max", "1", "--nz-max", "1"]
    code, out, err = run_cli(["table", *flags, "--bundle-dir", str(tmp_path / "table")], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("nz\\nx,0,1\n")
    assert run_cli(["sweep", *flags, "--out-dir", str(tmp_path / "sweep")], capsys) == (0, "", "")
    names = sorted(f"cell_nx{nx}_nz{nz}.json" for nx in (0, 1) for nz in (0, 1))
    assert sorted(path.name for path in (tmp_path / "table").iterdir()) == names
    for name in names:
        assert (tmp_path / "table" / name).read_text() == (tmp_path / "sweep" / name).read_text()


def test_sweep_fixed_grid_honours_d_window(tmp_path, capsys):
    code, _, err = run_cli(
        ["sweep", "--seed", "42", "--M", "2", "--bath", "product",
         "--nx-max", "1", "--nz-max", "1", "--tau-min", "3e-4", "--tau-max", "3e-2",
         "--d-hi", "1e-4", "--workers", "1", "--out-dir", str(tmp_path / "out")],
        capsys,
    )
    written = sorted((tmp_path / "out").glob("*.csv"))
    assert written  # cell (1,1) falls below 1e-4 on this grid
    for path in written:
        ds = [float(row.split(",")[1]) for row in path.read_text().strip().split("\n")[1:]]
        assert ds and max(ds) <= 1e-4
    # the zeta = 1 cells stay above 1e-4 here, so they fail instead of
    # fitting points outside the window
    assert code == 2
    assert "reached d in" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "M": 2, "symmetry_class": "isotropic"}))
    code, out, _ = run_cli(["couplings", "--config", str(cfg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7 and doc["M"] == 2
    assert doc["symmetry_class"] == "isotropic"
    # explicit flag wins over config
    code, out, _ = run_cli(["couplings", "--config", str(cfg), "--seed", "11"], capsys)
    assert json.loads(out)["seed"] == 11


def test_config_values_pass_through_flag_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": "7", "M": "3"}))
    code, out, _ = run_cli(["couplings", "--config", str(cfg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 7 and doc["M"] == 3
    for bad in ("three", 2.5, True):
        cfg.write_text(json.dumps({"M": bad}))
        code, out, err = run_cli(["couplings", "--config", str(cfg)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: config 'M': invalid int value")


def test_config_value_outside_choices_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bath": "thermal"}))
    code, out, err = run_cli(["symmetry-check", "--M", "2", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err == "error: config 'bath': 'thermal' is not one of mixed, product\n"


@pytest.mark.parametrize("argv,key", [
    (["couplings", "--M", "1"], "output"),
    (["table", "--M", "1", "--nx-max", "0", "--nz-max", "0"], "bundle_dir"),
])
def test_config_null_exits_one(tmp_path, monkeypatch, capsys, argv, key):
    # a null is no value: it must not become a path named "None"
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    code, out, err = run_cli([*argv, "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: config {key!r}: null is not a value")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_unknown_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workres": 2}))
    code, out, err = run_cli(["table", "--M", "1", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: config keys workres are not options of table")
    # a key another subcommand has is still foreign to this one
    cfg.write_text(json.dumps({"workers": 2}))
    code, _, err = run_cli(["couplings", "--config", str(cfg)], capsys)
    assert code == 1 and "workers" in err
    # a document that is not an object has no keys to read
    cfg.write_text(json.dumps([["workers", 2]]))
    code, out, err = run_cli(["table", "--M", "1", "--config", str(cfg)], capsys)
    assert (code, out, err) == (1, "", "error: config must be a JSON object\n")


def test_table_rejects_an_empty_pulse_grid(capsys):
    code, out, err = run_cli(["table", "--M", "2", "--nx-max", "-1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: n_x_values must be")


@pytest.mark.parametrize("command", ["schedule", "magnus", "symmetry-check"])
@pytest.mark.parametrize("tau", ["nan", "inf", "0"])
def test_cell_commands_reject_a_bad_tau(command, tau, capsys):
    # a NaN or infinite duration used to run to the end and print NaN or Infinity
    argv = [command, "--nx", "1", "--nz", "1", "--tau", tau]
    code, out, err = run_cli([*argv, "--M", "1"] if command == "symmetry-check" else argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: total duration tau must be positive and finite")


def test_config_supplies_symmetry_check_cell(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nx": 2, "nz": 1, "tau": 0.3}))
    flags = ["symmetry-check", "--M", "2", "--bath", "mixed"]
    _, from_config, _ = run_cli([*flags, "--config", str(cfg)], capsys)
    _, from_flags, _ = run_cli([*flags, "--nx", "2", "--nz", "1", "--tau", "0.3"], capsys)
    _, defaults, _ = run_cli(flags, capsys)
    assert from_config == from_flags != defaults


def test_partial_failure_exits_two(tmp_path, capsys):
    # zero couplings make every cell an unfittable flat line
    import qddsim as q

    c = q.random_couplings(1, 2)
    for key in c.j0:
        c.j0[key][:] = 0.0
    for key in c.j1:
        c.j1[key][:] = 0.0
    f = tmp_path / "zero.json"
    f.write_text(c.to_json())
    code, out, err = run_cli(
        ["table", "--couplings", str(f), "--bath", "mixed",
         "--nx-max", "1", "--nz-max", "0", "-o", str(tmp_path / "t.csv")],
        capsys,
    )
    assert code == 2
    assert "failed" in err
    assert "nan" in (tmp_path / "t.csv").read_text()


def test_workers_resolve_flag_then_config_then_one(tmp_path, monkeypatch):
    from qddsim.cli import _build_spec, parse_args

    def workers(*flags):
        return _build_spec(parse_args(["table", "--M", "1", *flags])).workers

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    monkeypatch.setenv("QDDSIM_WORKERS", "5")  # not read: flag and config are the only sources
    assert workers("--workers", "3", "--config", str(cfg)) == 3
    assert workers("--config", str(cfg)) == 2
    assert workers() == 1


def _cell_from_config(tmp_path, capsys, command, flags, cell):
    """The command's output with its cell from the config equals that with flags;
    without one cell value anywhere it exits 2 and names the flag."""
    cfg = tmp_path / "cell.json"
    cfg.write_text(json.dumps(cell))
    cell_flags = [x for key, value in cell.items() for x in (f"--{key}", str(value))]
    code, from_flags, _ = run_cli([command, *flags, *cell_flags], capsys)
    assert code == 0
    assert run_cli([command, *flags, "--config", str(cfg)], capsys) == (0, from_flags, "")
    # symmetry-check's default cell must not fill a value missing here
    last = list(cell)[-1]
    cfg.write_text(json.dumps({k: v for k, v in cell.items() if k != last}))
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, "--config", str(cfg)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"the following arguments are required: --{last}\n")


def test_schedule_reads_cell_from_config(tmp_path, capsys):
    _cell_from_config(tmp_path, capsys, "schedule", [], {"nx": 1, "nz": 1, "tau": 1.0})


def test_simulate_reads_cell_from_config(tmp_path, capsys):
    flags = ["--seed", "3", "--M", "1", "--points", "6"]
    _cell_from_config(tmp_path, capsys, "simulate", flags, {"nx": 2, "nz": 1})


def test_magnus_reads_cell_from_config(tmp_path, capsys):
    _cell_from_config(tmp_path, capsys, "magnus", [], {"nx": 0, "nz": 2, "tau": 0.5})


def test_table_rejects_zero_workers(capsys):
    code, _, err = run_cli(["table", "--seed", "42", "--M", "1", "--workers", "0"], capsys)
    assert code == 1
    assert "workers" in err


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qddsim.cli", "magnus", "--nx", "0", "--nz", "1", "--tau", "1"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tau"] == 1.0


def test_directions_reject_malformed_entries(capsys):
    from qddsim.cli import _parse_directions
    from qddsim.linalg import PauliAxis

    assert _parse_directions("x+, y-,z") == [
        (PauliAxis.X, +1), (PauliAxis.Y, -1), (PauliAxis.Z, +1)
    ]
    for text in ("x*,y+,z+", "x+,y+junk,z+", "x+,y+,zz", "x+,w,z+", "x+,+,z+"):
        with pytest.raises(ValueError, match="bad direction"):
            _parse_directions(text)
    code, out, err = run_cli(
        ["symmetry-check", "--M", "3", "--directions", "x*,y+junk,zz"], capsys
    )
    assert code == 1
    assert out == ""
    assert "bad direction 'x*'" in err
    # the count is make_states' rule: one direction per bath spin
    code, out, err = run_cli(["symmetry-check", "--M", "3", "--directions", "x+,y-"], capsys)
    assert (code, out, err) == (1, "", "error: expected 3 directions, got 2\n")


def test_simulate_rejects_zero_tau_min(capsys):
    code, out, err = run_cli(
        ["simulate", "--seed", "1", "--M", "2", "--nx", "1", "--nz", "1",
         "--tau-min", "0", "--tau-max", "0.1", "--points", "6"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "tau_min" in err


#: Every option's built-in default: with no flag and no config, each option a
#: subcommand has resolves to its value here (the cell is symmetry-check's).
BUILT_IN_DEFAULTS = {
    "seed": 1, "M": 3, "symmetry_class": "anisotropic", "topology": "central-spin",
    "alpha": 1.0, "lam": 1.0, "bath": "product", "points": 20, "d_lo": 1e-11,
    "d_hi": 1e-2, "nx_max": 3, "nz_max": 3, "workers": 1, "nx": 1, "nz": 1, "tau": 0.5,
}
_MODEL = {"seed", "M", "symmetry_class", "topology", "alpha", "lam"}
_TABLE = _MODEL | {"bath", "points", "d_lo", "d_hi", "nx_max", "nz_max", "workers"}
_CELL = ["--nx", "2", "--nz", "2", "--tau", "1"]
DEFAULT_CASES = [
    (["couplings"], _MODEL),
    (["schedule", *_CELL], set()),
    (["simulate", *_CELL[:4]], _MODEL | {"bath", "points"}),
    (["sweep", "--out-dir", "x"], _TABLE),
    (["table"], _TABLE),
    (["magnus", *_CELL], set()),
    (["symmetry-check"], _MODEL | {"bath", "nx", "nz", "tau"}),
]


@pytest.mark.parametrize("argv, keys", DEFAULT_CASES, ids=[a[0] for a, _ in DEFAULT_CASES])
def test_defaults_resolve_to_built_in_values(argv, keys):
    from qddsim.cli import parse_args

    args = parse_args(argv)
    given = {flag[2:].replace("-", "_") for flag in argv if flag.startswith("--")}
    assert {k for k in BUILT_IN_DEFAULTS if hasattr(args, k)} - given == keys
    for key in keys:
        value = getattr(args, key)
        assert value == BUILT_IN_DEFAULTS[key] and type(value) is type(BUILT_IN_DEFAULTS[key])
    for key in ("tau_min", "tau_max", "couplings", "directions", "output", "bundle_dir"):
        assert getattr(args, key, None) is None
    # the cell of schedule, simulate and magnus has no built-in default
    if argv[0] in ("schedule", "simulate", "magnus"):
        assert {args.parser.get_default(k) for k in ("nx", "nz", "tau")} == {None}


def test_sweep_reads_out_dir_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "runs"), "nz_max": 0}))
    code, _, err = run_cli(
        ["sweep", "--seed", "42", "--M", "2", "--nx-max", "1", "--config", str(cfg)], capsys
    )
    assert (code, err) == (0, "")
    for nx in (0, 1):
        assert (tmp_path / "runs" / f"cell_nx{nx}_nz0.csv").read_text().startswith("tau,d,")
        assert json.loads((tmp_path / "runs" / f"cell_nx{nx}_nz0.json").read_text())["seed"] == 42
    # with neither a flag nor a config value, --out-dir is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--M", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("the following arguments are required: --out-dir\n")


def test_simulate_rejects_d_window(tmp_path, capsys):
    flags = ["simulate", "--M", "1", "--nx", "1", "--nz", "1", "--points", "6"]
    with pytest.raises(SystemExit) as exc:
        main([*flags, "--d-lo", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d-lo 1e-9" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_lo": 1e-9}))
    code, out, err = run_cli([*flags, "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: config keys d_lo are not options of simulate")


def test_table_rejects_adaptive_points_below_six(monkeypatch, capsys):
    import qddsim.cli as cli

    def no_cells(spec):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "exponent_table", no_cells)
    for points in ("3", "0"):
        code, out, err = run_cli(
            ["table", "--M", "2", "--nx-max", "1", "--nz-max", "1", "--points", points], capsys
        )
        assert (code, out, err) == (1, "", "error: an adaptive grid needs at least 6 points\n")
