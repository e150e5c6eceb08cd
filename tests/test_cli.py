import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_couplings_file_round_trip(tmp_path, capsys):
    f = tmp_path / "c.json"
    assert main(["couplings", "--seed", "9", "--M", "2", "-o", str(f)]) == 0
    code, out, _ = run_cli(["couplings", "--couplings", str(f)], capsys)
    assert code == 0
    assert json.loads(out) == json.loads(f.read_text())


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


def test_simulate_help_states_fixed_default_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "from 1e-3 to 1 (the adaptive grid of sweep and table is not used)" in text
    assert "--d-lo / --d-hi do not filter the rows" in text


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


def test_workers_env_default(monkeypatch):
    from qddsim.cli import _default_workers

    monkeypatch.setenv("QDDSIM_WORKERS", "5")
    assert _default_workers() == 5
    monkeypatch.delenv("QDDSIM_WORKERS")
    assert _default_workers() == 1


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
