"""The public names of `qddsim` are pinned, so adding or removing one is a
deliberate edit of this list."""

import json
import os
import subprocess
import sys

from conftest import ROOT

PUBLIC_NAMES = [
    "AXES", "AdaptiveGrid", "BathKind", "CouplingSet", "DegenerateFitWindowError",
    "DistanceResult", "ExponentTable", "GeometricGrid", "HamiltonianParts",
    "MagnusReport", "ParityDefects", "PauliAxis", "PulseSchedule",
    "ScalingResult", "SweepSpec", "SwitchingProfile", "SymmetryClass", "SymmetryReport",
    "TogglingEvolver", "Topology", "WindowFailureError", "b_coefficients", "build_hamiltonian",
    "cumulant1", "cumulant2", "cumulant3", "default_directions", "embed", "evolution",
    "exponent_table", "fit_exponent", "frame_reduced_distance", "linalg",
    "magnus", "magnus_order_check", "make_states", "metrics", "model", "nested_integrals",
    "pauli", "pauli_decompose", "qdd_decomposition", "qdd_distance",
    "qdd_schedule", "random_couplings", "random_directions", "rng", "rotation_parities",
    "scaling", "sequence", "series_csv", "su2_defect", "sweep_cell", "switching_profile",
    "symmetry", "symmetry_report", "t_decomposition", "t_residual", "uhrig_times",
]


def test_public_names_are_pinned():
    # a fresh interpreter, because importing a submodule elsewhere in the
    # suite (qddsim.cli) would add its name to the package namespace
    script = "import json, qddsim; print(json.dumps(sorted(n for n in dir(qddsim) if n[0] != '_')))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 59
