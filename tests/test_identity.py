"""Pinned outputs: two M = 4 exponent tables, four symmetry reports and one d series
against the values committed in `identity_values.json`.

The tolerances let a host with other BLAS kernels pass while a real change
fails: zeta within 0.005 (two decimals), each d and d_gamma within 1e-12 of
d, and each report array within 1e-12 of its largest entry (at least 1),
since the vanishing b coefficients, parity defects and T residuals sit at
rounding level. `tests/identity.py` checks the same outputs bit for bit
against a revision. After a change that is meant to move these outputs,
rewrite the file with `python tests/test_identity.py` and list what moved.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import qddsim as q
from qddsim.metrics import qdd_distances

VALUES = Path(__file__).with_name("identity_values.json")
SEED, M = 42, 4
TABLES = {
    "anisotropic/product": (q.SymmetryClass.ANISOTROPIC, q.BathKind.PRODUCT),
    "isotropic/maximally_mixed": (q.SymmetryClass.ISOTROPIC, q.BathKind.MAXIMALLY_MIXED),
}
REPORTS = {
    f"{sym.value}/{kind.value}": (sym, kind) for sym in q.SymmetryClass for kind in q.BathKind
}
REPORT_CELL, REPORT_TAU = (2, 1), 0.5
SERIES_CELL, SERIES_TAUS = (1, 1), np.geomspace(0.3, 1.0, 6).tolist()


def _directions(kind):
    return q.default_directions(M) if kind is q.BathKind.PRODUCT else None


def _model(sym, kind):
    """The Hamiltonian parts and the bath factor of one setting."""
    parts = q.build_hamiltonian(q.random_couplings(SEED, M, sym))
    return parts, q.make_states(kind, M, _directions(kind))


def outputs() -> dict:
    """The pinned outputs of this checkout, in the layout of the values file."""
    tables = {}
    for label, (sym, kind) in TABLES.items():
        spec = q.SweepSpec(q.random_couplings(SEED, M, sym), kind, _directions(kind))
        table = q.exponent_table(spec)
        tables[label] = {
            "zeta": {f"{nx},{nz}": cell.zeta for (nx, nz), cell in sorted(table.cells.items())},
            "failures": sorted(f"{nx},{nz}" for nx, nz in table.failures),
        }
    reports = {}
    for label, (sym, kind) in REPORTS.items():
        parts, r = _model(sym, kind)
        report = q.symmetry_report(q.qdd_decomposition(parts, *REPORT_CELL, REPORT_TAU), r, M)
        reports[label] = {
            "gram": report.gram.view(np.float64).tolist(),
            "defects": report.defects.tolist(),
            "residuals": report.residuals.tolist(),
        }
    parts, r = _model(q.SymmetryClass.ISOTROPIC, q.BathKind.MAXIMALLY_MIXED)
    points = qdd_distances(parts, r, *SERIES_CELL, SERIES_TAUS)
    series = [[p.tau, p.d, *p.d_gamma] for p in points]
    return {"tables": tables, "reports": reports, "series": series}


@pytest.fixture(scope="module")
def pinned_and_current():
    return json.loads(VALUES.read_text()), outputs()


@pytest.mark.parametrize("label", TABLES)
def test_tables_match_the_pinned_exponents(pinned_and_current, label):
    pinned, current = (x["tables"][label] for x in pinned_and_current)
    assert current["failures"] == pinned["failures"]
    assert current["zeta"].keys() == pinned["zeta"].keys()
    for cell, zeta in pinned["zeta"].items():
        assert abs(current["zeta"][cell] - zeta) < 0.005, (cell, current["zeta"][cell], zeta)


@pytest.mark.parametrize("label", REPORTS)
def test_reports_match_the_pinned_values(pinned_and_current, label):
    pinned, current = (x["reports"][label] for x in pinned_and_current)
    for key, want in pinned.items():
        want, got = np.array(want), np.array(current[key])
        assert got.shape == want.shape, key
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), key


def test_series_matches_the_pinned_distances(pinned_and_current):
    pinned, current = (np.array(x["series"]) for x in pinned_and_current)
    assert current.shape == pinned.shape
    assert np.array_equal(current[:, 0], pinned[:, 0])  # the durations
    d = pinned[:, 1]
    assert (np.abs(current[:, 1:] - pinned[:, 1:]) <= 1e-12 * d[:, None]).all()


if __name__ == "__main__":
    VALUES.write_text(json.dumps(outputs(), indent=1) + "\n")
    sys.stdout.write(f"wrote {VALUES}\n")
