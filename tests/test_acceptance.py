"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Desk scale is three bath spins, which reproduces
the same exponents as larger baths.
"""

import numpy as np
import pytest

import qddsim as q
from qddsim.linalg import AXES, pauli_blocks, unitarity_defect

from conftest import PRIMARY_SEED, SECONDARY_SEED
from reference import lab_propagator, norm_distance

M_BATH = 3


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _grid(seed, sym, bath, n_x_values, n_z_values):
    c = q.random_couplings(seed, M_BATH, sym)
    directions = q.default_directions(M_BATH) if bath is q.BathKind.PRODUCT else None
    spec = q.SweepSpec(
        couplings=c,
        bath_kind=bath,
        directions=directions,
        n_x_values=n_x_values,
        n_z_values=n_z_values,
    )
    return q.exponent_table(spec)


@pytest.fixture(scope="module")
def low_table():
    return _grid(PRIMARY_SEED, q.SymmetryClass.ANISOTROPIC, q.BathKind.PRODUCT,
                 range(4), range(4))


@pytest.fixture(scope="module")
def high_table():
    return _grid(PRIMARY_SEED, q.SymmetryClass.ISOTROPIC, q.BathKind.MAXIMALLY_MIXED,
                 range(3), range(3))


@pytest.fixture(scope="module")
def low_table_second_seed():
    return _grid(SECONDARY_SEED, q.SymmetryClass.ANISOTROPIC, q.BathKind.PRODUCT,
                 range(4), range(4))


@pytest.fixture(scope="module")
def high_table_second_seed():
    return _grid(SECONDARY_SEED, q.SymmetryClass.ISOTROPIC, q.BathKind.MAXIMALLY_MIXED,
                 range(3), range(3))


def _check_grid(table, cells, target, tol):
    worst = 0.0
    bad = []
    for cell in cells:
        if cell not in table.cells:
            bad.append((cell, "window failure"))
            continue
        gap = abs(table.zeta(*cell) - target(*cell))
        worst = max(worst, gap)
        if gap > tol:
            bad.append((cell, f"zeta={table.zeta(*cell):.3f}"))
    return worst, bad


def test_criterion_1_low_symmetry_table(low_table):
    cells = [(x, z) for x in range(4) for z in range(4)]
    worst, bad = _check_grid(low_table, cells, lambda x, z: min(x, z) + 1, 0.15)
    ok = not bad
    _report("criterion 1 (low-symmetry grid, min+1 within 0.15)", ok,
            f"worst gap {worst:.3f}" + (f", failing {bad}" if bad else ""))
    assert ok


def test_criterion_2_high_symmetry_table(high_table):
    cells = [(x, z) for x in range(3) for z in range(3)]
    worst, bad = _check_grid(high_table, cells, lambda x, z: 2 * (min(x, z) + 1), 0.2)
    c = q.random_couplings(PRIMARY_SEED, M_BATH, q.SymmetryClass.ISOTROPIC)
    spec = q.SweepSpec(couplings=c, bath_kind=q.BathKind.MAXIMALLY_MIXED)
    cell33 = q.sweep_cell(spec, 3, 3)
    gap33 = abs(cell33.zeta - 8.0)
    ok = not bad and gap33 <= 0.4
    _report("criterion 2 (high-symmetry grid, 2(min+1) within 0.2; (3,3) -> 8 +- 0.4)", ok,
            f"worst gap {worst:.3f}, (3,3) zeta={cell33.zeta:.3f}"
            + (f", failing {bad}" if bad else ""))
    assert ok


def test_criterion_3_isotropic_product_table():
    table = _grid(PRIMARY_SEED, q.SymmetryClass.ISOTROPIC, q.BathKind.PRODUCT,
                  range(4), range(4))
    cells = [(x, z) for x in range(4) for z in range(4)]
    worst, bad = _check_grid(table, cells, lambda x, z: min(x, z) + 1, 0.15)
    ok = not bad
    _report("criterion 3 (isotropic + product bath, same integers as low symmetry)", ok,
            f"worst gap {worst:.3f}" + (f", failing {bad}" if bad else ""))
    assert ok


def test_criterion_4_mixed_case_staircase():
    c = q.random_couplings(PRIMARY_SEED, M_BATH, q.SymmetryClass.ANISOTROPIC)
    spec = q.SweepSpec(couplings=c, bath_kind=q.BathKind.MAXIMALLY_MIXED)
    parts = q.build_hamiltonian(c)
    evolver = q.TogglingEvolver(parts)
    states = q.make_states(q.BathKind.MAXIMALLY_MIXED, M_BATH)

    # diagonal: N+1 for N odd, 2(N+1) for N even; off-diagonal cells follow
    # the inner pulse number (odd plain, even doubled) for n_x > n_z, and
    # 2(n_x+1) for n_x < n_z
    expectations = {
        (1, 1): (2.0, 0.2),
        (2, 2): (6.0, 0.3),
        (3, 3): (4.0, 0.2),
        (2, 1): (2.0, 0.2),
        (1, 2): (4.0, 0.2),
    }
    bad = []
    got = {}
    for (nx, nz), (target, tol) in expectations.items():
        res = q.sweep_cell(spec, nx, nz, parts=parts, evolver=evolver, states=states)
        got[(nx, nz)] = res.zeta
        if abs(res.zeta - target) > tol:
            bad.append(((nx, nz), f"zeta={res.zeta:.3f} want {target}"))
    ok = not bad
    detail = ", ".join(f"({x},{z})={v:.2f}" for (x, z), v in got.items())
    _report("criterion 4 (mixed-case parity staircase)", ok,
            detail + (f", failing {bad}" if bad else ""))
    assert ok


def test_criterion_5_magnus_exactness():
    tau = 1.7
    rep = q.nested_integrals(q.switching_profile(q.qdd_schedule(1, 1, tau)))
    checks = [
        abs(rep.i2_mu[1] - tau**2 / 4) <= 1e-12 * tau**2,
        abs(rep.i2_mu[2] - tau**2 / 2) <= 1e-12 * tau**2,
        abs(rep.i2_munu[0, 2] + tau**2 / 4) <= 1e-12 * tau**2,
        abs(rep.i2_munu[2, 0] - tau**2 / 4) <= 1e-12 * tau**2,
        abs(rep.i2_mu[0]) < 1e-14 * tau**2,
    ]
    others = max(
        abs(rep.i2_munu[m, n])
        for m in range(3)
        for n in range(3)
        if (m, n) not in ((0, 2), (2, 0))
    )
    checks.append(others < 1e-14 * tau**2)

    rep12 = q.nested_integrals(q.switching_profile(q.qdd_schedule(1, 2, 1.0)))
    xzz_orders = {(0, 2, 2), (2, 0, 2), (2, 2, 0)}
    pauli_carrying_ok = True
    for a in range(3):
        for b in range(3):
            for c in range(3):
                idx = (a, b, c)
                if idx in xzz_orders:
                    pauli_carrying_ok &= abs(rep12.i3[idx]) > 1e-6
                elif len({a, b, c}) < 3:
                    pauli_carrying_ok &= abs(rep12.i3[idx]) < 1e-14
    # all-distinct triples never attach to a qubit Pauli: the assembled third
    # cumulant carries the x component only
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, 2))
    _, comp_x, comp_y, comp_z = np.abs(pauli_blocks(q.cumulant3(parts, rep12))).max(axis=(1, 2))
    pauli_carrying_ok &= comp_y <= 1e-13 and comp_z <= 1e-13 and comp_x > 1e-6
    checks.append(pauli_carrying_ok)
    ok = all(checks)
    _report("criterion 5 (exact switching integrals and I3 pattern)", ok,
            f"I2y={rep.i2_mu[1]:.6g}, I2z={rep.i2_mu[2]:.6g}, "
            f"I2xz={rep.i2_munu[0, 2]:.6g}, third-cumulant content x-only={pauli_carrying_ok}")
    assert ok


def test_criterion_6_symmetry_machinery():
    parts = q.build_hamiltonian(
        q.random_couplings(PRIMARY_SEED, M_BATH, q.SymmetryClass.ISOTROPIC)
    )
    evolver = q.TogglingEvolver(parts)
    rho_b = np.eye(parts.bath_dim) / parts.bath_dim
    worst_b = worst_off = worst_parity = 0.0
    for n_x, n_z, tau in [(1, 1, 0.5), (2, 1, 0.8), (2, 2, 1.1), (0, 3, 0.4)]:
        dec = q.qdd_decomposition(parts, n_x, n_z, tau, evolver)
        b_vec, b_mat = q.b_coefficients(dec, rho_b)
        worst_b = max(worst_b, float(np.abs(b_vec).max()))
        worst_off = max(
            worst_off,
            max(abs(b_mat[m, n]) for m in range(3) for n in range(3) if m != n),
        )
        worst_parity = max(
            worst_parity, max(q.rotation_parities(dec, nu, M_BATH).worst for nu in AXES)
        )

    rng = np.random.default_rng(1)
    worst_resid = 0.0
    for case in range(20):
        sym = q.SymmetryClass.ISOTROPIC if case % 2 else q.SymmetryClass.ANISOTROPIC
        model = q.build_hamiltonian(q.random_couplings(200 + case, 2, sym))
        n_x, n_z = rng.integers(0, 4, size=2)
        tau = float(rng.uniform(0.1, 1.0))
        dec = q.qdd_decomposition(model, int(n_x), int(n_z), tau)
        bath = q.BathKind.MAXIMALLY_MIXED if case % 3 else q.BathKind.PRODUCT
        dirs = q.default_directions(2) if bath is q.BathKind.PRODUCT else None
        for st in q.make_states(bath, 2, dirs):
            worst_resid = max(worst_resid, q.t_residual(st, dec))

    ok = worst_b <= 1e-12 and worst_off <= 1e-12 and worst_parity <= 1e-12 and worst_resid <= 1e-12
    _report("criterion 6 (b coefficients, parities, T-sum residuals)", ok,
            f"max|b|={worst_b:.2e}, max|b_offdiag|={worst_off:.2e}, "
            f"max parity defect={worst_parity:.2e}, max T residual={worst_resid:.2e}")
    assert ok


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(2)
    worst_frame = worst_unit = worst_agree = 0.0
    checked = 0
    for seed in range(5):
        c = q.random_couplings(300 + seed, 2)
        parts = q.build_hamiltonian(c)
        evolver = q.TogglingEvolver(parts)
        d = parts.bath_dim
        for _ in range(10):
            n_x, n_z = (int(v) for v in rng.integers(0, 4, size=2))
            tau = float(rng.uniform(0.05, 1.0))
            s = q.qdd_schedule(n_x, n_z, tau)
            u_lab = lab_propagator(parts, s)
            u_tog = evolver.toggling(q.switching_profile(s))
            p_full = np.kron(q.pulse_operator(n_x, n_z), np.eye(d))
            worst_frame = max(worst_frame, float(np.abs(u_lab - p_full @ u_tog).max()))
            dec = q.pauli_decompose(u_tog, tau)
            complete, cross = dec.unitarity_defects()
            worst_unit = max(worst_unit, complete, cross,
                             unitarity_defect(u_lab), unitarity_defect(u_tog))
            bath = q.BathKind.MAXIMALLY_MIXED if checked % 2 else q.BathKind.PRODUCT
            dirs = q.default_directions(2) if bath is q.BathKind.PRODUCT else None
            states = q.make_states(bath, 2, dirs)
            u_b = np.kron(np.eye(2), evolver.bath_unitary(tau))
            ref = norm_distance(states, u_lab, u_b, q.pulse_operator(n_x, n_z), tau=tau)
            fast = q.frame_reduced_distance(states, u_tog, tau=tau)
            # relative agreement; dividing by max(d, 1e-2) makes the score
            # an absolute 1e-14 guard for cells whose d sits near the
            # rounding floor, where a relative tolerance stops being
            # meaningful
            gap = abs(ref.d - fast.d)
            worst_agree = max(worst_agree, gap / max(ref.d, 1e-2))
            checked += 1

    decoupled = q.random_couplings(400, 2)
    for key in decoupled.j1:
        decoupled.j1[key] = np.zeros((3, 3))
    parts0 = q.build_hamiltonian(decoupled)
    states = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    d0 = q.qdd_distance(parts0, states, 2, 1, 0.7).d

    ok = (checked == 50 and worst_frame <= 1e-12 and worst_unit <= 1e-12
          and worst_agree <= 1e-12 and d0 <= 1e-13)
    _report("criterion 7 (frame equivalence, unitarity, decoupled limit)", ok,
            f"50 cells: frame={worst_frame:.2e}, unitarity={worst_unit:.2e}, "
            f"distance agreement={worst_agree:.2e}, d(J1=0)={d0:.2e}")
    assert ok


def test_criterion_8_order_checks():
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, M_BATH))
    evolver = q.TogglingEvolver(parts)
    slopes = {}
    bad = []
    for n_x in (1, 2):
        for n_z in (1, 2):
            taus = np.geomspace(0.003, 0.03, 7)
            norms = []
            for tau in taus:
                dec = q.qdd_decomposition(parts, n_x, n_z, tau, evolver)
                norms.append(max(np.abs(b).max() for b in dec.b))
            slope = float(np.polyfit(np.log(taus), np.log(norms), 1)[0])
            slopes[(n_x, n_z)] = slope
            if slope < min(n_x, n_z) + 1 - 0.2:
                bad.append(((n_x, n_z), slope))
    parts2 = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, 2))
    magnus_slope = q.magnus_order_check(parts2, 1, 1, np.geomspace(0.02, 0.2, 8))
    ok = not bad and abs(magnus_slope - 3.0) <= 0.2
    detail = ", ".join(f"({x},{z})={s:.2f}" for (x, z), s in slopes.items())
    _report("criterion 8 (coupling-block order bound; truncation slope 3)", ok,
            f"B slopes {detail}; magnus remainder slope {magnus_slope:.3f}")
    assert ok


def test_criterion_9_seed_robustness(low_table, high_table,
                                     low_table_second_seed, high_table_second_seed):
    bad = []
    worst = 0.0
    for table_a, table_b, cells in (
        (low_table, low_table_second_seed, [(x, z) for x in range(4) for z in range(4)]),
        (high_table, high_table_second_seed, [(x, z) for x in range(3) for z in range(3)]),
    ):
        for cell in cells:
            if cell not in table_a.cells or cell not in table_b.cells:
                bad.append((cell, "window failure"))
                continue
            gap = abs(table_a.zeta(*cell) - table_b.zeta(*cell))
            worst = max(worst, gap)
            if gap > 0.2:
                bad.append((cell, f"gap={gap:.3f}"))
    ok = not bad
    _report("criterion 9 (second coupling draw reproduces exponents)", ok,
            f"worst cell-wise gap {worst:.3f}" + (f", failing {bad}" if bad else ""))
    assert ok
