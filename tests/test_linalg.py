import copy
import dataclasses

import numpy as np
import pytest

import qddsim as q
from qddsim.linalg import (
    _SIGMA4,
    AXES,
    ROTATION_CHARACTERS,
    PauliAxis,
    check_count,
    check_durations,
    check_factor,
    embed,
    expm_from_eigensystem,
    herm_eigensystem,
    hermiticity_defect,
    parity_signs,
    pauli,
    pauli_blocks,
    rotate,
)
from conftest import random_hermitian
from reference import LEVI_CIVITA, partial_trace_bath, unitarity_defect

I2 = np.eye(2)


def test_pauli_z_diagonal():
    assert np.array_equal(pauli(PauliAxis.Z), np.diag([1.0 + 0j, -1.0 + 0j]))


def test_pauli_anticommutation():
    sx, sz = pauli(PauliAxis.X), pauli(PauliAxis.Z)
    assert np.abs(sx @ sz + sz @ sx).max() == 0.0


def test_pauli_product_cycle():
    sx, sy, sz = (pauli(a) for a in AXES)
    assert np.allclose(sx @ sy, 1j * sz, atol=1e-15)


def test_pauli_unitary_hermitian():
    for a in AXES:
        s = pauli(a)
        assert hermiticity_defect(s) == 0.0
        assert unitarity_defect(s) < 1e-15


def test_levi_civita_against_definition():
    eps = np.zeros((3, 3, 3))
    for mu, nu, ka, sign in LEVI_CIVITA:
        eps[mu.index, nu.index, ka.index] = sign
    for i in range(3):
        for j in range(3):
            for k in range(3):
                perm = np.zeros((3, 3))
                perm[0, i] = perm[1, j] = perm[2, k] = 1.0
                expected = round(np.linalg.det(perm))
                assert eps[i, j, k] == expected


def test_kron_identities():
    assert np.array_equal(np.kron(I2, I2), np.eye(4))


def test_kron_sign_on_first_factor():
    op = np.kron(pauli(PauliAxis.Z), I2)
    ket10 = np.zeros(4)
    ket10[2] = 1.0  # |10>: qubit down, bath up
    assert np.allclose(op @ ket10, -ket10)


def test_kron_trace_factorization():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.isclose(np.trace(np.kron(a, b)), np.trace(a) * np.trace(b))


def test_kron_associativity():
    rng = np.random.default_rng(1)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))).max() <= 1e-14


def test_embed_single_site():
    assert np.array_equal(embed(pauli(PauliAxis.X), 0, 1), pauli(PauliAxis.X))


def test_embed_disjoint_supports_commute():
    a = embed(pauli(PauliAxis.Z), 0, 2)
    b = embed(pauli(PauliAxis.Z), 1, 2)
    assert np.abs(a @ b - b @ a).max() == 0.0


def test_embed_involution():
    op = embed(pauli(PauliAxis.X), 1, 3)
    assert op.shape == (8, 8)
    assert np.allclose(op @ op, np.eye(8))


def test_embed_out_of_range():
    with pytest.raises(ValueError):
        embed(pauli(PauliAxis.X), 3, 3)


def test_parity_signs_are_popcount_parities():
    for n in range(11):
        popcount = np.array([bin(i).count("1") for i in range(2**n)])
        assert np.array_equal(parity_signs(n), (-1.0) ** popcount)


def test_rotation_characters_are_the_pauli_conjugation_signs():
    # sigma_nu sigma_a sigma_nu = p_nu(a) sigma_a for the rows x, y, z, and
    # sigma_y sigma_a^* sigma_y = t(a) sigma_a for time reversal, row 3; every
    # entry is 0, +-1 or +-i, so the products are exact
    sigma_y = _SIGMA4[2]
    symmetries = [(nu.index, lambda s, n=_SIGMA4[1 + nu.index]: n @ s @ n) for nu in AXES]
    symmetries.append((3, lambda s: sigma_y @ s.conj() @ sigma_y))
    assert ROTATION_CHARACTERS.shape == (4, 4)
    for row, symmetry in symmetries:
        for a, sigma_a in enumerate(_SIGMA4):
            want = ROTATION_CHARACTERS[row, a] * sigma_a
            assert np.array_equal(symmetry(sigma_a), want), (row, a)


def test_rotate_takes_only_a_pauli_axis():
    # an axis name is no axis: "z" must not be read as another rotation
    op = np.arange(16.0).reshape(4, 4)
    for call in (lambda: rotate(op, "z"), lambda: q.rotation_parities(np.stack([op] * 4), "x", 2)):
        with pytest.raises(ValueError, match="PauliAxis"):
            call()


def test_check_factor_reads_the_identity_off_its_entries():
    eye = np.eye(4, dtype=complex)
    assert check_factor(eye, 4) == (4, True)
    assert check_factor(eye[:, [1, 0, 2, 3]], 4) == (4, False)  # a column-permuted identity
    for entry in (1e-300, 1e-300j):  # the float view counts both parts
        nearly = eye.copy()
        nearly[0, 1] = entry
        assert check_factor(nearly, 4) == (4, False)
    # the real identity `_full` passes, and identities that are not C-contiguous
    assert check_factor(np.eye(4), 4) == (4, True)
    wide = np.eye(8, dtype=complex)
    assert not wide[::2, ::2].flags.c_contiguous
    assert check_factor(wide[::2, ::2], 4) == (4, True)
    assert check_factor(eye.T, 4) == (4, True)
    wide[0, 2] = 1e-300
    assert check_factor(wide[::2, ::2], 4) == (4, False)
    assert check_factor(nearly.T, 4) == (4, False)
    # the factors make_states builds: only the maximally mixed bath's is the identity
    for m in range(1, 5):
        d = 2**m
        assert check_factor(q.make_states(q.BathKind.MAXIMALLY_MIXED, m), d) == (d, True)
        product = q.make_states(q.BathKind.PRODUCT, m, q.default_directions(m))
        assert check_factor(product, d) == (1, False)


def _herm_expm(h, t):
    # exp(-i t h) the way the library forms it: one eigensystem, then the phases
    return expm_from_eigensystem(*herm_eigensystem(h), t)


def test_herm_expm_zero_time():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 8)
    assert np.allclose(_herm_expm(h, 0.0), np.eye(8), atol=1e-15)


def test_herm_expm_diagonal_case():
    u = _herm_expm(pauli(PauliAxis.Z), np.pi / 2)
    expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert np.allclose(u, expected, atol=1e-15)


def test_herm_expm_one_parameter_group():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 8)
    u = _herm_expm(h, 0.3) @ _herm_expm(h, 0.7)
    assert np.abs(u - _herm_expm(h, 1.0)).max() < 1e-13


@pytest.mark.parametrize("seed", range(6))
def test_herm_expm_unitarity_property(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 16) * rng.uniform(0.1, 10)
    u = _herm_expm(h, rng.uniform(0.01, 5))
    assert unitarity_defect(u) <= 1e-12


def test_herm_expm_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        _herm_expm(bad, 1.0)


def test_hermiticity_check_rejects_nan():
    # NaN > tol is false, so the check must be written to fail on NaN
    with pytest.raises(ValueError, match="not Hermitian"):
        herm_eigensystem(np.full((2, 2), np.nan))


def test_partial_trace_bath_product_state():
    rng = np.random.default_rng(6)
    rho_s = random_hermitian(rng, 2)
    rho_b = random_hermitian(rng, 4)
    rho_b = rho_b @ rho_b.conj().T
    rho_b /= np.trace(rho_b)
    assert np.allclose(partial_trace_bath(np.kron(rho_s, rho_b)), rho_s)


def test_partial_trace_bath_full_identity():
    assert np.allclose(partial_trace_bath(np.eye(8)), 4 * I2)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert np.isclose(np.trace(partial_trace_bath(x)), np.trace(x))


def test_partial_traces_compose_to_full_trace():
    # The qubit partial trace is 2 B_0, the identity block of pauli_blocks.
    rng = np.random.default_rng(8)
    x = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    trace_qubit = 2 * pauli_blocks(x)[0]
    assert np.isclose(np.trace(trace_qubit), np.trace(partial_trace_bath(x)))
    assert np.isclose(np.trace(trace_qubit), np.trace(x))


def test_partial_trace_odd_dimension_rejected():
    with pytest.raises(ValueError):
        partial_trace_bath(np.eye(5))


@pytest.mark.parametrize("d,k", [(1, 1), (4, 1), (4, 3), (16, 16), (64, 2)])
def test_pauli_blocks_equal_the_trace_definition(d, k):
    # B_a = Tr_qubit[(sigma_a x 1) op] / 2 as one contraction over the qubit
    # indices; the four quadrant sums give the same numbers bit for bit
    rng = np.random.default_rng(d * 100 + k)
    for op in (
        rng.normal(size=(2 * d, 2 * k)) + 1j * rng.normal(size=(2 * d, 2 * k)),
        rng.normal(size=(2 * d, 2 * k)),
    ):
        sigma4 = np.stack((np.eye(2), *(pauli(axis) for axis in AXES)))
        expected = 0.5 * np.einsum("kst,tasb->kab", sigma4, op.reshape(2, d, 2, k))
        blocks = pauli_blocks(op)
        assert blocks.dtype == expected.dtype
        assert np.array_equal(blocks, expected)


@pytest.mark.parametrize("n", [True, False, np.bool_(True), 2.0, "3"])
def test_check_count_takes_only_integers(n):
    # bool is an int subclass, and used to pass as the count 0 or 1
    with pytest.raises(ValueError, match="need a count"):
        check_count(n, 0, "need a count")


def test_check_durations_returns_a_float_array():
    taus = check_durations([1, 0.5], "bad", ndim=1)
    assert taus.dtype == np.float64 and taus.tolist() == [1.0, 0.5]
    assert check_durations(2.0, "bad").ndim == 0


@pytest.mark.parametrize(
    "taus", [0.0, -1.0, np.nan, np.inf, [0.3, np.nan], [[0.3, -0.1]], "1.0", ["0.5"], True]
)
def test_check_durations_rejects_nonpositive_or_non_finite(taus):
    with pytest.raises(ValueError, match="bad durations, got"):
        check_durations(taus, "bad durations")


@pytest.mark.parametrize("taus", [0.3, [[0.3]], [[0.1, 0.2], [0.3, 0.4]]])
def test_check_durations_checks_the_number_of_axes(taus):
    with pytest.raises(ValueError, match="bad durations"):
        check_durations(taus, "bad durations", ndim=1)


def _changed(a):
    """A writable copy of `a` with its last entry changed."""
    out = np.array(a)
    out.flat[-1] += 1
    return out


def _small_table():
    spec = q.SweepSpec(
        couplings=q.random_couplings(42, 2),
        bath_kind=q.BathKind.PRODUCT,
        directions=q.default_directions(2),
        n_x_values=(1,),
        n_z_values=(1, 2),
    )
    return q.exponent_table(spec)


def _changed_table(table):
    cell = table.cells[(1, 2)]
    changed = dataclasses.replace(cell, kept=_changed(cell.kept))
    return dataclasses.replace(table, cells={**table.cells, (1, 2): changed})


#: (build, change one entry) of every result that holds arrays
ARRAY_RESULTS = {
    "CouplingSet": (
        lambda: q.random_couplings(42, 3),
        lambda c: dataclasses.replace(c, j1={**c.j1, 2: _changed(c.j1[2])}),
    ),
    "HamiltonianParts": (
        lambda: q.build_hamiltonian(q.random_couplings(42, 2)),
        lambda p: q.HamiltonianParts(_changed(p.blocks)),
    ),
    "SwitchingProfile": (
        lambda: q.switching_profile(q.qdd_schedule(2, 1, 1.0)),
        lambda p: q.SwitchingProfile(_changed(p.breakpoints), p.axes),
    ),
    "SymmetryReport": (
        lambda: q.symmetry_report(
            q.build_hamiltonian(q.random_couplings(42, 2)).blocks,
            q.make_states(q.BathKind.MAXIMALLY_MIXED, 2),
            2,
        ),
        lambda r: dataclasses.replace(r, residuals=_changed(r.residuals)),
    ),
    "MagnusReport": (
        lambda: q.nested_integrals(q.switching_profile(q.qdd_schedule(2, 1, 1.0))),
        lambda r: dataclasses.replace(r, i3_ext=_changed(r.i3_ext)),
    ),
    "ScalingResult": (
        lambda: _small_table().cells[(1, 1)],
        lambda r: dataclasses.replace(r, kept=_changed(r.kept)),
    ),
    "ExponentTable": (_small_table, _changed_table),
}


@pytest.mark.parametrize("build,change", ARRAY_RESULTS.values(), ids=list(ARRAY_RESULTS))
def test_results_that_hold_arrays_compare_by_their_entries(build, change):
    result = build()
    assert result == copy.deepcopy(result) == build()
    assert not result != build()
    assert result != change(result)
    assert result.__eq__(object()) is NotImplemented
    assert result != "a string"
