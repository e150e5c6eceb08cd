import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qddsim as q
from qddsim.linalg import AXES, PauliAxis, embed, pauli, rotate
from qddsim.symmetry import _direct_state

from conftest import PRIMARY_SEED
from reference import (
    bath_density,
    bath_rotation,
    column_direct_state,
    full_toggling,
    initial_state,
    partial_trace_bath,
    symmetry_json,
)


def test_identity_propagator_has_zero_b(aniso2):
    _, parts = aniso2
    blocks = q.pauli_decompose(np.eye(2 * parts.bath_dim))
    b_vec, b_mat = q.b_coefficients(blocks, q.make_states(q.BathKind.MAXIMALLY_MIXED, 2))
    assert np.abs(b_vec).max() < 1e-14
    assert np.abs(b_mat).max() < 1e-14


@pytest.mark.parametrize("bath", [q.BathKind.PRODUCT, q.BathKind.MAXIMALLY_MIXED])
@pytest.mark.parametrize("m", [3, 4])
def test_b_coefficients_match_trace_loop(m, bath):
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, m))
    ev = q.TogglingEvolver(parts)
    directions = q.random_directions(m, m) if bath is q.BathKind.PRODUCT else None
    ket = q.make_states(bath, m, directions)
    rho_b = bath_density(ket)
    for n_x, n_z in [(0, 1), (1, 1), (2, 1), (3, 3)]:
        for tau in (0.05, 0.3, 1.0):
            blocks = q.qdd_decomposition(parts, n_x, n_z, tau, ev)
            b_vec, b_mat = q.b_coefficients(blocks, ket)
            for mu in range(3):
                ref = np.trace(blocks[0] @ rho_b @ blocks[1 + mu].conj().T)
                assert abs(b_vec[mu] - ref) <= 1e-14
                for nu in range(3):
                    ref = np.trace(blocks[1 + mu] @ rho_b @ blocks[1 + nu].conj().T)
                    assert abs(b_mat[mu, nu] - ref) <= 1e-14


@pytest.mark.parametrize("n_x,n_z,tau", [(1, 1, 0.4), (2, 1, 0.7), (2, 2, 1.0)])
def test_isotropic_mixed_bath_kills_b(iso3, n_x, n_z, tau):
    _, parts = iso3
    blocks = q.qdd_decomposition(parts, n_x, n_z, tau)
    b_vec, b_mat = q.b_coefficients(blocks, q.make_states(q.BathKind.MAXIMALLY_MIXED, 3))
    assert np.abs(b_vec).max() <= 1e-12
    off = max(abs(b_mat[m, n]) for m in range(3) for n in range(3) if m != n)
    assert off <= 1e-12


def test_anisotropic_b_do_not_vanish(aniso3):
    _, parts = aniso3
    blocks = q.qdd_decomposition(parts, 1, 1, 0.5)
    b_vec, _ = q.b_coefficients(blocks, q.make_states(q.BathKind.MAXIMALLY_MIXED, 3))
    assert np.abs(b_vec).max() > 1e-6


def test_t_sum_reproduces_reduced_state_on_random_cells():
    rng = np.random.default_rng(17)
    for case in range(10):
        sym = q.SymmetryClass.ISOTROPIC if case % 2 else q.SymmetryClass.ANISOTROPIC
        c = q.random_couplings(100 + case, 2, sym)
        parts = q.build_hamiltonian(c)
        n_x, n_z = rng.integers(0, 4, size=2)
        tau = float(rng.uniform(0.1, 1.2))
        blocks = q.qdd_decomposition(parts, int(n_x), int(n_z), tau)
        for bath, dirs in (
            (q.BathKind.MAXIMALLY_MIXED, None),
            (q.BathKind.PRODUCT, q.default_directions(2)),
        ):
            ket = q.make_states(bath, 2, dirs)
            for gamma in AXES:
                assert q.t_residual(gamma, ket, blocks) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    m=st.integers(1, 4),
    sym=st.sampled_from(list(q.SymmetryClass)),
    seed=st.integers(0, 2**32 - 1),
    bath=st.sampled_from(list(q.BathKind)),
    tau=st.floats(1e-3, 2.0),
)
def test_column_direct_state_matches_dense_reduction(m, sym, seed, bath, tau):
    # t_residual reads Tr_B[u rho0 u+] off the columns u (|gamma> x 1) that
    # the bath blocks give; the dense rho0 of the reference and a 2D x 2D
    # partial trace must agree with it
    parts = q.build_hamiltonian(q.random_couplings(seed, m, sym))
    ev = q.TogglingEvolver(parts)
    directions = q.random_directions(seed, m) if bath is q.BathKind.PRODUCT else None
    ket = q.make_states(bath, m, directions)
    rho0 = {gamma: initial_state(gamma, ket) for gamma in AXES}
    for n_x in range(4):
        for n_z in range(4):
            u = full_toggling(ev, q.switching_profile(q.qdd_schedule(n_x, n_z, tau)))
            blocks = q.pauli_decompose(u)
            for gamma in AXES:
                dense = partial_trace_bath(u @ rho0[gamma] @ u.conj().T)
                assert np.abs(_direct_state(gamma, ket, blocks) - dense).max() <= 1e-13
                assert q.t_residual(gamma, ket, blocks) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    m=st.integers(1, 3),
    sym=st.sampled_from(list(q.SymmetryClass)),
    seed=st.integers(0, 2**32 - 1),
    tau=st.floats(1e-3, 2.0),
    k=st.integers(1, 4),
    factor_seed=st.integers(0, 2**32 - 1),
)
def test_block_direct_state_matches_column_route(m, sym, seed, tau, k, factor_seed):
    # the direct state read off the bath blocks against the reference that
    # reads it off the two column halves of the full u, for k random unit
    # columns and the identity factor of the mixed bath
    parts = q.build_hamiltonian(q.random_couplings(seed, m, sym))
    ev = q.TogglingEvolver(parts)
    rng = np.random.default_rng(factor_seed)
    factor = rng.standard_normal((parts.bath_dim, k)) + 1j * rng.standard_normal((parts.bath_dim, k))
    factor /= np.linalg.norm(factor, axis=0)
    for n_x in range(4):
        for n_z in range(4):
            u = full_toggling(ev, q.switching_profile(q.qdd_schedule(n_x, n_z, tau)))
            blocks = q.pauli_decompose(u)
            for r in (factor, q.make_states(q.BathKind.MAXIMALLY_MIXED, m)):
                for gamma in AXES:
                    gap = _direct_state(gamma, r, blocks) - column_direct_state(gamma, r, u)
                    assert np.abs(gap).max() <= 1e-14


def test_t_terms_for_identity_propagator(aniso2):
    _, parts = aniso2
    blocks = q.pauli_decompose(np.eye(2 * parts.bath_dim))
    ket = q.make_states(q.BathKind.MAXIMALLY_MIXED, 2)
    t1, t2, t3, t4 = q.t_decomposition(PauliAxis.X, *q.b_coefficients(blocks, ket))
    assert np.abs(t1 - q.metrics.qubit_state(PauliAxis.X)).max() < 1e-13
    assert np.abs(t2).max() < 1e-13
    assert np.abs(t3).max() < 1e-13
    assert np.abs(t4).max() < 1e-13


def _pure_dephasing_parts(m, iso_bath=True, seed=23):
    """Coupling only along z, with h_bath isotropic so the x rotation is a symmetry.

    A z-only coupling is no multiple of the identity, so the set is anisotropic."""
    rng = np.random.default_rng(seed)
    base = q.random_couplings(
        seed, m, q.SymmetryClass.ISOTROPIC if iso_bath else q.SymmetryClass.ANISOTROPIC
    )
    j1 = {}
    for i in range(1, m + 1):
        mat = np.zeros((3, 3))
        mat[2, 2] = rng.uniform(-1, 1)
        j1[i] = mat
    c = q.CouplingSet(
        m=m, topology=base.topology, symmetry_class=q.SymmetryClass.ANISOTROPIC,
        alpha=base.alpha, lam=base.lam, seed=seed, j0=dict(base.j0), j1=j1,
    )
    return q.build_hamiltonian(c)


def test_pure_dephasing_t2_t4_vanish():
    parts = _pure_dephasing_parts(2)
    u = full_toggling(q.TogglingEvolver(parts), q.switching_profile(q.qdd_schedule(1, 2, 0.8)))
    blocks = q.pauli_decompose(u)
    assert np.abs(blocks[1]).max() < 1e-13 and np.abs(blocks[2]).max() < 1e-13
    ket = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    for gamma in AXES:
        t1, t2, t3, t4 = q.t_decomposition(gamma, *q.b_coefficients(blocks, ket))
        assert np.abs(t2).max() <= 1e-13
        assert np.abs(t4).max() <= 1e-13
        rho0 = initial_state(gamma, ket)
        direct = partial_trace_bath(u @ rho0 @ u.conj().T)
        assert np.abs(t1 + t2 + t3 + t4 - direct).max() <= 1e-12


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("nu", AXES)
def test_bath_rotation_matches_embed_products(nu, m):
    # reference: the product of the m single-site embedded Paulis; every
    # entry is a product of 0, +-1 and +-i, so both routes are exact
    ref = np.eye(2**m, dtype=complex)
    for site in range(m):
        ref = ref @ embed(pauli(nu), site, m)
    assert np.array_equal(bath_rotation(nu, m), ref)
    # the signed permutation rotates one operator and a (4, D, D) block
    # stack exactly as conjugation by the dense rotation does
    rng = np.random.default_rng(m)
    stack = rng.normal(size=(4, 2**m, 2**m)) + 1j * rng.normal(size=(4, 2**m, 2**m))
    assert np.array_equal(rotate(stack[0], nu), ref @ stack[0] @ ref.conj().T)
    assert np.array_equal(rotate(stack, nu), ref @ stack @ ref.conj().T)


def test_pure_dephasing_single_rotation_kills_b_z():
    # with only a sigma_z coupling, the x rotation alone is enough: it leaves
    # b0 invariant, flips b_z, and so forces b_z = 0 for the mixed bath
    parts = _pure_dephasing_parts(3)
    blocks = q.qdd_decomposition(parts, 0, 2, 0.9)
    rot = bath_rotation(PauliAxis.X, 3)
    assert np.abs(rot @ blocks[0] @ rot.conj().T - blocks[0]).max() <= 1e-12
    assert np.abs(rot @ blocks[3] @ rot.conj().T + blocks[3]).max() <= 1e-12
    b_vec, _ = q.b_coefficients(blocks, q.make_states(q.BathKind.MAXIMALLY_MIXED, 3))
    assert abs(b_vec[2]) <= 1e-12
    # the z rotation is useless here: it does not invert the z block
    z_parity = q.rotation_parities(blocks, PauliAxis.Z, 3)
    assert z_parity.perpendicular_odd < 1e-12 or z_parity.b0_even < 1e-12


@pytest.mark.parametrize("nu", AXES)
def test_isotropic_rotation_parities(iso3, nu):
    _, parts = iso3
    for n_x, n_z in [(1, 1), (2, 2), (0, 3)]:
        blocks = q.qdd_decomposition(parts, n_x, n_z, 0.6)
        defects = q.rotation_parities(blocks, nu, 3)
        assert defects.worst <= 1e-12


def test_anisotropic_rotation_parities_fail(aniso3):
    _, parts = aniso3
    blocks = q.qdd_decomposition(parts, 1, 1, 0.6)
    worst = max(q.rotation_parities(blocks, nu, 3).worst for nu in AXES)
    assert worst > 1e-3


def test_rotation_parities_check_the_bath_size(aniso2):
    # the blocks of a 2-spin bath are 4 x 4; any other m is a wrong input
    _, parts = aniso2
    blocks = q.qdd_decomposition(parts, 1, 1, 0.5)
    for m in (1, 3):
        with pytest.raises(ValueError, match=f"a bath of {m} spins has dimension"):
            q.rotation_parities(blocks, PauliAxis.X, m)


def test_zero_hamiltonian_parities_zero():
    c = q.random_couplings(1, 2)
    for key in c.j0:
        c.j0[key] = np.zeros((3, 3))
    for key in c.j1:
        c.j1[key] = np.zeros((3, 3))
    parts = q.build_hamiltonian(c)
    blocks = q.qdd_decomposition(parts, 1, 1, 0.5)
    for nu in AXES:
        assert q.rotation_parities(blocks, nu, 2).worst <= 1e-12


def _b_slopes(parts, n_x, n_z, taus):
    ev = q.TogglingEvolver(parts)
    mixed = q.make_states(q.BathKind.MAXIMALLY_MIXED, parts.m)
    vec_norms, mat_norms = [], []
    for tau in taus:
        blocks = q.qdd_decomposition(parts, n_x, n_z, tau, ev)
        b_vec, b_mat = q.b_coefficients(blocks, mixed)
        vec_norms.append(np.abs(b_vec).max())
        mat_norms.append(
            max(abs(b_mat[m, n]) for m in range(3) for n in range(3) if m != n)
        )
    x = np.log(taus)
    return (
        np.polyfit(x, np.log(vec_norms), 1)[0],
        np.polyfit(x, np.log(mat_norms), 1)[0],
    )


def test_b_scaling_orders(aniso3):
    # with the mixed bath, b_mu inherits the tau^(min+1) order of the
    # coupling blocks and b_munu twice that order; cells chosen so both
    # families are nonzero and clear of the rounding floor
    _, parts = aniso3
    vec11, mat11 = _b_slopes(parts, 1, 1, np.geomspace(0.004, 0.04, 6))
    assert vec11 >= 2 - 0.2
    assert mat11 >= 4 - 0.3
    vec33, _ = _b_slopes(parts, 3, 3, np.geomspace(0.02, 0.2, 6))
    assert vec33 >= 4 - 0.2
    _, mat22 = _b_slopes(parts, 2, 2, np.geomspace(0.01, 0.04, 5))
    assert mat22 >= 6 - 0.3


def test_even_cells_kill_b_for_any_coupling(aniso3):
    # the mechanism behind the alternating pattern of the mixed case: at
    # N_x = N_z = 2 the b_mu vanish to rounding even without any Hamiltonian
    # symmetry, so the mixed bath doubles those cells
    _, parts = aniso3
    for tau in (0.01, 0.04):
        blocks = q.qdd_decomposition(parts, 2, 2, tau)
        b_vec, _ = q.b_coefficients(blocks, q.make_states(q.BathKind.MAXIMALLY_MIXED, 3))
        assert np.abs(b_vec).max() <= 1e-13


def test_report_json_fields(iso3):
    import json

    _, parts = iso3
    blocks = q.qdd_decomposition(parts, 1, 1, 0.5)
    ket = q.make_states(q.BathKind.MAXIMALLY_MIXED, 3)
    report = q.symmetry_report(blocks, ket, 3)
    doc = json.loads(report.to_json())
    assert doc["max_abs_b_vector"] <= 1e-12
    assert doc["max_abs_b_offdiag"] <= 1e-12
    assert set(doc["parity_defects"]) == {"x", "y", "z"}
    assert max(doc["t_residuals"].values()) <= 1e-12


def test_report_builds_one_gram(aniso3, monkeypatch):
    import qddsim.symmetry as symmetry

    c, parts = aniso3
    blocks = q.qdd_decomposition(parts, 1, 1, 0.5)
    product = q.make_states(q.BathKind.PRODUCT, c.m, q.default_directions(c.m))
    for ket in (product, q.make_states(q.BathKind.MAXIMALLY_MIXED, c.m)):
        calls = []
        gram = symmetry.factor_gram
        monkeypatch.setattr(symmetry, "factor_gram", lambda y: calls.append(len(y)) or gram(y))
        report = q.symmetry_report(blocks, ket, c.m)
        monkeypatch.undo()
        # one 4-block bath Gram; each preparation's direct state is a 2-block one
        assert sorted(calls) == [2, 2, 2, 4]
        # sharing the Gram leaves every residual as the standalone T split computes it
        assert report.t_residuals == tuple(q.t_residual(g, ket, blocks) for g in AXES)


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("sym", list(q.SymmetryClass))
@pytest.mark.parametrize("bath", list(q.BathKind))
def test_report_json_is_the_document_of_its_pieces(m, sym, bath):
    # the compact report writes, byte for byte, the document assembled from
    # b_coefficients, rotation_parities and t_residual
    c = q.random_couplings(PRIMARY_SEED, m, sym)
    parts = q.build_hamiltonian(c)
    r = q.make_states(bath, m, q.default_directions(m) if bath is q.BathKind.PRODUCT else None)
    evolver = q.TogglingEvolver(parts)
    for cell, tau in (((1, 1), 0.5), ((2, 3), 0.9), ((3, 0), 0.3)):
        blocks = q.qdd_decomposition(parts, *cell, tau, evolver)
        assert q.symmetry_report(blocks, r, m).to_json() == symmetry_json(blocks, r, m)


def test_report_holds_three_small_arrays(aniso3):
    c, parts = aniso3
    blocks = q.qdd_decomposition(parts, 2, 1, 0.5)
    r = q.make_states(q.BathKind.PRODUCT, c.m, q.default_directions(c.m))
    report = q.symmetry_report(blocks, r, c.m)
    shapes = report.gram.shape, report.defects.shape, report.residuals.shape
    assert shapes == ((4, 4), (3, 3), (3,))
    b_vector, b_matrix = q.b_coefficients(blocks, r)
    assert np.shares_memory(report.b_vector, report.gram)
    assert np.shares_memory(report.b_matrix, report.gram)
    assert np.array_equal(report.b_vector, b_vector) and np.array_equal(report.b_matrix, b_matrix)
    # the per-axis records are built afresh from the arrays
    assert report.parity_defects == tuple(q.rotation_parities(blocks, nu, c.m) for nu in AXES)
    assert report.t_residuals == tuple(report.residuals.tolist())
