import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as pade_expm

import qddsim as q
from qddsim.linalg import (
    AXES,
    PauliAxis,
    pauli,
    pauli_blocks,
)
from qddsim.model import segment_hamiltonian

from qddsim.metrics import qdd_distances, qubit_state

from conftest import PRIMARY_SEED
from reference import (
    gram_reduced_state,
    bath_density,
    bath_gram,
    delta,
    full_toggling,
    initial_state,
    ket_columns,
    lab_propagator,
    norm_distance,
    partial_trace_bath,
)


def test_maximally_mixed_bath():
    # the maximally mixed bath is the identity factor (k = D); rho_B = R R^+ / D
    r = q.make_states(q.BathKind.MAXIMALLY_MIXED, 3)
    assert r.shape == (8, 8) and np.array_equal(r, np.eye(8))
    assert np.allclose(bath_density(r), np.eye(8) / 8)


def test_bath_kind_must_be_a_member():
    # the string used to build the product ket, so a "maximally_mixed" spec
    # fitted a product-bath table
    with pytest.raises(ValueError, match="need a BathKind member, got 'maximally_mixed'"):
        q.make_states("maximally_mixed", 3, q.default_directions(3))


def test_product_bath_computational_basis():
    directions = [(PauliAxis.Z, +1), (PauliAxis.Z, +1)]
    ket = q.make_states(q.BathKind.PRODUCT, 2, directions)
    assert ket.shape == (4, 1)
    assert np.allclose(ket[:, 0], [1.0, 0, 0, 0])
    assert np.allclose(bath_density(ket), np.diag([1.0, 0, 0, 0]))


@pytest.mark.parametrize("kind,directions", [
    (q.BathKind.MAXIMALLY_MIXED, None),
    (q.BathKind.PRODUCT, [(PauliAxis.X, +1), (PauliAxis.Y, -1), (PauliAxis.Z, +1)]),
])
def test_states_satisfy_density_axioms(kind, directions):
    rho_b = bath_density(q.make_states(kind, 3, directions))
    for gamma in AXES:
        rho_s = qubit_state(gamma)
        assert abs(np.trace(rho_b) - 1.0) < 1e-14
        assert np.linalg.eigvalsh(rho_b).min() >= -1e-14
        assert abs(np.trace(rho_s) - 1.0) < 1e-14
        # rho_s projects onto the +1 eigenstate of sigma_gamma
        assert np.abs(pauli(gamma) @ rho_s - rho_s).max() < 1e-14


def test_random_directions_seeded():
    a = q.random_directions(3, 5)
    assert a == q.random_directions(3, 5)
    assert a != q.random_directions(4, 5)
    assert len(a) == 5
    ket = q.make_states(q.BathKind.PRODUCT, 5, a)
    assert abs(np.vdot(ket, ket) - 1.0) < 1e-14


def test_random_directions_golden_values():
    # splitmix64 stream of seed 42, two outputs per spin: axis = u % 3 of
    # the first, sign from the top bit of the second (worked out apart
    # from the package with plain big-int arithmetic)
    X, Y, Z = PauliAxis.X, PauliAxis.Y, PauliAxis.Z
    assert q.random_directions(42, 6) == [
        (Y, +1), (X, +1), (Y, -1), (Y, -1), (Y, -1), (Z, +1),
    ]


def test_ket_columns_need_the_pure_bath(aniso2):
    _, parts = aniso2
    pure = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    phi = q.TogglingEvolver(parts).toggling(
        q.switching_profile(q.qdd_schedule(1, 1, 0.3)), pure, [0.3]
    )
    q.frame_reduced_distance(pure, phi, [0.3])
    with pytest.raises(ValueError, match=r"columns u \(1 x R\)"):
        q.frame_reduced_distance(q.make_states(q.BathKind.MAXIMALLY_MIXED, 2), phi, [0.3])


def test_bath_ket_must_have_bath_shape_and_unit_norm(aniso2):
    _, parts = aniso2
    ket = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    profile = q.switching_profile(q.qdd_schedule(1, 1, 0.3))
    u = full_toggling(q.TogglingEvolver(parts), profile)
    blocks = q.qdd_decomposition(parts, 1, 1, 0.3)
    bad_factors = (
        np.ones((8, 1), dtype=complex) / np.sqrt(8),  # wrong row count
        ket[:, 0],  # a bare (D,) vector
        (1 + 1e-9) * ket,  # ||R||_F^2 != k for k = 1
        (1 + 1e-9) * q.make_states(q.BathKind.MAXIMALLY_MIXED, 2),  # and for k = D
        np.ones((4, 2), dtype=complex),  # ||R||_F^2 = 8 for k = 2
    )
    for bad in bad_factors:
        with pytest.raises(ValueError):
            q.qdd_distance(parts, bad, 1, 1, 0.3)
        with pytest.raises(ValueError):
            q.frame_reduced_distance(bad, ket_columns(u, ket)[None], [0.3])
        with pytest.raises(ValueError):
            q.symmetry_report(blocks, bad, 2)


def test_reduction_takes_one_block_per_duration(aniso2):
    # the reduction reads the stack that `toggling` returns, one 2D x 2k
    # block per duration; a lone block or a stack of another length is an error
    _, parts = aniso2
    ket = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    profile = q.switching_profile(q.qdd_schedule(1, 2, 1.0))
    taus = [0.1, 0.2, 0.4]
    u = q.TogglingEvolver(parts).toggling(profile, ket, taus)
    assert u.shape == (3, 2 * parts.bath_dim, 2)
    assert [p.tau for p in q.frame_reduced_distance(ket, u, taus)] == taus
    for bad_u, bad_taus in ((u[0], [0.1]), (u, taus[:2]), (u[:1], taus)):
        with pytest.raises(ValueError, match="one 2D x 2k block u"):
            q.frame_reduced_distance(ket, bad_u, bad_taus)


def test_fractional_pulse_count_is_rejected(aniso2):
    # it used to return the d of a schedule with a third pulse count
    _, parts = aniso2
    ket = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    with pytest.raises(ValueError, match="nonnegative integers"):
        q.qdd_distance(parts, ket, 1, 1.5, 0.1)


def test_missing_directions_rejected():
    with pytest.raises(ValueError):
        q.make_states(q.BathKind.PRODUCT, 2)
    # an axis that is not a PauliAxis is not read as y
    with pytest.raises(ValueError, match="'x'"):
        q.make_states(q.BathKind.PRODUCT, 1, [("x", 1)])


def _cell(parts, n_x, n_z, tau):
    s = q.qdd_schedule(n_x, n_z, tau)
    u_lab = lab_propagator(parts, s)
    u_b = np.kron(np.eye(2), q.TogglingEvolver(parts).bath_unitary(tau))
    p_op = q.pulse_operator(n_x, n_z)
    return u_lab, u_b, p_op


def test_delta_vanishes_for_decoupled_qubit():
    c = q.random_couplings(5, 2)
    for key in c.j1:
        c.j1[key] = np.zeros((3, 3))
    parts = q.build_hamiltonian(c)
    ket = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    for n_x, n_z, tau in [(1, 1, 0.5), (2, 2, 1.0), (0, 0, 0.3)]:
        u_lab, u_b, p_op = _cell(parts, n_x, n_z, tau)
        for gamma in AXES:
            assert np.abs(delta(gamma, ket, u_lab, u_b, p_op)).max() <= 1e-13
        res = norm_distance(ket, u_lab, u_b, p_op, tau=tau)
        assert res.d <= 1e-13


def test_delta_vanishes_at_zero_duration(aniso2):
    _, parts = aniso2
    ket = q.make_states(q.BathKind.MAXIMALLY_MIXED, 2)
    dim = 2 * parts.bath_dim
    d0 = delta(PauliAxis.Z, ket, np.eye(dim), np.eye(dim), np.eye(2))
    assert np.abs(d0).max() == 0.0


def test_delta_matches_brute_force_oracle(aniso1):
    # recompute the reduced difference from raw Pade matrix products
    _, parts = aniso1
    n_x = n_z = 1
    tau = 0.2
    s = q.qdd_schedule(n_x, n_z, tau)
    h_full = segment_hamiltonian(parts, (1, 1, 1))
    u = np.eye(4, dtype=complex)
    t_prev = 0.0
    for ev_ in s.events:
        u = pade_expm(-1j * (ev_.time - t_prev) * h_full) @ u
        u = np.kron(pauli(ev_.axis), np.eye(2)) @ u
        t_prev = ev_.time
    u = pade_expm(-1j * (tau - t_prev) * h_full) @ u
    u_b = np.kron(np.eye(2), pade_expm(-1j * tau * parts.h_bath))
    p = pauli(PauliAxis.Z) @ pauli(PauliAxis.X) @ pauli(PauliAxis.Z)
    ket = q.make_states(q.BathKind.PRODUCT, 1, [(PauliAxis.X, 1)])
    for gamma in AXES:
        rho0 = initial_state(gamma, ket)
        p_full = np.kron(p, np.eye(2))
        ideal = u_b @ p_full @ rho0 @ p_full.conj().T @ u_b.conj().T
        real = u @ rho0 @ u.conj().T
        expected = partial_trace_bath(ideal - real)
        u_lab, u_b_pkg, p_pkg = _cell(parts, n_x, n_z, tau)
        got = delta(gamma, ket, u_lab, u_b_pkg, p_pkg)
        assert np.abs(got - expected).max() < 1e-12


def test_distance_combines_components(aniso2):
    _, parts = aniso2
    ket = q.make_states(q.BathKind.MAXIMALLY_MIXED, 2)
    u_lab, u_b, p_op = _cell(parts, 1, 1, 0.4)
    res = norm_distance(ket, u_lab, u_b, p_op, tau=0.4)
    assert np.isclose(res.d**2, sum(x**2 for x in res.d_gamma) / 3, rtol=1e-12)
    for dg in (delta(gamma, ket, u_lab, u_b, p_op) for gamma in AXES):
        assert np.abs(dg - dg.conj().T).max() <= 1e-12
        assert abs(np.trace(dg)) <= 1e-12


def test_distance_invariant_under_global_phase(aniso2):
    _, parts = aniso2
    ket = q.make_states(q.BathKind.MAXIMALLY_MIXED, 2)
    u_lab, u_b, p_op = _cell(parts, 2, 1, 0.5)
    a = norm_distance(ket, u_lab, u_b, p_op)
    b = norm_distance(ket, np.exp(1j * 0.713) * u_lab, u_b, p_op)
    c = norm_distance(ket, u_lab, np.exp(-1j * 1.2) * u_b, p_op)
    assert np.isclose(a.d, b.d, rtol=1e-12)
    assert np.isclose(a.d, c.d, rtol=1e-12)


@pytest.mark.parametrize("bath", [q.BathKind.PRODUCT, q.BathKind.MAXIMALLY_MIXED])
def test_frame_reduced_agrees_with_lab_frame(bath):
    rng = np.random.default_rng(PRIMARY_SEED)
    checked = 0
    for seed in range(5):
        c = q.random_couplings(seed, 2)
        parts = q.build_hamiltonian(c)
        ev = q.TogglingEvolver(parts)
        directions = q.default_directions(2) if bath is q.BathKind.PRODUCT else None
        ket = q.make_states(bath, 2, directions)
        for _ in range(5):
            n_x, n_z = rng.integers(0, 4, size=2)
            tau = float(rng.uniform(0.05, 1.0))
            u_lab, u_b, p_op = _cell(parts, n_x, n_z, tau)
            ref = norm_distance(ket, u_lab, u_b, p_op, tau=tau)
            u_tog = full_toggling(ev, q.switching_profile(q.qdd_schedule(n_x, n_z, tau)))
            fast = q.frame_reduced_distance(ket, ket_columns(u_tog, ket)[None], [tau])[0]
            assert fast.d == pytest.approx(ref.d, rel=1e-12, abs=1e-14)
            for a, b in zip(fast.d_gamma, ref.d_gamma):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-14)
            checked += 1
    assert checked == 25  # 50 cells across the two bath kinds


def _dense_frame_reduced_distance(ket, u_tog, u_bath):
    """Reference: reduce the dense 2D x 2D real and ideal states directly."""
    rho_b = bath_density(ket)
    deltas = []
    for gamma in AXES:
        ideal = np.kron(qubit_state(gamma), u_bath @ rho_b @ u_bath.conj().T)
        real = u_tog @ initial_state(gamma, ket) @ u_tog.conj().T
        deltas.append(partial_trace_bath(ideal - real))
    d_gamma = [float(np.sqrt(max(np.trace(dg @ dg).real, 0.0))) for dg in deltas]
    return float(np.sqrt(sum(x * x for x in d_gamma) / 3.0)), d_gamma, deltas


@pytest.mark.parametrize("bath", [q.BathKind.PRODUCT, q.BathKind.MAXIMALLY_MIXED])
@pytest.mark.parametrize("m", [3, 4])
def test_gram_reduction_matches_dense_reference(m, bath):
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, m))
    ev = q.TogglingEvolver(parts)
    directions = q.random_directions(m, m) if bath is q.BathKind.PRODUCT else None
    ket = q.make_states(bath, m, directions)
    for n_x in range(4):
        for n_z in range(4):
            for tau in (0.05, 0.3, 1.0):
                u_tog = full_toggling(ev, q.switching_profile(q.qdd_schedule(n_x, n_z, tau)))
                d, d_gamma, deltas = _dense_frame_reduced_distance(
                    ket, u_tog, ev.bath_unitary(tau)
                )
                fast = q.frame_reduced_distance(ket, ket_columns(u_tog, ket)[None], [tau])[0]
                assert abs(fast.d - d) <= 1e-14
                for a, b in zip(fast.d_gamma, d_gamma):
                    assert abs(a - b) <= 1e-14
                gram = bath_gram(pauli_blocks(u_tog), bath_density(ket))
                for gamma, b in zip(AXES, deltas):
                    rho_s = qubit_state(gamma)
                    a = rho_s - gram_reduced_state(rho_s, gram)
                    assert np.abs(a - b).max() <= 1e-14


def test_mixed_bath_matches_partial_frobenius_evaluation(iso3):
    # for rho_B = 1/D the distance is a Hilbert-Schmidt contraction of the
    # two propagators; evaluate it that way, with no density matrices at all
    _, parts = iso3
    d = parts.bath_dim
    tau = 0.5
    u_lab, u_b, p_op = _cell(parts, 2, 2, tau)
    w = u_b @ np.kron(p_op, np.eye(d))

    def transfer(x):
        xr = x.reshape(2, d, 2, d)
        return np.einsum("amcn,bmdn->abcd", xr, xr.conj()) / d

    diff = transfer(w) - transfer(u_lab)
    dsq = 0.0
    for gamma in AXES:
        ket = q.metrics.pauli_ket(gamma, +1)
        rho_s = np.outer(ket, ket.conj())
        delta_g = np.einsum("abcd,cd->ab", diff, rho_s)
        dsq += np.trace(delta_g @ delta_g).real / 3
    independent = np.sqrt(max(dsq, 0.0))

    ket = q.make_states(q.BathKind.MAXIMALLY_MIXED, 3)
    res = norm_distance(ket, u_lab, u_b, p_op, tau=tau)
    assert res.d == pytest.approx(independent, rel=1e-12)


def test_distance_ratio_tracks_leading_power(aniso1):
    # halving tau must scale d by about 2^zeta with zeta = min + 1
    _, parts = aniso1
    ket = q.make_states(q.BathKind.PRODUCT, 1, [(PauliAxis.X, 1)])
    ev = q.TogglingEvolver(parts)
    tau = 2e-3
    d1 = q.qdd_distance(parts, ket, 1, 1, tau, ev).d
    d2 = q.qdd_distance(parts, ket, 1, 1, tau / 2, ev).d
    zeta = np.log2(d1 / d2)
    assert abs(zeta - 2.0) < 0.1


def test_series_csv_format(aniso2):
    _, parts = aniso2
    ket = q.make_states(q.BathKind.MAXIMALLY_MIXED, 2)
    rows = [q.qdd_distance(parts, ket, 1, 1, t) for t in (0.1, 0.2)]
    text = q.series_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "tau,d,dx,dy,dz"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert len(first) == 5
    assert float(first[0]) == 0.1
    assert all("e" in f for f in first)  # scientific notation
    # 17 significant digits round-trip
    assert float(first[1]) == rows[0].d


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    m=st.integers(1, 4),
    sym=st.sampled_from(list(q.SymmetryClass)),
    bath=st.sampled_from(list(q.BathKind)),
    seed=st.integers(0, 2**32 - 1),
    n_x=st.integers(0, 3),
    n_z=st.integers(0, 3),
    taus=st.lists(st.floats(1e-4, 2.0), min_size=1, max_size=6).flatmap(
        lambda taus: st.permutations(taus + taus[:2])  # unsorted, with repeats
    ),
)
def test_batched_distances_match_one_duration_at_a_time(m, sym, bath, seed, n_x, n_z, taus):
    # one chain over all durations gives each its own d: the per-duration
    # entry point is the batch of one, and the schedule built at each tau
    # itself is the reference for stretching the unit-duration one
    parts = q.build_hamiltonian(q.random_couplings(seed, m, sym))
    ev = q.TogglingEvolver(parts)
    directions = q.random_directions(seed, m) if bath is q.BathKind.PRODUCT else None
    r = q.make_states(bath, m, directions)
    batched = qdd_distances(parts, r, n_x, n_z, taus, ev)
    assert [p.tau for p in batched] == taus
    for tau, point in zip(taus, batched):
        alone = q.qdd_distance(parts, r, n_x, n_z, tau, ev)
        assert abs(point.d - alone.d) <= 5e-15
        assert np.abs(np.subtract(point.d_gamma, alone.d_gamma)).max() <= 5e-15
        u = ev.toggling(q.switching_profile(q.qdd_schedule(n_x, n_z, tau)), r, [tau])
        assert abs(point.d - q.frame_reduced_distance(r, u, [tau])[0].d) <= 5e-15
