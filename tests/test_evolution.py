import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as pade_expm

import qddsim as q
import qddsim.evolution as evolution
from qddsim.linalg import (
    AXES,
    PauliAxis,
    embed,
    expm_from_eigensystem,
    from_pauli_blocks,
    herm_eigensystem,
    pauli,
    pauli_blocks,
    rotation_defects,
)
from qddsim.metrics import qubit_state
from qddsim.model import segment_hamiltonian
from qddsim.sequence import PulseSchedule, SwitchingProfile

from conftest import PRIMARY_SEED
from reference import (
    distance_from_deltas,
    gram_reduced_state,
    bath_density,
    bath_gram,
    block_unitarity_defects,
    assemble_pieces,
    bath_rotation,
    full_toggling,
    ket_columns,
    lab_propagator,
    segment_product_propagator,
    unitarity_defect,
)


def brute_toggling(parts, profile):
    """Oracle: multiply Pade-exponential segments directly."""
    d = parts.bath_dim
    u = np.eye(2 * d, dtype=complex)
    for i, (fx, fy, fz) in enumerate(profile.values):
        h = np.kron(np.eye(2), parts.h_bath)
        for f, axis, a in zip((fx, fy, fz), AXES, parts.a_ops):
            h = h + f * np.kron(pauli(axis), a)
        u = pade_expm(-1j * profile.durations[i] * h) @ u
    return u


def brute_lab(parts, schedule):
    d = parts.bath_dim
    h_full = segment_hamiltonian(parts, (1, 1, 1))
    u = np.eye(2 * d, dtype=complex)
    t_prev = 0.0
    for ev in schedule.events:
        u = pade_expm(-1j * (ev.time - t_prev) * h_full) @ u
        u = np.kron(pauli(ev.axis), np.eye(d)) @ u
        t_prev = ev.time
    return pade_expm(-1j * (schedule.tau - t_prev) * h_full) @ u


def test_toggling_decoupled_qubit(aniso2):
    c, parts = aniso2
    stripped = q.build_hamiltonian(
        q.CouplingSet(
            m=c.m, topology=c.topology, symmetry_class=q.SymmetryClass.ANISOTROPIC,
            alpha=c.alpha, lam=c.lam, seed=c.seed,
            j0=dict(c.j0), j1={i: np.zeros((3, 3)) for i in c.j1},
        )
    )
    prof = q.switching_profile(q.qdd_schedule(2, 1, 0.6))
    u = full_toggling(q.TogglingEvolver(stripped), prof)
    expected = np.kron(np.eye(2), expm_from_eigensystem(*herm_eigensystem(stripped.h_bath), 0.6))
    assert np.abs(u - expected).max() < 1e-12


def test_toggling_small_tau_limit(aniso2):
    _, parts = aniso2
    prof = q.switching_profile(q.qdd_schedule(1, 1, 1e-13))
    u = full_toggling(q.TogglingEvolver(parts), prof)
    assert np.abs(u - np.eye(2 * parts.bath_dim)).max() < 1e-11


def test_toggling_matches_brute_force(aniso1):
    _, parts = aniso1
    prof = q.switching_profile(q.qdd_schedule(1, 1, 0.1))
    u = full_toggling(q.TogglingEvolver(parts), prof)
    assert np.abs(u - brute_toggling(parts, prof)).max() < 1e-12


def test_lab_no_pulses_single_segment(aniso2):
    _, parts = aniso2
    # a schedule with zero pulses is one full-Hamiltonian segment
    s = q.qdd_schedule(0, 0, 0.8)
    assert len(s.events) == 0
    u = lab_propagator(parts, s)
    h = segment_hamiltonian(parts, (1, 1, 1))
    assert np.abs(u - expm_from_eigensystem(*herm_eigensystem(h), 0.8)).max() < 1e-12


def test_lab_pure_pulses_reproduce_net_rotation():
    c = q.random_couplings(3, 2)
    for key in c.j0:
        c.j0[key] = np.zeros((3, 3))
    for key in c.j1:
        c.j1[key] = np.zeros((3, 3))
    parts = q.build_hamiltonian(c)
    for n_x, n_z in [(1, 1), (2, 1), (0, 3), (2, 2)]:
        s = q.qdd_schedule(n_x, n_z, 1.0)
        u = lab_propagator(parts, s)
        expected = np.kron(q.switching_profile(s).net_rotation, np.eye(parts.bath_dim))
        assert np.abs(u - expected).max() < 1e-12


def test_lab_matches_brute_force(aniso1):
    _, parts = aniso1
    s = q.qdd_schedule(1, 1, 0.1)
    assert np.abs(lab_propagator(parts, s) - brute_lab(parts, s)).max() < 1e-12


def test_bath_propagator_trivial_bath():
    # a single bath spin has no intra-bath bonds, so the ideal bath
    # evolution is the identity at every duration
    c = q.random_couplings(4, 1)
    parts = q.build_hamiltonian(c)
    assert np.abs(parts.h_bath).max() == 0.0
    u = np.kron(np.eye(2), q.TogglingEvolver(parts).bath_unitary(0.9))
    assert np.abs(u - np.eye(4)).max() <= 1e-13


def test_bath_propagator(aniso2):
    _, parts = aniso2
    ev = q.TogglingEvolver(parts)
    u = np.kron(np.eye(2), ev.bath_unitary(0.3))
    expected = np.kron(np.eye(2), pade_expm(-1j * 0.3 * parts.h_bath))
    assert np.abs(u - expected).max() < 1e-12
    u0 = np.kron(np.eye(2), ev.bath_unitary(0.0))
    assert np.abs(u0 - np.eye(2 * parts.bath_dim)).max() <= 1e-13


@pytest.mark.parametrize("topology", [q.Topology.CENTRAL_SPIN, q.Topology.CHAIN])
@pytest.mark.parametrize("seed", [PRIMARY_SEED, 7])
def test_frame_equivalence(topology, seed):
    c = q.random_couplings(seed, 2, topology=topology)
    parts = q.build_hamiltonian(c)
    ev = q.TogglingEvolver(parts)
    d = parts.bath_dim
    for n_x in range(5):
        for n_z in range(5):
            s = q.qdd_schedule(n_x, n_z, 0.7)
            u_lab = lab_propagator(parts, s)
            u_tog = full_toggling(ev, q.switching_profile(s))
            p_op = q.switching_profile(q.qdd_schedule(n_x, n_z, 1.0)).net_rotation
            p_full = np.kron(p_op, np.eye(d))
            assert np.abs(u_lab - p_full @ u_tog).max() <= 1e-12
            assert unitarity_defect(u_lab) <= 1e-12
            assert unitarity_defect(u_tog) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    m=st.integers(1, 4),
    sym=st.sampled_from(list(q.SymmetryClass)),
    topology=st.sampled_from(list(q.Topology)),
    seed=st.integers(0, 2**32 - 1),
    bath=st.sampled_from(list(q.BathKind)),
    tau=st.floats(1e-3, 2.0),
    phase=st.floats(0.0, 2 * np.pi),
)
def test_toggling_matches_segment_product(m, sym, topology, seed, bath, tau, phase):
    parts = q.build_hamiltonian(q.random_couplings(seed, m, sym, topology))
    ev = q.TogglingEvolver(parts)
    directions = q.random_directions(seed, m) if bath is q.BathKind.PRODUCT else None
    ket = q.make_states(bath, m, directions)
    for n_x in range(4):
        for n_z in range(4):
            profile = q.switching_profile(q.qdd_schedule(n_x, n_z, tau))
            u = full_toggling(ev, profile)
            assert np.abs(u - segment_product_propagator(parts, profile)).max() <= 1e-13
            assert unitarity_defect(u) <= 1e-13
            d = q.frame_reduced_distance(ket, ket_columns(u, ket)[None, None], [tau])[0].d
            shifted = q.frame_reduced_distance(
                ket, ket_columns(np.exp(1j * phase) * u, ket)[None, None], [tau]
            )[0].d
            assert shifted == pytest.approx(d, rel=1e-12, abs=1e-14)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    m=st.integers(1, 4),
    sym=st.sampled_from(list(q.SymmetryClass)),
    seed=st.integers(0, 2**32 - 1),
    directions_seed=st.integers(0, 2**32 - 1),
    tau=st.floats(1e-3, 2.0),
    k=st.integers(1, 4),
    factor_seed=st.integers(0, 2**32 - 1),
)
def test_ket_columns_match_dense_propagator(m, sym, seed, directions_seed, tau, k, factor_seed):
    # a bath factor R propagates only u (1 x R); the dense propagator's
    # blocks against the bath density matrix R R^+ / k are the reference
    # Gram, for the product ket and for k random unit columns
    parts = q.build_hamiltonian(q.random_couplings(seed, m, sym))
    ev = q.TogglingEvolver(parts)
    ket = q.make_states(q.BathKind.PRODUCT, m, q.random_directions(directions_seed, m))
    rng = np.random.default_rng(factor_seed)
    factor = rng.standard_normal((parts.bath_dim, k)) + 1j * rng.standard_normal((parts.bath_dim, k))
    factor /= np.linalg.norm(factor, axis=0)
    for r in (ket, factor):
        rho_b = bath_density(r)
        for n_x in range(4):
            for n_z in range(4):
                profile = q.switching_profile(q.qdd_schedule(n_x, n_z, tau))
                pieces = ev.toggling(profile, r, [tau])
                phi = assemble_pieces(pieces[0], False)
                assert phi.shape == (2 * parts.bath_dim, 2 * r.shape[1])
                isometry = np.kron(np.eye(2), r.conj().T @ r)
                assert np.abs(phi.conj().T @ phi - isometry).max() <= 1e-13
                dense = bath_gram(pauli_blocks(full_toggling(ev, profile)), rho_b)
                columns = pauli_blocks(phi).reshape(4, -1)  # the blocks B_a R
                gram = columns @ columns.conj().T / r.shape[1]
                assert np.abs(gram - dense).max() <= 1e-13
                rho_s = [qubit_state(gamma) for gamma in AXES]
                ref = distance_from_deltas(
                    tau, [rho - gram_reduced_state(rho, dense) for rho in rho_s]
                )
                # d sums 16 O(1) Gram terms, so its rounding floor is a few 1e-15
                assert q.frame_reduced_distance(r, pieces, [tau])[0].d == pytest.approx(
                    ref.d, rel=1e-12, abs=1e-14
                )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    m=st.integers(1, 4),
    sym=st.sampled_from(list(q.SymmetryClass)),
    seed=st.integers(0, 2**32 - 1),
    first=st.floats(1e-3, 0.5),
    pulses=st.lists(
        st.tuples(st.sampled_from((PauliAxis.X, PauliAxis.Z)), st.floats(1e-3, 0.5)),
        max_size=10,
    ),
    k=st.integers(1, 4),
)
def test_toggling_of_arbitrary_pulse_orders(m, sym, seed, first, pulses, k):
    # any order of X and Z pulses with any durations, not only the QDD cells,
    # so the chain ends after odd and even numbers of X pulses alike
    durations = [first] + [duration for _, duration in pulses]
    profile = SwitchingProfile(
        breakpoints=np.concatenate(([0.0], np.cumsum(durations))),
        axes=[axis for axis, _ in pulses],
    )
    parts = q.build_hamiltonian(q.random_couplings(seed, m, sym))
    ev = q.TogglingEvolver(parts)
    u = full_toggling(ev, profile)
    assert np.abs(u - segment_product_propagator(parts, profile)).max() <= 1e-13
    ket = q.make_states(q.BathKind.PRODUCT, m, q.random_directions(seed, m))
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((parts.bath_dim, k)) + 1j * rng.standard_normal((parts.bath_dim, k))
    factor /= np.linalg.norm(factor, axis=0)
    for r in (ket, factor):
        phi = assemble_pieces(ev.toggling(profile, r, [profile.tau])[0], False)
        assert np.abs(phi - ket_columns(u, r)).max() <= 1e-13


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("sym", list(q.SymmetryClass))
def test_palindromic_lab_propagator_unfolds_from_its_half(m, sym):
    # every model is time-reversal invariant, Y H^* Y^+ = H for Y = sigma_y^{x(M+1)},
    # and a QDD schedule is palindromic, so with F the first h = floor(L/2)
    # segments, X the first ceil(L/2) and Pi the pulse after X, the lab
    # propagator is U = (-1)^(h-1) Y F^T Y Pi X (cell (0, 0) has no pulse)
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, m, sym))
    y = bath_rotation(PauliAxis.Y, m + 1)
    for n_x in range(4):
        for n_z in range(4):
            schedule = q.qdd_schedule(n_x, n_z, 0.7)
            events = schedule.events
            if not events:
                continue
            half = (len(events) + 1) // 2

            def head(j):
                """The lab propagator of the first j segments."""
                return lab_propagator(parts, PulseSchedule(n_x, n_z, events[j - 1].time, events[: j - 1]))

            f, x = head(half), head(len(events) + 1 - half)
            pulse = np.kron(pauli(events[len(events) - half].axis), np.eye(parts.bath_dim))
            unfolded = (-1) ** (half - 1) * y @ f.T @ y @ pulse @ x
            assert np.abs(unfolded - lab_propagator(parts, schedule)).max() <= 1e-13, (n_x, n_z)


def _field_model(m):
    """An anisotropic model with a field on bath spin 1, which breaks time reversal."""
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, m))
    blocks = parts.blocks.copy()
    blocks[0] += 0.4 * embed(pauli(PauliAxis.Z), 0, m)
    return q.HamiltonianParts(blocks)


def test_half_chain_needs_time_reversal_a_palindrome_and_four_segments():
    # the identity factor of one sector takes the half chain only on a
    # time-reversible model and a palindromic profile of L >= 4 segments.
    # Forced onto a model whose field breaks time reversal, the half chain
    # misses the segment product where it is taken and nowhere else
    for m in (2, 3):
        assert q.TogglingEvolver(q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, m)))._basis.reversible
        parts = _field_model(m)
        assert rotation_defects(parts.blocks)[3].max() > 0.5  # the field breaks it at order one
        honest = q.TogglingEvolver(parts)
        assert len(honest._basis.states) == 1 and not honest._basis.reversible
        forced = q.TogglingEvolver(parts)
        forced.__dict__["_basis"] = honest._basis._replace(reversible=True)
        profiles = [q.switching_profile(q.qdd_schedule(n_x, n_z, 0.7))
                    for n_x in range(4) for n_z in range(4)]
        # palindromic axes, durations that are not
        profiles.append(SwitchingProfile([0.0, 0.1, 0.3, 0.6, 0.7], [PauliAxis.X] * 3))
        # palindromic durations, axes that are not
        profiles.append(SwitchingProfile([0.0, 0.1, 0.35, 0.6, 0.7], [PauliAxis.X, PauliAxis.Z, PauliAxis.Z]))
        for profile in profiles:
            want = segment_product_propagator(parts, profile)
            assert np.abs(full_toggling(honest, profile) - want).max() <= 1e-13
            halved = len(profile.values) >= 4 and evolution._palindromic(profile)
            gap = np.abs(full_toggling(forced, profile) - want).max()
            assert (gap > 1e-6) if halved else (gap <= 1e-13), (profile.axes, gap)
        assert sum(evolution._palindromic(p) and len(p.values) >= 4 for p in profiles) == 11


def test_ket_must_match_bath_dimension(aniso2):
    _, parts = aniso2
    profile = q.switching_profile(q.qdd_schedule(1, 1, 0.3))
    with pytest.raises(ValueError, match="bath factor"):
        q.TogglingEvolver(parts).toggling(profile, np.ones(8, dtype=complex) / np.sqrt(8), [0.3])


def test_toggling_rejects_durations_that_are_not_positive_and_finite(aniso2):
    _, parts = aniso2
    profile = q.switching_profile(q.qdd_schedule(1, 1, 0.3))
    ket = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    for taus in ([0.0], [0.3, -0.1], [np.nan], [np.inf], [[0.3]]):
        with pytest.raises(ValueError, match="must be positive and finite"):
            q.TogglingEvolver(parts).toggling(profile, ket, taus)


def _eigensystem_shapes(monkeypatch, parts):
    """The shapes of the Hermitian eigensystems an evolver of `parts` computes
    while it propagates every cell of the 4 x 4 grid at two durations."""
    calls = []
    original = evolution.herm_eigensystem

    def counting(h):
        calls.append(h.shape)
        return original(h)

    monkeypatch.setattr(evolution, "herm_eigensystem", counting)
    ev = q.TogglingEvolver(parts)
    for n_x in range(4):
        for n_z in range(4):
            for tau in (0.05, 0.7):
                full_toggling(ev, q.switching_profile(q.qdd_schedule(n_x, n_z, tau)))
    return calls


def test_one_eigensystem_per_evolver(monkeypatch, aniso3):
    _, parts = aniso3
    d = parts.bath_dim
    assert _eigensystem_shapes(monkeypatch, parts) == [(2 * d, 2 * d)]


@pytest.mark.parametrize("topology", list(q.Topology))
@pytest.mark.parametrize("m", [2, 3, 4])
def test_isotropic_model_has_two_parity_sectors(monkeypatch, topology, m):
    # H commutes with sigma_z^(M+1), read off H itself: one eigensystem per sector
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, m, q.SymmetryClass.ISOTROPIC, topology))
    d = parts.bath_dim
    assert _eigensystem_shapes(monkeypatch, parts) == [(d, d), (d, d)]


@pytest.mark.parametrize("entry,sectors", [((0, 2), 1), ((1, 2), 1), ((0, 1), 2)])
def test_off_diagonal_coupling_sectors(monkeypatch, entry, sectors):
    # one small off-diagonal J1 entry added to an isotropic draw breaks SU(2),
    # so the set is anisotropic. sigma_x sigma_z (real) and sigma_y sigma_z (complex) flip one
    # spin, so they also break the parity: the whole space is one sector.
    # sigma_x sigma_y flips two and keeps both sectors, but it is odd under
    # R_x, so at even M the two sectors form no orbit. The propagator
    # matches the per-segment product either way.
    for m in (2, 3, 4):
        c = q.random_couplings(PRIMARY_SEED, m, q.SymmetryClass.ISOTROPIC)
        j1 = {site: mat.copy() for site, mat in c.j1.items()}
        j1[1][entry] = 1e-6
        parts = q.build_hamiltonian(
            q.CouplingSet(
                m=c.m, topology=c.topology, symmetry_class=q.SymmetryClass.ANISOTROPIC,
                alpha=c.alpha, lam=c.lam, seed=c.seed, j0=dict(c.j0), j1=j1,
            )
        )
        size = 2 * parts.bath_dim // sectors
        assert _eigensystem_shapes(monkeypatch, parts) == [(size, size)] * sectors
        ev = q.TogglingEvolver(parts)
        assert not ev._basis.orbit, m
        for n_x in range(4):
            for n_z in range(4):
                profile = q.switching_profile(q.qdd_schedule(n_x, n_z, 0.7))
                u = full_toggling(ev, profile)
                assert np.abs(u - segment_product_propagator(parts, profile)).max() <= 1e-13


def test_shared_evolver_first_use_from_many_threads(aniso3, iso3):
    # every thread may find no basis yet; each must still see a complete one,
    # for one sector, for the two parity sectors of the isotropic model, and
    # for the R_x orbit of an even-M isotropic one
    profiles = [
        q.switching_profile(q.qdd_schedule(n_x, n_z, 0.4)) for n_x in range(4) for n_z in range(4)
    ]
    iso2 = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, 2, q.SymmetryClass.ISOTROPIC))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for parts in (aniso3[1], iso3[1], iso2):
            expected = [full_toggling(q.TogglingEvolver(parts), p) for p in profiles]
            for _ in range(5):
                ev = q.TogglingEvolver(parts)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(lambda p: full_toggling(ev, p), profiles, timeout=60))
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    finally:
        sys.setswitchinterval(interval)


def test_many_segments_stay_unitary(aniso3):
    _, parts = aniso3
    s = q.qdd_schedule(8, 8, 2.0)  # 80 pulses, 81 segments
    u = lab_propagator(parts, s)
    assert unitarity_defect(u) <= 1e-12


def test_decompose_single_component():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    blocks = q.pauli_decompose(np.kron(pauli(PauliAxis.X), v))
    assert np.abs(blocks[1] - v).max() < 1e-14
    assert np.abs(blocks[0]).max() < 1e-14
    assert np.abs(blocks[2]).max() < 1e-14 and np.abs(blocks[3]).max() < 1e-14


def test_decompose_identity():
    blocks = q.pauli_decompose(np.eye(8))
    assert np.allclose(blocks[0], np.eye(4))
    assert all(np.abs(b).max() < 1e-14 for b in blocks[1:])


def test_decompose_rejects_operators_not_2d_by_2d():
    # the columns u (1 x R) of a k-column factor are 2D x 2k, and only k = D
    # is a full-space operator; an odd dimension has no qubit factor
    for shape in ((8, 2), (8, 4), (8, 16), (7, 7)):
        with pytest.raises(ValueError, match="operator must be"):
            q.pauli_decompose(np.zeros(shape, dtype=complex))


def test_decompose_reassembles(iso3):
    _, parts = iso3
    u = full_toggling(q.TogglingEvolver(parts), q.switching_profile(q.qdd_schedule(2, 1, 0.4)))
    blocks = q.qdd_decomposition(parts, 2, 1, 0.4)
    assert np.abs(from_pauli_blocks(blocks) - u).max() <= 1e-12


@pytest.mark.parametrize("fixture", ["aniso3", "iso3"])
def test_unitarity_conditions(fixture, request):
    _, parts = request.getfixturevalue(fixture)
    complete, cross = block_unitarity_defects(q.qdd_decomposition(parts, 2, 1, 0.37))
    assert complete <= 1e-12
    assert cross <= 1e-12


def test_evolver_of_other_parts_is_rejected():
    # an evolver carries its own model; used with another model's parts it
    # would silently propagate the wrong Hamiltonian
    couplings = [q.random_couplings(seed, 2) for seed in (1, 2)]
    parts = [q.build_hamiltonian(c) for c in couplings]
    ev = q.TogglingEvolver(parts[0])
    ket = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    spec = q.SweepSpec(couplings[1], q.BathKind.PRODUCT, q.default_directions(2))
    calls = [
        lambda p, e: q.qdd_distance(p, ket, 1, 1, 0.3, e),
        lambda p, e: q.qdd_decomposition(p, 1, 1, 0.3, e),
        lambda p, e: q.magnus_order_check(p, 1, 1, np.geomspace(0.02, 0.2, 8), evolver=e),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="evolver was built for other"):
            call(parts[1], ev)
    with pytest.raises(ValueError, match="evolver was built for other"):
        q.sweep_cell(spec, 1, 1, evolver=ev)
    # equal parts built afresh are accepted, with the same numbers
    rebuilt = q.build_hamiltonian(couplings[0])
    assert rebuilt is not parts[0]
    assert calls[0](rebuilt, ev) == calls[0](parts[0], None)
    assert np.array_equal(calls[1](rebuilt, ev), calls[1](parts[0], None))


@pytest.mark.parametrize("n_x,n_z", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_bath_block_order_bound(aniso3, n_x, n_z):
    # each coupling block must shrink at least as fast as tau^(min+1)
    _, parts = aniso3
    ev = q.TogglingEvolver(parts)
    taus = np.geomspace(0.003, 0.03, 7)
    norms = []
    for tau in taus:
        blocks = q.qdd_decomposition(parts, n_x, n_z, tau, ev)
        norms.append(max(np.abs(b).max() for b in blocks[1:]))
    slope = np.polyfit(np.log(taus), np.log(norms), 1)[0]
    assert slope >= min(n_x, n_z) + 1 - 0.2


@pytest.mark.parametrize("topology", list(q.Topology))
def test_rx_orbit_found_for_isotropic_even_m_only(topology):
    # two sectors exactly when H commutes with the dense R_z = sigma_z^{x(M+1)},
    # and an orbit exactly when, at even M, it also commutes with R_x, which
    # then swaps the sectors; only an SU(2)-invariant H commutes with either
    for seed in range(10):
        for m in range(1, 8):
            for sym in q.SymmetryClass:
                parts = q.build_hamiltonian(q.random_couplings(seed, m, sym, topology))
                h = segment_hamiltonian(parts, (1, 1, 1))
                kept = [
                    np.abs(r @ h - h @ r).max() <= 1e-12 * np.abs(h).max()
                    for r in (bath_rotation(PauliAxis.Z, m + 1), bath_rotation(PauliAxis.X, m + 1))
                ]
                assert kept == [sym is q.SymmetryClass.ISOTROPIC] * 2, (seed, m, sym)
                basis = q.TogglingEvolver(parts)._basis
                assert len(basis.states) == (2 if kept[0] else 1), (seed, m, sym)
                assert basis.orbit == (all(kept) and m % 2 == 0), (seed, m, sym)


def test_basis_makes_one_rotation_defects_call(monkeypatch):
    # the sectors, the R_x orbit and time reversal are read off one
    # `rotation_defects` table, whatever the model holds of them
    calls = []
    table = evolution.rotation_defects

    def spy(blocks):
        calls.append(blocks.shape)
        return table(blocks)

    monkeypatch.setattr(evolution, "rotation_defects", spy)
    for m, sym in [
        (4, q.SymmetryClass.ANISOTROPIC),
        (3, q.SymmetryClass.ISOTROPIC),
        (4, q.SymmetryClass.ISOTROPIC),
    ]:
        calls.clear()
        q.TogglingEvolver(q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, m, sym)))._basis
        assert calls == [(4, 2**m, 2**m)], (m, sym)


def test_orbit_chain_makes_half_the_gemms(monkeypatch):
    # the identity factor of an even-M isotropic model carries one piece and
    # rebuilds the other by R_x: half the GEMMs of the two-piece chain, the
    # same pieces to rounding; the product bath still carries two
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, 4, q.SymmetryClass.ISOTROPIC))
    orbit = q.TogglingEvolver(parts)
    assert orbit._basis.orbit and orbit._basis.v.dtype == np.float64  # real GEMMs
    two = q.TogglingEvolver(parts)
    two.__dict__["_basis"] = orbit._basis._replace(orbit=False)
    gemms = []
    real_matmul = evolution._real_matmul

    def spy(w, u):
        gemms.append(int(np.prod(w.shape[:-2])))  # one GEMM per matrix of the stack
        return real_matmul(w, u)

    monkeypatch.setattr(evolution, "_real_matmul", spy)
    profile = q.switching_profile(q.qdd_schedule(3, 2, 1.0))
    taus = [0.05, 0.3, 1.0]
    ket = q.make_states(q.BathKind.PRODUCT, 4, q.default_directions(4))
    counts, pieces = {}, {}
    for name, ev in (("orbit", orbit), ("two", two)):
        for r in (np.eye(parts.bath_dim), ket):
            gemms.clear()
            pieces[name, r.shape[1]] = ev.toggling(profile, r, taus)
            counts[name, r.shape[1]] = sum(gemms)
    segments = len(profile.values)
    assert counts["orbit", 16] == segments and counts["two", 16] == 2 * segments
    assert counts["orbit", 1] == counts["two", 1] == 2 * segments
    assert np.abs(pieces["orbit", 16] - pieces["two", 16]).max() <= 1e-13
    assert np.array_equal(pieces["orbit", 1], pieces["two", 1])
