import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qddsim as q
from qddsim.linalg import AXES, PauliAxis, pauli, pauli_blocks
from qddsim.model import segment_hamiltonian
from qddsim.sequence import SwitchingProfile

from conftest import PRIMARY_SEED, SECONDARY_SEED
from reference import per_tau_order_check, sign_at, stack_cumulant2, stack_cumulant3


def profile_for(n_x, n_z, tau):
    return q.switching_profile(q.qdd_schedule(n_x, n_z, tau))


def report_for(n_x, n_z, tau):
    return q.nested_integrals(profile_for(n_x, n_z, tau))


# ---------------------------------------------------------------- exact values


@pytest.mark.parametrize("tau", [1.0, 0.37, 2.0])
def test_single_pair_i2_values(tau):
    rep = q.nested_integrals(profile_for(1, 1, tau))
    assert rep.i2_mu[1] == pytest.approx(tau**2 / 4, rel=1e-12)
    assert rep.i2_mu[2] == pytest.approx(tau**2 / 2, rel=1e-12)
    assert rep.i2_munu[0, 2] == pytest.approx(-(tau**2) / 4, rel=1e-12)
    assert rep.i2_munu[2, 0] == pytest.approx(tau**2 / 4, rel=1e-12)
    # everything else vanishes identically
    assert abs(rep.i2_mu[0]) < 1e-14 * max(tau**2, 1)
    others = [
        rep.i2_munu[m, n]
        for m in range(3)
        for n in range(3)
        if (m, n) not in ((0, 2), (2, 0))
    ]
    assert max(abs(x) for x in others) < 1e-14 * max(tau**2, 1)


def test_single_pair_zero_mean_switching():
    rep = q.nested_integrals(profile_for(1, 1, 1.0))
    assert np.abs(rep.i1).max() <= 1e-15


def test_i3_pattern_one_two():
    # the only triples with a repeated axis that survive are the three
    # orderings of (x, z, z); the surviving all-distinct triples feed the
    # identity channel only (checked on the third cumulant below)
    rep = q.nested_integrals(profile_for(1, 2, 1.0))
    xzz_orders = {(0, 2, 2), (2, 0, 2), (2, 2, 0)}
    for idx in xzz_orders:
        assert abs(rep.i3[idx]) > 1e-4
    for a in range(3):
        for b in range(3):
            for c in range(3):
                idx = (a, b, c)
                if len({a, b, c}) == 3 or idx in xzz_orders:
                    continue
                assert abs(rep.i3[idx]) < 1e-14


def test_i2_antisymmetry_structural():
    for n_x, n_z in [(1, 1), (2, 1), (1, 2), (2, 3)]:
        rep = q.nested_integrals(profile_for(n_x, n_z, 0.8))
        assert np.abs(rep.i2_munu + rep.i2_munu.T).max() <= 1e-15


@pytest.mark.parametrize("n_x,n_z", [(1, 1), (1, 2), (2, 2), (0, 3)])
def test_scaling_homogeneity_exact(n_x, n_z):
    r1 = q.nested_integrals(profile_for(n_x, n_z, 0.75))
    r2 = q.nested_integrals(profile_for(n_x, n_z, 1.5))
    assert np.array_equal(r2.i2_mu, 4.0 * r1.i2_mu)
    assert np.array_equal(r2.i2_munu, 4.0 * r1.i2_munu)
    assert np.array_equal(r2.i3, 8.0 * r1.i3)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("sym", list(q.SymmetryClass))
def test_cumulants_scale_from_the_unit_profile(m, sym):
    # I_k(tau) = tau^k I_k(1), so Hbar_k(tau) = tau^(k-1) Hbar_k(1): the check
    # forms its cumulants once from the unit profile. Cells whose second
    # cumulant is nonzero; the third is nonzero on all of them
    parts = q.build_hamiltonian(q.random_couplings(PRIMARY_SEED, m, sym))
    for cell in [(1, 0), (1, 1), (1, 2), (2, 1)]:
        unit = report_for(*cell, 1.0)
        h2, h3 = q.cumulant2(parts, unit), q.cumulant3(parts, unit)
        for tau in (0.01, 0.3, 2.0):
            report = report_for(*cell, tau)
            for got, want in ((q.cumulant2(parts, report), tau * h2),
                              (q.cumulant3(parts, report), tau**2 * h3)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(got).max(), (cell, tau)


# ------------------------------------------------------------------- oracles


def test_integrals_against_adaptive_quadrature():
    tau = 1.0
    prof = profile_for(2, 1, tau)
    pts = prof.breakpoints[1:-1]
    f = [lambda t, m=m: float(sign_at(prof, t)[m]) for m in range(3)]

    def F(m, t):
        return quad(f[m], 0, t, points=[p for p in pts if p < t], limit=200)[0]

    rep = q.nested_integrals(prof)
    for m in range(3):
        i1 = quad(f[m], 0, tau, points=pts, limit=200)[0]
        assert abs(i1 - rep.i1[m]) < 1e-10 * tau
        i2 = quad(
            lambda t: F(m, t) - t * f[m](t), 0, tau, points=pts, limit=200
        )[0]
        assert abs(i2 - rep.i2_mu[m]) < 1e-9 * tau**2

    def ordered(m, n):
        return quad(lambda t: f[m](t) * F(n, t), 0, tau, points=pts, limit=200)[0]

    for m, n in [(0, 2), (2, 0), (0, 1), (1, 2)]:
        expected = ordered(m, n) - ordered(n, m)
        assert abs(expected - rep.i2_munu[m, n]) < 1e-9 * tau**2


def _piecewise_poly_i3(prof):
    """Independent route to the 4x4x4 I3 over (1, f_x, f_y, f_z): global-
    coordinate polynomial antiderivatives."""
    bps = prof.breakpoints
    n_int = len(bps) - 1
    f = np.hstack((np.ones((n_int, 1)), prof.values.astype(float)))  # f_0 = 1 first

    def antiderivative(coeffs_per_interval):
        # integrate each interval's global-t polynomial, chaining constants
        out = []
        total = 0.0
        for i in range(n_int):
            poly = np.polyint(np.poly1d(coeffs_per_interval[i]))
            shift = total - poly(bps[i])
            out.append(np.polyadd(poly.coeffs, [shift]))
            total = np.poly1d(out[-1])(bps[i + 1])
        return out

    def definite(coeffs_per_interval):
        total = 0.0
        for i in range(n_int):
            poly = np.polyint(np.poly1d(coeffs_per_interval[i]))
            total += poly(bps[i + 1]) - poly(bps[i])
        return total

    i3 = np.zeros((4, 4, 4))
    consts = {m: [[f[i, m]] for i in range(n_int)] for m in range(4)}
    F = {m: antiderivative(consts[m]) for m in range(4)}
    for b in range(4):
        for c in range(4):
            prod = [np.polymul(consts[b][i], F[c][i]) for i in range(n_int)]
            G = antiderivative(prod)
            for a in range(4):
                outer = [np.polymul(consts[a][i], G[i]) for i in range(n_int)]
                i3[a, b, c] = definite(outer)
    return i3


@pytest.mark.parametrize("n_x,n_z", [(1, 1), (1, 2), (2, 2)])
def test_i3_against_polynomial_antiderivatives(n_x, n_z):
    prof = profile_for(n_x, n_z, 1.3)
    rep = q.nested_integrals(prof)
    oracle = _piecewise_poly_i3(prof)
    assert np.abs(rep.i3_ext - oracle).max() < 1e-12


# ----------------------------------------------------------------- cumulants


def test_cumulant1_single_pair_is_bath_hamiltonian(aniso2):
    _, parts = aniso2
    h1 = q.cumulant1(parts, report_for(1, 1, 0.9))
    assert np.abs(h1 - np.kron(np.eye(2), parts.h_bath)).max() <= 1e-13


def test_cumulant1_no_pulses_is_full_hamiltonian(aniso2):
    _, parts = aniso2
    h1 = q.cumulant1(parts, report_for(0, 0, 0.9))
    assert np.abs(h1 - segment_hamiltonian(parts, (1, 1, 1))).max() <= 1e-13


def test_cumulant1_inherits_isotropy(iso3):
    from qddsim.linalg import embed

    _, parts = iso3
    h1 = q.cumulant1(parts, report_for(1, 1, 0.5))
    for axis in AXES:
        total = sum(embed(pauli(axis), s, 4) for s in range(4))
        assert np.abs(h1 @ total - total @ h1).max() <= 1e-12


def test_cumulant2_closed_form_single_pair(aniso2):
    # coefficient of the anticommutator term fixed by the third-order
    # remainder check below, not by hand
    _, parts = aniso2
    tau = 0.7
    prof = profile_for(1, 1, tau)
    h2 = q.cumulant2(parts, q.nested_integrals(prof))
    hb, (ax, ay, az) = parts.h_bath, parts.a_ops
    sy, sz = pauli(AXES[1]), pauli(AXES[2])
    closed = (
        tau**2 / 4 * np.kron(sy, hb @ ay - ay @ hb)
        + tau**2 / 2 * np.kron(sz, hb @ az - az @ hb)
        + 1j * tau**2 / 4 * np.kron(sy, ax @ az + az @ ax)
    ) / (2j * tau)
    assert np.abs(h2 - closed).max() <= 1e-13
    assert np.abs(h2 - h2.conj().T).max() <= 1e-12
    comp_x = np.abs(pauli_blocks(h2)[1]).max()
    assert comp_x <= 1e-13


def test_cumulant2_uniform_isotropic_commutators_vanish():
    c = q.CouplingSet(
        m=3, topology=q.Topology.CENTRAL_SPIN, symmetry_class=q.SymmetryClass.ISOTROPIC,
        alpha=1.0, lam=1.0, seed=0,
        j0={p: np.eye(3) for p in [(1, 2), (1, 3), (2, 3)]},
        j1={i: np.eye(3) for i in (1, 2, 3)},
    )
    parts = q.build_hamiltonian(c)
    for a in parts.a_ops:
        comm = parts.h_bath @ a - a @ parts.h_bath
        assert np.abs(comm).max() <= 1e-12
    tau = 0.6
    h2 = q.cumulant2(parts, q.nested_integrals(profile_for(1, 1, tau)))
    ax, az = parts.a_ops[0], parts.a_ops[2]
    anticomm_only = (1j * tau**2 / 4 * np.kron(pauli(AXES[1]), ax @ az + az @ ax)) / (2j * tau)
    assert np.abs(h2 - anticomm_only).max() <= 1e-12


def test_chain_anticommutator_vanishes(chain3):
    # qubit coupled to a single site with a_mu = sigma_mu there: the x and z
    # blocks anticommute, so the dephasing weight vanishes for any chain bonds
    c, _ = chain3
    single_site = q.CouplingSet(
        m=c.m, topology=c.topology, symmetry_class=c.symmetry_class,
        alpha=c.alpha, lam=c.lam, seed=c.seed,
        j0=dict(c.j0), j1={1: np.eye(3)},
    )
    parts = q.build_hamiltonian(single_site)
    ax, az = parts.a_ops[0], parts.a_ops[2]
    assert np.abs(ax @ az + az @ ax).max() <= 1e-13
    assert abs(np.trace(np.eye(8) / 8 @ (ax @ az + az @ ax))) <= 1e-13


def test_anticommutator_trace_cases(iso3, aniso3):
    # Tr[rho_B {a_x, a_z}] with the maximally mixed rho_B: the weight of the
    # leading tau^2 dephasing term
    def weight(parts):
        ax, _, az = parts.a_ops
        rho_b = np.eye(parts.bath_dim) / parts.bath_dim
        return abs(np.trace(rho_b @ (ax @ az + az @ ax)))

    _, iso_parts = iso3
    assert weight(iso_parts) <= 1e-12
    _, aniso_parts = aniso3
    assert weight(aniso_parts) > 1e-3
    zeroed = q.build_hamiltonian(
        q.CouplingSet(
            m=2, topology=q.Topology.CENTRAL_SPIN,
            symmetry_class=q.SymmetryClass.ANISOTROPIC,
            alpha=1.0, lam=1.0, seed=0, j0={},
            j1={1: np.diag([0.0, 0.3, 0.7]), 2: np.diag([0.0, -0.2, 0.4])},
        )
    )
    assert np.abs(zeroed.a_ops[0]).max() == 0.0
    assert weight(zeroed) == 0.0


# ---------------------------------------------------------------- order checks


def test_truncation_slopes(aniso2):
    _, parts = aniso2
    taus = np.geomspace(0.02, 0.2, 8)
    slope2 = q.magnus_order_check(parts, 1, 1, taus, order=2)
    assert slope2 == pytest.approx(3.0, abs=0.2)
    slope1 = q.magnus_order_check(parts, 1, 1, taus, order=1)
    assert slope1 == pytest.approx(2.0, abs=0.2)
    slope3 = q.magnus_order_check(parts, 1, 1, taus, order=3)
    assert slope3 == pytest.approx(4.0, abs=0.25)


def test_order_check_rejects_rounding_floor():
    c = q.random_couplings(1, 2)
    for key in c.j0:
        c.j0[key] = np.zeros((3, 3))
    for key in c.j1:
        c.j1[key] = np.zeros((3, 3))
    parts = q.build_hamiltonian(c)
    with pytest.raises(q.DegenerateFitWindowError):
        q.magnus_order_check(parts, 1, 1, np.geomspace(0.02, 0.2, 6))


def test_order_check_needs_two_distinct_durations(aniso1):
    _, parts = aniso1
    for taus in ([0.1], [0.1, 0.1], []):
        with pytest.raises(ValueError, match="two distinct durations"):
            q.magnus_order_check(parts, 1, 1, taus)


def test_order_check_rejects_orders_beyond_the_third(aniso1):
    _, parts = aniso1
    for order in (0, 4):
        with pytest.raises(ValueError, match="order must be 1, 2 or 3"):
            q.magnus_order_check(parts, 1, 1, [0.05, 0.1], order=order)


@pytest.mark.parametrize("order", [True, 2.0, np.float64(3.0), "2", None])
def test_order_check_takes_only_integer_orders(aniso1, order):
    # True used to run order 1, and 2.0 order 2
    _, parts = aniso1
    with pytest.raises(ValueError, match="order must be 1, 2 or 3"):
        q.magnus_order_check(parts, 1, 1, [0.05, 0.1], order=order)


@pytest.mark.parametrize("taus", [[[0.05, 0.1]], [[0.05], [0.1]], 0.1, [0.05, 0.0], [0.05, np.nan]])
def test_order_check_needs_a_1d_array_of_positive_durations(aniso1, taus):
    # a 2-D list used to raise TypeError (unhashable type) from the distinctness test
    _, parts = aniso1
    with pytest.raises(ValueError, match="durations tau must be positive and finite"):
        q.magnus_order_check(parts, 1, 1, taus)


@pytest.mark.parametrize("seed", [PRIMARY_SEED, SECONDARY_SEED])
@pytest.mark.parametrize("sym", list(q.SymmetryClass))
def test_order_check_matches_the_per_duration_route(seed, sym):
    # the unit-profile cumulants give the slope of cumulants rebuilt at every
    # duration, on the benchmark's cell and window
    parts = q.build_hamiltonian(q.random_couplings(seed, 6, sym))
    evolver = q.TogglingEvolver(parts)
    taus = np.geomspace(0.005, 0.05, 6)
    for order in (1, 2, 3):
        slope = q.magnus_order_check(parts, 2, 1, taus, order=order, evolver=evolver)
        assert abs(slope - per_tau_order_check(parts, 2, 1, taus, order, evolver)) <= 1e-6


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("seed", [PRIMARY_SEED, SECONDARY_SEED])
@pytest.mark.parametrize("sym", list(q.SymmetryClass))
def test_sector_wise_check_matches_the_per_duration_route(m, seed, sym):
    # the check compares the propagators on the R_z sectors of the evolver
    # (sector 0 alone for an R_x orbit), the per-duration route on the full
    # space: odd isotropic M has two sectors and no orbit, even M an orbit,
    # an anisotropic model one sector (M = 6 is the test above)
    parts = q.build_hamiltonian(q.random_couplings(seed, m, sym))
    evolver = q.TogglingEvolver(parts)
    isotropic = sym is q.SymmetryClass.ISOTROPIC
    assert len(evolver._basis.states) == (2 if isotropic else 1)
    assert evolver._basis.orbit == (isotropic and m % 2 == 0)
    taus = np.geomspace(0.005, 0.05, 6)
    for order in (1, 2, 3):
        slope = q.magnus_order_check(parts, 2, 1, taus, order=order, evolver=evolver)
        assert abs(slope - per_tau_order_check(parts, 2, 1, taus, order, evolver)) <= 1e-6


@pytest.mark.parametrize("order,calls", [(1, (0, 0)), (2, (1, 0)), (3, (1, 1))])
def test_order_check_forms_only_the_cumulants_its_order_needs(aniso2, monkeypatch, order, calls):
    # cumulant3 is the costly one; both are looked up on the module at call
    # time, which is also how a wrapper installed there sees them
    import qddsim.magnus as magnus

    counts = {}
    for name in ("cumulant2", "cumulant3"):
        def counted(*args, _name=name, _cumulant=getattr(magnus, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _cumulant(*args)

        monkeypatch.setattr(magnus, name, counted)
    _, parts = aniso2
    q.magnus_order_check(parts, 2, 1, np.geomspace(0.02, 0.2, 6), order=order)
    assert (counts.get("cumulant2", 0), counts.get("cumulant3", 0)) == calls


def test_third_cumulant_is_pure_x_dephasing(aniso2):
    # for one outer pulse and two inner pulses the third cumulant carries a
    # single qubit Pauli, the x component; y and z components vanish
    _, parts = aniso2
    h3 = q.cumulant3(parts, report_for(1, 2, 1.0))
    _, comp_x, comp_y, comp_z = np.abs(pauli_blocks(h3)).max(axis=(1, 2))
    assert comp_y <= 1e-13
    assert comp_z <= 1e-13
    assert comp_x > 1e-3


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("sym", list(q.SymmetryClass))
@pytest.mark.parametrize("topology", list(q.Topology))
def test_block_cumulants_match_the_stack_products(m, sym, topology):
    # the cumulants from D x D block products and the Pauli product table are
    # the dense products on the full-space coupling stack, to rounding; where a
    # cumulant vanishes (every cell with no pulses, some at M = 1) both routes
    # sit at rounding, about 1e-16 of the term scale tau^(k-1) ||H||^k
    parts = q.build_hamiltonian(q.random_couplings(SECONDARY_SEED, m, sym, topology))
    norm = np.linalg.norm(segment_hamiltonian(parts, (1, 1, 1)), 2)
    for n_x in range(4):
        for n_z in range(4):
            for tau in (0.05, 1.0):
                report = report_for(n_x, n_z, tau)
                for k, got, want in (
                    (2, q.cumulant2(parts, report), stack_cumulant2(parts, report)),
                    (3, q.cumulant3(parts, report), stack_cumulant3(parts, report)),
                ):
                    floor = 1e-15 * tau ** (k - 1) * norm**k
                    gap = np.abs(got - want).max()
                    assert gap <= 1e-13 * np.abs(want).max() + floor, (k, n_x, n_z, tau)


# ------------------------------------------- third cumulant: loop reference


def _cumulant3_loop(parts, profile):
    """Third cumulant by direct summation over interval triples, O(L^3).

    -(1/6 tau) times the iterated integral of [H(t3), [H(t2), H(t1)]] +
    [H(t1), [H(t2), H(t3)]], using the simplex volume of each
    (interval_1 >= interval_2 >= interval_3) triple.
    """
    w = profile.durations
    n_int = len(w)
    h_segs = [segment_hamiltonian(parts, triple) for triple in profile.values]

    def comm(x, y):
        return x @ y - y @ x

    dim = 2 * parts.bath_dim
    acc = np.zeros((dim, dim), dtype=complex)
    for i in range(n_int):
        for j in range(i + 1):
            for k in range(j + 1):
                if i > j > k:
                    vol = w[i] * w[j] * w[k]
                elif i == j and j > k:
                    vol = w[i] ** 2 / 2 * w[k]
                elif i > j and j == k:
                    vol = w[i] * w[j] ** 2 / 2
                else:
                    vol = w[i] ** 3 / 6
                inner = comm(h_segs[j], h_segs[i])
                acc += vol * (comm(h_segs[k], inner) + comm(h_segs[i], comm(h_segs[j], h_segs[k])))
    return -acc / (6.0 * profile.tau)


def _closed_form_gap(parts, profile):
    """(max|closed - loop|, max|loop|, tau^2 ||H||^3), the loop's term scale."""
    ref = _cumulant3_loop(parts, profile)
    h3 = q.cumulant3(parts, q.nested_integrals(profile))
    scale = profile.tau**2 * np.linalg.norm(segment_hamiltonian(parts, (1, 1, 1)), 2) ** 3
    return float(np.abs(h3 - ref).max()), float(np.abs(ref).max()), scale


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("sym", list(q.SymmetryClass))
@pytest.mark.parametrize("topology", list(q.Topology))
def test_cumulant3_matches_interval_loop(m, sym, topology):
    parts = q.build_hamiltonian(q.random_couplings(42, m, sym, topology))
    for n_x in range(4):
        for n_z in range(4):
            for tau in (0.005, 0.05, 1.0):
                gap, ref_max, scale = _closed_form_gap(parts, profile_for(n_x, n_z, tau))
                if ref_max == 0.0:
                    # constant toggling Hamiltonian: every loop commutator is 0
                    assert (n_x, n_z) == (0, 0)
                    assert gap <= 1e-15 * scale
                else:
                    assert gap <= 1e-13 * ref_max, (n_x, n_z, tau)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    m=st.integers(1, 3),
    sym=st.sampled_from(list(q.SymmetryClass)),
    seed=st.integers(0, 2**32 - 1),
    first=st.floats(0.05, 1.0),
    pulses=st.lists(
        st.tuples(st.floats(0.05, 1.0), st.sampled_from((PauliAxis.X, PauliAxis.Z))),
        max_size=7,
    ),
    tau=st.floats(1e-3, 2.0),
)
def test_cumulant3_matches_loop_on_random_profiles(m, sym, seed, first, pulses, tau):
    # any order of X and Z pulses, which reaches all four sign triples pi
    # pulses can give
    widths = np.array([first] + [width for width, _ in pulses])
    breakpoints = np.concatenate(([0.0], np.cumsum(widths))) * (tau / widths.sum())
    breakpoints[-1] = tau
    profile = SwitchingProfile(breakpoints, [axis for _, axis in pulses])
    parts = q.build_hamiltonian(q.random_couplings(seed, m, sym))
    gap, ref_max, scale = _closed_form_gap(parts, profile)
    # where the cumulant vanishes (M = 1 isotropic has none) the gap is the
    # loop's own rounding, about 1e-17 of its term scale
    assert gap <= 1e-13 * ref_max + 1e-16 * scale
