"""Exact switching-function integrals and the leading Magnus cumulants.

The toggling-frame Hamiltonian is piecewise constant, so every iterated
time-ordered integral of the switching functions is an exact polynomial in
the interval widths. All integrals here are evaluated in that closed form
(prefix sums over intervals with the simplex volume factors 1, 1/2, 1/6);
no quadrature enters outside the test suite.

Conventions, fixed by requiring exp(-i tau (Hbar1 + Hbar2)) to match the
exact propagator to third order:

    I1[mu]        = int_0^tau f_mu
    I2[mu]        = int_0^tau dt1 int_0^t1 dt2 ( f_mu(t2) - f_mu(t1) )
    I2[mu, nu]    = int_0^tau dt1 int_0^t1 dt2
                      ( f_mu(t1) f_nu(t2) - f_mu(t2) f_nu(t1) )
    I3[a, b, c]   = int dt1 int dt2 int dt3  f_a(t1) f_b(t2) f_c(t3),
                    t3 < t2 < t1.

I2[mu, nu] is antisymmetrized because only that combination can enter the
second cumulant (it multiplies a commutator); with it the assembly reads

    2 i tau Hbar2 = sum_mu I2[mu] kron(sigma_mu, [h_bath, a_mu])
                  + (1/2) sum_{mu,nu} I2[mu, nu] [V_mu, V_nu]

with V_mu = kron(sigma_mu, a_mu). For the single-pulse-pair sequence
(N_x = N_z = 1) this reproduces I2[y] = tau^2/4, I2[z] = tau^2/2,
I2[x,z] = -I2[z,x] = -tau^2/4, and all other entries vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evolution import TogglingEvolver
from .linalg import AXES, expm_from_eigensystem, herm_eigensystem, pauli, pauli_blocks
from .model import HamiltonianParts, segment_hamiltonian
from .sequence import SwitchingProfile, qdd_schedule, switching_profile

AXIS_NAMES = ("x", "y", "z")


class DegenerateFitWindowError(RuntimeError):
    """Raised when a slope fit is attempted on rounding-level data."""


@dataclass
class MagnusReport:
    """Exact integrals of one switching profile, plus optional cumulants."""

    tau: float
    i1: np.ndarray
    i2_mu: np.ndarray
    i2_munu: np.ndarray
    i3: np.ndarray
    hbar1: np.ndarray | None = field(default=None, repr=False)
    hbar2: np.ndarray | None = field(default=None, repr=False)
    order_defect: float | None = None

    def integrals_json_dict(self) -> dict:
        """Integrals keyed by axis tuple, for the CLI."""
        doc: dict = {"tau": self.tau, "I1": {}, "I2_mu": {}, "I2_munu": {}, "I3": {}}
        for m, name in enumerate(AXIS_NAMES):
            doc["I1"][name] = float(self.i1[m])
            doc["I2_mu"][name] = float(self.i2_mu[m])
        for m in range(3):
            for n in range(3):
                doc["I2_munu"][f"{AXIS_NAMES[m]},{AXIS_NAMES[n]}"] = float(
                    self.i2_munu[m, n]
                )
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    key = f"{AXIS_NAMES[a]},{AXIS_NAMES[b]},{AXIS_NAMES[c]}"
                    doc["I3"][key] = float(self.i3[a, b, c])
        return doc


def nested_integrals(profile: SwitchingProfile) -> MagnusReport:
    """All switching integrals of one profile, exactly."""
    w = profile.durations
    f = profile.values.astype(float).T  # (3, L)

    i1 = f @ w

    # prefix[mu, i] = sum_{j < i} f_mu[j] w[j]
    prefix = np.concatenate([np.zeros((3, 1)), np.cumsum(f * w, axis=1)[:, :-1]], axis=1)

    # ordered[mu, nu]: f_mu at the later time, f_nu integrated over earlier times
    ordered = np.einsum("i,mi,ni->mn", w, f, prefix) + np.einsum(
        "i,mi,ni->mn", w * w / 2, f, f
    )
    # sum_{i>j} (f_mu[j] - f_mu[i]) w_i w_j; the equal-interval part cancels
    left_edges = profile.breakpoints[:-1]
    i2_mu = np.array(
        [np.dot(w, prefix[m]) - np.dot(f[m] * w, left_edges) for m in range(3)]
    )
    i2_munu = ordered - ordered.T

    # double prefix[b, c][i] = sum_{j < i} ( f_b[j] w[j] prefix[c, j]
    #                                        + f_b[j] f_c[j] w[j]^2 / 2 )
    i3 = np.empty((3, 3, 3))
    for b in range(3):
        for c in range(3):
            inner = f[b] * w * prefix[c] + f[b] * f[c] * w * w / 2
            double = np.concatenate(([0.0], np.cumsum(inner)[:-1]))
            for a in range(3):
                i3[a, b, c] = (
                    np.dot(f[a] * w, double)
                    + np.dot(f[a] * f[b] * w * w / 2, prefix[c])
                    + np.dot(f[a] * f[b] * f[c], w**3) / 6
                )
    return MagnusReport(tau=profile.tau, i1=i1, i2_mu=i2_mu, i2_munu=i2_munu, i3=i3)


def cumulant1(parts: HamiltonianParts, profile: SwitchingProfile) -> np.ndarray:
    """First cumulant: the time average of the toggling Hamiltonian."""
    report = nested_integrals(profile)
    return segment_hamiltonian(parts, report.i1 / profile.tau)


def cumulant2(parts: HamiltonianParts, report: MagnusReport) -> np.ndarray:
    """Second cumulant assembled from the exact integrals; Hermitian."""
    tau = report.tau
    dim = 2 * parts.bath_dim
    acc = np.zeros((dim, dim), dtype=complex)
    v = [np.kron(pauli(AXES[mu]), parts.a_ops[mu]) for mu in range(3)]
    for mu in range(3):
        comm = parts.h_bath @ parts.a_ops[mu] - parts.a_ops[mu] @ parts.h_bath
        acc += report.i2_mu[mu] * np.kron(pauli(AXES[mu]), comm)
    for mu in range(3):
        for nu in range(3):
            if report.i2_munu[mu, nu] != 0.0:
                acc += 0.5 * report.i2_munu[mu, nu] * (v[mu] @ v[nu] - v[nu] @ v[mu])
    return acc / (2j * tau)


def cumulant3(parts: HamiltonianParts, profile: SwitchingProfile) -> np.ndarray:
    """Third cumulant by direct summation over interval triples.

    Evaluates -(1/6 tau) times the iterated integral of
    [H(t3), [H(t2), H(t1)]] + [H(t1), [H(t2), H(t3)]] exactly, using the
    simplex volume of each (interval_1 >= interval_2 >= interval_3) triple.
    Cost grows with the cube of the interval count; intended for the small
    profiles where its operator content is of interest.
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


def anticommutator_trace(parts: HamiltonianParts, rho_b: np.ndarray) -> complex:
    """Tr[ rho_B {a_x, a_z} ], the weight of the leading tau^2 dephasing term."""
    ax, _, az = parts.a_ops
    return complex(np.trace(rho_b @ (ax @ az + az @ ax)))


def qubit_components(op: np.ndarray) -> dict[str, float]:
    """Max-norm of the identity and Pauli qubit components of a full-space op."""
    norms = np.abs(pauli_blocks(op)).max(axis=(1, 2))
    return {"id": float(norms[0]), **{a.value: float(n) for a, n in zip(AXES, norms[1:])}}


def magnus_order_check(
    parts: HamiltonianParts,
    n_x: int,
    n_z: int,
    taus: np.ndarray,
    order: int = 2,
    evolver: TogglingEvolver | None = None,
) -> float:
    """Fitted slope of the truncation remainder against tau.

    Compares the exact propagator with exp(-i tau (Hbar1 + ... + Hbar_order))
    over the given durations and returns the log-log slope; a correct
    truncation at `order` gives a slope close to order + 1. Raises
    DegenerateFitWindowError when every remainder sits at rounding level.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    ev = evolver if evolver is not None else TogglingEvolver(parts)
    errs = []
    for tau in np.asarray(taus, dtype=float):
        profile = switching_profile(qdd_schedule(n_x, n_z, tau))
        u_exact = ev.toggling(profile)
        h = cumulant1(parts, profile)
        if order >= 2:
            h = h + cumulant2(parts, nested_integrals(profile))
        if order >= 3:
            h = h + cumulant3(parts, profile)
        w, v = herm_eigensystem(h)
        u_trunc = expm_from_eigensystem(w, v, tau)
        errs.append(float(np.abs(u_exact - u_trunc).max()))
    errs = np.array(errs)
    if np.all(errs < 1e-13):
        raise DegenerateFitWindowError(
            "truncation remainder is at rounding level over the whole window"
        )
    slope = np.polyfit(np.log(np.asarray(taus, dtype=float)), np.log(errs), 1)[0]
    return float(slope)


def magnus_report(
    parts: HamiltonianParts, n_x: int, n_z: int, tau: float
) -> MagnusReport:
    """Integrals and first two cumulants for one (N_x, N_z, tau) cell."""
    profile = switching_profile(qdd_schedule(n_x, n_z, tau))
    report = nested_integrals(profile)
    report.hbar1 = cumulant1(parts, profile)
    report.hbar2 = cumulant2(parts, report)
    return report
