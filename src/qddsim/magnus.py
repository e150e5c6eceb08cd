"""Exact switching-function integrals and the leading Magnus cumulants.

The toggling-frame Hamiltonian is piecewise constant,

    H(t) = sum_a f_a(t) P_a,
    P_0 = kron(1, h_bath),   P_mu = kron(sigma_mu, a_mu),

with the constant switching function f_0 = 1 next to the signs f_x, f_y,
f_z. Every iterated time-ordered integral of the switching functions is
therefore an exact polynomial in the interval widths. All integrals here
are evaluated in that closed form (prefix sums over intervals with the
simplex volume factors 1, 1/2, 1/6); no quadrature enters outside the test
suite.

Conventions, fixed by requiring exp(-i tau (Hbar1 + Hbar2)) to match the
exact propagator to third order. Indices a, b, c run over (f_0, f_x, f_y,
f_z); mu, nu over the three axes only:

    I1[mu]        = int_0^tau f_mu
    I2[a, b]      = int_0^tau dt1 int_0^t1 dt2
                      ( f_a(t1) f_b(t2) - f_a(t2) f_b(t1) )
    I3[a, b, c]   = int dt1 int dt2 int dt3  f_a(t1) f_b(t2) f_c(t3),
                    t3 < t2 < t1.

The public views are I2[mu] = I2[0, mu] = int dt1 int dt2 (f_mu(t2) -
f_mu(t1)), the axis block I2[mu, nu] and the axis block of I3. I2 is
antisymmetric because only that combination can enter the second cumulant
(it multiplies a commutator). By multilinearity in the P_a,

    2 i tau Hbar2 = (1/2) sum_ab I2[a, b] [P_a, P_b] = sum_ab I2[a, b] P_a P_b
    -6 tau Hbar3  = sum_abc ( I3[a, b, c] + I3[c, b, a] ) [P_c, [P_b, P_a]],

the second line being the iterated integral of [H(t3), [H(t2), H(t1)]] +
[H(t1), [H(t2), H(t3)]] with the two terms relabelled onto one. Both cost a
fixed number of dense products (4 and 40), whatever the number of
intervals. For the single-pulse-pair sequence (N_x = N_z = 1) this
reproduces I2[y] = tau^2/4, I2[z] = tau^2/2, I2[x,z] = -I2[z,x] = -tau^2/4,
and all other axis entries vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import TogglingEvolver, evolver_for
from .linalg import axis_keyed, expm_from_eigensystem, from_pauli_blocks, herm_eigensystem
from .model import HamiltonianParts, segment_hamiltonian
from .sequence import SwitchingProfile, qdd_schedule, switching_profile


class DegenerateFitWindowError(RuntimeError):
    """Raised when a slope fit is attempted on rounding-level data."""


@dataclass
class MagnusReport:
    """Exact integrals of one switching profile.

    `i2_ext` (4, 4) and `i3_ext` (4, 4, 4) run over (f_0 = 1, f_x, f_y,
    f_z); `i2_mu`, `i2_munu` and `i3` are their per-axis views.
    """

    tau: float
    i1: np.ndarray
    i2_ext: np.ndarray
    i3_ext: np.ndarray

    @property
    def i2_mu(self) -> np.ndarray:
        return self.i2_ext[0, 1:]

    @property
    def i2_munu(self) -> np.ndarray:
        return self.i2_ext[1:, 1:]

    @property
    def i3(self) -> np.ndarray:
        return self.i3_ext[1:, 1:, 1:]

    def integrals_json_dict(self) -> dict:
        """Integrals keyed by axis tuple, for the CLI."""
        return {
            "tau": self.tau,
            "I1": axis_keyed(self.i1),
            "I2_mu": axis_keyed(self.i2_mu),
            "I2_munu": axis_keyed(self.i2_munu),
            "I3": axis_keyed(self.i3),
        }


def _exclusive_cumsum(x: np.ndarray) -> np.ndarray:
    """Running sums over the last axis that stop before each entry."""
    zero = np.zeros(x.shape[:-1] + (1,))
    return np.concatenate((zero, np.cumsum(x, axis=-1)[..., :-1]), axis=-1)


def nested_integrals(profile: SwitchingProfile) -> MagnusReport:
    """All switching integrals of one profile, exactly."""
    w = profile.durations
    f = np.vstack((np.ones(len(w)), profile.values.astype(float).T))  # (4, L)
    fw = f * w

    # prefix[a, i] = sum_{j < i} f_a[j] w[j]
    prefix = _exclusive_cumsum(fw)

    # ordered[a, b]: f_a at the later time, f_b integrated over earlier times
    ordered = np.einsum("i,ai,bi->ab", w, f, prefix) + np.einsum(
        "i,ai,bi->ab", w * w / 2, f, f
    )

    # double[b, c, i] = sum_{j < i} ( f_b[j] w[j] prefix[c, j]
    #                                 + f_b[j] f_c[j] w[j]^2 / 2 )
    inner = fw[:, None] * prefix[None] + f[:, None] * fw[None] * w / 2
    double = _exclusive_cumsum(inner)
    # t1 after t2's interval, t1 and t2 in one interval, all three in one
    i3 = (
        np.einsum("ai,bci->abc", fw, double)
        + np.einsum("ai,bi,ci->abc", fw * w / 2, f, prefix)
        + np.einsum("ai,bi,ci,i->abc", f, f, f, w**3) / 6
    )
    return MagnusReport(
        tau=profile.tau, i1=f[1:] @ w, i2_ext=ordered - ordered.T, i3_ext=i3
    )


def _coupling_stack(parts: HamiltonianParts) -> np.ndarray:
    """(P_0, P_x, P_y, P_z) = (kron(1, h_bath), kron(sigma_mu, a_mu)), stacked."""
    d = parts.bath_dim
    stack = np.empty((4, 2 * d, 2 * d), dtype=complex)
    for a, one_hot in enumerate(np.eye(4, dtype=bool)[:, :, None, None]):
        stack[a] = from_pauli_blocks(np.where(one_hot, parts.blocks, 0))
    return stack


def cumulant1(parts: HamiltonianParts, report: MagnusReport) -> np.ndarray:
    """First cumulant: the time average of the toggling Hamiltonian."""
    return segment_hamiltonian(parts, report.i1 / report.tau)


def cumulant2(parts: HamiltonianParts, report: MagnusReport) -> np.ndarray:
    """Second cumulant assembled from the exact integrals; Hermitian."""
    p = _coupling_stack(parts)
    acc = np.zeros(p.shape[1:], dtype=complex)
    for a in range(4):
        acc += p[a] @ np.tensordot(report.i2_ext[a], p, axes=1)
    acc /= 2j * report.tau
    return acc


def cumulant3(parts: HamiltonianParts, report: MagnusReport) -> np.ndarray:
    """Third cumulant assembled from the exact integrals; Hermitian.

    -(1/6 tau) times the iterated integral of [H(t3), [H(t2), H(t1)]] +
    [H(t1), [H(t2), H(t3)]], expanded over the P_a stack: 40 dense products
    whatever the number of intervals. Sums accumulate in place, so only a
    few full-space operators live beside the stack.
    """
    p = _coupling_stack(parts)
    kernel = report.i3_ext + report.i3_ext.transpose(2, 1, 0)
    acc = np.zeros(p.shape[1:], dtype=complex)
    inner = np.empty_like(acc)
    for c in range(4):
        # inner = sum_b [P_b, sum_a kernel[a, b, c] P_a]
        inner[:] = 0
        for b in range(4):
            q = np.tensordot(kernel[:, b, c], p, axes=1)
            inner += p[b] @ q
            inner -= q @ p[b]
        acc += p[c] @ inner
        acc -= inner @ p[c]
    acc /= -6.0 * report.tau
    return acc


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
    ValueError for fewer than two distinct durations, and
    DegenerateFitWindowError when every remainder sits at rounding level.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    taus = np.asarray(taus, dtype=float)
    if len(set(taus.tolist())) < 2:
        raise ValueError("a slope needs at least two distinct durations")
    ev = evolver_for(parts, evolver)
    errs = []
    for tau in taus:
        profile = switching_profile(qdd_schedule(n_x, n_z, tau))
        u_exact = ev.toggling(profile)
        report = nested_integrals(profile)
        h = cumulant1(parts, report)
        if order >= 2:
            h = h + cumulant2(parts, report)
        if order >= 3:
            h = h + cumulant3(parts, report)
        w, v = herm_eigensystem(h)
        u_trunc = expm_from_eigensystem(w, v, tau)
        errs.append(float(np.abs(u_exact - u_trunc).max()))
    errs = np.array(errs)
    if np.all(errs < 1e-13):
        raise DegenerateFitWindowError(
            "truncation remainder is at rounding level over the whole window"
        )
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    return float(slope)
