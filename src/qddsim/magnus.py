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
[H(t1), [H(t2), H(t3)]] with the two terms relabelled onto one. Both are
formed on the D x D bath blocks, never on the 2D x 2D space: P_a P_b =
sigma_a sigma_b x B_a B_b, and the Pauli product table sigma_a sigma_b =
phase sigma_(a ^ b) places each block product. With Hermitian blocks,
P_b P_a is the adjoint of P_a P_b, so the six products B_a B_b, a < b, give
every commutator [P_a, P_b]: the second cumulant costs those 6 block
products, the third 6 + 12, whatever the number of intervals (a dense
product on the full space is 8 block products). For the single-pulse-pair
sequence (N_x = N_z = 1) this
reproduces I2[y] = tau^2/4, I2[z] = tau^2/2, I2[x,z] = -I2[z,x] = -tau^2/4,
and all other axis entries vanish identically.

Stretching a profile to the duration tau scales I_k by tau^k, so
Hbar_k(tau) = tau^(k-1) Hbar_k(1) exactly. `magnus_order_check` therefore
forms the cumulants once, from the unit profile, and evaluates
Hbar1 + tau Hbar2(1) + tau^2 Hbar3(1) at each duration: its cumulants cost
a fixed number of block products per check, not per duration.

Every toggling-frame generator is a qubit-Pauli conjugate of H, so when H
commutes with R_z = sigma_z^{x(M+1)} so do the exact propagator and every
cumulant: both are block-diagonal on the R_z parity sectors. The check
therefore compares them sector by sector, on the sectors the evolver found
(`TogglingEvolver._basis`), with one D x D eigensystem per sector instead of
one 2D x 2D one; for an R_x orbit the sector-1 blocks are the sector-0 ones
reversed, and sector 0 alone is compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolution import TogglingEvolver, evolver_for
from .linalg import (
    _SIGMA4,
    _array_aware_eq,
    axis_keyed,
    check_count,
    check_durations,
    from_pauli_blocks,
    herm_eigensystem,
)
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

    __eq__ = _array_aware_eq

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


#: sigma_a sigma_b = _PRODUCT_PHASES[a, b] sigma_(a ^ b), for a, b over (0, x, y, z).
_PRODUCT_PHASES = np.array(
    [[np.trace(_SIGMA4[a] @ _SIGMA4[b] @ _SIGMA4[a ^ b]) / 2 for b in range(4)] for a in range(4)]
)


def _commutators(parts: HamiltonianParts, weights: np.ndarray) -> np.ndarray:
    """The bath blocks on (sigma_x, sigma_y, sigma_z) of sum_(a < b) w[a, b] [P_a, P_b], as an
    (n, 3, D, D) stack, one for each (4, 4) matrix w of the (n, 4, 4) `weights`.

    [P_a, P_b] = sigma_s x (E - E^+) with E = phase B_a B_b, sigma_a sigma_b = phase
    sigma_s, s = a ^ b, since the blocks are Hermitian: six D x D products for all n.
    """
    blocks = parts.blocks
    out = np.zeros((len(weights), 3, *blocks.shape[1:]), dtype=complex)
    for a in range(4):
        for b in range(a + 1, 4):
            e = _PRODUCT_PHASES[a, b] * (blocks[a] @ blocks[b])
            e -= e.conj().T
            for n in range(len(weights)):
                out[n, (a ^ b) - 1] += weights[n, a, b] * e
    return out


def cumulant1(parts: HamiltonianParts, report: MagnusReport) -> np.ndarray:
    """First cumulant: the time average of the toggling Hamiltonian."""
    return segment_hamiltonian(parts, report.i1 / report.tau)


def cumulant2(parts: HamiltonianParts, report: MagnusReport) -> np.ndarray:
    """Second cumulant assembled from the exact integrals; Hermitian.

    I2 is antisymmetric, so sum_ab I2[a, b] P_a P_b = sum_(a < b) I2[a, b] [P_a, P_b]:
    six D x D block products.
    """
    blocks = np.zeros((4, *parts.blocks.shape[1:]), dtype=complex)
    blocks[1:] = _commutators(parts, report.i2_ext[None])[0]
    blocks /= 2j * report.tau
    return from_pauli_blocks(blocks)


def cumulant3(parts: HamiltonianParts, report: MagnusReport) -> np.ndarray:
    """Third cumulant assembled from the exact integrals; Hermitian.

    -(1/6 tau) times the iterated integral of [H(t3), [H(t2), H(t1)]] +
    [H(t1), [H(t2), H(t3)]], as sum_c [P_c, inner_c] with inner_c =
    sum_ab kernel[a, b, c] [P_b, P_a], in which the pair a < b carries the
    weight kernel[b, a, c] - kernel[a, b, c] of [P_a, P_b]. inner_c is
    anti-Hermitian, so [P_c, inner_c] = X_c + X_c^+ with X_c = P_c inner_c:
    6 + 12 D x D block products whatever the number of intervals.
    """
    kernel = report.i3_ext + report.i3_ext.transpose(2, 1, 0)
    inner = _commutators(parts, kernel.transpose(2, 1, 0) - kernel.transpose(2, 0, 1))
    x = np.zeros((4, *inner.shape[2:]), dtype=complex)
    for c in range(4):
        for s in range(1, 4):
            # P_c (sigma_s x inner_cs) = phase sigma_(c ^ s) x B_c inner_cs
            x[c ^ s] += _PRODUCT_PHASES[c, s] * (parts.blocks[c] @ inner[c, s - 1])
    del inner
    x += x.conj().transpose(0, 2, 1)
    x /= -6.0 * report.tau
    return from_pauli_blocks(x)


def _remainder(
    ev: TogglingEvolver, profile: SwitchingProfile, terms: list[np.ndarray], fixed: list | None
) -> float:
    """max|u - exp(-i tau h(tau))| over the checked sectors at the duration tau of
    `profile`: u the exact toggling propagator of `ev`, read as its sector pieces, and
    h(tau) = sum_k tau^k terms[k] on each sector, or its eigensystems `fixed`.

    Each exp(-i tau h) = V e V^+ is formed as the conjugate of conj(V e) V^T, one
    product beside one copy of V, and all of them before the exact pieces, so that
    no eigensystem of h(tau) is formed beside an exact propagator (a memory bound).
    """
    tau = profile.tau
    truncated = []
    for s in range(len(terms[0])):
        if fixed:
            w, v = fixed[s]
        else:
            h = terms[0][s].copy()
            for k, term in enumerate(terms[1:], 1):
                h += tau**k * term[s]
            w, v = herm_eigensystem(h)
            del h
        ve = v.conj()
        ve *= np.exp(1j * tau * w)
        truncated.append(ve @ v.T)
        del ve, v
    pieces = ev.toggling(profile, np.eye(ev.parts.bath_dim), [tau])[0]
    err = 0.0
    for u, piece in zip(truncated, pieces):
        np.conjugate(u, out=u)
        u -= piece
        err = max(err, float(np.abs(u).max()))
    return err


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
    truncation at `order` gives a slope close to order + 1. The cumulants
    come once from the unit profile, Hbar_k(tau) = tau^(k-1) Hbar_k(1), so
    order 1 takes one eigensystem per sector for every duration. The
    remainder is the largest entry of the difference on the checked R_z
    sectors (module docstring), where both propagators live. Raises ValueError
    for an order other than the integers 1, 2 and 3, for durations that are
    not a 1-D array of positive finite values, or fewer than two distinct
    ones, and DegenerateFitWindowError when every remainder sits at
    rounding level.
    """
    message = "order must be 1, 2 or 3"
    check_count(order, 1, message)
    if order not in (1, 2, 3):
        raise ValueError(message)
    taus = check_durations(taus, "durations tau must be positive and finite", ndim=1)
    if len(set(taus.tolist())) < 2:
        raise ValueError("a slope needs at least two distinct durations")
    ev = evolver_for(parts, evolver)
    # both propagators are block-diagonal on the R_z sectors of the evolver, and
    # for an R_x orbit the sector-1 blocks are the sector-0 ones reversed
    states = ev._basis.states[: 1 if ev._basis.orbit else None]
    unit = nested_integrals(switching_profile(qdd_schedule(n_x, n_z, 1.0)))
    terms = [
        c(parts, unit)[states[:, :, None], states[:, None]]
        for c in (cumulant1, cumulant2, cumulant3)[:order]
    ]
    # at order 1, h(tau) = Hbar1 for every tau: one eigensystem per sector serves them all
    fixed = [herm_eigensystem(h) for h in terms[0]] if order == 1 else None
    errs = np.array([
        _remainder(ev, switching_profile(qdd_schedule(n_x, n_z, tau)), terms, fixed)
        for tau in taus.tolist()
    ])
    if np.all(errs < 1e-13):
        raise DegenerateFitWindowError(
            "truncation remainder is at rounding level over the whole window"
        )
    slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
    return float(slope)
