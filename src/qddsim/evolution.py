"""Exact toggling-frame propagators and their Pauli-block decomposition.

Between pulses the Hamiltonian is constant, so a propagator is an ordered
product of segment exponentials (latest factor leftmost). In the frame that
toggles with the pulses, the pulses disappear and each segment generator is

    H_seg = kron(1, h_bath) + sum_mu f_mu * kron(sigma_mu, a_mu)

with the sign triple (f_x, f_y, f_z) of the current interval. Each such
generator is a qubit-Pauli conjugate of the full Hamiltonian H, the one with
f = (+1, +1, +1): H_seg = (P x 1) H (P x 1) with P = 1, sigma_z, sigma_x,
sigma_y for f = (+++), (--+), (+--), (-+-). Segment products therefore
telescope into the lab-frame product, pulses as explicit unitaries
kron(sigma_axis, 1) between segments of H, and the toggling propagator is
kron(P_net^+, 1) times it, with P_net the net pulse rotation
(`pulse_operator`). With H = V diag(w) V^+ that is

    u = kron(P_net^+, 1) V D_L W ... W D_2 W D_1 V^+,   D_j = diag(e^{-i t_j w}),

where each W between two intervals is one of the pulse overlaps
W_x = V^+ kron(sigma_x, 1) V or W_z = V^+ kron(sigma_z, 1) V. An X pulse
flips f_z and a Z pulse does not, so the sign triples pick the overlap. One
eigensystem and two overlaps per Hamiltonian serve every cell and duration,
and a propagator of L segments costs L dense products.

The distance needs u only through u (1 x R), where the D x k bath factor R
gives rho_B = R R^+ / k, so `toggling(profile, r)` starts the chain from
the 2k columns V^+ (1 x R) instead of V^+. The product bath (R = psi,
k = 1) makes each segment a (2D)^2 x 2 product, not a (2D)^3 one; the
maximally mixed bath (R = 1, k = D) starts from V^+ itself.
`tests/reference.py` keeps the two products this is checked against: the
dense lab-frame one and the per-segment toggling one, with an eigensystem
per sign triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    LEVI_CIVITA,
    PauliAxis,
    check_factor,
    from_pauli_blocks,
    herm_eigensystem,
    herm_expm,
    pauli,
    pauli_blocks,
    times_factor,
)
from .model import HamiltonianParts, segment_hamiltonian
from .sequence import SwitchingProfile, qdd_schedule, switching_profile

_SIGMA_X, _SIGMA_Z = pauli(PauliAxis.X), pauli(PauliAxis.Z)


class TogglingEvolver:
    """The eigensystem of one Hamiltonian and its two pulse overlaps.

    Reuse one instance across many (schedule, tau) cells of the same model.
    The basis (w, V, W_x, W_z) is computed on first use and stored as one
    tuple in a single assignment, so threads sharing an instance see either
    no basis or a complete one; a concurrent first use computes the same
    basis twice.
    """

    def __init__(self, parts: HamiltonianParts):
        self.parts = parts
        self._basis: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None

    def _eigenbasis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        basis = self._basis
        if basis is None:
            w, v = herm_eigensystem(segment_hamiltonian(self.parts, (1, 1, 1)))
            d = self.parts.bath_dim
            v_dag = v.conj().T
            # kron(sigma_x, 1) swaps the qubit halves of V's rows; kron(sigma_z, 1)
            # negates the lower half
            w_x = v_dag @ np.concatenate((v[d:], v[:d]))
            w_z = v_dag @ np.concatenate((v[:d], -v[d:]))
            basis = (w, v, w_x, w_z)
            self._basis = basis
        return basis

    def toggling(self, profile: SwitchingProfile, r: np.ndarray | None = None) -> np.ndarray:
        """Toggling-frame propagator u of a profile built by `switching_profile`.

        With a D x k bath factor `r`, only the 2D x 2k columns u (1 x R) are
        propagated and returned; without one, the full 2D x 2D u.
        """
        values = profile.values
        if (
            np.any(values[0] != 1)
            or np.any(values[1:, 1] == values[:-1, 1])
            or np.any(values[:, 0] != values[:, 1] * values[:, 2])
        ):
            raise ValueError(
                "sign triples must start at (+1, +1, +1), flip f_y at every pulse "
                "and keep f_x = f_y * f_z"
            )
        w, v, w_x, w_z = self._eigenbasis()
        phases = np.exp(-1j * np.outer(profile.durations, w))[:, :, None]
        x_pulses = values[1:, 2] != values[:-1, 2]  # only an X pulse flips f_z
        p_net = np.eye(2, dtype=complex)
        v_dag = v.conj().T
        if r is not None:
            d = self.parts.bath_dim
            check_factor(r, d)
            # V^+ (1 x R) = [V^+[:, :D] R, V^+[:, D:] R], the halves viewed as one stack
            halves = v_dag.T.reshape(2, d, 2 * d).transpose(0, 2, 1)
            v_dag = times_factor(halves, r).transpose(1, 0, 2).reshape(2 * d, -1)
        u = phases[0] * v_dag
        for phase, x_pulse in zip(phases[1:], x_pulses):
            u = (w_x if x_pulse else w_z) @ u
            u *= phase
            p_net = (_SIGMA_X if x_pulse else _SIGMA_Z) @ p_net
        u = v @ u
        # kron(P_net^+, 1) u, applied to the two qubit row blocks of u
        return (p_net.conj().T @ u.reshape(2, -1)).reshape(u.shape)

    def bath_unitary(self, tau: float) -> np.ndarray:
        """exp(-i tau h_bath) on the bath space only."""
        return herm_expm(self.parts.h_bath, tau)


@dataclass
class PropagatorDecomposition:
    """Full-space propagator in the Pauli-block form.

    u = sum_a sigma_a x blocks[a] with blocks = (b0, b_x, b_y, b_z); the bath
    blocks inherit two constraints from unitarity of u:

        b0 b0+ + sum_mu b_mu b_mu+ = 1
        i sum_{mu,nu} eps(mu,nu,kappa) b_mu b_nu+ + (b0 b_kappa+ + h.c.) = 0
    """

    u: np.ndarray
    blocks: np.ndarray
    tau: float

    @property
    def b0(self) -> np.ndarray:
        return self.blocks[0]

    @property
    def b(self) -> np.ndarray:
        """The three coupling blocks (b_x, b_y, b_z) as a (3, D, D) stack."""
        return self.blocks[1:]

    def reassembly_residual(self) -> float:
        return float(np.abs(from_pauli_blocks(self.blocks) - self.u).max())

    def unitarity_defects(self) -> tuple[float, float]:
        """Max-norm residuals of the completeness and cross conditions."""
        # products[a, b] = B_a B_b^+
        products = self.blocks[:, None] @ self.blocks.conj().transpose(0, 2, 1)[None]
        start = products[0, 0] - np.eye(self.blocks.shape[1])
        complete = sum((products[a, a] for a in range(1, 4)), start)
        cross = products[0, 1:] + products[0, 1:].conj().transpose(0, 2, 1)
        for mu, nu, kappa, sign in LEVI_CIVITA:
            cross[kappa.index] += 1j * sign * products[mu.index + 1, nu.index + 1]
        return float(np.abs(complete).max()), float(np.abs(cross).max())


def pauli_decompose(u: np.ndarray, tau: float = 0.0) -> PropagatorDecomposition:
    """Split a full-space operator into its bath blocks b0, b_mu."""
    return PropagatorDecomposition(u=u, blocks=pauli_blocks(u), tau=tau)


def qdd_decomposition(
    parts: HamiltonianParts,
    n_x: int,
    n_z: int,
    tau: float,
    evolver: TogglingEvolver | None = None,
) -> PropagatorDecomposition:
    """Toggling-frame propagator of one QDD cell, already Pauli-decomposed."""
    ev = evolver if evolver is not None else TogglingEvolver(parts)
    profile = switching_profile(qdd_schedule(n_x, n_z, tau))
    return pauli_decompose(ev.toggling(profile), tau=tau)
