"""Exact toggling-frame propagators and their Pauli-block decomposition.

Between pulses the Hamiltonian is constant, so a propagator is an ordered
product of segment exponentials (latest factor leftmost). In the frame that
toggles with the pulses, the pulses disappear and each segment generator is

    H_seg = kron(1, h_bath) + sum_mu f_mu * kron(sigma_mu, a_mu)

with the sign triple (f_x, f_y, f_z) of the current interval. The lab-frame
propagator, with the pulses as explicit unitaries kron(sigma_axis, 1), is
kron(pulse_operator, 1) times the toggling one; it is kept in
`tests/reference.py` as the oracle the toggling frame is checked against.

Because f_x = f_z * f_y, at most four distinct segment generators occur per
Hamiltonian; their eigensystems are cached so that different durations reuse
the same eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    LEVI_CIVITA,
    bath_gram,
    expm_from_eigensystem,
    from_pauli_blocks,
    herm_eigensystem,
    herm_expm,
    pauli_blocks,
)
from .model import HamiltonianParts, segment_hamiltonian
from .sequence import SwitchingProfile, qdd_schedule, switching_profile


class TogglingEvolver:
    """Caches per-sign-triple eigensystems of one Hamiltonian.

    Reuse one instance across many (schedule, tau) cells of the same model;
    a cache entry is computed at most once per triple (idempotent under
    concurrent insertion, so instances may be shared between threads).
    """

    def __init__(self, parts: HamiltonianParts):
        self.parts = parts
        self._segment_cache: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _segment_eig(self, triple: tuple[int, int, int]):
        cached = self._segment_cache.get(triple)
        if cached is None:
            cached = herm_eigensystem(segment_hamiltonian(self.parts, triple))
            self._segment_cache[triple] = cached
        return cached

    def toggling(self, profile: SwitchingProfile) -> np.ndarray:
        u = np.eye(2 * self.parts.bath_dim, dtype=complex)
        durations = profile.durations
        for i, triple in enumerate(map(tuple, profile.values)):
            w, v = self._segment_eig(triple)
            u = expm_from_eigensystem(w, v, durations[i]) @ u
        return u

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
    _gram: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def b0(self) -> np.ndarray:
        return self.blocks[0]

    @property
    def b(self) -> np.ndarray:
        """The three coupling blocks (b_x, b_y, b_z) as a (3, D, D) stack."""
        return self.blocks[1:]

    def gram(self, rho_b: np.ndarray) -> np.ndarray:
        """Bath Gram matrix G[a, b] = Tr[B_a rho_b B_b^+], kept for the last rho_b."""
        if self._gram is None or self._gram[0] is not rho_b:
            self._gram = (rho_b, bath_gram(self.blocks, rho_b))
            self._gram[1].flags.writeable = False  # shared by every caller
        return self._gram[1]

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
