"""Independent lab-frame distance d(tau), written apart from qddsim.

The program evaluates d in the toggling frame from cached eigensystems. This
module recomputes it from the definitions alone:

- the Hamiltonian is assembled from the coupling matrices J0/J1 with local
  Pauli matrices and a local Kronecker product (qubit = site 0, leftmost);
- the pulses are applied explicitly as sigma_x / sigma_z on the qubit at the
  nested Uhrig instants tau * sin^2(j pi / (2 (n + 1)));
- every free interval is propagated with scipy.linalg.expm;
- d^2 = (1/3) sum_gamma Tr[Delta_gamma^2] with
  Delta_gamma = Tr_B(ideal rho0 ideal^+ - real rho0 real^+), where the ideal
  evolution is the net pulse rotation on the qubit and exp(-i tau H_B) on
  the bath.

Only the coupling matrices and the bath directions are read from the
program's objects.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
XYZ = ("x", "y", "z")
KET_PLUS = {
    "x": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "y": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "z": np.array([1, 0], dtype=complex),
}


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, `a` the more significant factor."""
    ra, ca = a.shape
    rb, cb = b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def site_operator(ops: dict[int, np.ndarray], n_sites: int) -> np.ndarray:
    """Product of single-site operators {site: op}, identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for s in range(n_sites):
        out = kron(out, ops.get(s, np.eye(2, dtype=complex)))
    return out


def hamiltonians(couplings) -> tuple[np.ndarray, np.ndarray]:
    """(H on qubit + bath, H_B on the bath alone) from J0 and J1."""
    m = couplings.m
    n = m + 1
    h = np.zeros((2**n, 2**n), dtype=complex)
    h_bath = np.zeros((2**m, 2**m), dtype=complex)
    for (i, j), mat in couplings.j0.items():
        for k, a in enumerate(XYZ):
            # sum_l J0[k, l] sigma_l on site j, paired with sigma_k on site i;
            # bath site i is full-space site i and bath-space site i - 1
            partner = sum(mat[k, l] * SIGMA[b] for l, b in enumerate(XYZ))
            h += site_operator({i: SIGMA[a], j: partner}, n)
            h_bath += site_operator({i - 1: SIGMA[a], j - 1: partner}, m)
    for i, mat in couplings.j1.items():
        for mu, a in enumerate(XYZ):
            partner = sum(mat[mu, k] * SIGMA[b] for k, b in enumerate(XYZ))
            h += site_operator({0: SIGMA[a], i: partner}, n)
    return h, h_bath


def pulse_sequence(n_x: int, n_z: int, tau: float) -> list[tuple[float, str]]:
    """Time-sorted (instant, axis) pairs of the nested Uhrig sequence."""

    def fractions(n):
        return [np.sin(j * np.pi / (2 * (n + 1))) ** 2 for j in range(1, n + 1)]

    outer = [tau * f for f in fractions(n_x)]
    edges = [0.0, *outer, tau]
    events = [(t, "x") for t in outer]
    for lo, hi in zip(edges[:-1], edges[1:]):
        events.extend((lo + (hi - lo) * f, "z") for f in fractions(n_z))
    return sorted(events)


def bath_density(m: int, directions) -> np.ndarray:
    """Product of single-spin projectors, or 1/D when `directions` is None."""
    if directions is None:
        return np.eye(2**m, dtype=complex) / 2**m
    rho = np.ones((1, 1), dtype=complex)
    for axis, sign in directions:
        ket = KET_PLUS[axis.value]
        if sign < 0:
            ket = SIGMA["z" if axis.value != "z" else "x"] @ ket
        rho = kron(rho, np.outer(ket, ket.conj()))
    return rho


def trace_bath(op: np.ndarray) -> np.ndarray:
    d = op.shape[0] // 2
    return np.einsum("iaja->ij", op.reshape(2, d, 2, d))


class LabFrameOracle:
    """d(tau) of one model and bath state, by explicit lab-frame evolution."""

    def __init__(self, couplings, directions):
        self.h, self.h_bath = hamiltonians(couplings)
        self.rho_b = bath_density(couplings.m, directions)

    def distance(self, n_x: int, n_z: int, tau: float) -> float:
        dim_b = self.rho_b.shape[0]
        eye_b = np.eye(dim_b, dtype=complex)
        u = np.eye(2 * dim_b, dtype=complex)
        p_net = np.eye(2, dtype=complex)
        t_prev = 0.0
        for t, axis in pulse_sequence(n_x, n_z, tau):
            u = kron(SIGMA[axis], eye_b) @ expm(-1j * (t - t_prev) * self.h) @ u
            p_net = SIGMA[axis] @ p_net
            t_prev = t
        u = expm(-1j * (tau - t_prev) * self.h) @ u
        ideal = kron(p_net, expm(-1j * tau * self.h_bath))
        total = 0.0
        for gamma in XYZ:
            ket = KET_PLUS[gamma]
            rho0 = kron(np.outer(ket, ket.conj()), self.rho_b)
            diff = trace_bath(ideal @ rho0 @ ideal.conj().T - u @ rho0 @ u.conj().T)
            total += float(np.trace(diff @ diff).real)
        return float(np.sqrt(max(total, 0.0) / 3.0))
