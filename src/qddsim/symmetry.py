"""Numerical machinery behind the symmetry-doubling argument.

A propagator u = sum_a sigma_a x B_a (a = 0..3, sigma_0 = 1, B_0 = b0) acts
on the qubit only through the bath Gram matrix G[a, b] = Tr[B_a rho_B B_b+]
= Tr[Y_a Y_b+] / k, Y_a = B_a R, for the bath state rho_B = R R+ / k of a
D x k factor R (the product bath's ket, k = 1, or the identity, k = D, for
the maximally mixed bath). The reduced evolved state is
sum_ab sigma_a rho_S sigma_b G[a, b]. Its first-order traces are
b_mu = G[0, mu], its second-order ones b_munu = G[mu, nu]. Regrouping the
Gram sum splits the reduced state exactly into four pieces (T1..T4); the
piece linear in b_mu is the leading decoherence channel. If the Hamiltonian
commutes with global pi rotations and rho_B is maximally mixed, the parity
of the bath blocks under bath-site rotations (b0 even, b_mu odd except
along the rotation axis) forces every b_mu to vanish, which promotes the
leading channel to the b_munu terms and doubles the decay exponent of the
distance norm. The parities are `linalg.ROTATION_CHARACTERS`, the rule by which
`evolution` also finds its sectors; the dense `bath_rotation` is the test oracle.

Every check here takes u as its (4, D, D) stack of bath blocks B_a
(`qdd_decomposition`). The T-sum check reduces the evolved state directly
from the columns u (|gamma> x 1) = sum_a sigma_a |gamma> x B_a, not from G.

The hermitian-conjugate placement in T3 is fixed by requiring the four-term
split to reproduce the directly computed reduced state exactly: the
commutator d_mu = [sigma_mu, rho_S] pairs with conj(b_mu).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import (
    AXES,
    PauliAxis,
    axis_keyed,
    check_factor,
    factor_gram,
    pauli,
    rotation_defects,
    times_factor,
)
from .metrics import pauli_ket, qubit_state


def _bath_gram(blocks: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (4, 4) bath Gram matrix G[a, b] of the bath blocks on the bath factor `r`."""
    check_factor(r, blocks.shape[1])
    return factor_gram(times_factor(blocks, r))


def b_coefficients(blocks: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bath traces (b_vector, b_matrix) = (G[0, mu], G[mu, nu]) of the (4, D, D) bath
    blocks on the bath factor `r`."""
    gram = _bath_gram(blocks, r)
    return gram[0, 1:], gram[1:, 1:]


def t_decomposition(
    gamma: PauliAxis, b_vector: np.ndarray, b_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four-term split T1..T4 of the reduced evolved state.

    The qubit starts in |gamma><gamma|; bath state and toggling-frame
    propagator enter through their `b_coefficients` alone. The sum
    T1 + T2 + T3 + T4 equals Tr_bath[u (|gamma><gamma| x rho_B) u+].
    """
    rho_s = qubit_state(gamma)
    sig = [pauli(a) for a in AXES]

    t1 = rho_s  # times Tr[rho_B] = 1
    for mu in range(3):
        t1 = t1 + (sig[mu] @ rho_s @ sig[mu] - rho_s) * b_matrix[mu, mu]

    t2 = np.zeros((2, 2), dtype=complex)
    for mu in range(3):
        for nu in range(3):
            if mu != nu:
                t2 = t2 + sig[mu] @ rho_s @ sig[nu] * b_matrix[mu, nu]

    t3 = np.zeros((2, 2), dtype=complex)
    for mu in range(3):
        d_mu = sig[mu] @ rho_s - rho_s @ sig[mu]
        t3 = t3 + d_mu * np.conj(b_vector[mu])

    # -i sum eps(mu, nu, kappa) rho_S sigma_kappa b[nu, mu], six terms unrolled
    t4 = -1j * (
        rho_s @ sig[2] * (b_matrix[1, 0] - b_matrix[0, 1])
        + rho_s @ sig[0] * (b_matrix[2, 1] - b_matrix[1, 2])
        + rho_s @ sig[1] * (b_matrix[0, 2] - b_matrix[2, 0])
    )
    return t1, t2, t3, t4


def _direct_state(gamma: PauliAxis, r: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Tr_B[u (|gamma><gamma| x R R+ / k) u+] as Tr_B[X X+] / k, X = u (|gamma> x R),
    with u (|gamma> x 1) = sum_a sigma_a |gamma> x B_a read off the bath blocks."""
    d = blocks.shape[1]
    check_factor(r, d)
    g = pauli_ket(gamma, +1)
    coefficients = np.stack((g, *(pauli(a) @ g for a in AXES)), axis=1)  # (sigma_a g)_s
    x = (coefficients @ blocks.reshape(4, -1)).reshape(2, d, d)
    return factor_gram(times_factor(x, r))


def t_residual(
    gamma: PauliAxis,
    r: np.ndarray,
    blocks: np.ndarray,
    b: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Max-norm gap between the T sum and the directly reduced evolved state.

    The direct state comes from the columns u (|gamma> x R) that the bath
    blocks of u give, not from their Gram matrix, so it checks the T split
    independently. `b` is `b_coefficients(blocks, r)`, computed here when None.
    """
    b_vector, b_matrix = b_coefficients(blocks, r) if b is None else b
    t1, t2, t3, t4 = t_decomposition(gamma, b_vector, b_matrix)
    return float(np.abs(t1 + t2 + t3 + t4 - _direct_state(gamma, r, blocks)).max())


@dataclass(slots=True)
class ParityDefects:
    """Deviation of the bath blocks from their rotation parities about `nu`."""

    nu: PauliAxis
    b0_even: float
    parallel_even: float
    perpendicular_odd: float

    @property
    def worst(self) -> float:
        return max(self.b0_even, self.parallel_even, self.perpendicular_odd)


def rotation_parities(blocks: np.ndarray, nu: PauliAxis, m: int) -> ParityDefects:
    """Parity defects of the bath blocks b0 and b_mu under the bath rotation about `nu`.

    For a rotation-invariant Hamiltonian, b0 and b_nu are even and the two
    perpendicular blocks odd; all three defects then vanish to rounding.
    `m` is the number of bath spins, checked against the blocks.
    """
    d = blocks.shape[-1]
    if d != 2**m:
        raise ValueError(f"a bath of {m} spins has dimension {2**m}, not the blocks' {d}")
    defects = rotation_defects(blocks, nu)
    perpendicular = np.delete(defects[1:], nu.index).max()
    return ParityDefects(nu, float(defects[0]), float(defects[1 + nu.index]), float(perpendicular))


@dataclass(slots=True)
class SymmetryReport:
    """Everything the symmetry-check command emits for one cell, as three small arrays.

    `gram` is the (4, 4) bath Gram matrix G[a, b]; `b_vector` = G[0, mu] and
    `b_matrix` = G[mu, nu] are views of it. `defects` holds one row
    (b0_even, parallel_even, perpendicular_odd) per rotation axis x, y, z, and
    `residuals` the T-sum residuals of the preparations along x, y and z;
    `parity_defects` and `t_residuals` are built from them on access.
    """

    gram: np.ndarray
    defects: np.ndarray
    residuals: np.ndarray

    @property
    def b_vector(self) -> np.ndarray:
        return self.gram[0, 1:]

    @property
    def b_matrix(self) -> np.ndarray:
        return self.gram[1:, 1:]

    @property
    def parity_defects(self) -> tuple[ParityDefects, ParityDefects, ParityDefects]:
        """The rows of `defects`, built afresh."""
        return tuple(ParityDefects(nu, *row) for nu, row in zip(AXES, self.defects.tolist()))

    @property
    def t_residuals(self) -> tuple[float, float, float]:
        return tuple(self.residuals.tolist())

    def to_json(self) -> str:
        def pair(v):
            return [float(v.real), float(v.imag)]

        doc = {
            "b_vector": axis_keyed(self.b_vector, pair),
            "b_matrix": axis_keyed(self.b_matrix, pair),
            "max_abs_b_vector": float(np.abs(self.b_vector).max()),
            "max_abs_b_offdiag": float(
                max(
                    abs(self.b_matrix[m, n])
                    for m in range(3)
                    for n in range(3)
                    if m != n
                )
            ),
            "parity_defects": {
                p.nu.value: {
                    "b0_even": p.b0_even,
                    "parallel_even": p.parallel_even,
                    "perpendicular_odd": p.perpendicular_odd,
                }
                for p in self.parity_defects
            },
            "t_residuals": axis_keyed(self.residuals),
        }
        return json.dumps(doc, indent=2)


def symmetry_report(blocks: np.ndarray, r: np.ndarray, m: int) -> SymmetryReport:
    """Assemble b coefficients, parity defects and T residuals of the bath blocks in one pass.

    The three qubit preparations share the bath state of the factor `r`.
    The bath Gram matrix is computed once and shared by the b coefficients
    and the three T splits.
    """
    gram = _bath_gram(blocks, r)
    b = gram[0, 1:], gram[1:, 1:]
    defects = [
        (p.b0_even, p.parallel_even, p.perpendicular_odd)
        for p in (rotation_parities(blocks, nu, m) for nu in AXES)
    ]
    residuals = [t_residual(gamma, r, blocks, b) for gamma in AXES]
    return SymmetryReport(gram=gram, defects=np.array(defects), residuals=np.array(residuals))
