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
    _SIGMA4,
    _array_aware_eq,
    _character_defects,
    axis_keyed,
    check_factor,
    check_member,
    rotate,
    rotation_defects,
)
from .metrics import pauli_ket, qubit_state


def _bath_gram(stack: np.ndarray, r: np.ndarray) -> np.ndarray:
    """G[a, b] = Tr[Y_a Y_b+] / k, Y_a = stack[..., a, :, :] R, of an (..., n, D, D) stack
    on the D x k bath factor `r` (Tr[B_a rho_B B_b+] for bath blocks), one (n, n) G per
    leading index; the identity factor skips the product."""
    k, identity = check_factor(r, stack.shape[-2])
    flat = (stack if identity else stack @ r).reshape(*stack.shape[:-2], -1)
    return flat @ flat.conj().swapaxes(-1, -2) / k


def b_coefficients(blocks: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bath traces (b_vector, b_matrix) = (G[0, mu], G[mu, nu]) of the (4, D, D) bath
    blocks on the bath factor `r`."""
    gram = _bath_gram(blocks, r)
    return gram[0, 1:], gram[1:, 1:]


# The qubit operators of the T split for the preparations gamma = x, y, z (leading axis),
# with sigma = (sigma_x, sigma_y, sigma_z) and rho_S = |gamma><gamma|:
_SIG = _SIGMA4[1:]
_RHO = np.stack([qubit_state(gamma) for gamma in AXES])
#: sigma_mu rho_S sigma_nu, indexed [gamma, mu, nu]
_SANDWICHES = np.array([[[s @ rho @ t for t in _SIG] for s in _SIG] for rho in _RHO])
#: the commutators d_mu = [sigma_mu, rho_S], indexed [gamma, mu]
_COMMUTATORS = np.array([[s @ rho - rho @ s for s in _SIG] for rho in _RHO])
#: rho_S sigma_kappa, indexed [gamma, kappa]
_RIGHT = np.array([[rho @ s for s in _SIG] for rho in _RHO])
#: (sigma_a |gamma>)_s, the qubit coefficients of u (|gamma> x 1), indexed [gamma, s, a]
_KET_COEFFICIENTS = np.array(
    [np.stack((g, *(s @ g for s in _SIG)), axis=1) for g in (pauli_ket(a, +1) for a in AXES)]
)


def _t_split(b_vector: np.ndarray, b_matrix: np.ndarray) -> np.ndarray:
    """T1..T4 of the three preparations x, y, z at once, as a (4, 3, 2, 2) stack."""
    t1 = _RHO  # times Tr[rho_B] = 1
    for mu in range(3):
        t1 = t1 + (_SANDWICHES[:, mu, mu] - _RHO) * b_matrix[mu, mu]

    t2 = np.zeros((3, 2, 2), dtype=complex)
    for mu in range(3):
        for nu in range(3):
            if mu != nu:
                t2 = t2 + _SANDWICHES[:, mu, nu] * b_matrix[mu, nu]

    t3 = np.zeros((3, 2, 2), dtype=complex)
    for mu in range(3):
        t3 = t3 + _COMMUTATORS[:, mu] * np.conj(b_vector[mu])

    # -i sum eps(mu, nu, kappa) rho_S sigma_kappa b[nu, mu], six terms unrolled
    t4 = -1j * (
        _RIGHT[:, 2] * (b_matrix[1, 0] - b_matrix[0, 1])
        + _RIGHT[:, 0] * (b_matrix[2, 1] - b_matrix[1, 2])
        + _RIGHT[:, 1] * (b_matrix[0, 2] - b_matrix[2, 0])
    )
    return np.stack((t1, t2, t3, t4))


def t_decomposition(
    gamma: PauliAxis, b_vector: np.ndarray, b_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four-term split T1..T4 of the reduced evolved state.

    The qubit starts in |gamma><gamma|; bath state and toggling-frame
    propagator enter through their `b_coefficients` alone. The sum
    T1 + T2 + T3 + T4 equals Tr_bath[u (|gamma><gamma| x rho_B) u+].
    """
    check_member(gamma, PauliAxis)
    return tuple(_t_split(b_vector, b_matrix)[:, gamma.index])


def _direct_states(
    gammas: tuple[PauliAxis, ...], r: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Tr_B[u (|gamma><gamma| x R R+ / k) u+] as Tr_B[X X+] / k, X = u (|gamma> x R), for
    each of the preparations `gammas`, with u (|gamma> x 1) = sum_a sigma_a |gamma> x B_a
    read off the bath blocks: one (2n, 4) @ (4, D^2) product for all n of them."""
    coefficients = _KET_COEFFICIENTS[[gamma.index for gamma in gammas]].reshape(-1, 4)
    columns = (coefficients @ blocks.reshape(4, -1)).reshape(-1, 2, *blocks.shape[1:])
    return _bath_gram(columns, r)


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
    return float(np.abs(t1 + t2 + t3 + t4 - _direct_states((gamma,), r, blocks)[0]).max())


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
    _check_bath_spins(blocks, m)
    return ParityDefects(nu, *_parity_row(rotation_defects(blocks, nu), nu))


def _check_bath_spins(blocks: np.ndarray, m: int) -> None:
    d = blocks.shape[-1]
    if d != 2**m:
        raise ValueError(f"a bath of {m} spins has dimension {2**m}, not the blocks' {d}")


def _parity_row(defects: np.ndarray, nu: PauliAxis) -> tuple[float, float, float]:
    """(b0_even, parallel_even, perpendicular_odd) from the `rotation_defects` about `nu`."""
    perpendicular = np.delete(defects[1:], nu.index).max()
    return float(defects[0]), float(defects[1 + nu.index]), float(perpendicular)


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

    __eq__ = _array_aware_eq

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
    and the three T splits, which are formed together, as are the three
    direct states. The Z and Y parity checks share one sign-rotated stack,
    since R_y = i^M R_x R_z.
    """
    gram = _bath_gram(blocks, r)
    _check_bath_spins(blocks, m)
    z_rotated = rotate(blocks, PauliAxis.Z)
    rotated = (rotate(blocks, PauliAxis.X), rotate(z_rotated, PauliAxis.X), z_rotated)
    defects = [
        _parity_row(_character_defects(stack, blocks, nu), nu) for nu, stack in zip(AXES, rotated)
    ]
    del z_rotated, rotated
    t1, t2, t3, t4 = _t_split(gram[0, 1:], gram[1:, 1:])
    residuals = np.abs(t1 + t2 + t3 + t4 - _direct_states(AXES, r, blocks)).max(axis=(1, 2))
    return SymmetryReport(gram=gram, defects=np.array(defects), residuals=residuals)
