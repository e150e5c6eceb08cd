"""Numerical machinery behind the symmetry-doubling argument.

A propagator u = sum_a sigma_a x B_a (a = 0..3, sigma_0 = 1, B_0 = b0) acts
on the qubit only through the bath Gram matrix G[a, b] = Tr[B_a rho_B B_b+]
= Tr[Y_a Y_b+], Y_a = B_a R for rho_B = R R+. The bath is carried as its
ket: R is the ket psi of a pure bath, or 1/sqrt(D) when the ket is None
(maximally mixed). The reduced evolved state is
sum_ab sigma_a rho_S sigma_b G[a, b]. Its
first-order traces are b_mu = G[0, mu], its second-order ones b_munu =
G[mu, nu]. Regrouping the Gram sum splits the reduced state exactly into four pieces
(T1..T4); the piece linear in b_mu is the leading decoherence channel. If
the Hamiltonian commutes with global pi rotations and rho_B is maximally
mixed, the parity of the bath blocks under bath-site rotations (b0 even,
b_mu odd except along the rotation axis) forces every b_mu to vanish,
which promotes the leading channel to the b_munu terms and doubles the
decay exponent of the distance norm.

The hermitian-conjugate placement in T3 is fixed by requiring the four-term
split to reproduce the directly computed reduced state exactly: the
commutator d_mu = [sigma_mu, rho_S] pairs with conj(b_mu).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .evolution import PropagatorDecomposition
from .linalg import AXES, PauliAxis, pauli
from .metrics import _bath_gram, pauli_ket, qubit_state


def b_coefficients(
    dec: PropagatorDecomposition, ket: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bath traces (b_vector, b_matrix) = (G[0, mu], G[mu, nu]).

    The bath state is |ket><ket|, or maximally mixed when `ket` is None.
    """
    gram = _bath_gram(ket, dec.blocks if ket is None else dec.blocks @ ket[:, None])
    return gram[0, 1:], gram[1:, 1:]


def t_decomposition(
    gamma: PauliAxis,
    ket: np.ndarray | None,
    dec: PropagatorDecomposition,
    b: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four-term split T1..T4 of the reduced evolved state.

    The qubit starts in |gamma><gamma| and the bath in |ket><ket|, or
    maximally mixed when `ket` is None. `dec` must come from the
    toggling-frame propagator. `b` is `b_coefficients(dec, ket)`, computed
    here when None. The sum T1 + T2 + T3 + T4 equals
    Tr_bath[u (|gamma><gamma| x rho_B) u+] identically.
    """
    rho_s = qubit_state(gamma)
    b_vec, b_mat = b_coefficients(dec, ket) if b is None else b
    sig = [pauli(a) for a in AXES]

    t1 = rho_s  # times Tr[rho_B] = 1
    for mu in range(3):
        t1 = t1 + (sig[mu] @ rho_s @ sig[mu] - rho_s) * b_mat[mu, mu]

    t2 = np.zeros((2, 2), dtype=complex)
    for mu in range(3):
        for nu in range(3):
            if mu != nu:
                t2 = t2 + sig[mu] @ rho_s @ sig[nu] * b_mat[mu, nu]

    t3 = np.zeros((2, 2), dtype=complex)
    for mu in range(3):
        d_mu = sig[mu] @ rho_s - rho_s @ sig[mu]
        t3 = t3 + d_mu * np.conj(b_vec[mu])

    # -i sum eps(mu, nu, kappa) rho_S sigma_kappa b[nu, mu], six terms unrolled
    t4 = -1j * (
        rho_s @ sig[2] * (b_mat[1, 0] - b_mat[0, 1])
        + rho_s @ sig[0] * (b_mat[2, 1] - b_mat[1, 2])
        + rho_s @ sig[1] * (b_mat[0, 2] - b_mat[2, 0])
    )
    return t1, t2, t3, t4


def _direct_state(gamma: PauliAxis, ket: np.ndarray | None, u: np.ndarray) -> np.ndarray:
    """Tr_B[u (|gamma><gamma| x R R+) u+] as Tr_B[X X+], X = u (|gamma> x R).

    X is read off the two column halves of u in O(D^2) work. R is the column
    `ket`, or 1/sqrt(D) when `ket` is None, applied as 1/D.
    """
    d = u.shape[0] // 2
    g = pauli_ket(gamma, +1)
    x = g[0] * u[:, :d] + g[1] * u[:, d:]  # u (|gamma> x 1)
    x = (x if ket is None else x @ ket[:, None]).reshape(2, -1)
    direct = x @ x.conj().T
    return direct / d if ket is None else direct


def t_residual(
    gamma: PauliAxis,
    ket: np.ndarray | None,
    dec: PropagatorDecomposition,
    b: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Max-norm gap between the T sum and the directly reduced evolved state.

    The direct state comes from the propagator u itself, not from its Gram
    matrix, so it checks the T split independently. `b` is as in
    `t_decomposition`.
    """
    t1, t2, t3, t4 = t_decomposition(gamma, ket, dec, b)
    return float(np.abs(t1 + t2 + t3 + t4 - _direct_state(gamma, ket, dec.u)).max())


def bath_rotation(nu: PauliAxis, m: int) -> np.ndarray:
    """Global bath pi rotation: sigma_nu tensored over all bath sites.

    Equal to the true exp(-i pi/2 sigma_nu) product up to a global phase,
    which conjugation never sees.
    """
    rot = np.ones((1, 1), dtype=complex)
    for _ in range(m):
        rot = np.kron(rot, pauli(nu))
    return rot


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


def rotation_parities(
    dec: PropagatorDecomposition, nu: PauliAxis, m: int
) -> ParityDefects:
    """Parity defects of b0 and b_mu under the bath rotation about `nu`.

    For a rotation-invariant Hamiltonian, b0 and b_nu are even and the two
    perpendicular blocks odd; all three defects then vanish to rounding.
    """
    rot = bath_rotation(nu, m)
    conj = lambda x: rot @ x @ rot.conj().T
    b0_even = float(np.abs(conj(dec.b0) - dec.b0).max())
    parallel = float(np.abs(conj(dec.b[nu.index]) - dec.b[nu.index]).max())
    perp = max(
        float(np.abs(conj(dec.b[mu]) + dec.b[mu]).max())
        for mu in range(3)
        if mu != nu.index
    )
    return ParityDefects(
        nu=nu, b0_even=b0_even, parallel_even=parallel, perpendicular_odd=perp
    )


@dataclass(slots=True)
class SymmetryReport:
    """Everything the symmetry-check command emits for one cell."""

    b_vector: np.ndarray
    b_matrix: np.ndarray
    parity_defects: tuple[ParityDefects, ParityDefects, ParityDefects]
    t_residuals: tuple[float, float, float]

    def to_json(self) -> str:
        doc = {
            "b_vector": {
                a.value: [float(v.real), float(v.imag)]
                for a, v in zip(AXES, self.b_vector)
            },
            "b_matrix": {
                f"{am.value},{an.value}": [
                    float(self.b_matrix[m, n].real),
                    float(self.b_matrix[m, n].imag),
                ]
                for m, am in enumerate(AXES)
                for n, an in enumerate(AXES)
            },
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
            "t_residuals": {
                a.value: r for a, r in zip(AXES, self.t_residuals)
            },
        }
        return json.dumps(doc, indent=2)


def symmetry_report(
    dec: PropagatorDecomposition,
    ket: np.ndarray | None,
    m: int,
) -> SymmetryReport:
    """Assemble b coefficients, parity defects and T residuals in one pass.

    The three qubit preparations share the bath state |ket><ket|, or the
    maximally mixed one when `ket` is None. The bath Gram matrix is computed
    once and shared by the b coefficients and the three T splits.
    """
    b_vec, b_mat = b_coefficients(dec, ket)
    parities = tuple(rotation_parities(dec, nu, m) for nu in AXES)
    residuals = tuple(t_residual(gamma, ket, dec, (b_vec, b_mat)) for gamma in AXES)
    return SymmetryReport(
        b_vector=b_vec,
        b_matrix=b_mat,
        parity_defects=parities,
        t_residuals=residuals,
    )
