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

A model whose H commutes with the global pi rotation R_z = sigma_z^{x(M+1)}
(every SU(2)-invariant one does) splits into the two parity sectors of R_z,
of D states each. This is read off H: no entry may join two basis states
of opposite parity. H then gets one D x D eigensystem per sector, W_z is
block-diagonal across the sectors, and W_x maps each sector onto the other,
since kron(sigma_x, 1) flips the parity. The chain keeps u as one D-row
piece per sector, and an X pulse moves each piece into the other sector,
so a segment costs 2 D^2 instead of 4 D^2 per column, and the full u of
the mixed bath a quarter of the flops. When H is also real, so are V and
the overlaps, and each product is one real GEMM on the float view of the
complex blocks, at half the flops again. A model without the symmetry is
the one-sector case of the same code.
`qdd_decomposition` returns u as its (4, D, D) stack of bath blocks, the form
the `symmetry` checks take. An evolver passed along with `parts` must have
been built for them (`evolver_for`).
`tests/reference.py` keeps the two products this is checked against: the
dense lab-frame one and the per-segment toggling one, with an eigensystem
per sign triple.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    HERMITICITY_RTOL,
    PauliAxis,
    check_factor,
    herm_eigensystem,
    herm_expm,
    is_identity_factor,
    parity_signs,
    pauli,
    pauli_blocks,
)
from .model import HamiltonianParts, segment_hamiltonian
from .sequence import SwitchingProfile, qdd_schedule, switching_profile

_SIGMA_X, _SIGMA_Z = pauli(PauliAxis.X), pauli(PauliAxis.Z)


class _Basis(NamedTuple):
    """The eigensystem of H and its pulse overlaps, stacked over the n parity sectors.

    Row s of `states` lists the basis states of sector s in ascending order
    (all of them when n = 1). The first half of a sector's states has the
    qubit up, and kron(sigma_x, 1) sends the two halves of a sector onto the
    swapped halves of its partner (sector 1 - s, or itself when n = 1).
    So `w_x[t]` carries a piece into sector t from its partner, and an X
    pulse maps the stack of pieces u to `w_x @ u[::-1]`.
    """

    states: np.ndarray  # (n, m) basis states
    bath_rows: np.ndarray  # (n, 2, m / 2): the bath index of each state, per qubit half
    w: np.ndarray  # (n, m) eigenvalues
    v: np.ndarray  # (n, m, m) eigenvectors
    w_x: np.ndarray  # (n, m, m): V_t^+ kron(sigma_x, 1) V_s into sector t from its partner s
    w_z: np.ndarray  # (n, m, m): V_s^+ kron(sigma_z, 1) V_s


def _parity_sectors(h: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sectors of R_z = sigma_z^{x(M+1)} that H keeps, with H's block on each.

    R_z is diagonal with entry (-1)^popcount(i), the `parity_signs`. H commutes
    with it when no entry of H joins two states of opposite parity, within
    HERMITICITY_RTOL max|H|; then the even and odd states are the two
    sectors. Otherwise the whole space is one sector, and its block is H itself.
    """
    odd = parity_signs(len(h).bit_length() - 1) < 0
    states = np.stack((np.flatnonzero(~odd), np.flatnonzero(odd)))
    if np.abs(h[np.ix_(*states)]).max() <= HERMITICITY_RTOL * np.abs(h).max():
        return states, [h[np.ix_(s, s)] for s in states]
    return np.arange(len(h))[None], [h]


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new leading axis; a lone array is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _real_matmul(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """w @ u for a real w and a complex u, as one real GEMM on the float view of u."""
    return (w @ np.ascontiguousarray(u).view(np.float64)).view(np.complex128)


class TogglingEvolver:
    """The eigensystem of one Hamiltonian and its two pulse overlaps, per parity sector.

    Reuse one instance across many (schedule, tau) cells of the same model;
    the basis (`_Basis`) is computed on first use.
    """

    def __init__(self, parts: HamiltonianParts):
        self.parts = parts

    @cached_property
    def _basis(self) -> _Basis:
        h = segment_hamiltonian(self.parts, (1, 1, 1))
        if not np.any(h.imag):
            h = h.real
        states, blocks = _parity_sectors(h)
        del h
        w, v = zip(*[herm_eigensystem(block) for block in blocks])
        del blocks
        v = _stack(v)
        half = v.shape[1] // 2
        # kron(sigma_x, 1) swaps the qubit halves of the partner's V rows, into
        # sector t; kron(sigma_z, 1) negates the lower half
        v_dag = v.conj().transpose(0, 2, 1)
        w_x = v_dag @ np.concatenate((v[::-1, half:], v[::-1, :half]), axis=1)
        w_z = v_dag @ np.concatenate((v[:, :half], -v[:, half:]), axis=1)
        bath_rows = states.reshape(len(v), 2, half) % self.parts.bath_dim
        return _Basis(states, bath_rows, _stack(w), v, w_x, w_z)

    def toggling(self, profile: SwitchingProfile, r: np.ndarray | None = None) -> np.ndarray:
        """Toggling-frame propagator u of a profile built by `switching_profile`.

        With a D x k bath factor `r`, only the 2D x 2k columns u (1 x R) are
        propagated and returned; without one, or with the identity, the full
        2D x 2D u.
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
        states, bath_rows, w, v, w_x, w_z = self._basis
        d = self.parts.bath_dim
        if r is not None:
            check_factor(r, d)
        full = r is None or is_identity_factor(r)
        n, m = states.shape
        matmul = _real_matmul if v.dtype == np.float64 else np.matmul
        # u is a stack of n pieces; piece s holds the rows of the sector it
        # occupies, starting in sector s as the rows V_s^+, on the columns of
        # the sector's own states, or as V_s^+ (1 x R)
        v_conj = v.conj()
        if full:
            v_dag = v_conj.transpose(0, 2, 1)
        else:
            # each qubit half of a sector's states meets the R rows of its bath states
            halves = v_conj.reshape(n, 2, m // 2, m).transpose(0, 1, 3, 2)
            v_dag = (halves @ r[bath_rows]).transpose(0, 2, 1, 3).reshape(n, m, -1)
        phases = np.exp(-1j * (profile.durations[:, None, None] * w))[..., None]
        u = phases[0] * v_dag
        x_pulses = (values[1:, 2] != values[:-1, 2]).tolist()  # only an X pulse flips f_z
        p_net = np.eye(2, dtype=complex)
        for j, x_pulse in enumerate(x_pulses, 1):
            # an X pulse moves every piece into the partner sector
            u = matmul(w_x, u[::-1]) if x_pulse else matmul(w_z, u)
            u *= phases[j]
            p_net = (_SIGMA_X if x_pulse else _SIGMA_Z) @ p_net
        u = matmul(v, u)
        # kron(P_net^+, 1), applied to the two qubit row halves of each piece; an
        # odd number of X pulses swaps the halves, which moves every piece once more
        u = (p_net.conj().T @ u.reshape(n, 2, -1)).reshape(u.shape)
        if sum(x_pulses) % 2:
            u = u[::-1]
        if n == 1:
            return u[0]
        # u commutes with R_z: the piece in sector s fills its rows (and columns)
        out = np.zeros((2 * d, 2 * d if full else 2 * r.shape[1]), dtype=complex)
        out[states[..., None], states[:, None] if full else np.arange(out.shape[1])] = u
        return out

    def bath_unitary(self, tau: float) -> np.ndarray:
        """exp(-i tau h_bath) on the bath space only."""
        return herm_expm(self.parts.h_bath, tau)


def evolver_for(parts: HamiltonianParts, evolver: TogglingEvolver | None = None) -> TogglingEvolver:
    """`evolver`, checked to have been built for `parts`, or a new one when None.

    Parts that are not the evolver's own object must equal them exactly, or
    the call raises ValueError rather than propagate another model.
    """
    if evolver is None:
        return TogglingEvolver(parts)
    if evolver.parts is not parts and not np.array_equal(evolver.parts.blocks, parts.blocks):
        raise ValueError("the evolver was built for other Hamiltonian parts")
    return evolver


def pauli_decompose(u: np.ndarray) -> np.ndarray:
    """The bath blocks (B_0, B_x, B_y, B_z) of a 2D x 2D operator u, as a (4, D, D) stack."""
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"operator must be square, 2D x 2D (qubit x bath), got shape {u.shape}")
    return pauli_blocks(u)


def qdd_decomposition(
    parts: HamiltonianParts,
    n_x: int,
    n_z: int,
    tau: float,
    evolver: TogglingEvolver | None = None,
) -> np.ndarray:
    """Bath blocks (B_0, B_x, B_y, B_z) of one QDD cell's toggling-frame propagator."""
    profile = switching_profile(qdd_schedule(n_x, n_z, tau))
    return pauli_decompose(evolver_for(parts, evolver).toggling(profile))
