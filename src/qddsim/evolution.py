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
(`SwitchingProfile.net_rotation`). With H = V diag(w) V^+ that is

    u = kron(P_net^+, 1) V D_L W ... W D_2 W D_1 V^+,   D_j = diag(e^{-i t_j w}),

where each W between two intervals is one of the pulse overlaps
W_x = V^+ kron(sigma_x, 1) V or W_z = V^+ kron(sigma_z, 1) V, as the
profile's pulse axis at that breakpoint says. One
eigensystem and two overlaps per Hamiltonian serve every cell and duration,
and a propagator of L segments costs L dense products.

The distance needs u only through u (1 x R), where the D x k bath factor R
gives rho_B = R R^+ / k, so `toggling(profile, r, taus)` starts the chain
from the 2k columns V^+ (1 x R) instead of V^+. The product bath (R = psi,
k = 1) makes each segment a (2D)^2 x 2 product, not a (2D)^3 one; the
identity factor of the maximally mixed bath (R = 1, k = D) starts from V^+
itself and gives the full u. `toggling` returns u (1 x R) as its parity
sector pieces (below), which `metrics.frame_reduced_distance` reduces as
they are, and so does `magnus.magnus_order_check`; only `qdd_decomposition`
places them into the full 2D x 2D u, through `TogglingEvolver._full`.

Only the phases depend on the duration: with the fractions c_j of a unit
schedule, t_j = tau c_j. So the chain carries a batch axis over the
durations `taus`: the 2k columns of each tau sit side by side, each
segment is one product on all of them, and then every column block takes
its own phases cos(t_j w) - i sin(t_j w), formed per segment in one reused
buffer. A single tau is the batch of one. OpenBLAS's GEMM kernels take
complex columns in groups of four (`GEMM_GROUP`) and round the columns left
over in another order, so a chain whose column count is no multiple of four
repeats its last duration: d(tau) is then the same, bit for bit, alone or
in a batch (with another BLAS, the same to rounding). A lone product-bath
duration (two columns) pays for the padded pair too, so the halving ladder
of `scaling` walks its rungs in full chains. The batch costs memory in
proportion to its columns, so `metrics.qdd_distances` caps it at its chain
budget.

A model whose H commutes with the global pi rotation R_z = sigma_z^{x(M+1)}
(every SU(2)-invariant one does) splits into the two parity sectors of R_z,
of D states each (read off its blocks: `linalg.rotation_defects` within
HERMITICITY_RTOL max|B|). H then gets one D x D eigensystem per sector, W_z is
block-diagonal across the sectors, and W_x maps each sector onto the other,
since kron(sigma_x, 1) flips the parity. The chain keeps u as one D-row
piece per sector, and an X pulse moves each piece into the other sector,
so a segment costs 2 D^2 instead of 4 D^2 per column, and the full u of
the mixed bath a quarter of the flops. u commutes with R_z, so the piece
that ends in sector s holds the rows of u (1 x R) on the states of s, and
for the identity factor their columns too: the pieces are u's diagonal
blocks. For even M, R_x = sigma_x^{x(M+1)} flips every bit, which reverses
the state order and swaps the two sectors. When H also commutes with R_x
(every SU(2)-invariant one does; read off the blocks in the same way),
so does u, and the piece in sector 1 is the
one in sector 0 with its rows and columns reversed. The identity factor's
chain then carries that one piece, through the sectors it visits, at half
the products. Both eigensystems are kept: R_x does not keep a product
ket, so the product bath still carries both pieces. When H is also real,
so are V and the overlaps, and each product is one real GEMM on the float
view of the complex blocks, at half the flops again. A model without the
symmetry is the one-sector case of the same code.

A QDD profile is palindromic: its durations read the same backwards (the
sin^2 instants of UDD are symmetric about tau/2), and so do its pulse axes.
Every model of `build_hamiltonian` is also invariant under time reversal,
Y H^* Y^+ = H with Y = sigma_y^{x(M+1)}, so a segment exponential A has
A^T = Y A Y, while a pulse Pi = kron(sigma_x or sigma_z, 1) is real,
symmetric and has Y Pi Y = -Pi. With F the lab-frame product of the first
h = floor(L/2) segments, X that of the first ceil(L/2) and Pi the pulse
after X, the remaining segments multiply to (-1)^(h-1) Y F^T Y, so

    U = (-1)^(h-1) Y F^T Y Pi X.

Y = i^(M+1) R_x R_z, so Y F^T Y is F^T with its state order reversed and
its parity signs applied: no product. For the identity factor of a model
with one sector (a complex chain of 2D x 2D products) `toggling` chains
only the first ceil(L/2) segments and closes with the products V X, V F
(for odd L, where F is the chain one segment earlier) and F^T (Y Pi X):
ceil(L/2) + 1 products for even L and ceil(L/2) + 2 for odd L, where the
full chain makes L (16 -> 9 at cell (3, 3)). It does so when `_basis` found
H time-reversible (within HERMITICITY_RTOL max|B|) and the profile is
palindromic (durations to a few ulps of tau) with L >= 4 segments; any other
profile, a model that breaks time reversal (a field), the sector chains and
every product-bath chain take the full chain. The product bath's columns
would gain nothing, and on the real R_x-orbit chain of the mixed bath the
half chain measured no gain at M = 6.
`qdd_decomposition` returns u as its (4, D, D) stack of bath blocks, the form
the `symmetry` checks take. An evolver passed along with `parts` must have
been built for them (`evolver_for`).
`tests/reference.py` keeps the two products this is checked against: the
dense lab-frame one and the per-segment toggling one, with an eigensystem
per sign triple.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import (
    HERMITICITY_RTOL,
    PauliAxis,
    check_durations,
    check_factor,
    expm_from_eigensystem,
    herm_eigensystem,
    parity_signs,
    pauli_blocks,
    rotate,
    rotation_defects,
)
from .model import HamiltonianParts, segment_hamiltonian
from .sequence import SwitchingProfile, qdd_schedule, switching_profile

#: Complex columns that OpenBLAS's GEMM kernels take as one group: a chain's
#: column count is padded to a multiple of it.
GEMM_GROUP = 4

#: Signs of the blocks (A_0, A_x, A_y, A_z) under time reversal Y A^* Y^+ on the
#: bath: H is invariant when A_0 keeps its sign and each A_mu flips it.
_REVERSAL_CHARACTERS = (1.0, -1.0, -1.0, -1.0)


class _Basis(NamedTuple):
    """The eigensystem of H and its pulse overlaps, stacked over the n parity sectors.

    Row s of `states` lists the basis states of sector s in ascending order
    (all of them when n = 1). The first half of a sector's states has the
    qubit up, and kron(sigma_x, 1) sends the two halves of a sector onto the
    swapped halves of its partner (sector 1 - s, or itself when n = 1).
    So `w_x[t]` carries a piece into sector t from its partner, and an X
    pulse maps the stack of pieces u to `w_x @ u[::-1]`. `orbit` says that
    R_x swaps the two sectors and H commutes with it; `reversible` that the
    model has one sector and H is invariant under time reversal.
    """

    states: np.ndarray  # (n, m) basis states
    w: np.ndarray  # (n, m) eigenvalues
    v: np.ndarray  # (n, m, m) eigenvectors
    w_x: np.ndarray  # (n, m, m): V_t^+ kron(sigma_x, 1) V_s into sector t from its partner s
    w_z: np.ndarray  # (n, m, m): V_s^+ kron(sigma_z, 1) V_s
    orbit: bool
    reversible: bool


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked on a new leading axis; a lone array is not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _real_matmul(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """w @ u for a real w and a complex u, as one real GEMM on the float view of u."""
    return (w @ np.ascontiguousarray(u).view(np.float64)).view(np.complex128)


def _palindromic(profile: SwitchingProfile) -> bool:
    """Whether the pulse axes read the same backwards and so do the durations, to
    rounding (a few ulps of tau: a QDD cell's sin^2 instants are symmetric to about one)."""
    w = profile.durations
    return profile.axes == profile.axes[::-1] and bool(
        np.abs(w - w[::-1]).max() <= 4 * np.finfo(float).eps * profile.tau
    )


class TogglingEvolver:
    """The eigensystem of one Hamiltonian and its two pulse overlaps, per parity sector.

    Reuse one instance across many (schedule, tau) cells of the same model;
    the basis (`_Basis`) is computed on first use.
    """

    def __init__(self, parts: HamiltonianParts):
        self.parts = parts

    @cached_property
    def _basis(self) -> _Basis:
        # H commutes with R_nu = sigma_nu^{x(M+1)} when every block keeps its character;
        # for even M, R_x flips every bit, reversing the state order and swapping the sectors
        blocks = self.parts.blocks
        tolerance = HERMITICITY_RTOL * np.abs(blocks).max()
        z_kept = rotation_defects(blocks, PauliAxis.Z).max() <= tolerance
        # R_x decides only an orbit, so its defects are computed only where one can be
        even = self.parts.m % 2 == 0
        orbit = bool(z_kept and even and rotation_defects(blocks, PauliAxis.X).max() <= tolerance)
        h = segment_hamiltonian(self.parts, (1, 1, 1))
        if not np.any(h.imag):
            h = h.real
        if z_kept:
            # R_z is diagonal with entry (-1)^popcount(i): the even and odd states
            odd = parity_signs(self.parts.m + 1) < 0
            states = np.stack((np.flatnonzero(~odd), np.flatnonzero(odd)))
            sectors = [h[np.ix_(s, s)] for s in states]
            reversible = False
        else:
            states, sectors = np.arange(len(h))[None], [h]
            # the half chain of one sector needs Y H^* Y^+ = H, Y = sigma_y^{x(M+1)};
            # checked block by block, so that the check holds one block's temporaries
            reversible = all(
                np.abs(rotate(block.conj(), PauliAxis.Y) - sign * block).max() <= tolerance
                for sign, block in zip(_REVERSAL_CHARACTERS, blocks)
            )
        del h
        w, v = zip(*[herm_eigensystem(sector) for sector in sectors])
        del sectors
        v = _stack(v)
        half = v.shape[1] // 2
        # kron(sigma_x, 1) swaps the qubit halves of the partner's V rows, into
        # sector t; kron(sigma_z, 1) negates the lower half
        v_dag = v.conj().transpose(0, 2, 1)
        w_x = v_dag @ np.concatenate((v[::-1, half:], v[::-1, :half]), axis=1)
        w_z = v_dag @ np.concatenate((v[:, :half], -v[:, half:]), axis=1)
        return _Basis(states, _stack(w), v, w_x, w_z, orbit, reversible)

    def toggling(
        self,
        profile: SwitchingProfile,
        r: np.ndarray,
        taus: Sequence[float],
        factor: tuple[int, bool] | None = None,
    ) -> np.ndarray:
        """The sector pieces of u (1 x R), the columns of the toggling propagator of
        a `switching_profile` for the D x k bath factor `r`, at each total
        duration in `taus`.

        The profile is stretched to every duration, all of them in one chain,
        and the n pieces are returned as one (len(taus), n, m, cols) stack, in
        state order. Piece s holds the rows of u (1 x R) on the states of
        sector s, with cols = 2k; for the identity factor its columns are
        the states of sector s too (cols = m). A model with one sector has
        the one piece u (1 x R) itself, m = 2D. `factor` is
        `check_factor(r, D)`, passed by a caller that has already checked `r`.
        """
        taus = check_durations(taus, "total durations tau must be positive and finite", ndim=1)
        states, w, v, w_x, w_z, orbit, reversible = self._basis
        _, full = check_factor(r, self.parts.bath_dim) if factor is None else factor
        n, m = states.shape
        matmul = _real_matmul if v.dtype == np.float64 else np.matmul
        # the chain carries the pieces in the sectors `held`: both, or for the
        # identity factor of an R_x orbit the one in sector 0, since R_x maps
        # it onto the other. Piece s starts in sector s as the rows V_s^+, on
        # the columns of the sector's own states, or as V_s^+ (1 x R)
        carried = 1 if full and orbit else n
        held = slice(0, carried)
        v_conj = v[held].conj()
        if full:
            v_dag = v_conj.transpose(0, 2, 1)
        else:
            # each qubit half of a sector's states meets the R rows of its bath states
            halves = v_conj.reshape(n, 2, m // 2, m).transpose(0, 1, 3, 2)
            bath_rows = states.reshape(n, 2, m // 2) % self.parts.bath_dim
            v_dag = (halves @ r[bath_rows]).transpose(0, 2, 1, 3).reshape(n, m, -1)
        cols = v_dag.shape[-1]
        # row b of `times` holds the segment durations of the b-th propagator,
        # whose columns follow those of the (b - 1)-th
        times = np.multiply.outer(taus / profile.tau, profile.durations)
        batch = len(times)
        if batch * cols % GEMM_GROUP:
            # no leftover GEMM columns, so a duration rounds alike alone or batched
            times = np.concatenate((times, times[-1:]))
        # exp(-i t w) = cos(-t w) + i sin(-t w) of one segment, for every duration
        minus_times = -times
        angles = np.empty((carried, m, len(times)))
        phases = np.empty((carried, m, len(times)), dtype=complex)

        def segment_phases(j: int) -> np.ndarray:
            np.multiply(w[held, :, None], minus_times[:, j], out=angles)
            np.cos(angles, out=phases.real)
            np.sin(angles, out=phases.imag)
            return phases[..., None]

        u = (segment_phases(0) * v_dag[:, :, None]).reshape(carried, m, -1)
        del v_conj, v_dag
        x_pulses = [axis is PauliAxis.X for axis in profile.axes]
        # the identity factor of one time-reversible sector chains only the first
        # L - h segments of a palindromic profile of L >= 4 (module docstring)
        segments = len(x_pulses) + 1
        half = segments // 2
        halved = full and reversible and half >= 2 and _palindromic(profile)
        crossed = segments - 1 - half  # the breakpoints inside the first L - h segments
        for j, x_pulse in enumerate(x_pulses[:crossed] if halved else x_pulses, 1):
            if halved and j == half:
                f = u  # odd L: F, the first h segments, before the middle one
            if x_pulse:
                # every piece moves into the partner sector, n - 1 - s
                held = slice(n - held.stop, n - held.start)
                u = matmul(w_x[held], u[::-1])
            else:
                u = matmul(w_z[held], u)
            per_tau = u.reshape(carried, m, -1, cols)
            per_tau *= segment_phases(j)
        if halved:
            # U = (-1)^(h-1) R_x R_z F^T (R_z R_x Pi X), since Y = i^(M+1) R_x R_z:
            # R_x reverses the state order and R_z is `parity`. The lab-frame X and F
            # are held on the axes (row, duration, column); each step frees what
            # it has used, so no more than three propagators are alive at once
            x = matmul(v[0], u[0]).reshape(m, -1, m)
            del u, per_tau
            f = matmul(v[0], f[0]).reshape(m, -1, m) if segments % 2 else x
            parity = parity_signs(m.bit_length() - 1)
            reverse = np.arange(m)[::-1]
            if profile.axes[crossed] is PauliAxis.X:  # Pi swaps the qubit halves
                z, signs = x[reverse ^ (m // 2)], parity
            else:  # Pi negates the qubit-down half
                z, signs = x[reverse], -parity * np.repeat([1.0, -1.0], m // 2)
            del x
            z *= signs[:, None, None]
            u = np.matmul(f.transpose(1, 2, 0), z.transpose(1, 0, 2))
            del f, z
            u *= (-1) ** (half - 1) * parity[:, None]
            u = u[:, ::-1].transpose(1, 0, 2)[None]
        else:
            u = matmul(v[held], u)
        # kron(P_net^+, 1), applied to the two qubit row halves of each piece; an
        # odd number of X pulses swaps the halves, which moves every piece once
        # more, back to the sector it started in (u commutes with R_z)
        p_net_dag = profile.net_rotation.conj().T
        u = (p_net_dag @ u.reshape(carried, 2, -1)).reshape(carried, m, -1, cols)[:, :, :batch]
        if sum(x_pulses) % 2:
            u = u[::-1]
        if carried < n:
            # u commutes with R_x, the reversal of the state order
            u = np.stack((u[0], u[0, ::-1, :, ::-1]))
        return u.transpose(2, 0, 1, 3)

    def _full(self, profile: SwitchingProfile) -> np.ndarray:
        """The full 2D x 2D toggling propagator of `profile` at its own duration:
        each piece of the identity factor placed on its sector's rows and columns."""
        pieces = self.toggling(profile, np.eye(self.parts.bath_dim), [profile.tau])[0]
        states = self._basis.states
        if len(states) == 1:
            return pieces[0]
        u = np.zeros((2 * self.parts.bath_dim,) * 2, dtype=complex)
        u[states[:, :, None], states[:, None]] = pieces
        return u

    def bath_unitary(self, tau: float) -> np.ndarray:
        """exp(-i tau h_bath) on the bath space only."""
        return expm_from_eigensystem(*herm_eigensystem(self.parts.h_bath), tau)


def evolver_for(parts: HamiltonianParts, evolver: TogglingEvolver | None = None) -> TogglingEvolver:
    """`evolver`, checked to have been built for `parts`, or a new one when None.

    Parts that are not the evolver's own object must equal them exactly, or
    the call raises ValueError rather than propagate another model.
    """
    if evolver is None:
        return TogglingEvolver(parts)
    if evolver.parts is not parts and evolver.parts != parts:
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
    return pauli_decompose(evolver_for(parts, evolver)._full(profile))
