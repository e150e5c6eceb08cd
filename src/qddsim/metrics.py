"""Initial states and the distance norm between real and ideal evolution.

The qubit starts in |gamma><gamma|, the +1 eigenstate of sigma_gamma, for
each gamma in {x, y, z}. The bath starts in rho_B = R R^+ / k, the equal
mixture of the k unit columns of one D x k factor R: a pure product state
of single-spin eigenstates is its ket psi as one column (k = 1), and the
maximally mixed bath 1/D (the infinite-temperature state) is the identity
(k = D). The figure of merit is

    d^2 = (1/3) sum_gamma Tr[ Delta_gamma^2 ],
    Delta_gamma = Tr_bath( ideal rho(0) ideal+  -  real rho(0) real+ ),
    rho(0) = |gamma><gamma| x rho_B,

where the ideal evolution decouples the qubit completely (bath evolves under
h_bath alone, qubit under the net pulse rotation). Delta_gamma is Hermitian
and traceless, so d_gamma is its Frobenius norm.

The lab propagator is kron(P, 1) times the toggling one, and conjugation by
the net rotation P drops out of Tr[Delta^2]; so `frame_reduced_distance`
works from the toggling propagator u = sum_a sigma_a x B_a. Its ideal branch
is rho_S itself and its real branch the Gram sum over G[a, b] = Tr[B_a rho_B
B_b^+], one G for the three preparations:

    Delta_gamma = rho_S - sum_ab sigma_a rho_S sigma_b G[a, b].

The Gram matrix is G = Y Y^+ / k, Y_a = B_a R, and the Y_a are the Pauli
blocks of the 2k columns u (1 x R), which `qdd_distances` propagates: two
for the product bath, the full u for the maximally mixed one. Each Y_a is a
fixed combination of the four qubit quadrants of those columns, so Delta_gamma
is a fixed linear map of the Gram matrix of the quadrants' real and
imaginary parts. That real 8 x 8 Gram matrix is one product per duration,
with no blocks and no conjugated copy formed, and `frame_reduced_distance`
reduces the stack of durations of one `toggling` chain with one such
product and one map. `qdd_distances` splits its durations into chains of at
most _CHAIN_COLUMNS columns, all stretched from one shared unit profile
per cell; `qdd_distance` is its one-duration case.

`toggling` returns the columns as their R_z parity-sector pieces, and the
reduction takes them so: no full-size u is formed. On a bath state of
parity beta, the qubit-up row lies in piece beta and the qubit-down row in
piece 1 - beta; stacked as X_beta, they align the qubit halves, and the
Gram matrix is the sum over beta of the X_beta's, one product on one copy
of the pieces. For the identity factor a piece's columns are its own
sector's states, so in an X_beta the quadrants of opposite R_z character (00
and 11 feed the even B_0 and B_z) sit on different bath columns: their Gram
entries are exactly 0 in u, which commutes with R_z; `_SECTOR_REDUCTION` drops them.

The lab-frame evaluation of the definition above, with the dense rho_B and
rho(0) built from R, is the reference it is tested against, in
`tests/reference.py`.
"""

from __future__ import annotations

import enum
import functools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    _QUADRANTS_TO_BLOCKS,
    _SIGMA4,
    AXES,
    ROTATION_CHARACTERS,
    PauliAxis,
    check_factor,
    check_member,
)
from .model import HamiltonianParts
from .evolution import TogglingEvolver, evolver_for
from .rng import SplitMix64
from .sequence import SwitchingProfile, qdd_schedule, switching_profile


class BathKind(enum.Enum):
    PRODUCT = "product"
    MAXIMALLY_MIXED = "maximally_mixed"


def pauli_ket(axis: PauliAxis, sign: int = +1) -> np.ndarray:
    """Normalized eigenvector of sigma_axis with eigenvalue `sign`, the integer +1 or -1."""
    check_member(axis, PauliAxis)
    if isinstance(sign, bool) or not isinstance(sign, numbers.Integral) or sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if axis is PauliAxis.Z:
        return np.array([1.0, 0.0], dtype=complex) if sign > 0 else np.array([0.0, 1.0], dtype=complex)
    return np.array([1.0, sign if axis is PauliAxis.X else 1j * sign], dtype=complex) / np.sqrt(2)


def default_directions(m: int) -> list[tuple[PauliAxis, int]]:
    """Product-bath default: axes cycled x, y, z, ... with +1 signs."""
    return [(AXES[i % 3], +1) for i in range(m)]


def random_directions(seed: int, m: int) -> list[tuple[PauliAxis, int]]:
    """Seeded random per-spin axes and signs, for direction-choice robustness.

    Draws come from the portable splitmix64 stream of `seed`, two per spin in
    ascending site order: the axis is (x, y, z)[u % 3] for the first output
    u, and the sign is +1 if the top bit of the second output is clear, -1
    if it is set.
    """
    stream = SplitMix64(seed)
    # a tuple display evaluates left to right: the axis draw comes first
    return [(AXES[stream.next_u64() % 3], 1 - 2 * (stream.next_u64() >> 63)) for _ in range(m)]


def make_states(
    bath_kind: BathKind,
    m: int,
    directions: Sequence[tuple[PauliAxis, int]] | None = None,
) -> np.ndarray:
    """The bath state shared by the three qubit preparations, as its D x k factor R.

    The product bath is the Kronecker product of the single-spin eigenstates
    along `directions`, one column; the maximally mixed bath is the D x D
    identity.
    """
    check_member(bath_kind, BathKind)
    if bath_kind is BathKind.MAXIMALLY_MIXED:
        if directions is not None:
            raise ValueError("directions apply only to the product bath")
        return np.eye(2**m, dtype=complex)
    if directions is None:
        raise ValueError("product bath needs per-spin directions")
    if len(directions) != m:
        raise ValueError(f"expected {m} directions, got {len(directions)}")
    ket = np.ones((1, 1), dtype=complex)
    for axis, sign in directions:
        ket = np.kron(ket, pauli_ket(axis, sign).reshape(2, 1))
    return ket


def qubit_state(gamma: PauliAxis) -> np.ndarray:
    """The qubit preparation |gamma><gamma|, gamma the +1 eigenstate of sigma_gamma."""
    ket = pauli_ket(gamma, +1)
    return np.outer(ket, ket.conj())


_RHO_S = np.stack([qubit_state(gamma) for gamma in AXES])

# The blocks Y_a = B_a R are `_QUADRANTS_TO_BLOCKS` times the four qubit
# quadrants u_p of the columns u (1 x R).
# Tr[u_p u_q^+] from the real and imaginary parts x, y of the two quadrants:
# x_p.x_q + y_p.y_q + i (y_p.x_q - x_p.y_q)
_RE_IM_TO_COMPLEX = np.array([[1, -1j], [1j, 1]])

#: sum_ab sigma_a rho_gamma sigma_b G[a, b] for the three preparations, as one
#: linear map of the real Gram matrix of the quadrants' real and imaginary
#: parts (times k), rows (re/im, p), columns (re/im, q); stored as the float
#: view of its (64, 12) complex matrix, so that a real Gram maps in one product.
_REDUCTION = np.ascontiguousarray(
    np.einsum(
        "xy,ap,bq,aij,gjk,bkl->xpyqgil",
        _RE_IM_TO_COMPLEX,
        _QUADRANTS_TO_BLOCKS,
        _QUADRANTS_TO_BLOCKS.conj(),
        _SIGMA4,
        _RHO_S,
        _SIGMA4,
        optimize=True,
    ).reshape(64, 12)
).view(np.float64)

#: `_REDUCTION` without the Gram entries between quadrants of opposite R_z character
#: (that of the blocks each feeds), which vanish for the identity factor of two sectors.
_Z_SIGNS = ROTATION_CHARACTERS[PauliAxis.Z.index] @ np.abs(_QUADRANTS_TO_BLOCKS)
_SECTOR_REDUCTION = _REDUCTION * np.tile(_Z_SIGNS[:, None] == _Z_SIGNS, (2, 2)).reshape(64, 1)


#: Most columns u (1 x R) that one batched chain carries, 2k per duration: a
#: product-bath fit window, or 20 rungs of its halving ladder (two columns a
#: duration), is one chain, and the maximally mixed bath (2D columns) takes one
#: duration per chain from M = 4 bath spins on, where a wider chain only costs memory.
_CHAIN_COLUMNS = 40


def _durations_per_chain(k: int) -> int:
    """Durations one chain carries for a k-column bath factor (at least one)."""
    return max(1, _CHAIN_COLUMNS // (2 * k))


@dataclass(slots=True)
class DistanceResult:
    """d and its per-preparation components at one duration tau."""

    tau: float
    d: float
    d_gamma: tuple[float, float, float]


def frame_reduced_distance(
    r: np.ndarray,
    pieces: np.ndarray,
    taus: Sequence[float],
    factor: tuple[int, bool] | None = None,
) -> list[DistanceResult]:
    """d over the three qubit preparations at each duration of `taus`.

    `pieces` is what `TogglingEvolver.toggling` returns for the bath factor
    `r`: the (len(taus), n, m, cols) stack of the sector pieces of u (1 x R).
    One Gram matrix per duration, of the real and imaginary parts of the
    quadrants of the X_beta (the piece itself when n = 1), is formed in one
    product on one copy of the pieces, and `_REDUCTION` maps it to the three
    Delta_gamma; `_SECTOR_REDUCTION` for the identity factor of two sectors.
    `factor` is `check_factor(r, D)`, passed by a caller that has already checked `r`.
    """
    pieces = np.asarray(pieces, dtype=complex)
    if pieces.ndim != 4 or len(pieces) != len(taus) or pieces.shape[1] not in (1, 2):
        raise ValueError(
            f"need one stack of 1 or 2 sector pieces per tau, got {pieces.shape} for {len(taus)}"
        )
    batch, n, m, cols = pieces.shape
    k, identity = check_factor(r, n * m // 2) if factor is None else factor
    per_sector = n == 2 and identity
    if cols != (m if per_sector else 2 * k):
        raise ValueError(f"need the {2 * k} columns u (1 x R) of a {k}-column bath factor")
    half, width = m // 2, cols // 2
    # rows (re/im, p, t), each quadrant of the X_beta flattened over (beta, row,
    # column): its qubit-up rows (p = 0) from piece beta, its qubit-down ones
    # from piece 1 - beta
    f = pieces.view(np.float64).reshape(batch, n, 2, half, 2, width, 2)
    parts = np.empty((batch, 2, 2, 2, n, half, width))
    parts[:, :, 0] = f[:, :, 0].transpose(0, 5, 3, 1, 2, 4)
    parts[:, :, 1] = f[:, ::-1, 1].transpose(0, 5, 3, 1, 2, 4)
    parts = parts.reshape(batch, 8, -1)
    gram = parts @ parts.transpose(0, 2, 1)
    reduction = _SECTOR_REDUCTION if per_sector else _REDUCTION
    reduced = (gram.reshape(batch, 1, 64) @ reduction).view(complex).reshape(batch, 3, 4)
    deltas = _RHO_S.reshape(3, 4) - reduced / k
    squares = np.square(deltas.view(np.float64)).sum(axis=2)
    ds = np.sqrt(squares.sum(axis=1) / 3.0)
    return [
        DistanceResult(tau=tau, d=dist, d_gamma=tuple(d_gamma))
        for tau, dist, d_gamma in zip(
            np.asarray(taus, dtype=float).tolist(), ds.tolist(), np.sqrt(squares).tolist()
        )
    ]


@functools.lru_cache(maxsize=256, typed=True)
def _unit_profile(n_x: int, n_z: int) -> SwitchingProfile:
    """The unit-duration profile of a QDD cell, built once and shared read-only
    (typed, so that 2.0 is checked and rejected rather than found as 2)."""
    profile = switching_profile(qdd_schedule(n_x, n_z, 1.0))
    profile.breakpoints.flags.writeable = False
    profile.net_rotation.flags.writeable = False
    return profile


def qdd_distance(
    parts: HamiltonianParts,
    r: np.ndarray,
    n_x: int,
    n_z: int,
    tau: float,
    evolver: TogglingEvolver | None = None,
) -> DistanceResult:
    """d for one QDD cell at one duration: `qdd_distances` at [tau]."""
    return qdd_distances(parts, r, n_x, n_z, [tau], evolver)[0]


def qdd_distances(
    parts: HamiltonianParts,
    r: np.ndarray,
    n_x: int,
    n_z: int,
    taus: Sequence[float],
    evolver: TogglingEvolver | None = None,
) -> list[DistanceResult]:
    """d for one QDD cell at each duration in `taus`, via the toggling frame, on the
    bath factor `r`: the unit-duration schedule stretched to each tau, in batched
    chains of at most _CHAIN_COLUMNS columns (at least one duration each). `r` is
    checked and classified once, and every chain reads that `check_factor` result."""
    factor = check_factor(r, parts.bath_dim)
    per_chain = _durations_per_chain(factor[0])
    profile = _unit_profile(n_x, n_z)
    evolver = evolver_for(parts, evolver)
    results = []
    for start in range(0, len(taus), per_chain):
        chain = taus[start : start + per_chain]
        pieces = evolver.toggling(profile, r, chain, factor)
        results += frame_reduced_distance(r, pieces, chain, factor)
    return results


def series_csv(results: Sequence[DistanceResult]) -> str:
    """CSV rows `tau,d,dx,dy,dz`, scientific notation, 17 significant digits."""
    lines = ["tau,d,dx,dy,dz"]
    for r in results:
        fields = (r.tau, r.d, *r.d_gamma)
        lines.append(",".join(f"{x:.16e}" for x in fields))
    return "\n".join(lines) + "\n"
