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

The Gram matrix is G = Y Y^+ / k, Y_a = B_a R (`factor_gram`), and the
Y_a are the Pauli blocks of the 2k columns u (1 x R), which `qdd_distance`
propagates: two for the product bath, the full u for the maximally mixed
one.

The lab-frame evaluation of the definition above, with the dense rho_B and
rho(0) built from R, is the reference it is tested against, in
`tests/reference.py`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import AXES, PauliAxis, check_factor, factor_gram, gram_reduced_state, pauli_blocks
from .model import HamiltonianParts
from .evolution import TogglingEvolver, evolver_for
from .rng import SplitMix64
from .sequence import qdd_schedule, switching_profile


class BathKind(enum.Enum):
    PRODUCT = "product"
    MAXIMALLY_MIXED = "maximally_mixed"


def pauli_ket(axis: PauliAxis, sign: int = +1) -> np.ndarray:
    """Normalized eigenvector of sigma_axis with eigenvalue `sign`."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if axis is PauliAxis.Z:
        return np.array([1.0, 0.0], dtype=complex) if sign > 0 else np.array([0.0, 1.0], dtype=complex)
    if axis not in (PauliAxis.X, PauliAxis.Y):
        raise ValueError(f"axis must be a PauliAxis, got {axis!r}")
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


_RHO_S = tuple(map(qubit_state, AXES))


@dataclass(slots=True)
class DistanceResult:
    """d and its per-preparation components at one duration tau."""

    tau: float
    d: float
    d_gamma: tuple[float, float, float]


def _distance_from_deltas(tau, deltas) -> DistanceResult:
    d_gamma = tuple(
        float(np.sqrt(max(np.trace(dg @ dg).real, 0.0))) for dg in deltas
    )
    d = float(np.sqrt(sum(x * x for x in d_gamma) / 3.0))
    return DistanceResult(tau=float(tau), d=d, d_gamma=d_gamma)


def frame_reduced_distance(r: np.ndarray, u_tog: np.ndarray, tau: float = 0.0) -> DistanceResult:
    """d over the three qubit preparations, from the toggling propagator's Gram matrix.

    `u_tog` is what `TogglingEvolver.toggling` returns for the bath factor
    `r`: the 2D x 2k columns u (1 x R).
    """
    k = check_factor(r, u_tog.shape[0] // 2)
    if u_tog.shape[1] != 2 * k:
        raise ValueError(f"need the {2 * k} columns u (1 x R) of a {k}-column bath factor")
    gram = factor_gram(pauli_blocks(u_tog))
    deltas = [rho_s - gram_reduced_state(rho_s, gram) for rho_s in _RHO_S]
    return _distance_from_deltas(tau, deltas)


def qdd_distance(
    parts: HamiltonianParts,
    r: np.ndarray,
    n_x: int,
    n_z: int,
    tau: float,
    evolver: TogglingEvolver | None = None,
) -> DistanceResult:
    """d for one QDD cell at one duration, via the toggling frame, on the bath factor `r`."""
    profile = switching_profile(qdd_schedule(n_x, n_z, tau))
    return frame_reduced_distance(r, evolver_for(parts, evolver).toggling(profile, r), tau=tau)


def series_csv(results: Sequence[DistanceResult]) -> str:
    """CSV rows `tau,d,dx,dy,dz`, scientific notation, 17 significant digits."""
    lines = ["tau,d,dx,dy,dz"]
    for r in results:
        fields = (r.tau, r.d, *r.d_gamma)
        lines.append(",".join(f"{x:.16e}" for x in fields))
    return "\n".join(lines) + "\n"
