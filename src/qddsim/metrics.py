"""Initial states and the distance norm between real and ideal evolution.

The qubit starts in |gamma><gamma|, the +1 eigenstate of sigma_gamma, for
each gamma in {x, y, z}. The bath starts either in a pure product state of
single-spin eigenstates or maximally mixed (1/D, the infinite-temperature
state). The figure of merit is

    d^2 = (1/3) sum_gamma Tr[ Delta_gamma^2 ],
    Delta_gamma = Tr_bath( ideal rho0 ideal+  -  real rho0 real+ ),

where the ideal evolution decouples the qubit completely (bath evolves under
h_bath alone, qubit under the net pulse rotation). Delta_gamma is Hermitian
and traceless, so d_gamma is its Frobenius norm.

The lab propagator is kron(P, 1) times the toggling one, and conjugation by
the net rotation P drops out of Tr[Delta^2]; so `frame_reduced_distance`
works from the toggling propagator u = sum_a sigma_a x B_a. Its ideal branch
is rho_S itself and its real branch the Gram sum over G[a, b] = Tr[B_a rho_B
B_b^+], one G for the three preparations:

    Delta_gamma = rho_S - sum_ab sigma_a rho_S sigma_b G[a, b].

With rho_B = R R^+ the Gram matrix is G = Y Y^+, Y_a = B_a R, and the Y_a
are the Pauli blocks of u (1 x R). A pure bath (R = its ket) therefore
needs only the two columns u (1 x psi), which `qdd_distance` propagates;
the maximally mixed bath (R = 1/sqrt(D)) needs the full u.

The lab-frame evaluation of the definition above is the reference it is
tested against, in `tests/reference.py`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import AXES, PauliAxis, factor_gram, gram_reduced_state, pauli_blocks
from .model import HamiltonianParts
from .evolution import TogglingEvolver, bath_factor_gram
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
    if axis is PauliAxis.X:
        return np.array([1.0, sign], dtype=complex) / np.sqrt(2)
    return np.array([1.0, 1j * sign], dtype=complex) / np.sqrt(2)


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


@dataclass
class InitialState:
    """Product initial state rho_S x rho_B of qubit and bath.

    `ket` is the bath ket psi of a pure bath, rho_B = |psi><psi|. Without
    one, the bath must be maximally mixed, rho_B = 1/D.
    """

    gamma: PauliAxis
    rho_s: np.ndarray
    rho_b: np.ndarray
    ket: np.ndarray | None = None

    def __post_init__(self):
        # The distance reads the bath through `ket` alone, so rho_b must agree
        # with it. For a unit-trace density matrix, an eigenvector psi with
        # eigenvalue 1 makes it |psi><psi|; checked without a D x D temporary.
        dim = self.rho_b.shape[0]
        if self.ket is None:
            agrees = (
                np.abs(self.rho_b.diagonal() - 1 / dim).max() <= 1e-12
                and np.count_nonzero(self.rho_b) == dim
            )
        else:
            agrees = (
                self.ket.shape == (dim,)
                and abs(np.trace(self.rho_b) - 1) <= 1e-12
                and np.abs(self.rho_b @ self.ket - self.ket).max() <= 1e-12
            )
        if not agrees:
            raise ValueError("rho_b must be |ket><ket|, or 1/D when no ket is given")

    @property
    def rho0(self) -> np.ndarray:
        return np.kron(self.rho_s, self.rho_b)


def make_states(
    bath_kind: BathKind,
    m: int,
    directions: Sequence[tuple[PauliAxis, int]] | None = None,
) -> tuple[InitialState, InitialState, InitialState]:
    """The three qubit preparations gamma = x, y, z over one shared bath state.

    The product bath is the Kronecker product of the single-spin eigenstates
    along `directions`; the maximally mixed bath is 1/D.
    """
    if bath_kind is BathKind.MAXIMALLY_MIXED:
        if directions is not None:
            raise ValueError("directions apply only to the product bath")
        ket, rho_b = None, np.eye(2**m, dtype=complex) / 2**m
    else:
        if directions is None:
            raise ValueError("product bath needs per-spin directions")
        if len(directions) != m:
            raise ValueError(f"expected {m} directions, got {len(directions)}")
        ket = np.ones(1, dtype=complex)
        for axis, sign in directions:
            ket = np.kron(ket, pauli_ket(axis, sign))
        rho_b = np.outer(ket, ket.conj())
    states = []
    for gamma in AXES:
        s_ket = pauli_ket(gamma, +1)
        states.append(
            InitialState(gamma=gamma, rho_s=np.outer(s_ket, s_ket.conj()), rho_b=rho_b, ket=ket)
        )
    return tuple(states)


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


def frame_reduced_distance(
    states: Sequence[InitialState],
    u_tog: np.ndarray,
    tau: float = 0.0,
) -> DistanceResult:
    """d over the three qubit preparations, from the toggling propagator's Gram matrix.

    `u_tog` is the full 2D x 2D propagator u, or for a pure bath its two
    columns u (1 x psi) as `TogglingEvolver.toggling` returns them given
    the states' ket.
    """
    _check_states(states)
    blocks = pauli_blocks(u_tog)
    if u_tog.shape[1] == u_tog.shape[0]:
        gram = bath_factor_gram(blocks, states[0].ket)
    elif states[0].ket is not None and blocks.shape[-1] == 1:
        gram = factor_gram(blocks)  # the blocks are already the Y_a = B_a psi
    else:
        raise ValueError("u_tog must be 2D x 2D, or 2D x 2 for a pure bath")
    deltas = [st.rho_s - gram_reduced_state(st.rho_s, gram) for st in states]
    return _distance_from_deltas(tau, deltas)


def _check_states(states: Sequence[InitialState]) -> None:
    if len(states) != 3 or tuple(st.gamma for st in states) != AXES:
        raise ValueError("need the three preparations in (x, y, z) order")
    if not (states[0].rho_b is states[1].rho_b is states[2].rho_b):
        if not all(np.array_equal(states[0].rho_b, st.rho_b) for st in states[1:]):
            raise ValueError("the three preparations must share one bath state")


def qdd_distance(
    parts: HamiltonianParts,
    states: Sequence[InitialState],
    n_x: int,
    n_z: int,
    tau: float,
    evolver: TogglingEvolver | None = None,
) -> DistanceResult:
    """d for one QDD cell at one duration, via the toggling frame."""
    ev = evolver if evolver is not None else TogglingEvolver(parts)
    profile = switching_profile(qdd_schedule(n_x, n_z, tau))
    return frame_reduced_distance(states, ev.toggling(profile, states[0].ket), tau=tau)


def series_csv(results: Sequence[DistanceResult]) -> str:
    """CSV rows `tau,d,dx,dy,dz`, scientific notation, 17 significant digits."""
    lines = ["tau,d,dx,dy,dz"]
    for r in results:
        fields = (r.tau, r.d, *r.d_gamma)
        lines.append(",".join(f"{x:.16e}" for x in fields))
    return "\n".join(lines) + "\n"
