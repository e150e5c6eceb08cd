"""Central-spin and spin-chain Hamiltonians with seeded random couplings.

A model is one qubit (site 0) coupled to M bath spins (sites 1..M). Bath
spins couple pairwise through 3x3 matrices J0[i, j] and to the qubit through
3x3 matrices J1[i]:

    H = sum_{i<j} sigma^(i) . J0[i,j] . sigma^(j)
      + sum_i    sigma^(0) . J1[i]   . sigma^(i)

Two symmetry classes are supported. In the anisotropic class every matrix
entry is an independent uniform draw from [-1, 1]; the model then has no
continuous symmetry. In the isotropic class each matrix is a scalar multiple
of the identity (J0[i,j] = alpha*lam*j0*1, J1[i] = lam*j1*1 with scalars j0,
j1 in [-1, 1]), which makes H invariant under global spin rotations.

Couplings are fixed once from a 64-bit seed and are deterministic across
platforms: draws come from a splitmix64 stream, J0 pairs first in
lexicographic (i, j) order with row-major entries, then J1 in ascending i.
Pairs or sites excluded by the topology are zero and consume no draws.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .linalg import AXES, embed, from_pauli_blocks, pauli
from .rng import SplitMix64


class Topology(enum.Enum):
    """Which couplings exist: all-to-all around the qubit, or a linear chain."""

    CENTRAL_SPIN = "central_spin"
    CHAIN = "chain"


class SymmetryClass(enum.Enum):
    ANISOTROPIC = "anisotropic"
    ISOTROPIC = "isotropic"


def coupled_pairs(m: int, topology: Topology) -> list[tuple[int, int]]:
    """Bath-spin pairs (i, j), 1-based with i < j, that carry a J0 matrix."""
    if topology is Topology.CHAIN:
        return [(i, i + 1) for i in range(1, m)]
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def coupled_sites(m: int, topology: Topology) -> list[int]:
    """Bath sites, 1-based, that carry a J1 matrix to the qubit."""
    if topology is Topology.CHAIN:
        return [1]
    return list(range(1, m + 1))


@dataclass
class CouplingSet:
    """One frozen random realization of the model couplings.

    `j0` maps a 1-based bath pair (i, j), i < j, to its 3x3 matrix; `j1`
    maps a 1-based bath site to its 3x3 qubit-coupling matrix. Pairs or
    sites absent from the maps are zero (topology mask). Instances are
    treated as immutable after construction.
    """

    m: int
    topology: Topology
    symmetry_class: SymmetryClass
    alpha: float
    lam: float
    seed: int
    j0: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    j1: dict[int, np.ndarray] = field(default_factory=dict)

    def to_json(self) -> str:
        """Serialize to a JSON document that round-trips bit-exactly."""
        doc = {
            "M": self.m,
            "topology": self.topology.value,
            "symmetry_class": self.symmetry_class.value,
            "alpha": self.alpha,
            "lambda": self.lam,
            "seed": self.seed,
            "J0": [
                {"i": i, "j": j, "matrix": self.j0[(i, j)].tolist()}
                for (i, j) in sorted(self.j0)
            ],
            "J1": [{"i": i, "matrix": self.j1[i].tolist()} for i in sorted(self.j1)],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CouplingSet":
        doc = json.loads(text)
        return cls(
            m=int(doc["M"]),
            topology=Topology(doc["topology"]),
            symmetry_class=SymmetryClass(doc["symmetry_class"]),
            alpha=float(doc["alpha"]),
            lam=float(doc["lambda"]),
            seed=int(doc["seed"]),
            j0={
                (int(e["i"]), int(e["j"])): np.array(e["matrix"], dtype=float)
                for e in doc["J0"]
            },
            j1={int(e["i"]): np.array(e["matrix"], dtype=float) for e in doc["J1"]},
        )


def random_couplings(
    seed: int,
    m: int,
    symmetry_class: SymmetryClass = SymmetryClass.ANISOTROPIC,
    topology: Topology = Topology.CENTRAL_SPIN,
    alpha: float = 1.0,
    lam: float = 1.0,
) -> CouplingSet:
    """Draw a coupling realization; a fixed seed gives bit-identical output."""
    if m < 1:
        raise ValueError("need at least one bath spin (m >= 1)")
    stream = SplitMix64(seed)

    def draw_matrix(scale: float) -> np.ndarray:
        if symmetry_class is SymmetryClass.ISOTROPIC:
            return scale * stream.uniform_symmetric() * np.eye(3)
        return np.array(
            [[stream.uniform_symmetric() for _ in range(3)] for _ in range(3)]
        )

    j0 = {pair: draw_matrix(alpha * lam) for pair in coupled_pairs(m, topology)}
    j1 = {site: draw_matrix(lam) for site in coupled_sites(m, topology)}
    return CouplingSet(
        m=m,
        topology=topology,
        symmetry_class=symmetry_class,
        alpha=alpha,
        lam=lam,
        seed=seed,
        j0=j0,
        j1=j1,
    )


@dataclass
class HamiltonianParts:
    """The model Hamiltonian split into bath-only and qubit-coupling blocks.

    `h_bath` is the intra-bath Hamiltonian on the D = 2^m bath space and
    `a_ops` the three bath operators multiplying the qubit Paulis. The full
    Hamiltonian on the 2D-dimensional space is not stored; it is
    `segment_hamiltonian(parts, (1, 1, 1))`. Immutable after construction.
    """

    m: int
    h_bath: np.ndarray
    a_ops: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def bath_dim(self) -> int:
        return 2**self.m


def segment_hamiltonian(parts: HamiltonianParts, f: Sequence[float]) -> np.ndarray:
    """kron(1, h_bath) + sum_mu f[mu] kron(sigma_mu, a_ops[mu]).

    With the sign triple of a toggling-frame interval this is that segment's
    generator; f = (1, 1, 1) gives the full Hamiltonian.
    """
    return from_pauli_blocks(
        np.stack((parts.h_bath, *(f_mu * a for f_mu, a in zip(f, parts.a_ops))))
    )


def _pauli_combination(coefficients: np.ndarray) -> np.ndarray:
    """sum_l c[l] sigma_l as one 2x2 matrix."""
    return sum(c * pauli(axis) for c, axis in zip(coefficients, AXES))


def build_hamiltonian(couplings: CouplingSet) -> HamiltonianParts:
    """Assemble the bath Hamiltonian and the qubit-coupling operators.

    Each bond sigma^(i) . J . sigma^(j) is summed as three Kronecker
    products sigma_k^(i) x (sum_l J[k, l] sigma_l)^(j) of local factors.
    """
    m = couplings.m
    dim = 2**m
    h_bath = np.zeros((dim, dim), dtype=complex)
    for (i, j), mat in sorted(couplings.j0.items()):
        for k in range(3):
            # sites i-1 and j-1 of the bath: sigma_k on the left block of
            # j-1 sites, the partner first on the remaining m-j+1 sites
            left = embed(pauli(AXES[k]), i - 1, j - 1)
            h_bath += np.kron(left, embed(_pauli_combination(mat[k]), 0, m - j + 1))

    a_ops = []
    for mu in range(3):
        a_mu = np.zeros((dim, dim), dtype=complex)
        for i, mat in sorted(couplings.j1.items()):
            a_mu += embed(_pauli_combination(mat[mu]), i - 1, m)
        a_ops.append(a_mu)
    return HamiltonianParts(m=m, h_bath=h_bath, a_ops=tuple(a_ops))


def su2_defect(parts: HamiltonianParts) -> float:
    """How far the full Hamiltonian is from global spin-rotation invariance.

    Returns max over nu of max|[H, S_nu]| with S_nu the total spin component
    summed over the qubit and all bath sites. Zero (to rounding) for the
    isotropic class, order one for a generic anisotropic draw.
    """
    n_sites = parts.m + 1
    h = segment_hamiltonian(parts, (1, 1, 1))
    worst = 0.0
    for axis in AXES:
        total_spin = sum(embed(pauli(axis), s, n_sites) for s in range(n_sites))
        comm = h @ total_spin - total_spin @ h
        worst = max(worst, float(np.abs(comm).max()))
    return worst
