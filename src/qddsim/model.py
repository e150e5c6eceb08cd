"""Central-spin and spin-chain Hamiltonians with seeded random couplings.

A model is one qubit (site 0) coupled to M bath spins (sites 1..M). Bath
spins couple pairwise through 3x3 matrices J0[i, j] and to the qubit through
3x3 matrices J1[i]:

    H = sum_{i<j} sigma^(i) . J0[i,j] . sigma^(j)
      + sum_i    sigma^(0) . J1[i]   . sigma^(i)

Two symmetry classes are supported, both with the bath couplings scaled by
alpha*lam and the qubit couplings by lam. In the anisotropic class every
matrix entry is an independent uniform draw from [-1, 1] times that scale;
the model then has no continuous symmetry. In the isotropic class each
matrix is a scalar multiple of the identity (J0[i,j] = alpha*lam*j0*1,
J1[i] = lam*j1*1 with scalars j0, j1 in [-1, 1]), which makes H invariant
under global spin rotations.

`build_hamiltonian` stores H in its Pauli-block form H = sum_a sigma_a x A_a
on the qubit, as the read-only (4, D, D) stack (A_0, A_x, A_y, A_z) =
(h_bath, a_x, a_y, a_z) of `HamiltonianParts.blocks`. Under a global bath pi
rotation about nu, SU(2) invariance makes A_0 and A_nu even and the other
two A_mu odd; the propagator's blocks inherit these parities, which is the
doubling argument of `symmetry`.

Couplings are fixed once from a 64-bit seed and are deterministic across
platforms: draws come from a splitmix64 stream, J0 pairs first in
lexicographic (i, j) order with row-major entries, then J1 in ascending i.
Pairs or sites excluded by the topology are zero and consume no draws.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .linalg import (
    AXES,
    _array_aware_eq,
    check_count,
    check_member,
    embed,
    from_pauli_blocks,
    pauli,
)
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
    treated as immutable after construction, which checks every field.
    """

    m: int
    topology: Topology
    symmetry_class: SymmetryClass
    alpha: float
    lam: float
    seed: int
    j0: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    j1: dict[int, np.ndarray] = field(default_factory=dict)

    __eq__ = _array_aware_eq

    def __post_init__(self):
        check_member(self.symmetry_class, SymmetryClass)
        check_member(self.topology, Topology)
        check_count(self.m, 1, f"need at least one bath spin (m >= 1), got {self.m!r}")
        SplitMix64(self.seed)  # checks the seed
        if not np.isfinite([self.alpha, self.lam]).all():
            raise ValueError(f"alpha and lam must be finite, got {self.alpha} and {self.lam}")
        for keys, allowed in (
            (self.j0, coupled_pairs(self.m, self.topology)),
            (self.j1, coupled_sites(self.m, self.topology)),
        ):
            if not set(keys) <= set(allowed):
                raise ValueError(
                    f"couplings on {sorted(set(keys) - set(allowed))}, which a "
                    f"{self.topology.value} of {self.m} bath spins does not couple"
                )
        isotropic = self.symmetry_class is SymmetryClass.ISOTROPIC
        for mat in (*self.j0.values(), *self.j1.values()):
            if np.shape(mat) != (3, 3) or not np.isfinite(mat).all():
                raise ValueError(f"coupling matrices must be finite and 3x3, got {mat!r}")
            if isotropic and not np.array_equal(mat, mat[0][0] * np.eye(3)):
                raise ValueError(f"isotropic couplings are multiples of the identity, got {mat!r}")

    def to_json(self) -> str:
        """Serialize to a JSON document that round-trips bit-exactly."""
        doc = {
            "M": int(self.m),
            "topology": self.topology.value,
            "symmetry_class": self.symmetry_class.value,
            "alpha": self.alpha,
            "lambda": self.lam,
            "seed": int(self.seed),
            "J0": [
                {"i": i, "j": j, "matrix": self.j0[(i, j)].tolist()}
                for (i, j) in sorted(self.j0)
            ],
            "J1": [{"i": i, "matrix": self.j1[i].tolist()} for i in sorted(self.j1)],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CouplingSet":
        """Read a `to_json` document back. A key or entry that is missing, unknown or
        repeated, and a value of the wrong JSON type, is a ValueError that names it: M,
        seed and the sites are integers; alpha, lambda and matrix entries are numbers."""
        doc = _json_fields(json.loads(text), _DOC_KEYS, "a coupling file")
        couplings = {}
        for name, sites in (("J0", ("i", "j")), ("J1", ("i",))):
            if not isinstance(doc[name], list):
                raise ValueError(f"{name} must be a list of entries, got {doc[name]!r}")
            table = couplings[name] = {}
            for e in doc[name]:
                _json_fields(e, {*sites, "matrix"}, f"a {name} entry")
                key = tuple(_json_number(e[s], f"{name} site {s!r}", int) for s in sites)
                if key in table:
                    raise ValueError(f"{name} has more than one entry for {dict(zip(sites, key))}")
                matrix = np.array(e["matrix"], dtype=object)  # the constructor checks its shape
                for x in matrix.flat:
                    _json_number(x, f"a {name} matrix entry")
                table[key] = matrix.astype(float)
        return cls(
            m=_json_number(doc["M"], "M", int),
            topology=Topology(doc["topology"]),
            symmetry_class=SymmetryClass(doc["symmetry_class"]),
            alpha=float(_json_number(doc["alpha"], "alpha")),
            lam=float(_json_number(doc["lambda"], "lambda")),
            seed=_json_number(doc["seed"], "seed", int),
            j0=couplings["J0"],
            j1={i: mat for (i,), mat in couplings["J1"].items()},
        )


#: The keys of a `CouplingSet.to_json` document.
_DOC_KEYS = {"M", "topology", "symmetry_class", "alpha", "lambda", "seed", "J0", "J1"}


def _json_fields(doc, keys: set[str], what: str) -> dict:
    """`doc`, checked to be a JSON object with exactly the `keys`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    for label, names in (("missing", keys - doc.keys()), ("unknown", doc.keys() - keys)):
        if names:
            raise ValueError(f"{what} has {label} keys {sorted(names)}")
    return doc


def _json_number(value, what: str, kind: type | tuple = (int, float)):
    """`value`, checked to be a JSON number (an integer for `kind=int`), not a boolean."""
    if isinstance(value, bool) or not isinstance(value, kind):
        name = "an integer" if kind is int else "a number"
        raise ValueError(f"{what} must be {name}, got {value!r}")
    return value


def random_couplings(
    seed: int,
    m: int,
    symmetry_class: SymmetryClass = SymmetryClass.ANISOTROPIC,
    topology: Topology = Topology.CENTRAL_SPIN,
    alpha: float = 1.0,
    lam: float = 1.0,
) -> CouplingSet:
    """Draw a coupling realization; a fixed seed gives bit-identical output."""
    empty = CouplingSet(m, topology, symmetry_class, alpha, lam, seed)  # checked before any draw
    stream = SplitMix64(seed)

    def draw_matrix(scale: float) -> np.ndarray:
        if symmetry_class is SymmetryClass.ISOTROPIC:
            return scale * stream.uniform_symmetric() * np.eye(3)
        return scale * np.array(
            [[stream.uniform_symmetric() for _ in range(3)] for _ in range(3)]
        )

    return replace(
        empty,
        j0={pair: draw_matrix(alpha * lam) for pair in coupled_pairs(m, topology)},
        j1={site: draw_matrix(lam) for site in coupled_sites(m, topology)},
    )


@dataclass(frozen=True)
class HamiltonianParts:
    """The model Hamiltonian as its read-only Pauli-block stack, H = sum_a sigma_a x blocks[a].

    `blocks` is the (4, D, D) stack (h_bath, a_x, a_y, a_z) on the D = 2^m bath
    space: the intra-bath Hamiltonian and the three bath operators multiplying
    the qubit Paulis. `m`, `bath_dim`, `h_bath` and `a_ops` are read off it. The
    constructor keeps a read-only complex copy of the stack it is given, so no
    view of the caller's array can make a cached eigensystem go stale.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.array(self.blocks, dtype=complex)
        d = blocks.shape[-1] if blocks.ndim == 3 else 0
        if blocks.shape != (4, d, d) or d < 2 or d & (d - 1):
            raise ValueError(f"need a (4, D, D) stack with D = 2^m >= 2, got {blocks.shape}")
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    __eq__ = _array_aware_eq

    @property
    def bath_dim(self) -> int:
        return self.blocks.shape[-1]

    @property
    def m(self) -> int:
        return self.bath_dim.bit_length() - 1

    @property
    def h_bath(self) -> np.ndarray:
        return self.blocks[0]

    @property
    def a_ops(self) -> np.ndarray:
        return self.blocks[1:]


def segment_hamiltonian(parts: HamiltonianParts, f: Sequence[float]) -> np.ndarray:
    """sum_a sigma_a x (1, f_x, f_y, f_z)[a] blocks[a].

    With the sign triple of a toggling-frame interval this is that segment's
    generator; f = (1, 1, 1) gives the full Hamiltonian.
    """
    return from_pauli_blocks(parts.blocks * np.array((1, *f))[:, None, None])


def _pauli_combination(coefficients: np.ndarray) -> np.ndarray:
    """sum_l c[l] sigma_l as one 2x2 matrix."""
    return sum(c * pauli(axis) for c, axis in zip(coefficients, AXES))


def build_hamiltonian(couplings: CouplingSet) -> HamiltonianParts:
    """Assemble the block stack (h_bath, a_x, a_y, a_z), filled in place.

    Each bond sigma^(i) . J . sigma^(j) is summed as three Kronecker
    products sigma_k^(i) x (sum_l J[k, l] sigma_l)^(j) of local factors.
    """
    m = couplings.m
    blocks = np.zeros((4, 2**m, 2**m), dtype=complex)
    for (i, j), mat in sorted(couplings.j0.items()):
        for k in range(3):
            # sites i-1 and j-1 of the bath: sigma_k on the left block of
            # j-1 sites, the partner first on the remaining m-j+1 sites
            left = embed(pauli(AXES[k]), i - 1, j - 1)
            blocks[0] += np.kron(left, embed(_pauli_combination(mat[k]), 0, m - j + 1))

    for mu in range(3):
        for i, mat in sorted(couplings.j1.items()):
            blocks[1 + mu] += embed(_pauli_combination(mat[mu]), i - 1, m)
    return HamiltonianParts(blocks)


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
