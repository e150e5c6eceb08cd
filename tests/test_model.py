import json

import numpy as np
import pytest

import qddsim as q
from qddsim.linalg import AXES, embed, pauli, pauli_blocks, rotation_defects
from qddsim.model import segment_hamiltonian

from conftest import PRIMARY_SEED, SECONDARY_SEED


def test_draw_is_deterministic():
    a = q.random_couplings(PRIMARY_SEED, 3)
    b = q.random_couplings(PRIMARY_SEED, 3)
    assert a.to_json() == b.to_json()
    for key in a.j0:
        assert np.array_equal(a.j0[key], b.j0[key])


def test_anisotropic_entries_in_range():
    c = q.random_couplings(9, 4)
    for mat in list(c.j0.values()) + list(c.j1.values()):
        assert mat.shape == (3, 3)
        assert np.all(np.abs(mat) <= 1.0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_isotropic_matrices_scalar_multiples_of_identity(seed):
    c = q.random_couplings(seed, 3, q.SymmetryClass.ISOTROPIC)
    for mat in list(c.j0.values()) + list(c.j1.values()):
        assert np.array_equal(mat, mat[0, 0] * np.eye(3))
        assert abs(mat[0, 0]) <= 1.0


def test_anisotropic_draws_scale_with_alpha_and_lam():
    # as in the isotropic class: bath pairs by alpha * lam, qubit couplings by lam
    base = q.random_couplings(PRIMARY_SEED, 3)
    scaled = q.random_couplings(PRIMARY_SEED, 3, alpha=5.0, lam=0.1)
    for key, mat in base.j0.items():
        assert np.array_equal(scaled.j0[key], 5.0 * 0.1 * mat)
    for key, mat in base.j1.items():
        assert np.array_equal(scaled.j1[key], 0.1 * mat)


def _chain_couplings(**changes):
    """A drawn 3-spin chain's CouplingSet, built directly with `changes` to its fields."""
    c = q.random_couplings(PRIMARY_SEED, 3, topology=q.Topology.CHAIN)
    fields = dict(
        m=c.m, topology=c.topology, symmetry_class=c.symmetry_class,
        alpha=c.alpha, lam=c.lam, seed=c.seed, j0=c.j0, j1=c.j1,
    )
    return q.CouplingSet(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes,match",
    [
        (dict(topology="chain"), "need a Topology member"),
        (dict(symmetry_class="anisotropic"), "need a SymmetryClass member"),
        (dict(m=0), "m >= 1"),
        (dict(m=3.0), "m >= 1"),
        (dict(seed="x"), r"seed must be an integer in \[0, 2\*\*64\), got 'x'"),
        (dict(seed=-5), r"in \[0, 2\*\*64\), got -5"),
        (dict(seed=2**64), r"in \[0, 2\*\*64\), got 18446744073709551616"),
        (dict(seed=True), r"in \[0, 2\*\*64\), got True"),
        (dict(alpha=np.nan), "finite"),
        (dict(lam=np.inf), "finite"),
        (dict(j1={3: np.eye(3)}), "does not couple"),  # only site 1 of a chain couples
        (dict(j0={(2, 1): np.eye(3)}), "does not couple"),
        (dict(j1={1: np.full((3, 3), np.nan)}), "finite and 3x3"),
        (dict(symmetry_class=q.SymmetryClass.ISOTROPIC), "multiples of the identity"),
    ],
)
def test_coupling_set_checks_itself(changes, match):
    _chain_couplings()  # the unchanged fields pass
    _chain_couplings(seed=np.uint64(2**64 - 1))  # SplitMix64's largest seed
    with pytest.raises(ValueError, match=match):
        _chain_couplings(**changes)


def test_coupling_json_needs_3x3_matrices():
    # a 3 x 2 J1 used to build a model without its sigma_z term
    doc = json.loads(q.random_couplings(PRIMARY_SEED, 2).to_json())
    doc["J1"][0]["matrix"] = [row[:2] for row in doc["J1"][0]["matrix"]]
    with pytest.raises(ValueError, match="3x3"):
        q.CouplingSet.from_json(json.dumps(doc))


def _pop_j1(doc):
    del doc["J1"]


def _repeat_j1_site(doc):
    doc["J1"].append(dict(doc["J1"][0], matrix=np.zeros((3, 3)).tolist()))


@pytest.mark.parametrize(
    "edit,match",
    [
        (_pop_j1, r"missing keys \['J1'\]"),
        (lambda doc: doc.update(J2=[]), r"unknown keys \['J2'\]"),
        (lambda doc: doc.update(M=2.7), "M must be an integer, got 2.7"),
        (lambda doc: doc.update(M=2.0), "M must be an integer"),
        (lambda doc: doc.update(M=True), "M must be an integer, got True"),
        (lambda doc: doc.update(seed=42.9), "seed must be an integer"),
        (lambda doc: doc.update(seed=-5), r"seed must be an integer in \[0, 2\*\*64\), got -5"),
        (lambda doc: doc.update(alpha="1"), "alpha must be a number"),
        (lambda doc: doc.update(alpha=True), "alpha must be a number"),
        (lambda doc: doc.update(**{"lambda": None}), "lambda must be a number"),
        (_repeat_j1_site, r"J1 has more than one entry for \{'i': 1\}"),
        (lambda doc: doc["J0"].append(doc["J0"][0]), "J0 has more than one entry"),
        (lambda doc: doc["J0"][0].update(j=2.0), "J0 site 'j' must be an integer"),
        (lambda doc: doc["J1"][0].update(i=True), "J1 site 'i' must be an integer"),
        (lambda doc: doc["J1"][0].update(weight=1), r"a J1 entry has unknown keys \['weight'\]"),
        (lambda doc: doc["J1"][0]["matrix"][2].__setitem__(1, "0.5"), "a J1 matrix entry"),
        (lambda doc: doc["J1"][0]["matrix"][0].__setitem__(0, False), "a J1 matrix entry"),
        (lambda doc: doc.update(J0={}), "J0 must be a list"),
    ],
)
def test_coupling_file_is_checked_strictly(edit, match):
    doc = json.loads(q.random_couplings(PRIMARY_SEED, 2).to_json())
    edit(doc)
    with pytest.raises(ValueError, match=match):
        q.CouplingSet.from_json(json.dumps(doc))


def test_coupling_file_must_be_an_object():
    with pytest.raises(ValueError, match="a coupling file must be a JSON object"):
        q.CouplingSet.from_json("[]")


@pytest.mark.parametrize("alpha,lam", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.5)])
def test_non_finite_alpha_or_lam_rejected(alpha, lam):
    with pytest.raises(ValueError, match="finite"):
        q.random_couplings(PRIMARY_SEED, 2, alpha=alpha, lam=lam)


def test_chain_topology_masks_couplings():
    c = q.random_couplings(5, 3, topology=q.Topology.CHAIN)
    assert set(c.j1) == {1}
    assert set(c.j0) == {(1, 2), (2, 3)}


def test_symmetry_class_must_be_a_member():
    # the string used to draw anisotropic couplings and break `to_json`
    with pytest.raises(ValueError, match="need a SymmetryClass member, got 'isotropic'"):
        q.random_couplings(PRIMARY_SEED, 3, "isotropic")


def test_topology_must_be_a_member():
    # the string used to build the central-spin model
    with pytest.raises(ValueError, match="need a Topology member, got 'chain'"):
        q.random_couplings(PRIMARY_SEED, 3, topology="chain")


def test_m_zero_rejected():
    # a non-integer M is rejected by CouplingSet before any draw; it used to
    # reach `range` in `coupled_pairs` and raise TypeError there; True used to
    # build a one-spin model
    for m in (0, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="m >= 1"):
            q.random_couplings(1, m)
    assert q.random_couplings(1, np.int64(2)).m == 2


def test_zero_couplings_zero_hamiltonian():
    c = q.random_couplings(1, 2)
    for key in c.j0:
        c.j0[key] = np.zeros((3, 3))
    for key in c.j1:
        c.j1[key] = np.zeros((3, 3))
    parts = q.build_hamiltonian(c)
    assert np.abs(segment_hamiltonian(parts, (1, 1, 1))).max() == 0.0


def test_single_pair_heisenberg():
    c = q.CouplingSet(
        m=1,
        topology=q.Topology.CENTRAL_SPIN,
        symmetry_class=q.SymmetryClass.ISOTROPIC,
        alpha=1.0,
        lam=1.0,
        seed=0,
        j0={},
        j1={1: np.eye(3)},
    )
    parts = q.build_hamiltonian(c)
    expected = sum(np.kron(pauli(a), pauli(a)) for a in AXES)
    assert np.abs(segment_hamiltonian(parts, (1, 1, 1)) - expected).max() < 1e-15


def _direct_full_space(c: q.CouplingSet) -> np.ndarray:
    """Independent assembly: embed every Pauli pair on the full (M+1)-site space."""
    n = c.m + 1
    h = np.zeros((2**n, 2**n), dtype=complex)
    for (i, j), mat in c.j0.items():
        for k in range(3):
            for l in range(3):
                h += mat[k, l] * embed(pauli(AXES[k]), i, n) @ embed(pauli(AXES[l]), j, n)
    for i, mat in c.j1.items():
        for mu in range(3):
            for k in range(3):
                h += mat[mu, k] * embed(pauli(AXES[mu]), 0, n) @ embed(pauli(AXES[k]), i, n)
    return h


def _embed_product_blocks(c: q.CouplingSet) -> tuple[np.ndarray, list[np.ndarray]]:
    """Reference bath assembly: one product of two embedded Paulis per J0 entry."""
    m = c.m
    dim = 2**m
    h_bath = np.zeros((dim, dim), dtype=complex)
    for (i, j), mat in sorted(c.j0.items()):
        for k in range(3):
            left = embed(pauli(AXES[k]), i - 1, m)
            for l in range(3):
                if mat[k, l] != 0.0:
                    h_bath += mat[k, l] * (left @ embed(pauli(AXES[l]), j - 1, m))
    a_ops = []
    for mu in range(3):
        a_mu = np.zeros((dim, dim), dtype=complex)
        for i, mat in sorted(c.j1.items()):
            for k in range(3):
                if mat[mu, k] != 0.0:
                    a_mu += mat[mu, k] * embed(pauli(AXES[k]), i - 1, m)
        a_ops.append(a_mu)
    return h_bath, a_ops


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("topology", [q.Topology.CENTRAL_SPIN, q.Topology.CHAIN])
def test_build_matches_embed_products(topology, m):
    for sym in (q.SymmetryClass.ANISOTROPIC, q.SymmetryClass.ISOTROPIC):
        c = q.random_couplings(PRIMARY_SEED, m, sym, topology)
        parts = q.build_hamiltonian(c)
        h_bath, a_ops = _embed_product_blocks(c)
        assert np.abs(parts.h_bath - h_bath).max() <= 1e-14
        for a_built, a_ref in zip(parts.a_ops, a_ops):
            assert np.abs(a_built - a_ref).max() <= 1e-14


def test_full_hamiltonian_matches_direct_embedding(aniso3):
    c, parts = aniso3
    direct = _direct_full_space(c)
    h_full = segment_hamiltonian(parts, (1, 1, 1))
    assert np.abs(h_full - direct).max() <= 1e-13
    assert np.abs(h_full - h_full.conj().T).max() <= 1e-13


def test_parts_reassemble_h_full(aniso3):
    _, parts = aniso3
    rebuilt = np.kron(np.eye(2), parts.h_bath)
    for mu, a in enumerate(AXES):
        rebuilt = rebuilt + np.kron(pauli(a), parts.a_ops[mu])
    assert np.abs(rebuilt - segment_hamiltonian(parts, (1, 1, 1))).max() <= 1e-13


def test_coupling_operators_recovered_by_projection(aniso3):
    _, parts = aniso3
    for a_stored, a_projected in zip(parts.a_ops, pauli_blocks(segment_hamiltonian(parts, (1, 1, 1)))[1:]):
        assert np.abs(a_stored - a_projected).max() <= 1e-13


def test_h_bath_commutes_with_qubit_paulis(aniso3):
    _, parts = aniso3
    hb_full = np.kron(np.eye(2), parts.h_bath)
    for a in AXES:
        s_full = np.kron(pauli(a), np.eye(parts.bath_dim))
        assert np.abs(hb_full @ s_full - s_full @ hb_full).max() < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_isotropic_su2_invariant_many_seeds(seed):
    c = q.random_couplings(seed, 2, q.SymmetryClass.ISOTROPIC)
    assert q.su2_defect(q.build_hamiltonian(c)) <= 1e-12


def test_anisotropic_defect_large(aniso3):
    _, parts = aniso3
    assert q.su2_defect(parts) > 0.1


def test_zero_hamiltonian_defect_zero():
    c = q.random_couplings(1, 2)
    for key in c.j0:
        c.j0[key] = np.zeros((3, 3))
    for key in c.j1:
        c.j1[key] = np.zeros((3, 3))
    assert q.su2_defect(q.build_hamiltonian(c)) == 0.0


def test_json_round_trip_bit_exact(aniso3):
    c, _ = aniso3
    text = c.to_json()
    back = q.CouplingSet.from_json(text)
    assert back.to_json() == text
    for key in c.j0:
        assert np.array_equal(back.j0[key], c.j0[key])
    for key in c.j1:
        assert np.array_equal(back.j1[key], c.j1[key])
    assert (back.m, back.seed, back.alpha, back.lam) == (c.m, c.seed, c.alpha, c.lam)
    assert back.topology is c.topology and back.symmetry_class is c.symmetry_class


def test_json_round_trip_with_numpy_integers():
    # the checks accept NumPy integers for M and the seed, so JSON must too
    for c, expected in (
        (q.random_couplings(np.uint64(3), 2), q.random_couplings(3, 2)),
        (q.random_couplings(1, np.int64(2)), q.random_couplings(1, 2)),
    ):
        text = c.to_json()
        assert text == expected.to_json()
        back = q.CouplingSet.from_json(text)
        assert back.to_json() == text
        assert (type(back.m), type(back.seed)) == (int, int)


def test_parts_are_read_only(iso3):
    # an evolver caches the eigensystem of its parts, so a write into them
    # would leave it propagating the old Hamiltonian
    _, parts = iso3
    for view in (parts.blocks, parts.h_bath, parts.a_ops[0]):
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        parts.h_bath *= 2


def test_parts_copy_the_callers_stack():
    # a view of the caller's array taken before construction must not reach
    # the parts, or an evolver's cached eigensystem would go stale
    blocks = np.array(q.build_hamiltonian(q.random_couplings(3, 2)).blocks)
    a_x = blocks[1]
    parts = q.HamiltonianParts(blocks)
    ev = q.TogglingEvolver(parts)
    ket = q.make_states(q.BathKind.PRODUCT, 2, q.default_directions(2))
    d = q.qdd_distance(parts, ket, 1, 1, 0.3, evolver=ev).d
    a_x[...] = 0
    assert blocks.flags.writeable and not parts.blocks.flags.writeable
    assert q.qdd_distance(parts, ket, 1, 1, 0.3, evolver=ev).d == d
    assert q.qdd_distance(parts, ket, 1, 1, 0.3).d == d


def test_parts_reject_a_stack_that_is_not_4_by_d_by_d():
    for shape in [(3, 4, 4), (4, 4, 2), (4, 3, 3), (4, 1, 1), (4, 4), (4, 4, 4, 1)]:
        with pytest.raises(ValueError, match="stack"):
            q.HamiltonianParts(np.zeros(shape, dtype=complex))
    parts = q.HamiltonianParts(np.zeros((4, 8, 8), dtype=complex))
    assert (parts.m, parts.bath_dim) == (3, 8)
    assert (parts.h_bath.shape, parts.a_ops.shape) == ((8, 8), (3, 8, 8))


def test_parts_compare_by_their_blocks():
    # the generated == compared the arrays elementwise and raised on the
    # ambiguous truth value of the result
    parts = q.build_hamiltonian(q.random_couplings(1, 2))
    assert parts == q.build_hamiltonian(q.random_couplings(1, 2))
    assert not parts != q.build_hamiltonian(q.random_couplings(1, 2))
    for other in (
        q.build_hamiltonian(q.random_couplings(2, 2)),
        q.build_hamiltonian(q.random_couplings(1, 3)),
        q.build_hamiltonian(q.random_couplings(1, 2, q.SymmetryClass.ISOTROPIC)),
    ):
        assert parts != other and not parts == other


@pytest.mark.parametrize("seed", [PRIMARY_SEED, SECONDARY_SEED])
@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("topology", list(q.Topology))
def test_isotropic_blocks_have_exact_rotation_parities(topology, m, seed):
    # the doubling premise on the model itself: under every global bath pi
    # rotation h_bath and a_nu are even and the two other a_mu odd, exactly;
    # an anisotropic draw breaks it at order one, far beyond the tolerance
    # the evolver reads its sectors and orbit with
    for sym, holds in ((q.SymmetryClass.ISOTROPIC, True), (q.SymmetryClass.ANISOTROPIC, False)):
        parts = q.build_hamiltonian(q.random_couplings(seed, m, sym, topology))
        defects = [rotation_defects(parts.blocks, nu) for nu in AXES]
        worst = [q.rotation_parities(parts.blocks, nu, m).worst for nu in AXES]
        assert worst == [d.max() for d in defects]
        assert (max(worst) == 0) if holds else (min(worst) > 1)
