"""Dense complex-matrix kernel for a qubit attached to a small spin bath.

All operators live on tensor products of spin-1/2 sites. The qubit is always
the most significant (leftmost) Kronecker factor, so a full-space operator of
dimension 2*D splits into 2x2 blocks of bath operators, the Pauli-block form
op = sum_a sigma_a x B_a (a = 0..3, sigma_0 = 1); the block functions below
rely on that ordering. Everything is dense: the largest runs reach dimension
2^11 (M = 10 bath spins), and matrix exponentials go through Hermitian
eigendecomposition, which keeps propagators unitary to rounding.

The global pi rotations sigma_nu^{x n} are signed permutations: sigma_x^{x n}
sends basis state i to 2^n - 1 - i, sigma_z^{x n} is the diagonal of signs
(-1)^popcount(i) (`parity_signs`), and sigma_y^{x n} = i^n sigma_x^{x n}
sigma_z^{x n} does both. `rotate` conjugates by them without building one;
`rotation_defects` tests the rule R_nu B_a R_nu = p_nu(a) B_a (`ROTATION_CHARACTERS`).

`check_count`, `check_durations`, `check_member` and `check_factor` are the
input rules every module shares: an integer of at least some low bound,
durations that are positive and finite, a member of an enum, and a bath
factor, which it also classifies. `_array_aware_eq` is the `==` of every
result that holds arrays.
"""

from __future__ import annotations

import dataclasses
import enum
import numbers

import numpy as np

HERMITICITY_RTOL = 1e-12


class PauliAxis(enum.Enum):
    """The three spin axes; `index` maps to the conventional (x, y, z) order."""

    X = "x"
    Y = "y"
    Z = "z"

    @property
    def index(self) -> int:
        return ("x", "y", "z").index(self.value)


AXES = (PauliAxis.X, PauliAxis.Y, PauliAxis.Z)


def axis_keyed(a: np.ndarray, value=float) -> dict:
    """value(entry) of an array over spin axes, keyed "x", "x,y", ... in `np.ndindex` order."""
    return {
        ",".join(AXES[i].value for i in index): value(a[index]) for index in np.ndindex(a.shape)
    }


_SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

#: (sigma_0 = 1, sigma_x, sigma_y, sigma_z), the basis of the Pauli-block form.
_SIGMA4 = np.stack((np.eye(2, dtype=complex), *_SIGMA))
#: p_nu(a) in sigma_nu sigma_a sigma_nu = p_nu(a) sigma_a: rows nu = x, y, z, columns a = 0, x, y, z
ROTATION_CHARACTERS = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]], dtype=float)


def pauli(axis: PauliAxis) -> np.ndarray:
    """Standard 2x2 Pauli matrix for `axis` (a fresh copy)."""
    return _SIGMA[axis.index].copy()


def embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site 2x2 operator at `site` among `n_sites` spins.

    Site 0 is the leftmost (most significant) factor; all other sites carry
    the identity.
    """
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} sites")
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n_sites - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(i) for i < 2^n, the diagonal of sigma_z^{x n}."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate((signs, -signs))  # one more bit each pass
    return signs


def rotate(op: np.ndarray, nu: PauliAxis) -> np.ndarray:
    """R op R^+ for R = sigma_nu^{x n} on the last two (2^n long) axes of `op`, exactly,
    by sign flips and index reversal; the phase i^n of sigma_y^{x n} cancels."""
    check_member(nu, PauliAxis)
    if nu is not PauliAxis.X:
        signs = parity_signs(op.shape[-1].bit_length() - 1)
        op = op * np.outer(signs, signs)
    return op if nu is PauliAxis.Z else op[..., ::-1, ::-1]


def rotation_defects(blocks: np.ndarray, nu: PauliAxis) -> np.ndarray:
    """max|rotate(B_a, nu) - p_nu(a) B_a| per block of a (4, D, D) stack; all vanish
    exactly when sum_a sigma_a x B_a commutes with sigma_nu^{x(M+1)}."""
    return _character_defects(rotate(blocks, nu), blocks, nu)  # rotate checks nu first


def _character_defects(rotated: np.ndarray, blocks: np.ndarray, nu: PauliAxis) -> np.ndarray:
    """`rotation_defects` of `blocks` from their stack `rotated` = rotate(blocks, nu), formed
    block by block, so that only one block's temporaries are alive at a time."""
    return np.array([
        np.abs(turned - p * block).max()
        for turned, p, block in zip(rotated, ROTATION_CHARACTERS[nu.index], blocks)
    ])


def hermiticity_defect(a: np.ndarray) -> float:
    """max|A - A^dagger|, the absolute deviation from Hermiticity, from one real array
    per part of A - A^dagger (no complex copy of A)."""
    return float(np.hypot(a.real - a.real.T, a.imag + a.imag.T).max())


def herm_eigensystem(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    Returns `(w, v)` with `h = v @ diag(w) @ v^dagger`. Callers that
    exponentiate the same generator for many durations should hold on to
    this pair and use :func:`expm_from_eigensystem`. Raises ValueError
    unless `h` is Hermitian within HERMITICITY_RTOL * max|h|, the scale
    floored at 1 so that near-zero operators get an absolute tolerance.
    """
    # written so that a NaN defect or scale fails it
    if not hermiticity_defect(h) <= HERMITICITY_RTOL * max(float(np.abs(h).max()), 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return w, v


def expm_from_eigensystem(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) from a precomputed eigensystem of H.

    The eigenvector route returns a matrix unitary to rounding for any `t`,
    unlike Pade scaling-and-squaring whose unitarity drift would pollute
    distance norms at the 1e-12 level where the scaling fits operate.
    """
    return (v * np.exp(-1j * t * w)) @ v.conj().T


#: The blocks B_a of op = sum_a sigma_a x B_a as combinations sum_p C[a, p] u_p
#: of the four qubit quadrants u_p of op, p = 2 s + t: s the qubit row half,
#: t the qubit column half.
_QUADRANTS_TO_BLOCKS = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]
)


def pauli_blocks(op: np.ndarray) -> np.ndarray:
    """The bath blocks (B_0, B_x, B_y, B_z) of op = sum_a sigma_a x B_a.

    B_a = Tr_qubit[(sigma_a x 1) op] / 2, returned as a (4, D, D) stack. A
    rectangular 2D x 2k `op` is read as the columns op (1 x R) of an
    operator times a D x k bath factor R, and gives the (4, D, k) stack
    of the B_a R.
    """
    if op.ndim != 2 or op.shape[0] % 2 or op.shape[1] % 2:
        raise ValueError("operator must be 2D x 2k (qubit x bath)")
    d, k = op.shape[0] // 2, op.shape[1] // 2
    quadrants = op.reshape(2, d, 2, k).transpose(0, 2, 1, 3).reshape(4, d * k)
    return (_QUADRANTS_TO_BLOCKS @ quadrants).reshape(4, d, k)


def from_pauli_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of `pauli_blocks`: sum_a sigma_a x B_a on the full space."""
    d = blocks.shape[-1]
    return np.einsum("kst,kab->satb", _SIGMA4, blocks).reshape(2 * d, 2 * d)


def check_count(n, low: int, message: str) -> None:
    """Raise ValueError(message) unless `n` is an integer >= `low` (NumPy integers
    included, booleans not)."""
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= low):
        raise ValueError(message)


def check_durations(taus, message: str, ndim: int | None = None) -> np.ndarray:
    """`taus` as a float array, checked to be real numbers (not strings or booleans),
    positive and finite throughout and, when `ndim` is given, to have that many
    axes. Raises ValueError(message), with the input appended, otherwise (written
    so that a NaN fails it)."""
    a = np.asarray(taus)
    if (
        a.dtype.kind not in "iuf"
        or (ndim is not None and a.ndim != ndim)
        or not ((a > 0) & (a < np.inf)).all()
    ):
        raise ValueError(f"{message}, got {a}")
    return np.asarray(a, dtype=float)


def check_member(value, kind: type[enum.Enum]) -> None:
    """Raise ValueError unless `value` is a member of the enum `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"need a {kind.__name__} member, got {value!r}")


def _same(a, b) -> bool:
    """a == b, with arrays, alone or as the values of a dict, equal in shape and entries."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return bool(a == b)


def _array_aware_eq(self, other):
    """`==` of a dataclass that holds arrays: same class, every field the same."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(
        _same(getattr(self, f.name), getattr(other, f.name)) for f in dataclasses.fields(self)
    )


def check_factor(r: np.ndarray, d: int) -> tuple[int, bool]:
    """The column count k of a bath factor R (rho_B = R R^+ / k), checked to be D x k
    with ||R||_F^2 = k (written so that a NaN entry fails it), and whether R is the
    identity (the maximally mixed bath): square, unit diagonal, nothing else nonzero."""
    k = r.shape[1] if isinstance(r, np.ndarray) and r.ndim == 2 else 0
    if k < 1 or r.shape[0] != d or not abs(np.vdot(r, r).real - k) <= 1e-12 * k:
        raise ValueError(f"bath factor must be a ({d}, k) array, ||R||_F^2 = k, not {np.shape(r)}")
    return k, bool(k == d and (r.diagonal() == 1).all() and np.count_nonzero(r) == k)
