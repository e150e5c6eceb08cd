"""References for the toggling-frame pipeline and its window search.

The library propagates in the toggling frame and reduces to d through the
bath Gram matrix G = Y Y^+ / k of the factored bath state. The functions here
evaluate the same quantities from their definitions instead: the lab-frame
propagator with the pulses as explicit unitaries kron(sigma_axis, 1)
between segments of the full Hamiltonian, the toggling-frame propagator as
a product of per-segment exponentials with one eigensystem per sign triple,
the Gram matrix against the dense bath density matrix, the global bath pi
rotations as dense Kronecker products (`bath_rotation`), the
reduced-state difference between the ideal and the real evolution as a
dense partial trace, and the T-check's direct state read off the two column
halves of a full propagator (`column_direct_state`). `block_unitarity_defects`
checks the two conditions that unitarity of u imposes on its bath blocks,
and `sign_at` looks up a switching profile's sign triple at one time. The library carries the bath as one D x k factor R;
the dense rho_B = R R^+ / k and rho0 are built here from it. Tests compare
the two routes.

`two_walk_fit` is the adaptive window search as it was before the halving
ladder: every candidate ceiling walks tau down from TAU_START to its window
top and on to the d floor, under an evaluation budget. The ladder must give
the same fits, kept points, evaluation counts and failure texts.
"""

from __future__ import annotations

import numpy as np

from qddsim.linalg import (
    AXES,
    PauliAxis,
    check_factor,
    expm_from_eigensystem,
    factor_gram,
    herm_eigensystem,
    pauli,
    times_factor,
)
from qddsim.metrics import DistanceResult, pauli_ket, qubit_state
from qddsim.model import HamiltonianParts, segment_hamiltonian
from qddsim.scaling import (
    R_SQUARED_MIN,
    TAU_START,
    WindowFailureError,
    _window_failure,
    fit_exponent,
)
from qddsim.sequence import PulseSchedule, SwitchingProfile


#: Nonzero entries (mu, nu, kappa, sign) of the Levi-Civita symbol, listed
#: explicitly so that an epsilon contraction is an unrolled sum over these
#: six terms rather than a sign lookup in a loop.
LEVI_CIVITA: tuple[tuple[PauliAxis, PauliAxis, PauliAxis, int], ...] = (
    (PauliAxis.X, PauliAxis.Y, PauliAxis.Z, +1),
    (PauliAxis.Y, PauliAxis.Z, PauliAxis.X, +1),
    (PauliAxis.Z, PauliAxis.X, PauliAxis.Y, +1),
    (PauliAxis.X, PauliAxis.Z, PauliAxis.Y, -1),
    (PauliAxis.Z, PauliAxis.Y, PauliAxis.X, -1),
    (PauliAxis.Y, PauliAxis.X, PauliAxis.Z, -1),
)


def unitarity_defect(u: np.ndarray) -> float:
    """max-norm of U^dagger U - 1."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def block_unitarity_defects(blocks: np.ndarray) -> tuple[float, float]:
    """Max-norm residuals of the completeness and cross conditions.

    The bath blocks (b0, b_x, b_y, b_z) of a unitary u = sum_a sigma_a x B_a
    satisfy

        b0 b0+ + sum_mu b_mu b_mu+ = 1
        i sum_{mu,nu} eps(mu,nu,kappa) b_mu b_nu+ + (b0 b_kappa+ + h.c.) = 0
    """
    # products[a, b] = B_a B_b^+
    products = blocks[:, None] @ blocks.conj().transpose(0, 2, 1)[None]
    start = products[0, 0] - np.eye(blocks.shape[1])
    complete = sum((products[a, a] for a in range(1, 4)), start)
    cross = products[0, 1:] + products[0, 1:].conj().transpose(0, 2, 1)
    for mu, nu, kappa, sign in LEVI_CIVITA:
        cross[kappa.index] += 1j * sign * products[mu.index + 1, nu.index + 1]
    return float(np.abs(complete).max()), float(np.abs(cross).max())


def sign_at(profile: SwitchingProfile, t: float) -> np.ndarray:
    """Sign triple at time t, taking intervals half-open on the left."""
    i = int(np.searchsorted(profile.breakpoints, t, side="left")) - 1
    return profile.values[min(max(i, 0), len(profile.values) - 1)]


def column_direct_state(gamma: PauliAxis, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tr_B[u (|gamma><gamma| x R R+ / k) u+] as Tr_B[X X+] / k, X = u (|gamma> x R),
    read off the two column halves of a full 2D x 2D u."""
    d = u.shape[0] // 2
    k = check_factor(r, d)
    g = pauli_ket(gamma, +1)
    x = g[0] * u[:, :d] + g[1] * u[:, d:]  # u (|gamma> x 1)
    return factor_gram(times_factor(x, r).reshape(2, d, k))


def _split_dims(op: np.ndarray) -> int:
    dim = op.shape[0]
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("operator must be square")
    if dim % 2:
        raise ValueError("operator dimension must be even (qubit x bath)")
    return dim // 2


def partial_trace_bath(op: np.ndarray) -> np.ndarray:
    """Trace out the bath factor, returning a 2 x 2 qubit operator."""
    d = _split_dims(op)
    return np.einsum("sata->st", op.reshape(2, d, 2, d))


def lab_propagator(parts: HamiltonianParts, schedule: PulseSchedule) -> np.ndarray:
    """Segment exponentials of the full Hamiltonian interleaved with pulses."""
    d = parts.bath_dim
    w, v = herm_eigensystem(segment_hamiltonian(parts, (1, 1, 1)))
    u = np.eye(2 * d, dtype=complex)
    t_prev = 0.0
    for ev in schedule.events:
        u = expm_from_eigensystem(w, v, ev.time - t_prev) @ u
        u = np.kron(pauli(ev.axis), np.eye(d)) @ u
        t_prev = ev.time
    return expm_from_eigensystem(w, v, schedule.tau - t_prev) @ u


def segment_product_propagator(parts: HamiltonianParts, profile: SwitchingProfile) -> np.ndarray:
    """Toggling propagator as the product of exp(-i t H_seg) over the segments.

    Each distinct sign triple gets its own eigensystem of its segment
    generator (at most four per profile), reused for its repeat segments.
    """
    eigensystems = {}
    u = np.eye(2 * parts.bath_dim, dtype=complex)
    for triple, t in zip(map(tuple, profile.values), profile.durations):
        if triple not in eigensystems:
            eigensystems[triple] = herm_eigensystem(segment_hamiltonian(parts, triple))
        w, v = eigensystems[triple]
        u = expm_from_eigensystem(w, v, t) @ u
    return u


def bath_rotation(nu: PauliAxis, m: int) -> np.ndarray:
    """Global bath pi rotation: sigma_nu tensored over all bath sites.

    Equal to the true exp(-i pi/2 sigma_nu) product up to a global phase,
    which conjugation never sees.
    """
    rot = np.ones((1, 1), dtype=complex)
    for _ in range(m):
        rot = np.kron(rot, pauli(nu))
    return rot


def bath_density(r: np.ndarray) -> np.ndarray:
    """Dense rho_B = R R^+ / k of a D x k bath factor R."""
    return r @ r.conj().T / r.shape[1]


def initial_state(gamma: PauliAxis, r: np.ndarray) -> np.ndarray:
    """Dense rho0 = |gamma><gamma| x rho_B on the full qubit x bath space."""
    return np.kron(qubit_state(gamma), bath_density(r))


def full_toggling(evolver, profile) -> np.ndarray:
    """The full 2D x 2D toggling propagator of `profile` at its own duration:
    `toggling` on the identity bath factor, one duration in the chain."""
    return evolver.toggling(profile, np.eye(evolver.parts.bath_dim), [profile.tau])[0]


def ket_columns(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """u (1 x R), the 2k columns `frame_reduced_distance` reads at one
    duration, cut from a full propagator."""
    return u @ np.kron(np.eye(2), r)


def bath_gram(blocks: np.ndarray, rho_b: np.ndarray) -> np.ndarray:
    """Gram matrix G[a, b] = Tr[B_a rho_b B_b^+] of a stack of bath blocks."""
    n = len(blocks)
    weighted = (blocks @ rho_b).reshape(n, -1)
    return weighted @ blocks.reshape(n, -1).conj().T


def delta(
    gamma: PauliAxis,
    r: np.ndarray,
    u_real: np.ndarray,
    u_b: np.ndarray,
    p_op: np.ndarray,
) -> np.ndarray:
    """Reduced-state difference between ideal and real evolution.

    The qubit starts in |gamma><gamma|, the bath in R R^+ / k. `u_real`
    must be the lab-frame propagator (pulses included), `u_b` the full-space
    ideal bath evolution, and `p_op` the 2x2 net pulse rotation.
    """
    if u_b.shape != u_real.shape:
        raise ValueError("propagators must act on the full qubit x bath space")
    d = u_real.shape[0] // 2
    rho0 = initial_state(gamma, r)
    p_full = np.kron(p_op, np.eye(d))
    ideal = u_b @ p_full @ rho0 @ p_full.conj().T @ u_b.conj().T
    real = u_real @ rho0 @ u_real.conj().T
    return partial_trace_bath(ideal - real)


_SIGMA4 = np.stack((np.eye(2), *map(pauli, AXES)))


def gram_reduced_state(rho_s: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Reduced qubit state sum_ab sigma_a rho_s sigma_b G[a, b], in 2x2 algebra.

    With `gram` from the Pauli blocks of u and the bath state rho_B this is
    Tr_B[u (rho_s x rho_B) u^+].
    """
    return np.einsum("aij,jk,bkl,ab->il", _SIGMA4, rho_s, _SIGMA4, gram)


def distance_from_deltas(tau, deltas) -> DistanceResult:
    """d and its components from the three 2x2 differences Delta_gamma."""
    d_gamma = tuple(
        float(np.sqrt(max(np.trace(dg @ dg).real, 0.0))) for dg in deltas
    )
    d = float(np.sqrt(sum(x * x for x in d_gamma) / 3.0))
    return DistanceResult(tau=float(tau), d=d, d_gamma=d_gamma)


def norm_distance(
    r: np.ndarray,
    u_real: np.ndarray,
    u_b: np.ndarray,
    p_op: np.ndarray,
    tau: float = 0.0,
) -> DistanceResult:
    """d over the three qubit preparations, lab-frame evaluation."""
    deltas = [delta(gamma, r, u_real, u_b, p_op) for gamma in AXES]
    return distance_from_deltas(tau, deltas)


def _sampler_failure(message, sampler):
    """`_window_failure` naming the d range and the evaluations of the sampler's cache."""
    ds = [row[1] for row in sampler.cache.values()]
    return _window_failure(message, (min(ds), max(ds)), len(ds))


def two_walk_fit(sampler, spec):
    """Per-ceiling top walk and floor walk, each from TAU_START.

    The cell fails once bracketing a window top has spent more than 200 d
    evaluations; the floor walk stops once the cell has spent 400. Returns
    the fit and the window's rows (tau, d, d_x, d_y, d_z) with d inside it.
    """
    grid, d_lo, d_hi = spec.tau_grid, spec.d_lo, spec.d_hi
    ceilings = []
    ceiling = 1e3 * d_lo
    while ceiling < d_hi:
        ceilings.append(ceiling)
        ceiling *= 10.0
    ceilings.append(d_hi)
    for d_hi_eff in ceilings:
        t_hi = TAU_START
        while sampler.d(t_hi) >= d_hi_eff:
            t_hi /= 2.0
            if len(sampler.cache) > 200:
                raise _sampler_failure(
                    "adaptation budget exhausted while bracketing the window top", sampler
                )
        t_lo = t_hi
        while sampler.d(t_lo) > d_lo:
            t_lo /= 2.0
            if len(sampler.cache) > 400:
                break
        taus = np.geomspace(t_lo, t_hi, grid.points)
        ds = np.array([sampler.d(t) for t in taus])
        try:
            fit = fit_exponent(taus, ds, d_lo, d_hi_eff)
        except WindowFailureError:
            continue
        if fit.r_squared >= R_SQUARED_MIN:
            rows = np.array([sampler.cache[t] for t in taus]).T
            return fit, rows[:, (ds >= d_lo) & (ds <= d_hi_eff)]
    raise _sampler_failure("no tau window produced an acceptable fit", sampler)
