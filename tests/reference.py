"""Lab-frame reference for the toggling-frame pipeline.

The library propagates in the toggling frame and reduces to d through the
bath Gram matrix. The functions here evaluate the same quantities from
their definitions instead: the lab-frame propagator with the pulses as
explicit unitaries kron(sigma_axis, 1) between segments of the full
Hamiltonian, and the reduced-state difference between the ideal and the
real evolution as a dense partial trace. Tests compare the two routes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qddsim.linalg import expm_from_eigensystem, herm_eigensystem, partial_trace_bath, pauli
from qddsim.metrics import DistanceResult, InitialState, _check_states, _distance_from_deltas
from qddsim.model import HamiltonianParts, segment_hamiltonian
from qddsim.sequence import PulseSchedule


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


def delta(
    state: InitialState,
    u_real: np.ndarray,
    u_b: np.ndarray,
    p_op: np.ndarray,
) -> np.ndarray:
    """Reduced-state difference between ideal and real evolution.

    `u_real` must be the lab-frame propagator (pulses included), `u_b` the
    full-space ideal bath evolution, and `p_op` the 2x2 net pulse rotation.
    """
    d = state.rho_b.shape[0]
    if u_real.shape[0] != 2 * d or u_b.shape[0] != 2 * d:
        raise ValueError("propagators must act on the full qubit x bath space")
    rho0 = state.rho0
    p_full = np.kron(p_op, np.eye(d))
    ideal = u_b @ p_full @ rho0 @ p_full.conj().T @ u_b.conj().T
    real = u_real @ rho0 @ u_real.conj().T
    return partial_trace_bath(ideal - real)


def norm_distance(
    states: Sequence[InitialState],
    u_real: np.ndarray,
    u_b: np.ndarray,
    p_op: np.ndarray,
    tau: float = 0.0,
) -> DistanceResult:
    """d over the three qubit preparations, lab-frame evaluation."""
    _check_states(states)
    deltas = [delta(st, u_real, u_b, p_op) for st in states]
    return _distance_from_deltas(tau, deltas)
