"""QDD pulse schedules and the sign functions they imprint on the couplings.

A quadratic sequence nests two Uhrig ladders: an outer ladder of N_x pi
pulses about x at

    t_j = tau * sin^2(j pi / (2 (N_x + 1))),    j = 1..N_x,

and, inside every outer block [t_j, t_{j+1}] (including the first block
starting at 0 and the last ending at tau), an inner ladder of N_z pi pulses
about z at the same sin^2 fractions of the block. That placement gives the
total pulse count N_x + N_z + N_x*N_z. Note the inner ladder must run in all
N_x + 1 blocks; restricting it to blocks after the first outer pulse would
break the zero-mean property of the switching functions.

Ideal pulses are the bare Pauli matrices. In the frame that toggles with the
pulses, each coupling axis mu picks up a piecewise-constant sign f_mu(t):
an x pulse conjugates sigma_y and sigma_z to their negatives, so it flips
f_y and f_z; a z pulse flips f_x and f_y. Hence f_z flips exactly at outer
pulses, f_y at every pulse, and f_x = f_z * f_y on every interval.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import PauliAxis, pauli


class PulseEvent(NamedTuple):
    time: float
    axis: PauliAxis


@dataclass
class PulseSchedule:
    """Switching instants of one QDD run of total duration `tau`.

    `events` lists the N_x outer X pulses and the N_z inner Z pulses of
    each of the N_x + 1 blocks as one time-sorted pulse list.
    """

    n_x: int
    n_z: int
    tau: float
    events: list[PulseEvent]

    def to_json(self) -> str:
        doc = {
            "N_x": self.n_x,
            "N_z": self.n_z,
            "tau": self.tau,
            "events": [{"t": ev.time, "axis": ev.axis.value} for ev in self.events],
        }
        return json.dumps(doc, indent=2)


def uhrig_times(n: int, tau: float) -> np.ndarray:
    """The n Uhrig instants tau * sin^2(j pi / (2(n+1))), j = 1..n."""
    if n < 0:
        raise ValueError("pulse counts must be nonnegative")
    j = np.arange(1, n + 1)
    return tau * np.sin(j * np.pi / (2 * (n + 1))) ** 2


def qdd_schedule(n_x: int, n_z: int, tau: float) -> PulseSchedule:
    """Build the nested schedule; n_x = 0 or n_z = 0 degrade to plain UDD."""
    if not 0 < tau < np.inf:
        raise ValueError(f"total duration tau must be positive and finite, got {tau}")
    outer = uhrig_times(n_x, tau)
    block_edges = np.concatenate(([0.0], outer, [tau]))
    fractions = uhrig_times(n_z, 1.0)
    inner = [
        block_edges[j] + (block_edges[j + 1] - block_edges[j]) * fractions
        for j in range(n_x + 1)
    ]
    events = [PulseEvent(float(t), PauliAxis.X) for t in outer]
    for block in inner:
        events.extend(PulseEvent(float(t), PauliAxis.Z) for t in block)
    events.sort(key=lambda ev: ev.time)
    return PulseSchedule(n_x=n_x, n_z=n_z, tau=float(tau), events=events)


def pulse_operator(n_x: int, n_z: int) -> np.ndarray:
    """Net qubit rotation of the whole sequence, a Pauli monomial up to sign.

    Composing the pulses in time order gives N_x + 1 factors sigma_z^{N_z}
    interleaved with N_x factors sigma_x; for even N_z this collapses to
    sigma_x^{N_x}.
    """
    if n_x < 0 or n_z < 0:
        raise ValueError("pulse counts must be nonnegative")
    sx, sz = pauli(PauliAxis.X), pauli(PauliAxis.Z)
    op = np.eye(2, dtype=complex)
    for block in range(n_x + 1):
        if n_z % 2:
            op = sz @ op
        if block < n_x:
            op = sx @ op
    return op


@dataclass
class SwitchingProfile:
    """Piecewise-constant coupling signs between consecutive pulses.

    `breakpoints` is the sorted array 0 = s_0 < ... < s_L = tau and
    `values[i]` the sign triple (f_x, f_y, f_z) on (s_i, s_{i+1}]. The
    constructor checks both: finite, strictly increasing breakpoints from 0,
    and an (L, 3) array of +-1 signs.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s = self.breakpoints
        increasing = s.ndim == 1 and len(s) > 1 and s[0] == 0 and (s[1:] > s[:-1]).all()
        if not (increasing and s[-1] < np.inf):
            raise ValueError("degenerate schedule: breakpoints must be finite and rise from 0")
        if self.values.shape != (len(s) - 1, 3) or (np.abs(self.values) != 1).any():
            raise ValueError(f"need one sign triple of +-1 per interval, {len(s) - 1} in all")

    @property
    def tau(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.breakpoints)


def switching_profile(schedule: PulseSchedule) -> SwitchingProfile:
    """Signs (f_x, f_y, f_z) on each interval of the schedule.

    Starts at (+1, +1, +1); an X event flips f_y and f_z, a Z event flips
    f_x and f_y, which keeps f_x = f_z * f_y identically.
    """
    breakpoints = np.concatenate(
        ([0.0], [ev.time for ev in schedule.events], [schedule.tau])
    )
    signs = np.empty((len(schedule.events) + 1, 3), dtype=int)
    fx = fy = fz = 1
    signs[0] = (fx, fy, fz)
    for k, ev in enumerate(schedule.events):
        if ev.axis is PauliAxis.X:
            fy, fz = -fy, -fz
        elif ev.axis is PauliAxis.Z:
            fx, fy = -fx, -fy
        else:
            raise ValueError("QDD schedules contain only X and Z pulses")
        signs[k + 1] = (fx, fy, fz)
    return SwitchingProfile(breakpoints=breakpoints, values=signs)
