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

A `SwitchingProfile` stores its breakpoints and pulse axes and derives the
sign triples and the net pulse rotation from them, so none breaks the rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .linalg import PauliAxis, check_count, check_durations, pauli


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
    check_count(n, 0, f"pulse counts must be nonnegative integers, got {n!r}")
    tau = float(check_durations(tau, "total duration tau must be positive and finite", ndim=0))
    j = np.arange(1, n + 1)
    return tau * np.sin(j * np.pi / (2 * (n + 1))) ** 2


def qdd_schedule(n_x: int, n_z: int, tau: float) -> PulseSchedule:
    """Build the nested schedule; n_x = 0 or n_z = 0 degrade to plain UDD."""
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
    return switching_profile(qdd_schedule(n_x, n_z, 1.0)).net_rotation


@dataclass
class SwitchingProfile:
    """Piecewise-constant coupling signs between consecutive pulses.

    `breakpoints` is the rising sequence 0 = s_0 < ... < s_L = tau, kept as a
    float array, and `axes` the X or Z axis of the pi pulse at each of
    s_1..s_{L-1}. The constructor checks both and derives `values[i]`, the
    sign triple (f_x, f_y, f_z) on (s_i, s_{i+1}], as a read-only (L, 3) array.
    """

    breakpoints: np.ndarray
    axes: tuple[PauliAxis, ...]
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        increasing = s.ndim == 1 and len(s) > 1 and s[0] == 0 and (s[1:] > s[:-1]).all()
        if not (increasing and s[-1] < np.inf):
            raise ValueError("degenerate schedule: breakpoints must be finite and rise from 0")
        self.axes = tuple(self.axes)
        if len(self.axes) != len(s) - 2 or not set(self.axes) <= {PauliAxis.X, PauliAxis.Z}:
            raise ValueError(
                f"sign triples need one X or Z pulse axis per inner breakpoint, {len(s) - 2} in all"
            )
        # starting from (+1, +1, +1), an X pulse flips f_y and f_z, a Z pulse f_x and f_y
        signs = [(1, 1, 1)]
        for axis in self.axes:
            f_x, f_y, f_z = signs[-1]
            signs.append((f_x, -f_y, -f_z) if axis is PauliAxis.X else (-f_x, -f_y, f_z))
        self.values = np.array(signs)
        self.values.flags.writeable = False

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.breakpoints, other.breakpoints) and self.axes == other.axes

    @property
    def tau(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    @cached_property
    def net_rotation(self) -> np.ndarray:
        """The product of the pulse Paulis, latest pulse leftmost."""
        return reduce(lambda p, axis: pauli(axis) @ p, self.axes, np.eye(2, dtype=complex))


def switching_profile(schedule: PulseSchedule) -> SwitchingProfile:
    """The profile of a schedule: its pulse instants between 0 and tau, and its pulse axes."""
    breakpoints = np.concatenate(([0.0], [ev.time for ev in schedule.events], [schedule.tau]))
    # a list, not a generator: one generator per d evaluation raised the peak RSS
    # of a 60-round M = 6 table run by about 1 MB (CPython 3.11's small-object pools)
    return SwitchingProfile(breakpoints, [ev.axis for ev in schedule.events])
