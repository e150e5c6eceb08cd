"""Nested pulse schedules and their switching functions.

Builds a few QDD schedules, shows where the pulses land, the net qubit
rotation of the whole sequence, and the sign pattern the pulses imprint on
the three coupling axes.
"""

import numpy as np

import qddsim as q

for n_x, n_z in [(1, 1), (2, 2), (3, 0), (0, 3)]:
    s = q.qdd_schedule(n_x, n_z, tau=1.0)
    print(f"N_x={n_x}, N_z={n_z}: {len(s.events)} pulses "
          f"(= N_x + N_z + N_x*N_z = {n_x + n_z + n_x * n_z})")
    for ev in s.events:
        print(f"    t = {ev.time:.6f}  {ev.axis.value.upper()} pulse")

print("\nNet rotation of the whole sequence (a Pauli monomial up to sign):")
for n_x, n_z in [(1, 1), (2, 1), (0, 1), (2, 2)]:
    p = q.switching_profile(q.qdd_schedule(n_x, n_z, 1.0)).net_rotation
    print(f"  N_x={n_x}, N_z={n_z}:\n{np.round(p.real, 1) + 1j * np.round(p.imag, 1)}")

print("\nSwitching signs (f_x, f_y, f_z) between pulses for N_x = N_z = 1:")
prof = q.switching_profile(q.qdd_schedule(1, 1, 1.0))
for i, triple in enumerate(prof.values):
    a, b = prof.breakpoints[i], prof.breakpoints[i + 1]
    print(f"  ({a:.2f}, {b:.2f}]  f = {tuple(int(x) for x in triple)}")
print("time average of every f:", prof.durations @ prof.values)
