"""Switching-function integrals and the leading cumulants of the propagator.

The toggling Hamiltonian is piecewise constant, so all iterated integrals
of the sign functions evaluate in closed form. For a single pulse pair the
nonzero second-order integrals are tau^2/4 and tau^2/2 plus one
antisymmetric cross pair; truncating the exponent after the second cumulant
leaves a remainder of order tau^3, which the fitted slope confirms.
"""

import numpy as np

import qddsim as q

tau = 2.0
report = q.nested_integrals(q.switching_profile(q.qdd_schedule(1, 1, tau)))
names = "xyz"
print(f"single pulse pair, tau = {tau}:")
for m in range(3):
    print(f"  I2[{names[m]}] = {report.i2_mu[m]:+.6f}")
for m in range(3):
    for n in range(3):
        if abs(report.i2_munu[m, n]) > 1e-12:
            print(f"  I2[{names[m]},{names[n]}] = {report.i2_munu[m, n]:+.6f}")

print("\ntriple integrals for one outer, two inner pulses (tau = 1):")
rep12 = q.nested_integrals(q.switching_profile(q.qdd_schedule(1, 2, 1.0)))
for a in range(3):
    for b in range(3):
        for c in range(3):
            v = rep12.i3[a, b, c]
            if abs(v) > 1e-12:
                print(f"  I3[{names[a]}{names[b]}{names[c]}] = {v:+.8f}")

parts = q.build_hamiltonian(q.random_couplings(42, 2))
print("\nthird cumulant qubit content for that sequence (x only):")
h3 = q.cumulant3(parts, rep12)
for key, value in q.qubit_components(h3).items():
    print(f"  {key}: {value:.3e}")

print("\ntruncation remainder slopes (expect order + 1):")
taus = np.geomspace(0.02, 0.2, 8)
for order in (1, 2, 3):
    slope = q.magnus_order_check(parts, 1, 1, taus, order=order)
    print(f"  cumulants through order {order}: slope {slope:.3f}")
