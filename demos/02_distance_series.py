"""Distance norm between protected and unprotected evolution.

One anisotropic central-spin model, three pulse cells, a geometric grid of
durations. The local log-log slope between neighboring points already shows
the min(N_x, N_z) + 1 scaling before any fitting.

The bath is carried as one D x k factor R, rho_B = R R^+ / k:
`make_states` returns the product-bath ket as one column (the maximally
mixed bath would be the identity), and d averages the three qubit
preparations x, y, z on that one bath state.
"""

import numpy as np

import qddsim as q

couplings = q.random_couplings(seed=42, m=3)
parts = q.build_hamiltonian(couplings)
evolver = q.TogglingEvolver(parts)
ket = q.make_states(q.BathKind.PRODUCT, 3, q.default_directions(3))

taus = np.geomspace(3e-3, 3e-2, 8)
for n_x, n_z in [(1, 1), (2, 2), (0, 2)]:
    rows = [q.qdd_distance(parts, ket, n_x, n_z, t, evolver) for t in taus]
    print(f"\nN_x={n_x}, N_z={n_z}   (expect slope about {min(n_x, n_z) + 1})")
    print(f"  {'tau':>12} {'d':>14} {'slope':>8}")
    for i, r in enumerate(rows):
        slope = ""
        if i:
            slope = f"{np.log(r.d / rows[i-1].d) / np.log(taus[i] / taus[i-1]):8.3f}"
        print(f"  {r.tau:12.5f} {r.d:14.5e} {slope}")

print("\nCSV of the last cell (what the `simulate` command emits):\n")
print(q.series_csv(rows[:3]))
