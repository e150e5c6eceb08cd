"""Why the mixed bath doubles the decoupling order of a rotation-invariant
model.

The propagator splits into bath blocks b0, b_x, b_y, b_z. Decoherence at
leading order is carried by the traces b_mu = Tr[b0 rho_B b_mu^+]. Under a
global pi rotation of the bath, b0 is even and the b_mu odd (except along
the rotation axis) whenever the Hamiltonian commutes with the rotation; a
maximally mixed bath state is rotation invariant, so every b_mu must equal
its own negative. With the b_mu gone, the surviving channel is quadratic in
the coupling blocks and the decay exponent doubles.

`qdd_decomposition` returns the propagator as its (4, D, D) stack of bath
blocks (b0, b_x, b_y, b_z), and `b_coefficients(blocks, r)` and
`rotation_parities(blocks, nu, m)` take that stack. The bath enters as its
D x k factor R, rho_B = R R^+ / k; the maximally mixed bath is the identity
factor of `make_states`.
"""

import numpy as np

import qddsim as q
from qddsim.linalg import AXES

mixed = q.make_states(q.BathKind.MAXIMALLY_MIXED, 3)

for label, sym in [("isotropic", q.SymmetryClass.ISOTROPIC),
                   ("anisotropic", q.SymmetryClass.ANISOTROPIC)]:
    parts = q.build_hamiltonian(q.random_couplings(42, 3, sym))
    blocks = q.qdd_decomposition(parts, n_x=2, n_z=1, tau=0.5)
    b_vec, b_mat = q.b_coefficients(blocks, mixed)
    print(f"\n== {label} model, N_x=2, N_z=1, tau=0.5")
    print(f"  rotation-invariance defect of H: {q.su2_defect(parts):.3e}")
    print(f"  max |b_mu|           : {np.abs(b_vec).max():.3e}")
    off = max(abs(b_mat[m, n]) for m in range(3) for n in range(3) if m != n)
    print(f"  max |b_munu|, mu!=nu : {off:.3e}")
    for nu in AXES:
        defects = q.rotation_parities(blocks, nu, 3)
        print(f"  parity defects about {nu.value}: even {defects.b0_even:.2e}, "
              f"odd {defects.perpendicular_odd:.2e}")

print("""
The even-pulse-number curiosity: with two inner and two outer pulses the
b_mu vanish to rounding even for the anisotropic model, which is why the
mixed bath doubles those cells too (the alternating staircase):""")
parts = q.build_hamiltonian(q.random_couplings(42, 3, q.SymmetryClass.ANISOTROPIC))
for n in (1, 2, 3):
    blocks = q.qdd_decomposition(parts, n, n, tau=0.05)
    b_vec, _ = q.b_coefficients(blocks, mixed)
    print(f"  N_x = N_z = {n}: max |b_mu| = {np.abs(b_vec).max():.3e}")
