"""Quadratic dynamical decoupling of a qubit coupled to a spin bath.

Exact dense simulation of nested Uhrig pulse sequences on central-spin and
spin-chain models, the distance norm between decoupled and real evolution,
power-law scaling fits over pulse-number grids, and the bath-trace and
Magnus-cumulant diagnostics that explain when symmetry doubles the
decoupling order.
"""

from .linalg import (
    AXES,
    PauliAxis,
    embed,
    pauli,
)
from .model import (
    CouplingSet,
    HamiltonianParts,
    SymmetryClass,
    Topology,
    build_hamiltonian,
    random_couplings,
    su2_defect,
)
from .sequence import (
    PulseSchedule,
    SwitchingProfile,
    qdd_schedule,
    switching_profile,
    uhrig_times,
)
from .evolution import (
    TogglingEvolver,
    pauli_decompose,
    qdd_decomposition,
)
from .metrics import (
    BathKind,
    DistanceResult,
    default_directions,
    frame_reduced_distance,
    make_states,
    qdd_distance,
    random_directions,
    series_csv,
)
from .symmetry import (
    ParityDefects,
    SymmetryReport,
    b_coefficients,
    rotation_parities,
    symmetry_report,
    t_decomposition,
    t_residual,
)
from .magnus import (
    DegenerateFitWindowError,
    MagnusReport,
    cumulant1,
    cumulant2,
    cumulant3,
    magnus_order_check,
    nested_integrals,
)
from .scaling import (
    AdaptiveGrid,
    ExponentTable,
    GeometricGrid,
    ScalingResult,
    SweepSpec,
    WindowFailureError,
    exponent_table,
    fit_exponent,
    sweep_cell,
)

__version__ = "0.1.0"
