"""Duration sweeps and power-law exponent fits for grids of pulse numbers.

For every cell (N_x, N_z) the distance norm is sampled on a geometric tau
grid and the exponent zeta of d ~ tau^zeta is the least-squares slope of
log d against log tau. Only points with d inside an accepted window count:
the floor keeps clear of the rounding plateau of double precision, the
ceiling keeps out of the regime where subleading powers bend the curve.

Each cell runs one window loop. `_windows` yields candidate (taus, d
ceiling) windows, most asymptotic first, and the first whose freshly
evaluated points fit cleanly (r^2 at least 0.999) wins; as a final guard
the fit drops the largest-tau point once if it alone degrades the fit. A
fixed grid is one window under d_hi. The adaptive grid walks one halving
ladder per cell, tau = TAU_START / 2^k, down until d first reaches the
floor, for at most MAX_HALVINGS halvings (the tau ranges differ by orders
of magnitude between zeta = 1 and zeta = 14 cells). Its ceilings ascend by
decades from 1e3 * d_lo, and each reads its tau window off the ladder:
from the ladder's last rung up to the first rung whose d is below the
ceiling. Every step depends only on computed distances, so results are
deterministic and independent of worker scheduling. The top rung is one
`qdd_distance`; the rungs below it go through `qdd_distances` in full
chains, as many rungs as one chain of `qdd_distances` carries: 20 for the
product bath, one for the maximally mixed bath from M = 4 on. The walk
stops at the chain that holds the first rung at the floor, so a cell may
evaluate rungs past the floor, which no window uses; a duration's d is the
same, bit for bit, alone or batched. A window's new durations go through
one `qdd_distances` call, which owns the batching into chains.

A fitted cell keeps the points its fit used as one read-only (5, n) float
array of its own, rows tau, d, d_x, d_y, d_z, reads its window off it and
builds `DistanceResult`s from it only when asked, so a finished table holds
one small array per cell instead of an object per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .evolution import TogglingEvolver, evolver_for
from .linalg import PauliAxis, _array_aware_eq, check_count, check_durations
from .metrics import (
    BathKind,
    DistanceResult,
    _durations_per_chain,
    make_states,
    qdd_distance,
    qdd_distances,
)
from .model import CouplingSet, HamiltonianParts, build_hamiltonian

R_SQUARED_MIN = 0.999

#: Duration at the top of every cell's halving ladder.
TAU_START = 1.0

#: Default accepted d window [D_LO, D_HI] of every fit.
D_LO, D_HI = 1e-11, 1e-2

#: Most halvings of one ladder. A cell whose d is still above the floor at
#: TAU_START / 2**MAX_HALVINGS ends its ladder there, and the fits decide
#: whether the windows above it suffice.
MAX_HALVINGS = 401


class WindowFailureError(RuntimeError):
    """No acceptable fit window for a cell. Carries the achieved d range (None
    when no d was computed), and its text names that range and the d
    evaluations spent."""

    def __init__(self, message: str, d_range: tuple[float, float] | None, evaluations: int):
        super().__init__(message, d_range, evaluations)  # the arguments, so that it pickles
        self.d_range = d_range

    def __str__(self) -> str:
        message, d_range, evaluations = self.args
        reached = "no d" if d_range is None else f"d in [{d_range[0]:.3e}, {d_range[1]:.3e}]"
        return f"{message}; reached {reached} over {evaluations} d evaluations"


@dataclass
class GeometricGrid:
    """Fixed geometric tau grid (no adaptation)."""

    tau_min: float
    tau_max: float
    points: int = 16

    def __post_init__(self):
        message = "need 0 < tau_min < tau_max < inf"
        bounds = [check_durations(t, message, ndim=0) for t in (self.tau_min, self.tau_max)]
        if not bounds[0] < bounds[1]:
            raise ValueError(f"{message}, got {bounds[0]} and {bounds[1]}")
        check_count(self.points, 6, "a geometric grid needs at least 6 points")

    def taus(self) -> np.ndarray:
        return np.geomspace(self.tau_min, self.tau_max, self.points)


@dataclass
class AdaptiveGrid:
    """Read each cell's tau window off its halving ladder; fit `points` there."""

    points: int = 20

    def __post_init__(self):
        check_count(self.points, 6, "an adaptive grid needs at least 6 points")


@dataclass
class SweepSpec:
    """Everything a sweep needs: model, bath preparation, grid, workers and
    the accepted d window [d_lo, d_hi], which bounds fits on either grid."""

    couplings: CouplingSet
    bath_kind: BathKind
    directions: list[tuple[PauliAxis, int]] | None = None
    n_x_values: Sequence[int] = (0, 1, 2, 3)
    n_z_values: Sequence[int] = (0, 1, 2, 3)
    tau_grid: GeometricGrid | AdaptiveGrid = field(default_factory=AdaptiveGrid)
    workers: int = 1
    d_lo: float = D_LO
    d_hi: float = D_HI

    def __post_init__(self):
        if not isinstance(self.couplings, CouplingSet):
            raise ValueError(f"couplings must be a CouplingSet, got {self.couplings!r}")
        if not (1e-13 < self.d_lo < self.d_hi < 1e-1):
            raise ValueError("need 1e-13 < d_lo < d_hi < 1e-1")
        check_count(self.workers, 1, f"workers must be an integer >= 1, got {self.workers!r}")
        if not isinstance(self.tau_grid, (GeometricGrid, AdaptiveGrid)):
            raise ValueError(
                f"tau_grid must be a GeometricGrid or an AdaptiveGrid, got {self.tau_grid!r}"
            )
        for name in ("n_x_values", "n_z_values"):
            counts = tuple(getattr(self, name))
            message = f"{name} must be distinct nonnegative integers, at least one"
            for n in counts:
                check_count(n, 0, message)
            if not counts or len(set(counts)) < len(counts):
                raise ValueError(message)
            setattr(self, name, counts)  # the checked tuple: a generator is spent
        make_states(self.bath_kind, self.couplings.m, self.directions)  # a bath it can build


@dataclass
class FitResult:
    zeta: float
    stderr: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


@dataclass(slots=True)
class ScalingResult:
    """Fitted exponent of one cell together with the data behind it.

    `kept` holds the fit window's points as rows tau, d, d_x, d_y, d_z, in
    ascending tau; the window is read off its first and last tau.
    """

    n_x: int
    n_z: int
    kept: np.ndarray
    zeta: float
    zeta_stderr: float
    r_squared: float

    __eq__ = _array_aware_eq

    @property
    def window(self) -> tuple[float, float]:
        return float(self.kept[0, 0]), float(self.kept[0, -1])

    @property
    def points(self) -> tuple[DistanceResult, ...]:
        """The kept points, built afresh from `kept`."""
        return tuple(
            DistanceResult(tau=tau, d=d, d_gamma=(dx, dy, dz))
            for tau, d, dx, dy, dz in self.kept.T.tolist()
        )

    def to_json_dict(self, spec: SweepSpec) -> dict:
        return {
            "n_x": self.n_x,
            "n_z": self.n_z,
            "zeta": self.zeta,
            "zeta_stderr": self.zeta_stderr,
            "r_squared": self.r_squared,
            "window": list(self.window),
            "points": [
                {"tau": tau, "d": d, "dx": dx, "dy": dy, "dz": dz}
                for tau, d, dx, dy, dz in self.kept.T.tolist()
            ],
            "seed": int(spec.couplings.seed),
            "symmetry_class": spec.couplings.symmetry_class.value,
            "topology": spec.couplings.topology.value,
            "bath_kind": spec.bath_kind.value,
        }


def _ols_loglog(taus: np.ndarray, ds: np.ndarray) -> FitResult:
    x, y = np.log(taus), np.log(ds)
    n = len(x)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = float(np.sqrt(ss_res / (n - 2) / sxx)) if n > 2 and sxx > 0 else 0.0
    return FitResult(
        zeta=float(slope),
        stderr=stderr,
        r_squared=r_squared,
        window=(float(taus[0]), float(taus[-1])),
        n_points=n,
    )


def fit_exponent(
    taus: Sequence[float],
    ds: Sequence[float],
    d_lo: float = D_LO,
    d_hi: float = D_HI,
) -> FitResult:
    """Least-squares slope of log d vs log tau over the accepted window.

    Uses only points with d in [d_lo, d_hi]; needs at least five of them.
    If the full-window fit has r^2 below 0.999, the largest-tau point is
    excluded once (the asymptotic-regime guard).
    """
    taus = check_durations(taus, "need every tau > 0 and finite")
    ds = np.asarray(ds, dtype=float)
    if taus.shape != ds.shape or not np.isfinite(ds).all():
        raise ValueError(
            f"need one d per tau and every d finite, got {taus.size} taus, {ds.size} ds"
        )
    keep = (ds >= d_lo) & (ds <= d_hi)
    if int(keep.sum()) < 5:
        achieved = (float(ds.min()), float(ds.max())) if len(ds) else None
        raise WindowFailureError(
            f"only {int(keep.sum())} points inside d window [{d_lo:g}, {d_hi:g}]",
            achieved,
            len(ds),
        )
    order = np.argsort(taus[keep])
    tw, dw = taus[keep][order], ds[keep][order]
    fit = _ols_loglog(tw, dw)
    if fit.r_squared < R_SQUARED_MIN and len(tw) > 5:
        retry = _ols_loglog(tw[:-1], dw[:-1])
        if retry.r_squared > fit.r_squared:
            fit = retry
    return fit


class _CellSampler:
    """Memoized d(tau) evaluation for one cell, cached as rows (tau, d, d_x, d_y, d_z).

    `d` evaluates one duration, as the halving ladder's top rung does; `rows`
    evaluates the uncached durations of a chain of rungs or of a window in
    one `qdd_distances` call and returns them as a (5, n) array. A chain of
    rungs may run past the ladder's floor rung, so the cell's evaluation
    count, `len(cache)`, can exceed the rungs and window points it used by
    up to one chain less one rung.
    """

    def __init__(self, parts, r, n_x, n_z, evolver):
        self.parts, self.r = parts, r
        self.n_x, self.n_z = n_x, n_z
        self.evolver = evolver
        self.cache: dict[float, tuple[float, ...]] = {}

    def d(self, tau: float) -> float:
        row = self.cache.get(tau)
        if row is None:
            res = qdd_distance(self.parts, self.r, self.n_x, self.n_z, tau, self.evolver)
            row = self.cache[tau] = (res.tau, res.d, *res.d_gamma)
        return row[1]

    def rows(self, taus) -> np.ndarray:
        todo = list(dict.fromkeys(t for t in taus if t not in self.cache))
        found = qdd_distances(self.parts, self.r, self.n_x, self.n_z, todo, self.evolver)
        self.cache.update((t, (res.tau, res.d, *res.d_gamma)) for t, res in zip(todo, found))
        return np.array([self.cache[t] for t in taus]).T


def _rungs(sampler: _CellSampler):
    """Yield the halving ladder's (tau, d), tau = TAU_START / 2^j for j up to
    MAX_HALVINGS: the top rung alone, then the rest in full chains of
    `qdd_distances`, as many rungs as one chain carries for the bath factor."""
    yield TAU_START, sampler.d(TAU_START)
    per_chain = _durations_per_chain(sampler.r.shape[1])
    for start in range(1, MAX_HALVINGS + 1, per_chain):
        stop = min(start + per_chain, MAX_HALVINGS + 1)
        chain = [TAU_START / 2.0**j for j in range(start, stop)]
        yield from zip(chain, sampler.rows(chain)[1].tolist())


def _windows(sampler: _CellSampler, spec: SweepSpec):
    """Yield the cell's candidate (taus, d ceiling) windows, most asymptotic first.

    The leading power of d(tau) is defined at tau -> 0, so the adaptive
    grid's ceilings ascend from just above the floor. Higher ceilings only
    come into play when the bottom of a window is bent by a crossover or
    grazes the rounding floor.
    """
    grid = spec.tau_grid
    if isinstance(grid, GeometricGrid):
        yield grid.taus(), spec.d_hi
        return
    ladder = []
    for tau, d in _rungs(sampler):
        ladder.append(tau)
        if not d > spec.d_lo:  # at the floor; a NaN d ends the walk too
            break
    ceilings, ceiling = [], 1e3 * spec.d_lo
    while ceiling < spec.d_hi:
        ceilings.append(ceiling)
        ceiling *= 10.0
    for ceiling in ceilings + [spec.d_hi]:
        t_hi = next((t for t in ladder if sampler.d(t) < ceiling), None)
        if t_hi is not None:  # a capped ladder may never fall below this ceiling
            yield np.geomspace(ladder[-1], t_hi, grid.points), ceiling


def _fit_cell(sampler: _CellSampler, spec: SweepSpec) -> tuple[FitResult, np.ndarray]:
    """Fit the first window of `_windows` whose fit reaches r^2 >= R_SQUARED_MIN.

    Also return the window's rows that the fit used: d inside [d_lo, ceiling]
    and tau up to the fit's largest, which leaves out the top point when the
    drop-last guard of `fit_exponent` fired.
    """
    for taus, ceiling in _windows(sampler, spec):
        rows = sampler.rows(taus)
        try:
            fit = fit_exponent(taus, rows[1], spec.d_lo, ceiling)
        except WindowFailureError:
            continue
        if fit.r_squared >= R_SQUARED_MIN:
            tau, d = rows[:2]
            return fit, rows[:, (d >= spec.d_lo) & (d <= ceiling) & (tau <= fit.window[1])]
    ds = [row[1] for row in sampler.cache.values()]
    raise WindowFailureError(
        "no tau window produced an acceptable fit", (min(ds), max(ds)), len(ds)
    )


def sweep_cell(
    spec: SweepSpec,
    n_x: int,
    n_z: int,
    parts: HamiltonianParts | None = None,
    evolver: TogglingEvolver | None = None,
) -> ScalingResult:
    """Sample d(tau) for one cell, on the bath state of `spec`, and fit its exponent.

    A given `parts` is trusted to be `build_hamiltonian(spec.couplings)`, not re-checked:
    the parts of another model are fitted under `spec`'s labels."""
    if parts is None:
        parts = build_hamiltonian(spec.couplings)
    evolver = evolver_for(parts, evolver)
    r = make_states(spec.bath_kind, spec.couplings.m, spec.directions)
    # the evolver's own parts, so each evaluation's check is an identity test
    sampler = _CellSampler(evolver.parts, r, n_x, n_z, evolver)
    fit, kept = _fit_cell(sampler, spec)
    kept = np.array(kept, order="C")  # its own array, not a view of a transposed one
    kept.flags.writeable = False
    return ScalingResult(
        n_x=n_x,
        n_z=n_z,
        kept=kept,
        zeta=fit.zeta,
        zeta_stderr=fit.stderr,
        r_squared=fit.r_squared,
    )


@dataclass
class ExponentTable:
    """Grid of per-cell fits; a failed cell keeps its exception type and text."""

    n_x_values: tuple[int, ...]
    n_z_values: tuple[int, ...]
    cells: dict[tuple[int, int], ScalingResult]
    failures: dict[tuple[int, int], str]

    __eq__ = _array_aware_eq

    def zeta(self, n_x: int, n_z: int) -> float:
        return self.cells[(n_x, n_z)].zeta

    def to_csv(self) -> str:
        """Rows are N_z, columns N_x; exponents rounded to two decimals."""
        header = "nz\\nx," + ",".join(str(nx) for nx in self.n_x_values)
        lines = [header]
        for nz in self.n_z_values:
            row = [str(nz)]
            for nx in self.n_x_values:
                cell = self.cells.get((nx, nz))
                row.append(f"{cell.zeta:.2f}" if cell is not None else "nan")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def exponent_table(spec: SweepSpec) -> ExponentTable:
    """Fit every cell of the (N_x, N_z) grid on `spec.workers` threads (in the
    calling thread when that is one).

    An exception in one cell is recorded as that cell's failure, not raised,
    so the finished cells are kept. The assembled table is deterministic
    regardless of worker count or completion order.
    """
    parts = build_hamiltonian(spec.couplings)
    evolver = TogglingEvolver(parts)
    cells_todo = [(nx, nz) for nx in spec.n_x_values for nz in spec.n_z_values]

    def run(cell):
        try:
            return sweep_cell(spec, *cell, parts=parts, evolver=evolver)
        except Exception as err:
            return f"{type(err).__name__}: {err}"

    if spec.workers == 1:
        outcomes = [run(cell) for cell in cells_todo]
    else:
        # imported where it is used, so that `import qddsim` does not pay for it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            outcomes = list(pool.map(run, cells_todo))
    done = list(zip(cells_todo, outcomes))
    return ExponentTable(
        n_x_values=tuple(spec.n_x_values),
        n_z_values=tuple(spec.n_z_values),
        cells={cell: out for cell, out in done if not isinstance(out, str)},
        failures={cell: out for cell, out in done if isinstance(out, str)},
    )
