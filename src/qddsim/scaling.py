"""Duration sweeps and power-law exponent fits for grids of pulse numbers.

For every cell (N_x, N_z) the distance norm is sampled on a geometric tau
grid and the exponent zeta of d ~ tau^zeta is the least-squares slope of
log d against log tau. Only points with d inside an accepted window count:
the floor keeps clear of the rounding plateau of double precision, the
ceiling keeps out of the regime where subleading powers bend the curve.

The adaptive policy walks one halving ladder per cell, tau = TAU_START / 2^k,
down until d first reaches the floor, for at most MAX_HALVINGS halvings (the
tau ranges differ by orders of magnitude between zeta = 1 and zeta = 14
cells). Candidate window ceilings then ascend from just above the floor, and
each reads its tau window off the ladder: from the ladder's last rung up to
the first rung whose d is below the ceiling. The first window whose freshly
gridded points fit cleanly (r^2 at least 0.999) wins; as a final guard the
largest-tau point is dropped once if it alone degrades the fit. Every step
depends only on computed distances, so results are deterministic and
independent of worker scheduling. Each rung of the ladder is one
`qdd_distance`, since it decides the next; a window's new durations go
through one `qdd_distances` call, which owns the batching into chains.

A fitted cell keeps its window's points as one (5, n) float array, rows
tau, d, d_x, d_y, d_z, and builds `DistanceResult`s from it only when
asked, so a finished table holds a few small arrays per cell instead of an
object per point.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .evolution import TogglingEvolver, evolver_for
from .linalg import PauliAxis
from .metrics import BathKind, DistanceResult, make_states, qdd_distance, qdd_distances
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
    """No acceptable fit window for a cell; carries the achieved d range."""

    def __init__(self, message: str, d_range: tuple[float, float] | None = None):
        super().__init__(message)
        self.d_range = d_range


@dataclass
class GeometricGrid:
    """Fixed geometric tau grid (no adaptation)."""

    tau_min: float
    tau_max: float
    points: int = 16

    def __post_init__(self):
        if not (0 < self.tau_min < self.tau_max < np.inf):
            raise ValueError("need 0 < tau_min < tau_max < inf")
        if not (isinstance(self.points, numbers.Integral) and self.points >= 6):
            raise ValueError("a geometric grid needs at least 6 points")

    def taus(self) -> np.ndarray:
        return np.geomspace(self.tau_min, self.tau_max, self.points)


@dataclass
class AdaptiveGrid:
    """Read each cell's tau window off its halving ladder; fit `points` there."""

    points: int = 20

    def __post_init__(self):
        if not (isinstance(self.points, numbers.Integral) and self.points >= 6):
            raise ValueError("an adaptive grid needs at least 6 points")


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
        if not (1e-13 < self.d_lo < self.d_hi < 1e-1):
            raise ValueError("need 1e-13 < d_lo < d_hi < 1e-1")
        if not (isinstance(self.workers, numbers.Integral) and self.workers >= 1):
            raise ValueError(f"workers must be an integer >= 1, got {self.workers!r}")
        for name in ("n_x_values", "n_z_values"):
            counts = list(getattr(self, name))
            if not counts or len(set(counts)) < len(counts) or not all(
                isinstance(n, numbers.Integral) and n >= 0 for n in counts
            ):
                raise ValueError(f"{name} must be distinct nonnegative integers, at least one")
        make_states(self.bath_kind, self.couplings.m, self.directions)  # a bath it can build


@dataclass
class FitResult:
    zeta: float
    stderr: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


@dataclass
class ScalingResult:
    """Fitted exponent of one cell together with the data behind it.

    `kept` holds the fit window's points as rows tau, d, d_x, d_y, d_z.
    """

    n_x: int
    n_z: int
    kept: np.ndarray
    zeta: float
    zeta_stderr: float
    r_squared: float
    window: tuple[float, float]

    @property
    def points(self) -> tuple[DistanceResult, ...]:
        """The kept points, built afresh from `kept`."""
        return tuple(
            DistanceResult(tau=tau, d=d, d_gamma=(dx, dy, dz))
            for tau, d, dx, dy, dz in self.kept.T.tolist()
        )

    def to_json_dict(self, spec: SweepSpec | None = None) -> dict:
        doc = {
            "n_x": self.n_x,
            "n_z": self.n_z,
            "zeta": self.zeta,
            "zeta_stderr": self.zeta_stderr,
            "r_squared": self.r_squared,
            "window": list(self.window),
            "points": [
                {"tau": p.tau, "d": p.d, "dx": p.d_gamma[0], "dy": p.d_gamma[1], "dz": p.d_gamma[2]}
                for p in self.points
            ],
        }
        if spec is not None:
            doc["seed"] = spec.couplings.seed
            doc["symmetry_class"] = spec.couplings.symmetry_class.value
            doc["topology"] = spec.couplings.topology.value
            doc["bath_kind"] = spec.bath_kind.value
        return doc


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
    taus = np.asarray(taus, dtype=float)
    ds = np.asarray(ds, dtype=float)
    if taus.shape != ds.shape or not np.all(taus > 0):
        raise ValueError(f"need one d per tau and every tau > 0, got {taus.size} taus, {ds.size} ds")
    keep = (ds >= d_lo) & (ds <= d_hi)
    if int(keep.sum()) < 5:
        achieved = (float(ds.min()), float(ds.max())) if len(ds) else None
        raise _window_failure(
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
    """Memoized d(tau) evaluation for one cell.

    `result` evaluates one duration, as the halving ladder needs; `results`
    evaluates a window's uncached durations in one `qdd_distances` call.
    """

    def __init__(self, parts, r, n_x, n_z, evolver):
        self.parts, self.r = parts, r
        self.n_x, self.n_z = n_x, n_z
        self.evolver = evolver
        self.cache: dict[float, DistanceResult] = {}
        self.evaluations = 0

    def result(self, tau: float) -> DistanceResult:
        hit = self.cache.get(tau)
        if hit is None:
            hit = qdd_distance(
                self.parts, self.r, self.n_x, self.n_z, tau, self.evolver
            )
            self.cache[tau] = hit
            self.evaluations += 1
        return hit

    def results(self, taus) -> list[DistanceResult]:
        todo = list(dict.fromkeys(t for t in taus if t not in self.cache))
        found = qdd_distances(self.parts, self.r, self.n_x, self.n_z, todo, self.evolver)
        self.cache.update(zip(todo, found))
        self.evaluations += len(todo)
        return [self.cache[t] for t in taus]

    def d(self, tau: float) -> float:
        return self.result(tau).d


def _window_fit(
    sampler: _CellSampler, taus: np.ndarray, d_lo: float, d_hi: float
) -> tuple[FitResult, list[DistanceResult]]:
    """Fit d at `taus` over the window [d_lo, d_hi]; also return the points the fit used.

    Those are the points inside the window up to the fit's largest tau, which
    leaves out the top point when the drop-last guard of `fit_exponent` fired.
    """
    results = sampler.results(taus)
    fit = fit_exponent(taus, [r.d for r in results], d_lo, d_hi)
    return fit, [r for r in results if d_lo <= r.d <= d_hi and r.tau <= fit.window[1]]


def _adaptive_fit(sampler: _CellSampler, spec: SweepSpec) -> tuple[FitResult, list[DistanceResult]]:
    """Fit the most asymptotic clean window.

    The leading power of d(tau) is defined at tau -> 0, so candidate window
    ceilings ascend from just above the floor: the first ceiling whose
    window on the halving ladder, freshly gridded, fits with r^2 >= 0.999
    wins. Higher ceilings only come into play when the bottom of the window
    is bent by a crossover or grazes the rounding floor.
    """
    d_lo, d_hi = spec.d_lo, spec.d_hi
    ladder = [TAU_START]
    while sampler.d(ladder[-1]) > d_lo and len(ladder) <= MAX_HALVINGS:
        ladder.append(ladder[-1] / 2.0)
    ceilings = []
    ceiling = 1e3 * d_lo
    while ceiling < d_hi:
        ceilings.append(ceiling)
        ceiling *= 10.0
    ceilings.append(d_hi)
    for d_hi_eff in ceilings:
        t_hi = next((t for t in ladder if sampler.d(t) < d_hi_eff), None)
        if t_hi is None:  # a capped ladder that never fell below this ceiling
            continue
        taus = np.geomspace(ladder[-1], t_hi, spec.tau_grid.points)
        try:
            fit, kept = _window_fit(sampler, taus, d_lo, d_hi_eff)
        except WindowFailureError:
            continue
        if fit.r_squared >= R_SQUARED_MIN:
            return fit, kept
    raise _window_failure(
        "no tau window produced an acceptable fit", _d_range(sampler), sampler.evaluations
    )


def _window_failure(
    message: str, d_range: tuple[float, float] | None, evaluations: int
) -> WindowFailureError:
    """A failure whose text names the d range reached and the evaluations spent."""
    reached = "no d" if d_range is None else f"d in [{d_range[0]:.3e}, {d_range[1]:.3e}]"
    return WindowFailureError(
        f"{message}; reached {reached} over {evaluations} d evaluations", d_range=d_range
    )


def _d_range(sampler: _CellSampler) -> tuple[float, float] | None:
    if not sampler.cache:
        return None
    ds = [r.d for r in sampler.cache.values()]
    return (float(min(ds)), float(max(ds)))


def sweep_cell(
    spec: SweepSpec,
    n_x: int,
    n_z: int,
    parts: HamiltonianParts | None = None,
    evolver: TogglingEvolver | None = None,
) -> ScalingResult:
    """Sample d(tau) for one cell, on the bath state of `spec`, and fit its exponent."""
    if parts is None:
        parts = build_hamiltonian(spec.couplings)
    evolver = evolver_for(parts, evolver)
    r = make_states(spec.bath_kind, spec.couplings.m, spec.directions)
    # the evolver's own parts, so each evaluation's check is an identity test
    sampler = _CellSampler(evolver.parts, r, n_x, n_z, evolver)

    if isinstance(spec.tau_grid, GeometricGrid):
        fit, kept = _window_fit(sampler, spec.tau_grid.taus(), spec.d_lo, spec.d_hi)
        if fit.r_squared < R_SQUARED_MIN:
            raise _window_failure(
                f"fixed grid fit has r^2 = {fit.r_squared:.6f} < {R_SQUARED_MIN}",
                _d_range(sampler),
                sampler.evaluations,
            )
    else:
        fit, kept = _adaptive_fit(sampler, spec)

    rows = np.array([(r.tau, r.d, *r.d_gamma) for r in kept]).T.copy()
    rows.flags.writeable = False
    return ScalingResult(
        n_x=n_x,
        n_z=n_z,
        kept=rows,
        zeta=fit.zeta,
        zeta_stderr=fit.stderr,
        r_squared=fit.r_squared,
        window=fit.window,
    )


@dataclass
class ExponentTable:
    """Grid of per-cell fits; a failed cell keeps its exception type and text."""

    n_x_values: tuple[int, ...]
    n_z_values: tuple[int, ...]
    cells: dict[tuple[int, int], ScalingResult]
    failures: dict[tuple[int, int], str]

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
    """Fit every cell of the (N_x, N_z) grid on `spec.workers` threads.

    An exception in one cell is recorded as that cell's failure, not raised,
    so the finished cells are kept. The assembled table is deterministic
    regardless of worker count or completion order.
    """
    parts = build_hamiltonian(spec.couplings)
    evolver = TogglingEvolver(parts)
    cells_todo = [(nx, nz) for nx in spec.n_x_values for nz in spec.n_z_values]

    def run(cell):
        nx, nz = cell
        return sweep_cell(spec, nx, nz, parts=parts, evolver=evolver)

    cells: dict[tuple[int, int], ScalingResult] = {}
    failures: dict[tuple[int, int], str] = {}
    with ThreadPoolExecutor(max_workers=spec.workers) as pool:
        for cell, future in [(c, pool.submit(run, c)) for c in cells_todo]:
            try:
                cells[cell] = future.result()
            except Exception as err:
                failures[cell] = f"{type(err).__name__}: {err}"
    return ExponentTable(
        n_x_values=tuple(spec.n_x_values),
        n_z_values=tuple(spec.n_z_values),
        cells=cells,
        failures=failures,
    )
