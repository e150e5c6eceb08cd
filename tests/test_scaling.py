import collections
import gc
import json
import pickle
import re
import types

import numpy as np
import pytest

import qddsim as q
from qddsim.metrics import DistanceResult
from qddsim.scaling import MAX_HALVINGS, TAU_START, WindowFailureError, _CellSampler

from conftest import PRIMARY_SEED
from reference import two_walk_fit


def test_fit_exact_power_law():
    taus = np.geomspace(1e-3, 1e-1, 10)
    ds = 0.7 * taus**4
    fit = q.fit_exponent(taus, ds)
    assert fit.zeta == pytest.approx(4.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr < 1e-10


def test_fit_with_subleading_term():
    taus = np.geomspace(5e-3, 5e-2, 12)
    ds = 0.3 * taus**4 * (1 + taus)
    fit = q.fit_exponent(taus, ds)
    assert 3.97 <= fit.zeta <= 4.03


def test_fit_rejects_points_below_floor():
    taus = np.geomspace(1e-3, 1e-2, 8)
    ds = 1e-13 * np.ones_like(taus)
    with pytest.raises(WindowFailureError) as exc:
        q.fit_exponent(taus, ds)
    assert exc.value.d_range is not None


def test_fit_needs_five_points():
    taus = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    with pytest.raises(WindowFailureError):
        q.fit_exponent(taus, 1e-5 * np.ones(4))


def test_fit_rejects_mismatched_or_nonpositive_taus():
    taus = np.geomspace(1e-3, 1e-1, 10)
    ds = 0.7 * taus**4
    with pytest.raises(ValueError, match="one d per tau"):
        q.fit_exponent(taus, ds[:-1])
    for bad in (0.0, -1e-3):
        with pytest.raises(ValueError, match="every tau > 0"):
            q.fit_exponent(np.concatenate(([bad], taus[1:])), ds)


def test_fit_rejects_non_finite_taus():
    # an infinite tau would reach the least-squares solver and fail inside LAPACK
    ds = [1e-5, 2e-5, 3e-5, 4e-5, 5e-5, 6e-5]
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="every tau > 0"):
            q.fit_exponent([1, 2, 3, 4, 5, bad], ds)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_ds(bad):
    # a NaN d used to fall out of the window silently, leaving a 7-point fit
    taus = np.geomspace(1e-3, 1e-1, 10)
    ds = 0.7 * taus**4
    ds[3] = bad
    with pytest.raises(ValueError, match="every d finite"):
        q.fit_exponent(taus, ds)


def test_fit_drops_contaminated_top_point_once():
    taus = np.geomspace(1e-3, 1e-1, 10)
    ds = 0.7 * taus**3
    ds[-1] *= 3.0  # spoil the largest tau
    fit = q.fit_exponent(taus, ds)
    assert fit.n_points == 9
    assert fit.zeta == pytest.approx(3.0, abs=1e-9)


def test_window_reported_matches_points_used():
    taus = np.geomspace(1e-4, 1.0, 12)
    ds = 1e-3 * taus**2  # some points fall outside the window
    fit = q.fit_exponent(taus, ds)
    assert fit.window[0] >= 1e-4 and fit.window[1] <= 1.0
    assert fit.window[0] < fit.window[1]


def test_adaptive_grid_validation():
    c = q.random_couplings(PRIMARY_SEED, 1)
    with pytest.raises(ValueError):
        q.SweepSpec(couplings=c, bath_kind=q.BathKind.MAXIMALLY_MIXED, d_lo=1e-14)
    with pytest.raises(ValueError):
        q.SweepSpec(couplings=c, bath_kind=q.BathKind.MAXIMALLY_MIXED, d_lo=1e-3, d_hi=1e-5)
    with pytest.raises(ValueError):
        q.GeometricGrid(1e-2, 1.0, points=4)
    for tau_max in (np.inf, np.nan):
        with pytest.raises(ValueError, match="tau_max < inf"):
            q.GeometricGrid(1e-2, tau_max)
    with pytest.raises(ValueError):
        q.SweepSpec(couplings=c, bath_kind=q.BathKind.MAXIMALLY_MIXED, workers=0)


@pytest.mark.parametrize(
    "bounds", [(True, 2.0), ("0.001", "1"), (np.array([1e-3]), 1.0), (2.0, 1.0), (1.0, 1.0)]
)
def test_geometric_grid_bounds_are_two_ordered_durations(bounds):
    # each bound is one positive finite real number: not a boolean, a string or an array
    with pytest.raises(ValueError, match="need 0 < tau_min < tau_max < inf"):
        q.GeometricGrid(*bounds)


def test_sweep_spec_stores_the_pulse_counts_it_checked():
    # a generator used to be spent by the check, leaving a table of no cells
    c = q.random_couplings(PRIMARY_SEED, 1)
    spec = q.SweepSpec(
        c, q.BathKind.MAXIMALLY_MIXED, n_x_values=(n for n in range(2)), n_z_values=[1, 0]
    )
    assert spec.n_x_values == (0, 1) and spec.n_z_values == (1, 0)


@pytest.mark.parametrize("couplings", [None, "couplings", q.CouplingSet])
def test_sweep_spec_rejects_couplings_that_are_no_coupling_set(couplings):
    # None used to raise AttributeError from the bath check
    with pytest.raises(ValueError, match="couplings must be a CouplingSet"):
        q.SweepSpec(couplings=couplings, bath_kind=q.BathKind.MAXIMALLY_MIXED)


@pytest.mark.parametrize("tau_grid", [None, "adaptive", q.AdaptiveGrid, q.GeometricGrid])
def test_sweep_spec_rejects_a_tau_grid_that_is_no_grid_instance(tau_grid):
    # None used to fail every cell later; the class ran on its class attribute
    c = q.random_couplings(PRIMARY_SEED, 1)
    with pytest.raises(ValueError, match="tau_grid must be a GeometricGrid or an AdaptiveGrid"):
        q.SweepSpec(c, q.BathKind.MAXIMALLY_MIXED, tau_grid=tau_grid)


def test_sweep_spec_rejects_bad_pulse_count_lists():
    # an empty grid would fit no cell, a repeated count would fit its cells
    # twice, and a negative count only fails later, as a cell failure; booleans
    # used to run as the counts 0 and 1
    c = q.random_couplings(PRIMARY_SEED, 1)
    for name in ("n_x_values", "n_z_values"):
        for counts in ((), (1, 1, -2), (0, 1, 1), (-1,), (0, 1.5), (0.0, 1), (False, True)):
            with pytest.raises(ValueError, match=name):
                q.SweepSpec(couplings=c, bath_kind=q.BathKind.MAXIMALLY_MIXED, **{name: counts})
    # ranges, lists and NumPy integers are pulse counts too
    for counts in (range(4), [2, 0], np.arange(3), (np.int64(3),)):
        q.SweepSpec(c, q.BathKind.MAXIMALLY_MIXED, n_x_values=counts, n_z_values=counts)


@pytest.mark.parametrize("workers", [1.5, "2", 2.0, None, 0, True])
def test_sweep_spec_rejects_a_worker_count_that_is_no_positive_integer(workers):
    # 1.5 workers used to be accepted and run the table on two threads
    c = q.random_couplings(PRIMARY_SEED, 1)
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        q.SweepSpec(couplings=c, bath_kind=q.BathKind.MAXIMALLY_MIXED, workers=workers)


def test_sweep_spec_takes_a_numpy_integer_worker_count():
    c = q.random_couplings(PRIMARY_SEED, 1)
    assert q.SweepSpec(c, q.BathKind.MAXIMALLY_MIXED, workers=np.int64(2)).workers == 2


def _spec(seed=PRIMARY_SEED, sym=q.SymmetryClass.ANISOTROPIC,
          bath=q.BathKind.PRODUCT, cells=(0, 1), m=3):
    c = q.random_couplings(seed, m, sym)
    directions = q.default_directions(m) if bath is q.BathKind.PRODUCT else None
    return q.SweepSpec(
        couplings=c,
        bath_kind=bath,
        directions=directions,
        n_x_values=cells,
        n_z_values=cells,
    )


def test_sweep_cell_low_symmetry():
    res = q.sweep_cell(_spec(), 2, 2)
    assert res.zeta == pytest.approx(3.0, abs=0.15)
    assert res.r_squared >= 0.999
    assert len(res.points) >= 5
    assert all(1e-11 <= p.d <= 1e-2 for p in res.points)


def test_sweep_cell_vanishing_at_origin():
    # leading power is at least 1 in every case, so d -> 0 with tau
    for n_x, n_z in [(0, 0), (1, 0), (1, 1)]:
        res = q.sweep_cell(_spec(), n_x, n_z)
        assert res.zeta >= 1 - 0.05
        taus = [p.tau for p in res.points]
        ds = [p.d for p in res.points]
        assert ds[np.argmin(taus)] < ds[np.argmax(taus)]


def test_exponent_table_small_grid():
    table = q.exponent_table(_spec())
    assert not table.failures
    assert table.zeta(0, 0) == pytest.approx(1.0, abs=0.15)
    assert table.zeta(1, 1) == pytest.approx(2.0, abs=0.15)
    assert table.zeta(0, 1) == pytest.approx(1.0, abs=0.15)
    assert table.zeta(1, 0) == pytest.approx(1.0, abs=0.15)


def test_exponent_table_keeps_cells_around_a_failing_one(monkeypatch):
    real_sweep_cell = q.scaling.sweep_cell

    def sweep_cell(spec, n_x, n_z, **kwargs):
        if (n_x, n_z) == (2, 1):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_sweep_cell(spec, n_x, n_z, **kwargs)

    monkeypatch.setattr(q.scaling, "sweep_cell", sweep_cell)
    table = q.exponent_table(_spec(cells=range(4)))
    assert set(table.failures) == {(2, 1)}
    assert table.failures[(2, 1)] == "LinAlgError: Eigenvalues did not converge"
    assert len(table.cells) == 15
    assert table.to_csv().count("nan") == 1


def _fake_distance(d_small, calls):
    """d(tau) = 1 down to tau = 1e-4 and d_small(tau) below it; logs each tau."""

    def fake_distance(parts, ket, n_x, n_z, tau, evolver=None):
        calls.append(tau)
        d = 1.0 if tau >= 1e-4 else d_small(tau)
        return DistanceResult(tau=tau, d=d, d_gamma=(d, d, d))

    return fake_distance


def _fake_both(monkeypatch, fake_distance):
    """Put `fake_distance` in place of the one-duration and the batched entry points."""

    def fake_distances(parts, ket, n_x, n_z, taus, evolver=None):
        return [fake_distance(parts, ket, n_x, n_z, tau, evolver) for tau in taus]

    monkeypatch.setattr(q.scaling, "qdd_distance", fake_distance)
    monkeypatch.setattr(q.scaling, "qdd_distances", fake_distances)


def _mixed_spec():
    return q.SweepSpec(couplings=q.random_couplings(1, 1), bath_kind=q.BathKind.MAXIMALLY_MIXED)


def test_ladder_ends_after_max_halvings(monkeypatch):
    # below tau = 1e-4, d ~ tau^0.001 barely falls and never reaches the d
    # floor, so the ladder does not end by itself: it stops after 401
    # halvings, at the rung where the two-walk search's floor walk stopped
    # under its default budget, and the window from there up to its top is
    # fitted
    calls = []
    fake = _fake_distance(lambda tau: 1e-9 * (tau * 1e4) ** 1e-3, calls)
    _fake_both(monkeypatch, fake)
    result = q.sweep_cell(_mixed_spec(), 1, 1)
    ladder = [TAU_START / 2**k for k in range(402)]
    assert calls[: len(ladder)] == ladder
    assert result.window == (ladder[-1], 2.0**-14)
    assert result.zeta == pytest.approx(1e-3, abs=1e-9)


def test_a_product_ladder_ends_after_max_halvings_too(monkeypatch):
    # the product bath's rungs below the top come in chains of 20, and the
    # 401st halving opens one: that chain is cut to its one rung, so the
    # capped ladder ends where the mixed bath's does
    calls = []
    _fake_both(monkeypatch, _fake_distance(lambda tau: 1e-9 * (tau * 1e4) ** 1e-3, calls))
    spec = q.SweepSpec(
        couplings=q.random_couplings(1, 1),
        bath_kind=q.BathKind.PRODUCT,
        directions=q.default_directions(1),
    )
    result = q.sweep_cell(spec, 1, 1)
    ladder = [TAU_START / 2**k for k in range(MAX_HALVINGS + 1)]
    assert calls[: len(ladder)] == ladder
    assert result.window == (ladder[-1], 2.0**-14)


def test_every_ceiling_reads_the_same_capped_ladder(monkeypatch):
    # d is flat at 1e-9 below tau = 1e-4, so the ladder runs to its cap
    # without reaching the floor, and every ceiling reads the same window
    # off it: no tau is evaluated twice, and no ceiling fails on values
    # already computed (the two-walk search failed its second ceiling with
    # "adaptation budget exhausted while bracketing the window top")
    calls = []
    _fake_both(monkeypatch, _fake_distance(lambda tau: 1e-9, calls))
    spec = _mixed_spec()
    try:
        q.sweep_cell(spec, 1, 1)
    except WindowFailureError as err:
        assert str(err).startswith("no tau window produced an acceptable fit;")
    # the ladder's rungs plus the window grid's inner points
    assert len(calls) == len(set(calls)) == MAX_HALVINGS + 1 + spec.tau_grid.points - 2


def test_cell_whose_d_never_falls_fails_on_its_fits(monkeypatch):
    # no rung of the capped ladder lies below any ceiling, so no window can
    # be read off it; the two-walk search failed here on its budget instead
    calls = []
    _fake_both(monkeypatch, _fake_distance(lambda tau: 1.0, calls))
    with pytest.raises(WindowFailureError) as exc:
        q.sweep_cell(_mixed_spec(), 1, 1)
    assert str(exc.value) == (
        "no tau window produced an acceptable fit; "
        f"reached d in [1.000e+00, 1.000e+00] over {MAX_HALVINGS + 1} d evaluations"
    )


@pytest.mark.parametrize("bath", list(q.BathKind))
@pytest.mark.parametrize("sym", list(q.SymmetryClass))
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m", [3, 4])
def test_ladder_matches_two_walk_search(monkeypatch, m, seed, sym, bath):
    # both searches see the same d values (shared here to halve the cost)
    # but count their own evaluations; below the top one, the ladder's rungs
    # come in chains of 20 for the product bath, and of 2 at M = 3 and 1 at
    # M = 4 for the maximally mixed bath, so the ladder also evaluates the
    # rungs past the floor to the end of the floor rung's chain
    real_distance = q.scaling.qdd_distance
    memo = {}

    def shared_distance(parts, ket, n_x, n_z, tau, evolver=None):
        key = (n_x, n_z, tau)
        if key not in memo:
            memo[key] = real_distance(parts, ket, n_x, n_z, tau, evolver)
        return memo[key]

    _fake_both(monkeypatch, shared_distance)
    spec = _spec(seed, sym, bath, cells=range(4), m=m)
    parts = q.build_hamiltonian(spec.couplings)
    evolver = q.TogglingEvolver(parts)
    ket = q.make_states(bath, m, spec.directions)
    per_chain = 20 if bath is q.BathKind.PRODUCT else {3: 2, 4: 1}[m]
    for n_x in range(4):
        for n_z in range(4):
            outcomes = []
            for search in (q.scaling._fit_cell, two_walk_fit):
                sampler = _CellSampler(parts, ket, n_x, n_z, evolver)
                try:
                    fit, kept = search(sampler, spec)
                    outcome = (fit, kept[:2].tolist())
                except WindowFailureError as err:
                    # each names its own evaluations, and the ladder's rungs
                    # past the floor may widen its d range
                    ds = [row[1] for row in sampler.cache.values()]
                    assert err.d_range == (min(ds), max(ds)), (n_x, n_z)
                    assert str(err).endswith(f" over {len(ds)} d evaluations"), (n_x, n_z)
                    outcome = err.args[0]
                outcomes.append((outcome, len(sampler.cache)))
            floor = next(
                j for j in range(MAX_HALVINGS + 1)
                if memo[(n_x, n_z, TAU_START / 2**j)].d <= spec.d_lo
            )
            past_floor = min(floor + -floor % per_chain, MAX_HALVINGS) - floor
            (ladder, ladder_count), (two_walk, two_walk_count) = outcomes
            assert ladder == two_walk, (n_x, n_z)
            assert ladder_count == two_walk_count + past_floor, (n_x, n_z)


def test_exponent_table_deterministic_across_worker_counts():
    # the isotropic, maximally mixed model shares two parity sectors with
    # real overlaps between the worker threads
    for model in (
        {},
        {"sym": q.SymmetryClass.ISOTROPIC, "bath": q.BathKind.MAXIMALLY_MIXED, "m": 4},
    ):
        spec1 = _spec(**model)
        spec1.workers = 1
        spec4 = _spec(**model)
        spec4.workers = 4
        t1 = q.exponent_table(spec1)
        t4 = q.exponent_table(spec4)
        assert t1.to_csv() == t4.to_csv()
        for cell in t1.cells:
            assert t1.cells[cell].zeta == t4.cells[cell].zeta
            assert t1.cells[cell].window == t4.cells[cell].window


def test_table_csv_layout():
    table = q.exponent_table(_spec())
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "nz\\nx,0,1"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    # two decimals per design
    cell = lines[1].split(",")[1]
    assert len(cell.split(".")[1]) == 2


def test_cell_json_bundle_fields():
    spec = _spec()
    res = q.sweep_cell(spec, 1, 1)
    doc = res.to_json_dict(spec)
    assert doc["seed"] == PRIMARY_SEED
    assert doc["symmetry_class"] == "anisotropic"
    assert doc["bath_kind"] == "product"
    assert doc["n_x"] == 1 and doc["n_z"] == 1
    assert doc["r_squared"] >= 0.999
    assert len(doc["points"]) == len(res.points)
    assert set(doc["points"][0]) == {"tau", "d", "dx", "dy", "dz"}


def test_cell_json_bundle_of_a_numpy_seed_round_trips():
    # a NumPy integer seed draws the same couplings and is written as a JSON int
    couplings = q.random_couplings(np.uint64(3), 2)
    spec = q.SweepSpec(couplings, q.BathKind.PRODUCT, q.default_directions(2), (1,), (1,))
    cell = q.exponent_table(spec).cells[(1, 1)]
    doc = cell.to_json_dict(spec)
    assert json.loads(json.dumps(doc)) == doc
    assert type(doc["seed"]) is int and doc["seed"] == 3


def test_kept_points_print_as_the_results_they_were_built_from():
    spec = _spec()
    parts = q.build_hamiltonian(spec.couplings)
    evolver = q.TogglingEvolver(parts)
    ket = q.make_states(spec.bath_kind, spec.couplings.m, spec.directions)
    res = q.sweep_cell(spec, 1, 1, parts=parts, evolver=evolver)
    assert not res.kept.flags.writeable
    assert all(type(p) is DistanceResult for p in res.points)
    direct = [q.qdd_distance(parts, ket, 1, 1, tau, evolver) for tau in res.kept[0]]
    assert q.series_csv(res.points) == q.series_csv(direct)
    doc = res.to_json_dict(spec)
    listed = [
        {"tau": p.tau, "d": p.d, "dx": p.d_gamma[0], "dy": p.d_gamma[1], "dz": p.d_gamma[2]}
        for p in direct
    ]
    assert json.dumps(doc, indent=2) == json.dumps({**doc, "points": listed}, indent=2)


def test_finished_table_holds_no_distance_results():
    # a table keeps its points as arrays, so it does not grow by an object
    # per point; walk everything it references, short of types and modules
    table = q.exponent_table(_spec(cells=(0, 1, 2, 3)))
    assert len(table.cells) == 16
    seen, stack, arrays, found = set(), [table], 0, 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        arrays += isinstance(obj, np.ndarray)
        found += isinstance(obj, DistanceResult)
        stack.extend(gc.get_referents(obj))
    assert arrays >= 16  # the walk reached every cell's kept points
    assert found == 0


def test_a_finished_cell_is_compact():
    # every cell of a kept table holds no instance dict and no window beside
    # its kept points, and those are one read-only array that owns its memory
    res = q.sweep_cell(_spec(), 1, 1)
    assert not hasattr(res, "__dict__")
    kept = res.kept
    assert kept.base is None and kept.flags.c_contiguous and not kept.flags.writeable
    assert res.window == (kept[0, 0], kept[0, -1])
    assert all(type(tau) is float for tau in res.window)
    assert pickle.loads(pickle.dumps(res)) == res


def test_geometric_grid_policy():
    spec = _spec()
    spec.tau_grid = q.GeometricGrid(3e-4, 3e-2, points=12)
    res = q.sweep_cell(spec, 1, 1)
    assert res.zeta == pytest.approx(2.0, abs=0.15)


def test_sweep_cell_window_failure_surfaces():
    # all-zero couplings give d identically zero: no usable window
    c = q.random_couplings(1, 2)
    for key in c.j0:
        c.j0[key] = np.zeros((3, 3))
    for key in c.j1:
        c.j1[key] = np.zeros((3, 3))
    spec = q.SweepSpec(
        couplings=c,
        bath_kind=q.BathKind.MAXIMALLY_MIXED,
    )
    with pytest.raises(WindowFailureError) as exc:
        q.sweep_cell(spec, 1, 1)
    lo, hi = exc.value.d_range
    table = q.exponent_table(
        q.SweepSpec(
            couplings=c,
            bath_kind=q.BathKind.MAXIMALLY_MIXED,
            n_x_values=(1,),
            n_z_values=(1,),
            )
    )
    assert (1, 1) in table.failures
    assert "nan" in table.to_csv()
    # the message names what was reached: the d range and the evaluations
    message = table.failures[(1, 1)]
    assert f"d in [{lo:.3e}, {hi:.3e}]" in message
    assert re.search(r"over \d+ d evaluations", message)


def test_adaptive_grid_needs_six_points():
    for points in (0, 5):
        with pytest.raises(ValueError, match="an adaptive grid needs at least 6 points"):
            q.AdaptiveGrid(points=points)
    assert q.AdaptiveGrid(points=6).points == 6


def test_grids_need_an_integer_point_count():
    # a float count used to pass and fail every cell of a table later
    for points in (6.5, 8.0, "8"):
        with pytest.raises(ValueError, match="an adaptive grid needs"):
            q.AdaptiveGrid(points=points)
        with pytest.raises(ValueError, match="a geometric grid needs"):
            q.GeometricGrid(1e-3, 1e-1, points)
    assert len(q.GeometricGrid(1e-3, 1e-1, np.int64(6)).taus()) == 6
    assert q.AdaptiveGrid(points=np.int32(7)).points == 7


def test_kept_points_are_the_points_the_fit_used():
    # the drop-last guard leaves the largest-tau point out of this fit, so
    # that point must leave the kept points too
    t = 0.13625841381159226
    spec = _spec()
    spec.tau_grid = q.GeometricGrid(t / 30, t, 12)
    res = q.sweep_cell(spec, 1, 1)
    parts = q.build_hamiltonian(spec.couplings)
    ket = q.make_states(spec.bath_kind, 3, spec.directions)
    taus = spec.tau_grid.taus()
    ds = [q.qdd_distance(parts, ket, 1, 1, tau).d for tau in taus]
    fit = q.fit_exponent(taus, ds, spec.d_lo, spec.d_hi)
    inside = sum(spec.d_lo <= d <= spec.d_hi for d in ds)
    assert fit.n_points == inside - 1  # the guard fired
    assert res.window == fit.window
    assert (res.kept[0, 0], res.kept[0, -1]) == res.window
    assert res.kept.shape[1] == len(res.points) == fit.n_points
    assert _refit(res, spec) == _fit_of(res)


def _refit(res, spec):
    """The fit of `res`'s kept points alone, over the spec's d window."""
    return q.fit_exponent(res.kept[0], res.kept[1], spec.d_lo, spec.d_hi)


def _fit_of(res):
    """The accepted fit of `res`, with the kept points as its point count."""
    n = res.kept.shape[1]
    return q.scaling.FitResult(res.zeta, res.zeta_stderr, res.r_squared, res.window, n)


@pytest.mark.parametrize("bath", list(q.BathKind))
def test_adaptive_kept_points_alone_give_the_fit(bath):
    # kept holds exactly the points the accepted fit used, so they alone
    # reproduce it bit for bit
    spec = _spec(bath=bath, cells=range(4))
    table = q.exponent_table(spec)
    assert len(table.cells) == 16
    for res in table.cells.values():
        assert _refit(res, spec) == _fit_of(res)


@pytest.mark.parametrize(
    "d_small", [lambda tau: 1.0, lambda tau: 1e-6 * (1 + 0.5 * np.sin(1e5 * tau))]
)
def test_a_fixed_grid_failure_names_the_d_range_and_the_evaluations(monkeypatch, d_small):
    # too few points inside the d window, or a fit below r^2 = 0.999: the one
    # window of a fixed grid fails like any adaptive window
    calls = []
    _fake_both(monkeypatch, _fake_distance(d_small, calls))
    spec = _mixed_spec()
    spec.tau_grid = q.GeometricGrid(1e-6, 1e-5, 16)
    with pytest.raises(WindowFailureError) as exc:
        q.sweep_cell(spec, 1, 1)
    ds = [d_small(tau) for tau in spec.tau_grid.taus()]
    assert exc.value.d_range == (min(ds), max(ds))
    assert str(exc.value) == (
        "no tau window produced an acceptable fit; "
        f"reached d in [{min(ds):.3e}, {max(ds):.3e}] over 16 d evaluations"
    )
    assert len(calls) == 16
    # the failure keeps its arguments, so it survives a pickle round trip
    restored = pickle.loads(pickle.dumps(exc.value))
    assert (str(restored), restored.d_range) == (str(exc.value), exc.value.d_range)


#: Per cell of the M = 4 tables on draw 42: the d evaluations, and the kept
#: taus as geomspace(TAU_START / 2**a, TAU_START / 2**b, 20)[i:] for (a, b, i).
#: The kept taus were read off the tables as they were computed one duration
#: at a time. A product cell walks its ladder in chains of 20 rungs below the
#: top one, to the end of the chain that holds its floor rung 2**-a: 21 rungs
#: for a <= 20, 41 for a <= 40, and then the window's 18 inner points.
PINNED_TABLES = {
    (q.SymmetryClass.ANISOTROPIC, q.BathKind.PRODUCT): {
        (0, 0): (59, (37, 27, 1)), (0, 1): (59, (35, 25, 1)), (0, 2): (59, (35, 25, 1)),
        (0, 3): (59, (35, 25, 1)), (1, 0): (59, (35, 25, 1)), (1, 1): (39, (18, 13, 1)),
        (1, 2): (39, (18, 13, 1)), (1, 3): (39, (18, 13, 1)), (2, 0): (59, (35, 25, 1)),
        (2, 1): (39, (17, 12, 2)), (2, 2): (39, (13, 9, 5)), (2, 3): (39, (13, 9, 5)),
        (3, 0): (59, (35, 25, 1)), (3, 1): (39, (17, 12, 3)), (3, 2): (39, (11, 8, 3)),
        (3, 3): (39, (9, 7, 2)),
    },
    (q.SymmetryClass.ISOTROPIC, q.BathKind.MAXIMALLY_MIXED): {
        (0, 0): (38, (19, 14, 1)), (0, 1): (38, (19, 14, 3)), (0, 2): (38, (19, 14, 3)),
        (0, 3): (38, (19, 14, 3)), (1, 0): (38, (19, 14, 3)), (1, 1): (28, (9, 7, 1)),
        (1, 2): (28, (9, 7, 2)), (1, 3): (28, (9, 7, 2)), (2, 0): (38, (19, 14, 3)),
        (2, 1): (28, (9, 6, 5)), (2, 2): (25, (6, 5, 6)), (2, 3): (25, (6, 5, 6)),
        (3, 0): (38, (19, 14, 3)), (3, 1): (28, (9, 6, 6)), (3, 2): (24, (5, 4, 6)),
        (3, 3): (24, (5, 3, 9)),
    },
}


@pytest.mark.parametrize("sym,bath", list(PINNED_TABLES))
def test_batched_windows_keep_the_evaluations_and_points(monkeypatch, sym, bath):
    # batching a window's durations into one chain changes neither which
    # taus a cell evaluates nor which it keeps
    evaluated = collections.Counter()
    single, batched = q.scaling.qdd_distance, q.scaling.qdd_distances

    def count_one(parts, r, n_x, n_z, tau, evolver=None):
        evaluated[(n_x, n_z)] += 1
        return single(parts, r, n_x, n_z, tau, evolver)

    def count_batch(parts, r, n_x, n_z, taus, evolver=None):
        evaluated[(n_x, n_z)] += len(taus)
        return batched(parts, r, n_x, n_z, taus, evolver)

    monkeypatch.setattr(q.scaling, "qdd_distance", count_one)
    monkeypatch.setattr(q.scaling, "qdd_distances", count_batch)
    table = q.exponent_table(_spec(42, sym, bath, cells=range(4), m=4))
    assert not table.failures
    for cell, (evaluations, (a, b, i)) in PINNED_TABLES[(sym, bath)].items():
        assert evaluated[cell] == evaluations, cell
        taus = np.geomspace(TAU_START / 2**a, TAU_START / 2**b, 20)[i:]
        assert np.array_equal(table.cells[cell].kept[0], taus), cell


def _spy_chains(monkeypatch):
    """Record the number of durations of every `toggling` chain."""
    chains = []
    toggling = q.TogglingEvolver.toggling

    def spy(self, profile, r, taus, *factor):
        chains.append(len(taus))
        return toggling(self, profile, r, taus, *factor)

    monkeypatch.setattr(q.TogglingEvolver, "toggling", spy)
    return chains


def test_a_product_window_is_one_chain(monkeypatch):
    chains = _spy_chains(monkeypatch)
    spec = _spec()
    spec.tau_grid = q.GeometricGrid(3e-4, 3e-2, points=16)
    q.sweep_cell(spec, 1, 1)
    assert chains == [16]


@pytest.mark.parametrize("cell,floor", [((0, 0), 37), ((1, 1), 18), ((3, 3), 9)])
def test_a_product_ladder_walks_twenty_rungs_per_chain(monkeypatch, cell, floor):
    # the top rung alone, then chains of 20 rungs, whose 40 columns fill one
    # chain of `qdd_distances`: the chain that holds the floor rung ends the
    # walk; then one chain for the window's 18 new inner points
    chains = []
    toggling = q.TogglingEvolver.toggling

    def spy(self, profile, r, taus, *factor):
        chains.append(list(taus))
        return toggling(self, profile, r, taus, *factor)

    monkeypatch.setattr(q.TogglingEvolver, "toggling", spy)
    sym, bath = q.SymmetryClass.ANISOTROPIC, q.BathKind.PRODUCT
    q.sweep_cell(_spec(42, sym, bath, m=4), *cell)
    rungs = [[TAU_START / 2**j for j in range(start, start + 20)] for start in (1, 21)]
    assert chains[:-1] == [[TAU_START]] + rungs[: 1 + (floor > 20)]
    assert len(chains[-1]) == 18
    assert sum(map(len, chains)) == PINNED_TABLES[(sym, bath)][cell][0]


def test_the_mixed_bath_propagates_one_duration_per_chain(monkeypatch):
    # its 2D columns per duration fill the column budget from M = 4 on
    chains = _spy_chains(monkeypatch)
    sym, bath = q.SymmetryClass.ISOTROPIC, q.BathKind.MAXIMALLY_MIXED
    q.sweep_cell(_spec(42, sym, bath, m=4), 1, 1)
    assert chains == [1] * PINNED_TABLES[(sym, bath)][(1, 1)][0]
