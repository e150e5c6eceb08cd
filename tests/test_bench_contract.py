"""The benchmark's tracer must still find every qddsim attribute it wraps.

`perfbench/tracer.py` replaces each (owner, attribute) of its TRACED list
by a timing wrapper and puts the original back afterwards. A refactor that
removes or renames one of those attributes breaks the benchmark's traced
run; these checks catch it in the ordinary test suite, as they catch a
signature change that breaks one of the tracer's per-span counters.
"""

import itertools
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import qddsim as q  # noqa: E402
import qddsim.metrics as metrics  # noqa: E402
import tracer  # noqa: E402


def test_every_traced_attribute_exists():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in tracer.TRACED
        if attr not in owner.__dict__
    ]
    assert not missing


def test_install_then_uninstall_restores_originals():
    originals = [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED]
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        t.uninstall()
    restored = [owner.__dict__[attr] for owner, attr, _ in tracer.TRACED]
    assert all(r is o for r, o in zip(restored, originals))


def test_traced_propagation_counts_every_segment():
    # the product bath propagates only the ket's columns, through the same
    # traced `toggling`, so its span must count the same segments; an
    # isotropic model propagates its two parity sectors in that one span,
    # after one traced eigensystem per sector, and for even M the mixed
    # bath carries one piece of the R_x orbit there (M = 4 added to M = 2)
    profile = q.switching_profile(q.qdd_schedule(3, 3, 0.5))
    cases = [
        (2, symmetry_class, eigensystems, bath)
        for (symmetry_class, eigensystems), bath in itertools.product(
            [(q.SymmetryClass.ANISOTROPIC, 1), (q.SymmetryClass.ISOTROPIC, 2)],
            [q.BathKind.MAXIMALLY_MIXED, q.BathKind.PRODUCT],
        )
    ] + [(4, q.SymmetryClass.ISOTROPIC, 2, q.BathKind.MAXIMALLY_MIXED)]
    for m, symmetry_class, eigensystems, bath in cases:
        directions = q.default_directions(m) if bath is q.BathKind.PRODUCT else None
        ket = q.make_states(bath, m, directions)
        parts = q.build_hamiltonian(q.random_couplings(42, m, symmetry_class))
        t = tracer.Tracer()
        try:
            t.install()
            metrics.qdd_distance(parts, ket, 3, 3, 0.5)
        finally:
            t.uninstall()
        totals = t.layer_totals(None)
        assert totals["scaling.d_eval"]["calls"] == 1
        assert totals["evolution.eig"]["calls"] == eigensystems
        assert totals["evolution.propagate"]["calls"] == 1
        assert totals["evolution.propagate"]["segments"] == len(profile.values) == 16
        assert totals["metrics.reduce"]["calls"] == totals["evolution.propagate"]["calls"]


def test_traced_table_counts_its_layers():
    # the benchmark's traced run divides by the scaling.d_eval calls of a
    # round, so a table must still make them: one per cell, its lone top
    # rung, besides the batched ladder chains and windows; every propagation
    # span, batched or not, counts the segments of its chain
    spec = q.SweepSpec(
        couplings=q.random_couplings(42, 4, q.SymmetryClass.ANISOTROPIC),
        bath_kind=q.BathKind.PRODUCT,
        directions=q.default_directions(4),
    )
    t = tracer.Tracer()
    try:
        t.install()
        table = q.exponent_table(spec)
    finally:
        t.uninstall()
    assert not table.failures
    totals = t.layer_totals(None)
    assert totals["scaling.d_eval"]["calls"] == 16
    assert totals["scaling.cell"]["fitted"] == 16
    # per cell the top rung, one or two chains of 20 ladder rungs and the
    # window; each chain is reduced in one traced call
    assert totals["evolution.propagate"]["calls"] == 55
    assert totals["metrics.reduce"]["calls"] == totals["evolution.propagate"]["calls"]
    segments = {(n_x + 1) * (n_z + 1) for n_x in range(4) for n_z in range(4)}
    spans = [span for span in t.spans if span.layer == "evolution.propagate"]
    assert spans and all(span.counts["segments"] in segments for span in spans)


def test_table_workload_setups_build_their_specs():
    # the table workloads build a SweepSpec in set-up, from shuffled pulse-count
    # lists with workers=1, so a stricter SweepSpec check breaks them there;
    # the set-ups take about a millisecond, their rounds are not run
    import workloads

    for name in ("table-product", "table-mixed"):
        spec = workloads.WORKLOADS[name].setup(1, 42)["spec"]
        assert sorted(spec.n_x_values) == sorted(spec.n_z_values) == [0, 1, 2, 3]
        assert (spec.workers, spec.couplings.m, spec.couplings.seed) == (1, 6, 42)


def test_direct_workload_rounds_run():
    # series-large and diagnostics call make_states, qdd_distance and
    # symmetry_report themselves, so a signature change breaks their rounds;
    # the series check runs a scipy lab-frame oracle of several seconds and
    # stays out, the diagnostics check runs in full
    import workloads

    for name in ("series-large", "diagnostics"):
        workload = workloads.WORKLOADS[name]
        inputs = workload.setup(1, 42)
        result = workload.run_round(inputs)
        if name == "diagnostics":
            failed, notes = workload.check(inputs, [result])
            assert failed == [set()], notes
        else:
            assert len(result) == len(inputs["taus"])
