"""Call tracing of qddsim's public functions, installed from outside.

Each traced function is replaced, at the module (or class) attribute where
its callers look it up, by a wrapper that records one span: layer name,
start, end, parent span and the round it belongs to. Spans stay in memory
until the run ends. A layer's self time is its spans' durations minus the
time covered by their child spans, so nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field

import qddsim.evolution as evolution
import qddsim.linalg as linalg
import qddsim.magnus as magnus
import qddsim.metrics as metrics
import qddsim.model as model
import qddsim.scaling as scaling
import qddsim.symmetry as symmetry

# Real floating-point operations of one complex (n x n) @ (n x n) product.
COMPLEX_MATMUL_FLOP = 8


def _segments(args, result):
    evolver, profile = args[:2]
    return len(profile.values)


def _segment_gflop(args, result):
    # exp(-i t H_seg) rebuilt from its eigenvectors, then applied to the
    # running product: two complex (2D)^3 matmuls per segment
    evolver, profile = args[:2]
    n = 2 * evolver.parts.bath_dim
    return len(profile.values) * 2 * COMPLEX_MATMUL_FLOP * n**3 / 1e9


def _kept_points(args, result):
    return len(result.points)


#: (owner, attribute, layer). Owners are the modules (or the class) through
#: which qddsim's own callers and the benchmark look each function up.
TRACED = (
    (model, "build_hamiltonian", "model.build"),
    (scaling, "build_hamiltonian", "model.build"),
    (evolution, "herm_eigensystem", "evolution.eig"),
    (magnus, "herm_eigensystem", "evolution.eig"),
    (linalg, "herm_eigensystem", "evolution.eig"),  # reached through herm_expm
    (evolution.TogglingEvolver, "toggling", "evolution.propagate"),
    (evolution.TogglingEvolver, "bath_unitary", "evolution.bath_unitary"),
    (metrics, "frame_reduced_distance", "metrics.reduce"),
    (metrics, "qdd_schedule", "sequence.schedule"),
    (metrics, "switching_profile", "sequence.schedule"),
    (evolution, "qdd_schedule", "sequence.schedule"),
    (evolution, "switching_profile", "sequence.schedule"),
    (magnus, "qdd_schedule", "sequence.schedule"),
    (magnus, "switching_profile", "sequence.schedule"),
    (metrics, "qdd_distance", "scaling.d_eval"),
    (scaling, "qdd_distance", "scaling.d_eval"),
    (scaling, "sweep_cell", "scaling.cell"),
    (scaling, "fit_exponent", "scaling.fit"),
    (evolution, "qdd_decomposition", "symmetry.decompose"),
    (evolution, "pauli_decompose", "symmetry.decompose"),
    (symmetry, "symmetry_report", "symmetry.report"),
    (symmetry, "b_coefficients", "symmetry.b_coeff"),
    (symmetry, "rotation_parities", "symmetry.parity"),
    (symmetry, "t_residual", "symmetry.t_residual"),
    (magnus, "nested_integrals", "magnus.integrals"),
    (magnus, "cumulant3", "magnus.cumulant3"),
    (magnus, "magnus_order_check", "magnus.order_check"),
)

#: Extra per-span quantities, computed from the call's positional arguments
#: and its result.
COUNTERS = {
    "evolution.propagate": {"segments": _segments, "gflop": _segment_gflop},
    "scaling.cell": {"kept": _kept_points, "fitted": lambda args, result: 1},
}


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    round: int | None = None
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Wraps the functions in TRACED while installed; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round: int | None = None
        self._stack = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in TRACED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, fn, layer: str):
        counters = COUNTERS.get(layer, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack.__dict__.setdefault("spans", [])
            span = Span(
                layer=layer,
                start=0.0,
                parent=stack[-1] if stack else None,
                round=self.round,
            )
            index = len(self.spans)
            self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_time += span.duration
            for name, counter in counters.items():
                span.counts[name] = counter(args, result)
            return result

        return traced

    def layer_totals(self, round_index: int | None) -> dict[str, dict[str, float]]:
        """Per layer: self time, calls, inclusive time and summed counters."""
        totals: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.round != round_index:
                continue
            entry = totals.setdefault(
                span.layer, {"self_s": 0.0, "calls": 0, "inclusive_s": 0.0}
            )
            entry["self_s"] += span.self_time
            entry["calls"] += 1
            if span.parent is None or self.spans[span.parent].layer != span.layer:
                entry["inclusive_s"] += span.duration
            for name, value in span.counts.items():
                entry[name] = entry.get(name, 0) + value
        return totals

    def root_time(self, round_index: int) -> float:
        """Time of the round covered by spans that have no parent span."""
        return sum(
            span.duration for span in self.spans
            if span.round == round_index and span.parent is None
        )

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "layer": span.layer,
                            "parent": span.parent,
                            "round": span.round,
                            "start": span.start,
                            "end": span.end,
                            "self_s": span.self_time,
                            **span.counts,
                        }
                    )
                    + "\n"
                )
