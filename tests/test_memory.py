"""Peak memory of the calls of one `diagnostics` benchmark round.

The round of `perfbench/workloads.py` decomposes 16 cells of two M = 6 models,
writes a symmetry report per cell and bath, and runs the Magnus order checks
of orders 1 to 3. Each call's allocations are traced with `tracemalloc`, from
the memory held when it starts to its peak. A round that keeps its results
adds about 59 KB to the resident set, so a faster round leaves the benchmark's
`peak_rss_mb` with less room for the temporaries of a single call: the
largest of them must stay at or below PEAK_LIMIT.
"""

import sys
import tracemalloc
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import qddsim.evolution as evolution  # noqa: E402
import qddsim.magnus as magnus  # noqa: E402
import qddsim.symmetry as symmetry  # noqa: E402

#: Most bytes one call of a diagnostics round may allocate above what it starts with.
PEAK_LIMIT = 2.0 * 2**20


def test_diagnostics_calls_peak_below_the_limit(monkeypatch):
    import workloads

    peaks = {}

    def traced(name, fn):
        def call(*args, **kwargs):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - held
            peaks[name] = max(peaks.get(name, 0), peak)
            return result

        return call

    for module, name in (
        (evolution, "qdd_decomposition"),
        (symmetry, "symmetry_report"),
        (magnus, "magnus_order_check"),
    ):
        monkeypatch.setattr(module, name, traced(name, getattr(module, name)))
    workload = workloads.WORKLOADS["diagnostics"]
    inputs = workload.setup(1, 42)
    tracemalloc.start()
    try:
        workload.run_round(inputs)
    finally:
        tracemalloc.stop()
    assert set(peaks) == {"qdd_decomposition", "symmetry_report", "magnus_order_check"}
    assert max(peaks.values()) <= PEAK_LIMIT, {k: round(v / 2**20, 3) for k, v in peaks.items()}
