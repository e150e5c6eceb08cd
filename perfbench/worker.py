"""Runs one workload in this fresh process and prints its figures as JSON.

Started by run.py, never by hand. Two modes:

- `--setup-only`: set up and report the instant set-up ended (a set-up probe);
- otherwise: set up, run whole rounds of the workload for `--seconds`,
  check every round's outputs, and report timings, peak memory, operation
  counts and, with `--trace 1`, the per-layer figures.
"""

import os

# One BLAS thread, fixed before numpy loads (see README: thread pinning).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import qddsim  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    """Machine, library versions and the BLAS thread count actually in force."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                threads = int(query())
                break
    cpu = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "qddsim": qddsim.__file__,
    }


def run_rounds(workload, inputs, until: float, min_rounds: int, times: list,
               outputs: list, tracer=None) -> list[int]:
    """Whole rounds until the next one would end after `until`; their indices."""
    ran: list[int] = []
    while len(ran) < min_rounds or (
        time.monotonic() + statistics.median(times[i] for i in ran) <= until
    ):
        if tracer is not None:
            tracer.round = len(times)
        start = time.perf_counter()
        outputs.append(workload.run_round(inputs))
        times.append(time.perf_counter() - start)
        ran.append(len(times) - 1)
    return ran


def per_layer(tracer, traced: list[int], plain: list[int], times: list[float]) -> dict:
    """Per-round layer figures of the traced rounds (median over those rounds)."""
    setup = tracer.layer_totals(None)
    rows = []
    for index in traced:
        totals = tracer.layer_totals(index)
        wall = times[index]

        def get(layer, key):
            return totals.get(layer, {}).get(key, 0)

        d_evals = get("scaling.d_eval", "calls")
        row = {
            "model.build_s": get("model.build", "self_s")
            + setup.get("model.build", {}).get("self_s", 0.0),
            "model.build_calls": get("model.build", "calls")
            + setup.get("model.build", {}).get("calls", 0),
            "evolution.eig_s": get("evolution.eig", "self_s"),
            "evolution.eig_calls": get("evolution.eig", "calls"),
            "evolution.propagate_s": get("evolution.propagate", "self_s"),
            "evolution.propagate_calls": get("evolution.propagate", "calls"),
            "evolution.segments": get("evolution.propagate", "segments"),
            "evolution.gflop_computed": get("evolution.propagate", "gflop"),
            "evolution.bath_unitary_s": get("evolution.bath_unitary", "self_s"),
            "metrics.reduce_s": get("metrics.reduce", "self_s"),
            "metrics.reduce_calls": get("metrics.reduce", "calls"),
            "sequence.schedule_s": get("sequence.schedule", "self_s"),
            "sequence.schedule_calls": get("sequence.schedule", "calls"),
            "scaling.d_evals": d_evals,
            "scaling.d_eval_s": get("scaling.d_eval", "inclusive_s"),
            "scaling.kept_ratio": get("scaling.cell", "kept") / d_evals
            if get("scaling.cell", "fitted") else 0.0,
            "scaling.fit_s": get("scaling.fit", "self_s"),
            "scaling.cell_s": get("scaling.cell", "self_s"),
            "scaling.cells_fitted": get("scaling.cell", "fitted"),
            "symmetry.decompose_s": get("symmetry.decompose", "self_s"),
            "symmetry.report_s": get("symmetry.report", "self_s"),
            "symmetry.b_coeff_s": get("symmetry.b_coeff", "self_s"),
            "symmetry.parity_s": get("symmetry.parity", "self_s"),
            "symmetry.t_residual_s": get("symmetry.t_residual", "self_s"),
            "magnus.integrals_s": get("magnus.integrals", "self_s"),
            "magnus.cumulant3_s": get("magnus.cumulant3", "self_s"),
            "magnus.cumulant3_calls": get("magnus.cumulant3", "calls"),
            "magnus.order_check_s": get("magnus.order_check", "self_s"),
            "trace.solution_s": wall,
            "trace.outside_spans_s": wall - tracer.root_time(index),
            "trace.d_coverage": get("scaling.d_eval", "inclusive_s") / wall,
        }
        rows.append(row)
    figures = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    figures["trace.overhead_s"] = (
        statistics.median(times[i] for i in traced) - statistics.median(times[i] for i in plain)
    )
    return figures


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--couplings-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # set-up spans carry round None
    inputs = workload.setup(args.seed, args.couplings_seed)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    env = environment()
    if env["blas_threads"] not in (None, 1):
        sys.stderr.write(f"BLAS runs {env['blas_threads']} threads, expected 1\n")
        return 3

    start = time.monotonic()
    times: list[float] = []
    outputs: list = []
    figures = {}
    if tracer is None:
        plain = run_rounds(workload, inputs, start + args.seconds, 3, times, outputs)
    else:
        tracer.uninstall()
        plain = run_rounds(workload, inputs, start + args.seconds / 2, 1, times, outputs)
        tracer.install()
        traced = run_rounds(workload, inputs, start + args.seconds, 1, times, outputs, tracer)
        tracer.uninstall()
        figures = per_layer(tracer, traced, plain, times)
        if args.trace_file:
            tracer.write(args.trace_file)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_sets, notes = workload.check(inputs, outputs)
    failed = sum(len(f) for f in failed_sets)
    print(json.dumps({
        "setup_done": setup_done,
        "solution_s": statistics.median(times[i] for i in plain),
        "round_s": times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.operations(inputs) * len(outputs),
        "failed": failed,
        # every round checked, and every operation passed its checks
        "correct": len(failed_sets) == len(outputs) and failed == 0,
        "notes": notes,
        "per_layer": figures,
        "environment": env,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
