"""Benchmark of the qddsim pipeline: one workload, one fresh process.

Usage, from the root of a qddsim checkout:

    python3 perfbench/run.py --workload table-product --seed 1 --seconds 24 --trace 0

Set-up is measured several times: in set-up probes (fresh processes that
only import qddsim and draw the inputs) and in the measuring process. The
measuring process then runs whole rounds of the workload for `--seconds`,
checks every output, and reports. With `--trace 0` the last line of
standard output holds the end-to-end metrics, with `--trace 1` the
per-layer ones; both with the operations attempted and failed. A human
summary goes to standard error, and the full record (environment, every
round time, check notes) to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
OUT_DIR = Path(".perfbench_out")
WORKER = HERE / "worker.py"
#: Every process this run starts must end within this many seconds in all.
RUN_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Set-up probes per workload, besides the set-up of the measuring process.
#: Fewer where set-up builds a large model.
SETUP_PROBES = {"table-product": 6, "table-mixed": 6, "series-large": 2, "diagnostics": 6}


def _worker(args, deadline: float, *extra: str) -> tuple[float, dict]:
    """Start one worker, wait for it; return its start instant and its record."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--couplings-seed", str(args.couplings_seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_PROBES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--couplings-seed", type=int, default=42,
        help="coupling draw of every workload (271828 is the held-out second draw)",
    )
    args = parser.parse_args()
    config = json.loads(BENCHMARK.read_text())
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (Path("src") / "qddsim" / "__init__.py").is_file():
        sys.stderr.write("run from the root of a qddsim checkout (src/qddsim is missing)\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES[args.workload]):
                started, probe = _worker(args, deadline, "--setup-only")
                setup_samples.append(probe["setup_done"] - started)
        extra = ("--trace-file", str(OUT_DIR / f"{stem}.spans.jsonl")) if args.trace else ()
        started, record = _worker(args, deadline, *extra)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        sys.stderr.write(f"{args.workload}: {err}\n")
        return 1
    setup_samples.append(record["setup_done"] - started)
    record["setup_s_samples"] = setup_samples

    if args.trace:
        declared, values = config["per_layer"], record["per_layer"]
    else:
        declared = config["end_to_end"]
        values = {
            "solution_s": record["solution_s"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    env = record["environment"]
    sys.stderr.write(
        f"{args.workload} seed={args.seed} couplings={args.couplings_seed}: "
        f"{record['attempted']} operations, {record['failed']} failed, "
        f"{len(record['round_s'])} rounds\n"
        f"  nproc={env['nproc']} usable={env['cpus_usable']} numpy={env['numpy']} "
        f"blas={env['blas']} blas_threads={env['blas_threads']}\n"
    )
    for note in record["notes"]:
        sys.stderr.write(f"  check: {note}\n")
    for name, entry in metrics.items():
        sys.stderr.write(f"  {name:28s} {entry['value']:.6g} {entry['unit']}\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
