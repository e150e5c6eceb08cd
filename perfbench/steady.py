"""Steadiness mode: repeat every workload over several seeds and report spread.

Usage, from the root of a qddsim checkout:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--record]

Runs `run.py --trace 0` once per (seed, workload), seeds in the outer loop
so that slow drift of the machine spreads over all workloads. For every
end-to-end metric it prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median, together with
the operations attempted and failed.

`--record` sets each end-to-end bound in BENCHMARK.json to three times the
widest spread any workload showed, rounded up to a hundredth, at least 0.05
and at most 0.25. `setup_s` is short and noisy, so its bound comes from its
own spread and is never smaller than any other bound. It also stores the
figures, with the machine and library details, in perfbench/reference.json,
the reference the README quotes.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
MIN_BOUND, MAX_BOUND = 0.05, 0.25


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=400,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bound_for(spread: float) -> float:
    return min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * spread) / 100))


def main() -> int:
    config = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    if args.runs < 2:
        parser.error("quartiles need at least two runs")

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            started = time.monotonic()
            results[workload].append(run_once(workload, seed, seconds))
            sys.stderr.write(f"{workload} seed {seed}: {time.monotonic() - started:.0f} s\n")

    summary = {}
    for workload, runs in results.items():
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = {"unit": first["unit"], **quartiles(values), "values": values}
        summary[workload] = entry
        shares = {f / a for f, a in zip(entry["failed"], entry["attempted"])}
        print(f"{workload}: {len(runs)} runs, attempted {sum(entry['attempted'])}, "
              f"failed {sum(entry['failed'])}, failed share(s) {sorted(shares)}, "
              f"correct {entry['correct']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:12s} median {m['median']:.4g} {m['unit']}  "
                  f"q1 {m['q1']:.4g}  q3 {m['q3']:.4g}  spread {m['spread']:.4f}")

    if args.record:
        widest = {
            metric["name"]: max(summary[w]["metrics"][metric["name"]]["spread"] for w in workloads)
            for metric in config["end_to_end"]
        }
        bounds = {name: bound_for(spread) for name, spread in widest.items()}
        if "setup_s" in bounds:
            bounds["setup_s"] = max(bounds.values())
        for metric in config["end_to_end"]:
            metric["bound"] = bounds[metric["name"]]
        BENCHMARK.write_text(json.dumps(config, indent=2) + "\n")
        print("bounds:", json.dumps(bounds))

        last = Path(".perfbench_out") / f"{workloads[-1]}-seed{seeds[-1]}-trace0.json"
        environment = json.loads(last.read_text())["environment"]
        environment.pop("qddsim")  # a path on the measuring machine
        REFERENCE.write_text(json.dumps({
            "command": "python3 perfbench/steady.py " + " ".join(sys.argv[1:]),
            "seeds": seeds,
            "seconds": seconds,
            "couplings_seed": 42,
            "environment": environment,
            "workloads": summary,
        }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
